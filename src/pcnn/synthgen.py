"""Synthetic dataset generation for desk-scale experiments.

Class centroids are grouped: group centers sit far apart, centroids within
a group sit just above the requested separation. That makes some class
pairs genuinely confusable (hard negatives differ from random ones) while
keeping every pairwise centroid distance >= s.

Records are class-major within a split and their ids are their row numbers;
each split's token noise is one draw, so record i's grid is the i-th
(T, D) block of one seeded stream.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .embedstore import build_store
from .validate import check_ints


@dataclass
class SyntheticSpec:
    classes: int = 20
    train_per_class: int = 30
    test_per_class: int = 30
    depth: int = 64
    tokens: int = 4
    separation: float = 1.0
    group_spread: float = 8.0  # group-center distance as a multiple of separation
    groups: int = 5
    token_noise: float = 0.35
    tau: float = 2.5
    corruption_rate: float = 0.3
    corruption_q: int = 2  # swap partner drawn from the top-Q of this Q

    def __post_init__(self):
        check_ints(self, classes=2, depth=1, tokens=1, train_per_class=1,
                   test_per_class=0, groups=1)
        if self.groups > self.classes:
            raise ValueError("groups must be in 1..classes")
        for name in ("separation", "group_spread"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 <= self.token_noise < math.inf:
            raise ValueError("token_noise must be finite and >= 0")


def _min_distance(points):
    """Smallest L2 distance between two rows of `points`."""
    return min(float(np.linalg.norm(a - b)) for a, b in itertools.combinations(points, 2))


def _spread_points(rng, n, d, min_dist):
    """Random directions rescaled so the closest pair sits at min_dist."""
    pts = rng.normal(size=(n, d))
    if n == 1:
        return pts
    return pts * (min_dist / _min_distance(pts))


def make_centroids(spec, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCE27]))
    group_centers = _spread_points(
        rng, spec.groups, spec.depth, spec.separation * spec.group_spread
    )
    groups = np.array_split(np.arange(spec.classes), spec.groups)
    centroids = np.concatenate([
        center + _spread_points(rng, len(group), spec.depth, spec.separation * 1.2)
        for center, group in zip(group_centers, groups)
    ])
    # enforce the global guarantee: min pairwise distance >= separation
    dmin = _min_distance(centroids)
    if dmin < spec.separation:
        centroids *= spec.separation / dmin
    return centroids


def synth_gen(spec, seed):
    """Build (store, centroids) deterministically from (spec, seed)."""
    centroids = make_centroids(spec, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    records, grids = {}, {}
    for split, per_class in (("train", spec.train_per_class), ("test", spec.test_per_class)):
        labels = np.repeat(np.arange(spec.classes), per_class)
        records[split] = list(enumerate(labels.tolist()))
        grids[split] = centroids[labels, None, :] + rng.normal(
            0, spec.token_noise, size=(len(labels), spec.tokens, spec.depth)
        )
    store = build_store(
        dataset="synthetic",
        class_names=[f"class_{i:03d}" for i in range(spec.classes)],
        records=records,
        grids_by_split=grids,
    )
    return store, centroids
