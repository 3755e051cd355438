"""Classifier outputs: synthetic centroid softmax or precomputed tables.

The synthetic classifier scores class c as softmax(-||pooled(x) - mu_c||^2 / tau)
and can be weakened by a seeded corruption that swaps the top-1 probability
with a uniformly chosen other class among its top-Q.
"""

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .atomicio import atomic_open

PROB_SUM_TOL = 1e-4


class ValidationError(ValueError):
    pass


@dataclass
class TopQPrediction:
    classes: np.ndarray  # (Q,) descending probability
    probs: np.ndarray  # (Q,)


class ClassifierOutput:
    """Probability table for one split, keyed by record id."""

    def __init__(self, split, ids, probs):
        probs = np.asarray(probs, dtype=np.float64)
        ids = list(ids)
        if probs.ndim != 2 or probs.shape[0] != len(ids):
            raise ValidationError(f"probs shape {probs.shape} vs {len(ids)} ids")
        self.split = split
        self.ids = ids
        self.probs = probs
        self._row = {rid: i for i, rid in enumerate(ids)}

    def row(self, record_id):
        return self.probs[self._row[record_id]]

    def validate(self):
        finite = np.isfinite(self.probs).all(axis=1)
        if not finite.all():
            raise ValidationError(f"non-finite probability in row {int(np.argmin(finite))}")
        if np.any(self.probs < 0) or np.any(self.probs > 1):
            bad = int(np.argwhere((self.probs < 0) | (self.probs > 1))[0][0])
            raise ValidationError(f"probability out of [0,1] in row {bad}")
        sums = self.probs.sum(axis=1)
        off = np.abs(sums - 1.0) > PROB_SUM_TOL
        if np.any(off):
            bad = int(np.argmax(off))
            raise ValidationError(f"row {bad} sums to {sums[bad]:.6f}, not 1")
        return self


def top_q(probs, q):
    """Top-Q classes by probability, descending; ties by ascending class id."""
    probs = np.asarray(probs)
    c = probs.shape[-1]
    if not 1 <= q <= c:
        raise ValueError(f"Q={q} out of range 1..{c}")
    order = np.lexsort((np.arange(c), -probs))[:q]
    return TopQPrediction(classes=order.astype(np.int64), probs=probs[order])


class SyntheticClassifier:
    def __init__(self, centroids, tau, corruption_rate=0.0, corruption_q=10, seed=0):
        if tau <= 0:
            raise ValueError(f"temperature must be positive, got {tau}")
        if not 0 <= corruption_rate <= 1:
            raise ValueError("corruption rate must be in [0, 1]")
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.tau = float(tau)
        self.corruption_rate = float(corruption_rate)
        self.corruption_q = int(corruption_q)
        self.seed = int(seed)

    def _probs_for(self, pooled):
        diff = self.centroids - pooled
        logits = -np.einsum("ij,ij->i", diff, diff) / self.tau
        logits -= logits.max()
        e = np.exp(logits)
        return e / e.sum()

    def _corrupt(self, probs, split, record_id):
        split_tag = zlib.crc32(split.encode())
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, split_tag, record_id])
        )
        if rng.random() >= self.corruption_rate:
            return probs
        q = min(self.corruption_q, len(probs))
        if q < 2:
            return probs
        pred = top_q(probs, q)
        partner = pred.classes[1 + rng.integers(q - 1)]
        top1 = pred.classes[0]
        out = probs.copy()
        out[top1], out[partner] = out[partner], out[top1]
        return out

    def predict_split(self, store, split):
        pooled = store.pooled_all(split)
        ids = store.ids(split)
        rows = np.empty((len(ids), self.centroids.shape[0]))
        for i, rid in enumerate(ids):
            rows[i] = self._corrupt(self._probs_for(pooled[i]), split, rid)
        return ClassifierOutput(split, ids, rows).validate()


# ------------------------------------------------------- file roundtrip


def save_outputs(output, matrix_path, sidecar_path):
    mat = output.probs.astype("<f4")
    with atomic_open(matrix_path, "wb") as fh:
        fh.write(mat.tobytes())
    with atomic_open(sidecar_path) as fh:
        json.dump(
            {
                "split": output.split,
                "ids": [int(i) for i in output.ids],
                "classes": int(output.probs.shape[1]),
            },
            fh,
            indent=2,
        )


def load_precomputed(matrix_path, sidecar_path):
    with open(sidecar_path) as fh:
        side = json.load(fh)
    n, c = len(side["ids"]), int(side["classes"])
    raw = np.fromfile(matrix_path, dtype="<f4")
    if raw.size != n * c:
        raise ValidationError(f"matrix has {raw.size} values, expected {n * c}")
    probs = raw.reshape(n, c).astype(np.float64)
    return ClassifierOutput(side["split"], side["ids"], probs).validate()
