"""Positive / hard-negative pair construction from classifier predictions.

Per query: Q positives (the Q nearest same-class train records, query
excluded when it lives in the train split) and one negative per
non-ground-truth class — top-Q classes in hard mode, uniformly random other
classes in random mode. With the ground truth inside the top-Q this yields
2Q-1 pairs, otherwise 2Q.

Evaluation sets additionally drop pairs whose grids are bitwise identical
and are trimmed (seeded) to an exact 50/50 label balance.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .atomicio import atomic_open
from .classifier import top_q
from .nnindex import InsufficientCandidatesError

POSITIVE = 1
NEGATIVE = 0


@dataclass
class SamplerConfig:
    q: int = 10
    nn_rank: int = 1
    negative_mode: str = "hard_topQ"  # or "random_class"
    seed: int = 42

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("Q must be >= 2")
        if self.nn_rank < 1:
            raise ValueError("nn_rank must be >= 1")
        if self.negative_mode not in ("hard_topQ", "random_class"):
            raise ValueError(f"unknown negative_mode {self.negative_mode!r}")


@dataclass
class PairSample:
    query_id: int
    neighbor_id: int
    label: int
    source_class: int
    nn_rank: int


@dataclass
class PairSet:
    split: str
    config: SamplerConfig
    pairs: list
    gt_in_topq: dict = field(default_factory=dict)  # query id -> bool

    def __len__(self):
        return len(self.pairs)

    def positives(self):
        return [p for p in self.pairs if p.label == POSITIVE]

    def negatives(self):
        return [p for p in self.pairs if p.label == NEGATIVE]


def _negative_classes(config, pred, gt, in_topq, qid, num_classes):
    if config.negative_mode == "hard_topQ":
        return [int(c) for c in pred.classes if c != gt]
    want = config.q - 1 if in_topq else config.q
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, qid]))
    others = np.array([c for c in range(num_classes) if c != gt])
    return [int(c) for c in rng.choice(others, size=want, replace=False)]


def _sample(store, output, index, config, split):
    num_classes = store.manifest.num_classes
    qids = store.ids(split)
    queries = store.pooled_all(split)[store.rows(split, qids)]
    gts, neg_classes, gt_flags = [], [], {}
    for qid in qids:
        gt = store.class_of(split, qid)
        pred = top_q(output.row(qid), config.q)
        in_topq = gt in pred.classes
        gts.append(gt)
        neg_classes.append(_negative_classes(config, pred, gt, in_topq, qid, num_classes))
        gt_flags[qid] = in_topq

    # retrieve class by class, for every query that needs the class at once
    gt_arr = np.array(gts, dtype=np.int64)
    positives = np.empty((len(qids), config.q), dtype=np.int64)
    for cid in np.unique(gt_arr).tolist():
        at = (gt_arr == cid).nonzero()[0]
        exclude = np.array(qids, dtype=np.int64)[at] if split == "train" else None
        try:
            positives[at] = index.nearest_k_many(queries[at], cid, config.q, exclude)
        except InsufficientCandidatesError as exc:
            raise InsufficientCandidatesError(
                f"class {cid} too small for {config.q} positives: {exc}"
            ) from exc
    neg_query = np.repeat(np.arange(len(qids)), [len(c) for c in neg_classes])
    neg_class = np.array([c for cs in neg_classes for c in cs], dtype=np.int64)
    negatives = np.empty(len(neg_class), dtype=np.int64)
    for cid in np.unique(neg_class).tolist():
        at = (neg_class == cid).nonzero()[0]
        try:
            hits = index.nearest_k_many(queries[neg_query[at]], cid, config.nn_rank)
        except InsufficientCandidatesError as exc:
            raise InsufficientCandidatesError(
                f"class {cid} too small for negative at rank {config.nn_rank}: {exc}"
            ) from exc
        negatives[at] = hits[:, -1]

    pairs = []
    neg_ids = iter(negatives.tolist())
    for qid, gt, pos_ids, classes in zip(qids, gts, positives.tolist(), neg_classes):
        pairs.extend(
            PairSample(qid, nid, POSITIVE, gt, rank)
            for rank, nid in enumerate(pos_ids, start=1)
        )
        pairs.extend(
            PairSample(qid, next(neg_ids), NEGATIVE, cid, config.nn_rank) for cid in classes
        )
    return PairSet(split, config, pairs, gt_flags)


def sample_train(store, output, index, config):
    return _sample(store, output, index, config, "train")


def sample_eval(store, output, index, config):
    """Test-split sampling with identical-grid dedup and exact 50/50 balance."""
    pairset = _sample(store, output, index, config, "test")
    kept = []
    test_grids, train_grids = store.grids("test"), store.grids("train")
    # pairs come grouped by query: compare each query's grid with its
    # neighbours' grids, gathered once per query
    for qid, group in itertools.groupby(pairset.pairs, key=lambda p: p.query_id):
        group = list(group)
        qg = test_grids[store.rows("test", [qid])[0]]
        ng = train_grids[store.rows("train", [p.neighbor_id for p in group])]
        same = (ng == qg).all(axis=(1, 2))
        kept.extend(p for p, dup in zip(group, same) if not dup)
    pos = [p for p in kept if p.label == POSITIVE]
    neg = [p for p in kept if p.label == NEGATIVE]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBA1A]))
    target = min(len(pos), len(neg))
    # the construction can leave either side in excess; trim the larger one
    for side in (pos, neg):
        if len(side) > target:
            drop = set(rng.choice(len(side), size=len(side) - target, replace=False))
            side[:] = [p for i, p in enumerate(side) if i not in drop]
    balanced = pos + neg
    order = {id(p): i for i, p in enumerate(pairset.pairs)}
    balanced.sort(key=lambda p: order[id(p)])
    return PairSet("test", config, balanced, pairset.gt_in_topq)


@dataclass
class AuditReport:
    expected: int
    actual: int
    violations: list

    @property
    def ok(self):
        return not self.violations and self.expected == self.actual


def pair_count_audit(pairset, query_ids, q):
    """Check total pairs == sum over queries of (2Q-1 if gt in top-Q else 2Q)."""
    per_query = {}
    for p in pairset.pairs:
        per_query[p.query_id] = per_query.get(p.query_id, 0) + 1
    expected = 0
    violations = []
    for qid in query_ids:
        want = 2 * q - 1 if pairset.gt_in_topq.get(qid, False) else 2 * q
        expected += want
        got = per_query.get(qid, 0)
        if got != want:
            violations.append({"query": int(qid), "expected": want, "actual": got})
    return AuditReport(expected=expected, actual=len(pairset.pairs), violations=violations)


# --------------------------------------------------------------- jsonl io


def save_pairs(pairset, path):
    with atomic_open(path) as fh:
        header = {
            "split": pairset.split,
            "q": pairset.config.q,
            "nn_rank": pairset.config.nn_rank,
            "negative_mode": pairset.config.negative_mode,
            "seed": pairset.config.seed,
            "gt_in_topq": {str(k): bool(v) for k, v in pairset.gt_in_topq.items()},
        }
        fh.write(json.dumps(header) + "\n")
        for p in pairset.pairs:
            fh.write(
                json.dumps(
                    [p.query_id, p.neighbor_id, p.label, p.source_class, p.nn_rank]
                )
                + "\n"
            )


def load_pairs(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        pairs = [PairSample(*json.loads(line)) for line in fh if line.strip()]
    config = SamplerConfig(
        q=header["q"],
        nn_rank=header["nn_rank"],
        negative_mode=header["negative_mode"],
        seed=header["seed"],
    )
    flags = {int(k): v for k, v in header["gt_in_topq"].items()}
    return PairSet(header["split"], config, pairs, flags)
