"""Positive / hard-negative pair construction from classifier predictions.

Per query: Q positives (the Q nearest same-class train records, query
excluded when it lives in the train split) and one negative per
non-ground-truth class — top-Q classes in hard mode, uniformly random other
classes in random mode. With the ground truth inside the top-Q this yields
2Q-1 pairs, otherwise 2Q. One `ClassIndex.nearest` call retrieves every
query's positives and one every negative.

Evaluation sets additionally drop pairs whose grids are bitwise identical
and are trimmed (seeded) to an exact 50/50 label balance.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .atomicio import atomic_open
from .classifier import top_q

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


def pairset_rows(store, pairset):
    """Store rows of each pair's query and neighbour grids."""
    rows1 = store.rows(pairset.split, [p.query_id for p in pairset.pairs])
    rows2 = store.rows("train", [p.neighbor_id for p in pairset.pairs])
    return rows1, rows2


def _negatives(config, classes, gts, in_topq, qids, num_classes):
    """(query position, class) of every negative, query by query: the top-Q
    classes other than the ground truth in hard mode; in random mode, other
    classes drawn from a per-query seeded stream."""
    if config.negative_mode == "hard_topQ":
        neg_query, at = (classes != gts[:, None]).nonzero()
        return neg_query, classes[neg_query, at]
    drawn = []
    for qid, gt, hit in zip(qids, gts.tolist(), in_topq.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, qid]))
        others = np.delete(np.arange(num_classes), gt)
        drawn.append(rng.choice(others, size=config.q - 1 if hit else config.q,
                                replace=False))
    neg_query = np.repeat(np.arange(len(qids)), [len(d) for d in drawn])
    return neg_query, np.concatenate([np.empty(0, np.int64), *drawn])


def _sample(store, output, index, config, split):
    ids = store.ids(split)
    queries = store.pooled_all(split)
    gts = store.labels(split)
    classes = top_q(output.probs_for(store, split), config.q).classes
    in_topq = (classes == gts[:, None]).any(axis=1)
    neg_query, neg_class = _negatives(
        config, classes, gts, in_topq, ids.tolist(), store.manifest.num_classes
    )

    positives = index.nearest(queries, gts, config.q, ids if split == "train" else None)
    negatives = index.nearest(queries[neg_query], neg_class, config.nn_rank)[:, -1]

    # each query's positives by rank, then its negatives in class order
    n, q = positives.shape
    query = np.concatenate([np.repeat(np.arange(n), q), neg_query])
    order = np.argsort(query, kind="stable")
    columns = (
        ids[query],
        np.concatenate([positives.ravel(), negatives]),
        np.repeat([POSITIVE, NEGATIVE], [n * q, len(negatives)]),
        np.concatenate([np.repeat(gts, q), neg_class]),
        np.concatenate([np.tile(np.arange(1, q + 1), n),
                        np.full(len(negatives), config.nn_rank)]),
    )
    pairs = list(map(PairSample, *(c[order].tolist() for c in columns)))
    return PairSet(split, config, pairs, dict(zip(ids.tolist(), in_topq.tolist())))


def sample_train(store, output, index, config):
    return _sample(store, output, index, config, "train")


def sample_eval(store, output, index, config):
    """Test-split sampling with identical-grid dedup and exact 50/50 balance."""
    pairset = _sample(store, output, index, config, "test")
    rows1, rows2 = pairset_rows(store, pairset)
    # identical grids have identical pooled vectors: compare the grids of
    # the pooled matches only
    pooled1, pooled2 = store.pooled_all("test")[rows1], store.pooled_all("train")[rows2]
    dup = (pooled1 == pooled2).all(axis=1)
    at = dup.nonzero()[0]
    grids1, grids2 = store.grids("test")[rows1[at]], store.grids("train")[rows2[at]]
    dup[at] = (grids1 == grids2).all(axis=(1, 2))
    keep = ~dup
    label = np.array([p.label for p in pairset.pairs], dtype=np.int64)
    pos = (keep & (label == POSITIVE)).nonzero()[0]
    neg = (keep & (label == NEGATIVE)).nonzero()[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBA1A]))
    target = min(len(pos), len(neg))
    # the construction can leave either side in excess; trim the larger one
    for side in (pos, neg):
        if len(side) > target:
            keep[side[rng.choice(len(side), size=len(side) - target, replace=False)]] = False
    balanced = [p for p, k in zip(pairset.pairs, keep.tolist()) if k]
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
