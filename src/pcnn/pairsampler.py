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
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import numpy.random  # noqa: F401  loaded at import, not in the first run
import numpy.rec  # noqa: F401  loaded at import, not in the first run

from .atomicio import atomic_open
from .classifier import top_q
from .validate import check_ints

POSITIVE = 1
NEGATIVE = 0
PAIR_FIELDS = ("query_id", "neighbor_id", "label", "source_class", "nn_rank")


@dataclass
class SamplerConfig:
    q: int = 10
    nn_rank: int = 1
    negative_mode: str = "hard_topQ"  # or "random_class"
    seed: int = 42

    def __post_init__(self):
        check_ints(self, q=2, nn_rank=1, seed=0)
        if self.negative_mode not in ("hard_topQ", "random_class"):
            raise ValueError(f"unknown negative_mode {self.negative_mode!r}")


def pair_array(*columns):
    """The pairs of one column per `PAIR_FIELDS` entry, as an int64 record array."""
    return np.rec.fromarrays(columns, dtype=[(name, np.int64) for name in PAIR_FIELDS])


@dataclass
class PairSet:
    split: str
    config: SamplerConfig
    pairs: np.recarray  # `pair_array` records: `pairs.label` a column, `pairs[0]` a record
    gt_in_topq: dict = field(default_factory=dict)  # query id -> bool

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        """Equal fields, the pairs compared by value."""
        if not isinstance(other, PairSet):
            return NotImplemented
        return ((self.split, self.config, self.gt_in_topq)
                == (other.split, other.config, other.gt_in_topq)
                and np.array_equal(self.pairs, other.pairs))

    def positives(self):
        return self.pairs[self.pairs.label == POSITIVE]

    def negatives(self):
        return self.pairs[self.pairs.label == NEGATIVE]


def pairset_rows(store, pairset):
    """Store rows of each pair's query and neighbour grids."""
    return (store.rows(pairset.split, pairset.pairs.query_id),
            store.rows("train", pairset.pairs.neighbor_id))


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
    pairs = pair_array(*(c[order] for c in columns))
    return PairSet(split, config, pairs, dict(zip(ids.tolist(), in_topq.tolist())))


def sample_train(store, output, index, config):
    return _sample(store, output, index, config, "train")


def sample_eval(store, output, index, config):
    """Test-split sampling with identical-grid dedup and exact 50/50 balance."""
    pairset = _sample(store, output, index, config, "test")
    rows1, rows2 = pairset_rows(store, pairset)
    # identical grids have identical pooled vectors: narrow the pairs by the
    # first pooled column, then by the whole pooled vector, and compare the
    # grids of what is left, so no (pairs, D) array is gathered for all pairs
    pooled1, pooled2 = store.pooled_all("test"), store.pooled_all("train")
    at = (pooled1[rows1, 0] == pooled2[rows2, 0]).nonzero()[0]
    at = at[(pooled1[rows1[at]] == pooled2[rows2[at]]).all(axis=1)]
    at = at[(store.grids("test")[rows1[at]] == store.grids("train")[rows2[at]]).all(axis=(1, 2))]
    keep = np.ones(len(rows1), dtype=bool)
    keep[at] = False
    pos = (keep & (pairset.pairs.label == POSITIVE)).nonzero()[0]
    neg = (keep & (pairset.pairs.label == NEGATIVE)).nonzero()[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBA1A]))
    target = min(len(pos), len(neg))
    # the construction can leave either side in excess; trim the larger one
    for side in (pos, neg):
        if len(side) > target:
            keep[side[rng.choice(len(side), size=len(side) - target, replace=False)]] = False
    return PairSet("test", config, pairset.pairs[keep], pairset.gt_in_topq)


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
    seen, counts = np.unique(pairset.pairs.query_id, return_counts=True)
    per_query = dict(zip(seen.tolist(), counts.tolist()))
    expected = 0
    violations = []
    for qid in query_ids:
        want = 2 * q - 1 if pairset.gt_in_topq.get(qid, False) else 2 * q
        expected += want
        got = per_query.get(qid, 0)
        if got != want:
            violations.append({"query": int(qid), "expected": want, "actual": got})
    return AuditReport(expected=expected, actual=len(pairset), violations=violations)


# --------------------------------------------------------------- jsonl io


def save_pairs(pairset, path):
    with atomic_open(path) as fh:
        header = {
            "split": pairset.split,
            **asdict(pairset.config),
            "gt_in_topq": {str(k): bool(v) for k, v in pairset.gt_in_topq.items()},
        }
        fh.write(json.dumps(header) + "\n")
        fh.writelines(json.dumps(row) + "\n" for row in pairset.pairs.tolist())


def load_pairs(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh if line.strip()]
    config = SamplerConfig(**{f.name: header[f.name] for f in fields(SamplerConfig)})
    flags = {int(k): v for k, v in header["gt_in_topq"].items()}
    columns = np.array(rows, dtype=np.int64).reshape(-1, len(PAIR_FIELDS)).T
    return PairSet(header["split"], config, pair_array(*columns), flags)
