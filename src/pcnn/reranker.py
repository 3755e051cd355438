"""Probable-class nearest-neighbor re-ranking.

For each query: take the classifier's top-K classes, retrieve the nearest
in-class training records, score each pair with the comparator, and re-rank
either by probability x score (soft, product of experts) or by score alone
(hard). Also: kNN baselines, sanity checks, and the top-Q ceiling table.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .atomicio import atomic_open
from .classifier import top_q
from .comparator import score_rows


@dataclass
class RerankConfig:
    k: int = 10
    n_neighbors: int = 1
    prob_floor: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be >= 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if not 0 <= self.prob_floor < 1:
            raise ValueError("probability floor must be in [0, 1)")


@dataclass
class ClassEntry:
    class_id: int
    prob: float
    neighbor_ids: list
    s_score: float  # None when skipped
    final: float  # -inf when skipped


@dataclass
class RankedResult:
    query_id: int
    entries: list  # ClassEntry per top-K class, classifier order
    predicted: int
    comparator_queries: int

    def to_json_obj(self):
        return {
            "query": int(self.query_id),
            "predicted": int(self.predicted),
            "comparator_queries": self.comparator_queries,
            "classes": [
                {
                    "class": int(e.class_id),
                    "prob": e.prob,
                    "neighbors": [int(n) for n in e.neighbor_ids],
                    "s_score": e.s_score,
                    "final": None if e.s_score is None else e.final,
                }
                for e in self.entries
            ],
        }


# ------------------------------------------------------------- scorers
#
# A scorer's `score(rows1, rows2, *, store, query_split)` returns one score
# per pair (store.grids(query_split)[rows1[i]], store.grids("train")[rows2[i]]).


class ModelScorer:
    """Scores pairs with a trained comparator, batched."""

    def __init__(self, model, batch_size=256):
        self.model = model
        self.batch_size = batch_size

    def score(self, rows1, rows2, *, store, query_split):
        """Eval-mode scores; each distinct row goes through the branch once."""
        return score_rows(self.model, store.grids(query_split), rows1,
                          store.grids("train"), rows2, self.batch_size)


class OracleScorer:
    """Ground-truth comparator: 1 iff the pair shares a class."""

    def score(self, rows1, rows2, *, store, query_split):
        same = store.labels(query_split)[rows1] == store.labels("train")[rows2]
        return same.astype(np.float64)


class CosineScorer:
    """Cosine similarity of pooled vectors, mapped from [-1, 1] to [0, 1]."""

    def score(self, rows1, rows2, *, store, query_split):
        a = store.pooled_all(query_split)[rows1]
        b = store.pooled_all("train")[rows2]
        num = np.einsum("ij,ij->i", a, b)
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        cos = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        return 0.5 * (cos + 1.0)


# ------------------------------------------------------------- re-rank


def _candidates(store, index, query_split, qids, output, cfg):
    """Top-K classes of every query with their probabilities, the mask of
    classes at or above the probability floor, and each such class's
    retrieved neighbors as an (n, K, n_neighbors) id array, fetched class by
    class for all the queries that want the class at once."""
    pred = top_q(output.probs_of(qids), min(cfg.k, output.probs.shape[1]))
    wanted = ~((cfg.prob_floor > 0) & (pred.probs < cfg.prob_floor))
    queries = store.pooled_all(query_split)[store.rows(query_split, qids)]
    ids = np.array(qids, dtype=np.int64)
    neighbors = np.zeros((*wanted.shape, cfg.n_neighbors), dtype=np.int64)
    for cid in np.unique(pred.classes[wanted]).tolist():
        at, rank = ((pred.classes == cid) & wanted).nonzero()
        exclude = ids[at] if query_split == "train" else None
        neighbors[at, rank] = index.nearest_k_many(queries[at], cid, cfg.n_neighbors,
                                                   exclude)
    return pred.classes, pred.probs, wanted, neighbors


def _finalize(qid, entries, mode):
    """Final score of every scored entry and the re-ranked prediction."""
    for e in entries:
        if e.s_score is not None:
            e.final = e.prob * e.s_score if mode == "soft" else e.s_score
    # argmax with tie-break: final, then original C probability, then low id
    best = max(entries, key=lambda e: (e.final, e.prob, -e.class_id))
    count = sum(len(e.neighbor_ids) for e in entries)
    return RankedResult(qid, entries, best.class_id, count)


def _rerank_queries(store, output, index, scorer, cfg, qids, query_split, mode):
    """Re-rank the given queries; all their pairs go to one scorer call."""
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown mode {mode!r}")
    classes, probs, wanted, neighbors = _candidates(
        store, index, query_split, qids, output, cfg
    )
    # pairs in (query, class, neighbor) order; an entry's s score is the
    # mean over its n_neighbors consecutive pairs
    at, rank = wanted.nonzero()
    s_scores = np.zeros(wanted.shape)
    if len(at):
        rows1 = store.rows(query_split, qids)[np.repeat(at, cfg.n_neighbors)]
        rows2 = store.rows("train", neighbors[at, rank].ravel().tolist())
        scores = scorer.score(rows1, rows2, store=store, query_split=query_split)
        s_scores[at, rank] = scores.reshape(-1, cfg.n_neighbors).mean(axis=1)
    # a class under the probability floor keeps no neighbors and no s score
    columns = (classes, probs, wanted, neighbors, s_scores)
    results = []
    for qid, *row in zip(qids, *(col.tolist() for col in columns)):
        entries = [ClassEntry(c, p, n if w else [], s if w else None, -np.inf)
                   for c, p, w, n, s in zip(*row)]
        results.append(_finalize(qid, entries, mode))
    return results


def rerank_split(store, output, index, scorer, cfg, query_split="test", mode="soft"):
    """Re-rank every query of a split by prob x score ("soft") or by score
    alone ("hard"); one batched comparator pass."""
    return _rerank_queries(
        store, output, index, scorer, cfg, store.ids(query_split), query_split, mode
    )


def rerank(store, output, index, scorer, cfg, qid, query_split="test", mode="soft"):
    """Single-query re-ranking (same semantics as rerank_split)."""
    return _rerank_queries(store, output, index, scorer, cfg, [qid], query_split, mode)[0]


@dataclass
class RerankReport:
    accuracy_c: float
    accuracy_soft: float  # C x S
    accuracy_hard: float  # C -> S
    mean_comparator_queries: float
    results_soft: list = field(default_factory=list)
    results_hard: list = field(default_factory=list)


def evaluate_rerank(store, output, index, scorer, cfg, query_split="test"):
    """Top-1 accuracy of C alone, C->S (hard), and C x S (soft)."""
    ids, labels = store.ids(query_split), store.labels(query_split)
    soft = rerank_split(store, output, index, scorer, cfg, query_split)
    # hard mode re-ranks the same candidates by the same s scores
    hard = [
        _finalize(r.query_id, [ClassEntry(e.class_id, e.prob, e.neighbor_ids, e.s_score,
                                          -np.inf) for e in r.entries], "hard")
        for r in soft
    ]
    n = len(soft)
    acc_c = np.mean(np.argmax(output.probs_of(ids), axis=1) == labels)
    acc_soft = np.mean(np.array([r.predicted for r in soft], dtype=np.int64) == labels)
    acc_hard = np.mean(np.array([r.predicted for r in hard], dtype=np.int64) == labels)
    mean_q = float(np.mean([r.comparator_queries for r in soft])) if n else 0.0
    return RerankReport(
        accuracy_c=float(acc_c),
        accuracy_soft=float(acc_soft),
        accuracy_hard=float(acc_hard),
        mean_comparator_queries=mean_q,
        results_soft=soft,
        results_hard=hard,
    )


def save_results(results, path):
    with atomic_open(path) as fh:
        for r in results:
            fh.write(json.dumps(r.to_json_obj()) + "\n")


# ------------------------------------------------------------ baselines


def knn_classify(store, index, scorer, qid, k=20, query_split="test"):
    """k-nearest-neighbor vote over global pooled retrieval, rescored."""
    pooled = store.pooled(query_split, qid)
    exclude = {qid} if query_split == "train" else ()
    hits = index.topk_global(pooled, k, exclude=exclude)
    rows1 = store.rows(query_split, [qid] * len(hits))
    rows2 = store.rows("train", [nid for nid, _, _ in hits])
    scores = scorer.score(rows1, rows2, store=store, query_split=query_split)
    votes, score_sum = {}, {}
    for (nid, _, cid), s in zip(hits, scores):
        votes[cid] = votes.get(cid, 0) + 1
        score_sum[cid] = score_sum.get(cid, 0.0) + float(s)
    # majority; ties -> higher mean score, then lower class id
    return max(
        votes,
        key=lambda c: (votes[c], score_sum[c] / votes[c], -c),
    )


# ---------------------------------------------------------- diagnostics


@dataclass
class SanityReport:
    self_pair_rate: float
    random_grid_rate: float
    shuffled_grid_rate: float


def sanity_suite(model, store, query_split="test", seed=0, batch=64):
    """Fraction of pairs scored > 0.5 for self, random-valued, shuffled pairs."""
    ids = store.ids(query_split)
    grids = store.grids(query_split)
    rng = np.random.default_rng(seed)
    lo, hi = float(grids.min()), float(grids.max())

    rows = np.arange(len(ids))

    def rate(grids2, rows2):
        scores = score_rows(model, grids, rows, grids2, rows2)
        return float(np.mean(scores > 0.5))

    self_rate = rate(grids, rows)
    random_grids = rng.uniform(lo, hi, size=grids.shape)
    random_rate = rate(random_grids, rows)
    # emulate a shuffled dataloader: random order, partner = next in batch;
    # a one-record tail joins the batch before it, or it would pair with itself
    order = rng.permutation(len(ids))
    partner = np.empty(len(ids), dtype=np.int64)
    starts = list(range(0, len(ids), batch))
    if len(starts) > 1 and len(ids) - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [len(ids)]):
        block = order[lo:hi]
        partner[block] = np.roll(block, -1)
    shuffled_rate = rate(grids, partner)
    return SanityReport(self_rate, random_rate, shuffled_rate)


def topq_ceiling(store, output, q_values, query_split="test"):
    """Cumulative top-Q accuracy table: fraction of queries with gt in top-Q."""
    labels = store.labels(query_split)
    order = np.argsort(-output.probs_of(store.ids(query_split)), axis=1, kind="stable")
    ranks = np.argmax(order == labels[:, None], axis=1)
    return {int(q): float(np.mean(ranks < q)) for q in q_values}
