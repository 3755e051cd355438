"""Probable-class nearest-neighbor re-ranking.

For each query: take the classifier's top-K classes, retrieve the nearest
in-class training records, score each pair with the comparator, and re-rank
either by probability x score (soft, product of experts) or by score alone
(hard). A split is re-ranked as a whole: one `ClassIndex.nearest` call
retrieves every neighbor, one `RerankTable` holds every query's
candidates, neighbors and s scores as arrays, and its final scores
and predictions are derived from them. Also: kNN baselines, sanity checks,
and the top-Q ceiling table.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .atomicio import atomic_open
from .classifier import top_q
from .comparator import score_rows
from .validate import check_ints


@dataclass
class RerankConfig:
    k: int = 10
    n_neighbors: int = 1
    prob_floor: float = 0.0

    def __post_init__(self):
        check_ints(self, k=1, n_neighbors=1)
        if not 0 <= self.prob_floor < 1:
            raise ValueError("probability floor must be in [0, 1)")


_TABLE_ARRAYS = ("query_ids", "classes", "probs", "wanted", "neighbors", "s_scores")


@dataclass(frozen=True)
class RerankTable:
    """Re-ranking of one split, in store order: row i is query query_ids[i],
    column j its j-th top-K class by descending prob, ties by ascending id.

    A class under the probability floor is not `wanted`: its neighbors and
    s score stay 0 and its final score is -inf. Every array is read-only, so
    a soft and a hard table can share them.
    """

    query_ids: np.ndarray  # (n,)
    classes: np.ndarray  # (n, K)
    probs: np.ndarray  # (n, K)
    wanted: np.ndarray  # (n, K) bool, prob at or above the floor
    neighbors: np.ndarray  # (n, K, n_neighbors) train record ids
    s_scores: np.ndarray  # (n, K) mean comparator score over the neighbors
    mode: str  # "soft": final = prob x s; "hard": final = s

    def __post_init__(self):
        if self.mode not in ("soft", "hard"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in _TABLE_ARRAYS:
            getattr(self, name).flags.writeable = False

    def __eq__(self, other):
        """Equal mode, the arrays compared by value."""
        if not isinstance(other, RerankTable):
            return NotImplemented
        return self.mode == other.mode and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _TABLE_ARRAYS)

    def __len__(self):
        return len(self.query_ids)

    @property
    def final(self):
        score = self.probs * self.s_scores if self.mode == "soft" else self.s_scores
        return np.where(self.wanted, score, -np.inf)

    @property
    def predicted(self):
        """Class of the highest final score per query. The columns are in
        (descending prob, ascending id) order, so the first maximum breaks
        ties by prob, then by lower class id."""
        return self.classes[np.arange(len(self)), np.argmax(self.final, axis=1)]

    @property
    def comparator_queries(self):
        return self.wanted.sum(axis=1) * self.neighbors.shape[2]


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


def _candidates(store, index, query_split, output, cfg):
    """Ids of the split's queries in store order, the top-K classes of every
    query with their probabilities, the mask of classes at or above the
    probability floor, and each such class's retrieved neighbors as an
    (n, K, n_neighbors) id array, from one `ClassIndex.nearest` call."""
    probs = output.probs_for(store, query_split)
    pred = top_q(probs, min(cfg.k, probs.shape[1]))
    wanted = ~((cfg.prob_floor > 0) & (pred.probs < cfg.prob_floor))
    queries = store.pooled_all(query_split)
    ids = store.ids(query_split)
    neighbors = np.zeros((*wanted.shape, cfg.n_neighbors), dtype=np.int64)
    at, rank = wanted.nonzero()
    exclude = ids[at] if query_split == "train" else None
    neighbors[at, rank] = index.nearest(queries[at], pred.classes[at, rank],
                                        cfg.n_neighbors, exclude)
    return ids, pred.classes, pred.probs, wanted, neighbors


def rerank_split(store, output, index, scorer, cfg, query_split="test", mode="soft"):
    """Re-rank every query of a split by prob x score ("soft") or by score
    alone ("hard"); all the split's pairs go to one scorer call."""
    ids, classes, probs, wanted, neighbors = _candidates(store, index, query_split,
                                                         output, cfg)
    # pairs in (query, class, neighbor) order; an entry's s score is the
    # mean over its n_neighbors consecutive pairs
    at, rank = wanted.nonzero()
    s_scores = np.zeros(wanted.shape)
    if len(at):
        rows2 = store.rows("train", neighbors[at, rank].ravel())
        scores = scorer.score(np.repeat(at, cfg.n_neighbors), rows2, store=store,
                              query_split=query_split)
        s_scores[at, rank] = scores.reshape(-1, cfg.n_neighbors).mean(axis=1)
    return RerankTable(ids, classes, probs, wanted, neighbors, s_scores, mode)


@dataclass
class RerankReport:
    accuracy_c: float
    accuracy_soft: float  # C x S
    accuracy_hard: float  # C -> S
    mean_comparator_queries: float
    results_soft: RerankTable
    results_hard: RerankTable


def evaluate_rerank(store, output, index, scorer, cfg, query_split="test"):
    """Top-1 accuracy of C alone, C->S (hard), and C x S (soft)."""
    labels = store.labels(query_split)
    soft = rerank_split(store, output, index, scorer, cfg, query_split)
    # hard mode re-ranks the same candidates by the same s scores
    hard = replace(soft, mode="hard")
    # C's prediction is its top-1 class under `top_q`'s ordering
    acc_c = np.mean(soft.classes[:, 0] == labels)
    mean_q = float(np.mean(soft.comparator_queries)) if len(soft) else 0.0
    return RerankReport(
        accuracy_c=float(acc_c),
        accuracy_soft=float(np.mean(soft.predicted == labels)),
        accuracy_hard=float(np.mean(hard.predicted == labels)),
        mean_comparator_queries=mean_q,
        results_soft=soft,
        results_hard=hard,
    )


def save_results(table, path):
    """One JSON line per query: its prediction, comparator query count and
    top-K classes; a class under the probability floor has no neighbors
    and a null s score and final score."""
    columns = (table.classes, table.probs, table.wanted, table.neighbors,
               table.s_scores, table.final)
    rows = zip(table.query_ids.tolist(), table.predicted.tolist(),
               table.comparator_queries.tolist(), *(col.tolist() for col in columns))
    with atomic_open(path) as fh:
        for qid, predicted, count, *row in rows:
            classes = [{"class": c, "prob": p, "neighbors": n if w else [],
                        "s_score": s if w else None, "final": f if w else None}
                       for c, p, w, n, s, f in zip(*row)]
            fh.write(json.dumps({"query": qid, "predicted": predicted,
                                 "comparator_queries": count, "classes": classes}) + "\n")


# ------------------------------------------------------------ baselines


def knn_classify(store, index, scorer, qid, k=20, query_split="test"):
    """k-nearest-neighbor vote over global pooled retrieval, rescored."""
    pooled = store.pooled(query_split, qid)
    exclude = qid if query_split == "train" else None
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


# records per shuffled batch in `sanity_suite`
_SHUFFLE_BATCH = 64


def sanity_suite(model, store, seed=0):
    """Fraction of test pairs scored > 0.5 for self, random-valued and
    shuffled pairs."""
    grids = store.grids("test")
    n = len(grids)
    rng = np.random.default_rng(seed)
    lo, hi = float(grids.min()), float(grids.max())

    rows = np.arange(n)

    def rate(grids2, rows2):
        scores = score_rows(model, grids, rows, grids2, rows2)
        return float(np.mean(scores > 0.5))

    self_rate = rate(grids, rows)
    random_grids = rng.uniform(lo, hi, size=grids.shape)
    random_rate = rate(random_grids, rows)
    # emulate a shuffled dataloader: random order, partner = next in batch;
    # a one-record tail joins the batch before it, or it would pair with itself
    order = rng.permutation(n)
    partner = np.empty(n, dtype=np.int64)
    starts = list(range(0, n, _SHUFFLE_BATCH))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        block = order[lo:hi]
        partner[block] = np.roll(block, -1)
    shuffled_rate = rate(grids, partner)
    return SanityReport(self_rate, random_rate, shuffled_rate)


def topq_ceiling(store, output, q_values, query_split="test"):
    """Cumulative top-Q accuracy table: fraction of queries with gt in top-Q,
    classes ranked by `top_q`."""
    labels = store.labels(query_split)
    probs = output.probs_for(store, query_split)
    order = top_q(probs, probs.shape[1]).classes
    ranks = np.argmax(order == labels[:, None], axis=1)
    return {int(q): float(np.mean(ranks < q)) for q in q_values}
