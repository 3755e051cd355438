"""Probable-class nearest-neighbor re-ranking.

For each query: take the classifier's top-K classes, retrieve the nearest
in-class training records, score each pair with the comparator, and re-rank
either by probability x score (soft, product of experts) or by score alone
(hard). Also: kNN baselines, sanity checks, and the top-Q ceiling table.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import top_q
from .comparator import score_rows


@dataclass
class RerankConfig:
    k: int = 10
    n_neighbors: int = 1
    mode: str = "soft"  # or "hard"
    prob_floor: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be >= 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.mode not in ("soft", "hard"):
            raise ValueError(f"unknown mode {self.mode!r}")
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


def _first_rows(ids):
    """Row of each id's first occurrence, one entry per id."""
    _, first, at = np.unique(ids, return_index=True, return_inverse=True)
    return first[at]


class ModelScorer:
    """Scores pairs with a trained comparator, batched."""

    def __init__(self, model, batch_size=256):
        self.model = model
        self.batch_size = batch_size

    def score(self, grids1, grids2, meta=None):
        """Eval-mode scores of the pairs (grids1[i], grids2[i]).

        `meta`, when given, holds each row's (query id, neighbour id): rows
        with the same query id must carry the same grids1 grid, rows with the
        same neighbour id the same grids2 grid, and each distinct record
        goes through the comparator's branch once. Without `meta` every row
        counts as distinct. The scores do not depend on `meta`.
        """
        if meta is None:
            rows1 = rows2 = np.arange(len(grids1))
        else:
            rows1 = _first_rows([q for q, _ in meta])
            rows2 = _first_rows([n for _, n in meta])
        return score_rows(self.model, grids1, rows1, grids2, rows2, self.batch_size)


class OracleScorer:
    """Ground-truth comparator: 1 iff the pair shares a class."""

    def __init__(self, store, query_split="test"):
        self.store = store
        self.query_split = query_split

    def score(self, grids1, grids2, meta):
        out = np.empty(len(meta))
        for i, (qid, nid) in enumerate(meta):
            same = self.store.class_of(self.query_split, qid) == self.store.class_of(
                "train", nid
            )
            out[i] = 1.0 if same else 0.0
        return out


class CosineScorer:
    """Cosine similarity of pooled vectors, mapped from [-1, 1] to [0, 1]."""

    def score(self, grids1, grids2, meta=None):
        a = grids1.mean(axis=1)
        b = grids2.mean(axis=1)
        num = np.einsum("ij,ij->i", a, b)
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        cos = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        return 0.5 * (cos + 1.0)


# ------------------------------------------------------------- re-rank


def _candidates(store, index, query_split, qids, output, cfg):
    """(qid, top-K entries) per query with their retrieved neighbors, fetched
    class by class for all queries at once; s scores filled in later."""
    per_query, wanted = [], {}  # class id -> [(query position, entry)]
    for at, qid in enumerate(qids):
        probs = output.row(qid)
        pred = top_q(probs, min(cfg.k, len(probs)))
        entries = []
        for cid, p in zip(pred.classes.tolist(), pred.probs.tolist()):
            entries.append(ClassEntry(cid, p, [], None, -np.inf))
            if not (cfg.prob_floor > 0 and p < cfg.prob_floor):
                wanted.setdefault(cid, []).append((at, entries[-1]))
        per_query.append((qid, entries))
    queries = store.pooled_all(query_split)[store.rows(query_split, qids)]
    ids = np.array(qids, dtype=np.int64)
    for cid, want in wanted.items():
        at = np.array([i for i, _ in want])
        exclude = ids[at] if query_split == "train" else None
        neigh = index.nearest_k_many(queries[at], cid, cfg.n_neighbors, exclude)
        for (_, entry), row in zip(want, neigh.tolist()):
            entry.neighbor_ids = row
    return per_query


def _finalize(qid, entries, mode):
    """Final score of every scored entry and the re-ranked prediction."""
    for e in entries:
        if e.s_score is not None:
            e.final = e.prob * e.s_score if mode == "soft" else e.s_score
    # argmax with tie-break: final, then original C probability, then low id
    best = max(entries, key=lambda e: (e.final, e.prob, -e.class_id))
    count = sum(len(e.neighbor_ids) for e in entries)
    return RankedResult(qid, entries, best.class_id, count)


# pairs gathered per scorer call: bounds the grids held at once; a multiple
# of ModelScorer's default batch, so its batches are the same as in one call
_GATHER = 4096


def _rerank_queries(store, output, index, scorer, cfg, qids, query_split):
    """Re-rank the given queries; their pairs are scored in gathered chunks."""
    per_query = _candidates(store, index, query_split, qids, output, cfg)
    pairs = [
        (qid, nid) for qid, entries in per_query for e in entries for nid in e.neighbor_ids
    ]
    if pairs:
        rows1 = store.rows(query_split, [q for q, _ in pairs])
        rows2 = store.rows("train", [n for _, n in pairs])
        grids1, grids2 = store.grids(query_split), store.grids("train")
        scores = np.empty(len(pairs))
        for lo in range(0, len(pairs), _GATHER):
            sl = slice(lo, lo + _GATHER)
            scores[sl] = scorer.score(grids1[rows1[sl]], grids2[rows2[sl]], pairs[sl])
        start = 0
        for _, entries in per_query:
            for e in entries:
                if e.neighbor_ids:
                    stop = start + len(e.neighbor_ids)
                    e.s_score = float(np.mean(scores[start:stop]))
                    start = stop
    return [_finalize(qid, entries, cfg.mode) for qid, entries in per_query]


def rerank_split(store, output, index, scorer, cfg, query_split="test"):
    """Re-rank every query of a split; one batched comparator pass."""
    return _rerank_queries(
        store, output, index, scorer, cfg, store.ids(query_split), query_split
    )


def rerank(store, output, index, scorer, cfg, qid, query_split="test"):
    """Single-query re-ranking (same semantics as rerank_split)."""
    return _rerank_queries(store, output, index, scorer, cfg, [qid], query_split)[0]


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
    labels = {rid: store.class_of(query_split, rid) for rid in store.ids(query_split)}
    soft_cfg = RerankConfig(cfg.k, cfg.n_neighbors, "soft", cfg.prob_floor)
    soft = rerank_split(store, output, index, scorer, soft_cfg, query_split)
    # hard mode re-ranks the same candidates by the same s scores
    hard = [
        _finalize(r.query_id, [replace(e) for e in r.entries], "hard") for r in soft
    ]
    n = len(soft)
    acc_c = np.mean(
        [int(np.argmax(output.row(rid)) == labels[rid]) for rid in store.ids(query_split)]
    )
    acc_soft = np.mean([int(r.predicted == labels[r.query_id]) for r in soft])
    acc_hard = np.mean([int(r.predicted == labels[r.query_id]) for r in hard])
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
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r.to_json_obj()) + "\n")


# ------------------------------------------------------------ baselines


def knn_classify(store, index, scorer, qid, k=20, query_split="test"):
    """k-nearest-neighbor vote over global pooled retrieval, rescored."""
    pooled = store.pooled(query_split, qid)
    exclude = {qid} if query_split == "train" else ()
    hits = index.topk_global(pooled, k, exclude=exclude)
    qgrid = store.grid(query_split, qid)
    g1 = np.stack([qgrid] * len(hits))
    g2 = np.stack([store.grid("train", nid) for nid, _, _ in hits])
    scores = scorer.score(g1, g2, [(qid, nid) for nid, _, _ in hits])
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
    # emulate a shuffled dataloader: random order, partner = next in batch
    order = rng.permutation(len(ids))
    partner = np.empty(len(ids), dtype=np.int64)
    for start in range(0, len(ids), batch):
        n = min(batch, len(ids) - start)
        block = order[start : start + n]
        partner[block] = block[(np.arange(n) + 1) % n]
    shuffled_rate = rate(grids, partner)
    return SanityReport(self_rate, random_rate, shuffled_rate)


def topq_ceiling(store, output, q_values, query_split="test"):
    """Cumulative top-Q accuracy table: fraction of queries with gt in top-Q."""
    labels = store.labels(query_split)
    order = np.argsort(-output.probs, axis=1, kind="stable")
    rows = {}
    ranks = np.empty(len(labels), dtype=np.int64)
    for i, rid in enumerate(output.ids):
        ranks[i] = int(np.where(order[i] == labels[i])[0][0])
    for q in q_values:
        rows[int(q)] = float(np.mean(ranks < q))
    return rows
