"""Exact squared-L2 nearest-neighbor index over pooled train vectors.

The pooled vectors are stored once, rows ordered by (class, record id), with
the row bounds of each class; every query ranks one row range, and
`nearest` serves a batch of (query, class) requests in one call. Distances are
exact squared L2 (monotone with L2); ties break by ascending record id. The
index is immutable after build; `subsample` returns a new index.
"""

import numpy as np

from . import kernels


# distance-matrix elements per query chunk in `ClassIndex._nearest`
_CHUNK = 1 << 18


class InsufficientCandidatesError(ValueError):
    pass


def kept_per_class(sizes, fraction):
    """Records each class of `sizes` keeps in `ClassIndex.subsample(fraction)`:
    ceil(fraction * size)."""
    return np.ceil(fraction * np.asarray(sizes)).astype(np.int64)


class ClassIndex:
    def __init__(self, vectors, ids, bounds):
        """vectors: (N, D) rows ordered by (class, id); ids: (N,) record ids;
        bounds: class c owns rows bounds[c]:bounds[c + 1]."""
        self._vecs = vectors
        self._ids = ids
        self._bounds = [int(b) for b in bounds]

    @staticmethod
    def build(store, split="train"):
        labels = store.labels(split)
        ids = store.ids(split)
        order = np.lexsort((ids, labels))
        counts = np.bincount(labels, minlength=store.manifest.num_classes)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return ClassIndex(store.pooled_all(split)[order], ids[order], bounds)

    @property
    def classes(self):
        return list(range(len(self._bounds) - 1))

    def _rows(self, class_id):
        """Row range of a class, or of every row for None; KeyError for an
        unknown (or negative) id."""
        if class_id is None:
            return 0, len(self._ids)
        if not 0 <= class_id < len(self._bounds) - 1:
            raise KeyError(f"unknown class id {class_id}")
        return self._bounds[class_id], self._bounds[class_id + 1]

    def class_size(self, class_id):
        try:
            lo, hi = self._rows(class_id)
        except KeyError:
            return 0
        return hi - lo

    def subsample(self, fraction, seed):
        """Keep `kept_per_class` records of each class, seeded uniform."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        sizes = np.diff(self._bounds)
        keep = kept_per_class(sizes, fraction)
        kept = []
        for cid in self.classes:
            rng = np.random.default_rng(np.random.SeedSequence([seed, cid]))
            kept.append(self._bounds[cid] + np.sort(rng.choice(sizes[cid], keep[cid], replace=False)))
        rows = np.concatenate(kept)
        return ClassIndex(self._vecs[rows], self._ids[rows], np.concatenate([[0], np.cumsum(keep)]))

    def _nearest(self, queries, class_id, k, skip_q=(), skip_c=()):
        """The k nearest rows lo:hi = `_rows(class_id)` for each query row by
        ascending (distance, id), query skip_q[j] skipping row lo + skip_c[j]:
        (n, k) rows and their direct-form squared distances.

        The Gram-form kernel picks the candidates, widened by a bound on its
        rounding error, and only they are ranked by the direct form, so the
        result equals ranking every row by the direct form."""
        lo, hi = self._rows(class_id)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        skip_q = np.asarray(skip_q, dtype=np.intp)
        skip_c = np.asarray(skip_c, dtype=np.intp)
        have = (hi - lo) - np.bincount(skip_q, minlength=len(queries))
        if len(queries) and have.min() < k:
            cls = "" if class_id is None else f"class {class_id}: "
            raise InsufficientCandidatesError(f"{cls}need {k} candidates, have {have.min()}")
        rows = np.empty((len(queries), k), dtype=np.intp)
        dists = np.empty((len(queries), k))
        if k == 0:
            return rows, dists
        ids, vecs = self._ids[lo:hi], self._vecs[lo:hi]
        # |Gram - direct| <= tol, per query: both forms round within a few
        # ulps of |q|^2 + |b|^2 for each of the D terms
        slack = 8 * (vecs.shape[1] + 2) * np.finfo(np.float64).eps
        bb_max = np.einsum("ij,ij->i", vecs, vecs).max(initial=0.0)
        step = max(1, _CHUNK // max(1, hi - lo))
        for s in range(0, len(queries), step):
            q = queries[s:s + step]
            approx = kernels.sqdist_many(q, vecs)
            tol = slack * (np.einsum("ij,ij->i", q, q) + bb_max)
            mine = (skip_q >= s) & (skip_q < s + len(q))
            approx[skip_q[mine] - s, skip_c[mine]] = np.inf
            # every row within 2 tol of the k-th smallest Gram distance
            upper = np.partition(approx, k - 1, axis=1)[:, k - 1] + 2 * tol
            qi, ci = (approx <= upper[:, None]).nonzero()
            d = kernels.sqdist_one(q[qi], vecs[ci])
            # qi ascends, so each query keeps its block of the ordering
            order = np.lexsort((ids[ci], d, qi))
            pick = order[np.searchsorted(qi, np.arange(len(q)))[:, None] + np.arange(k)]
            rows[s:s + len(q)] = lo + ci[pick]
            dists[s:s + len(q)] = d[pick]
        return rows, dists

    def _nearest_one(self, query, class_id, k, exclude):
        """`_nearest` for one query that skips the ids in `exclude`."""
        lo, hi = self._rows(class_id)
        skip = np.isin(self._ids[lo:hi], list(exclude)).nonzero()[0] if exclude else ()
        rows, dists = self._nearest(query, class_id, k, np.zeros(len(skip), np.intp), skip)
        return rows[0], self._ids[rows[0]], dists[0]

    def nearest(self, queries, classes, k, exclude=None):
        """Ids of the k nearest records of class classes[j] for each query
        row j, by ascending (distance, id), as an (n, k) array, each class
        ranked once for all its queries; `exclude`, if given, holds one
        record id per query that the query skips."""
        classes = np.asarray(classes)
        out = np.empty((len(classes), k), dtype=self._ids.dtype)
        for cid in np.unique(classes).tolist():
            at = (classes == cid).nonzero()[0]
            lo, hi = self._rows(cid)
            skip_q = skip_c = ()
            if exclude is not None and hi > lo:
                # class rows ascend by id: find each excluded id's row, if any
                want = np.asarray(exclude)[at]
                pos = np.minimum(np.searchsorted(self._ids[lo:hi], want), hi - lo - 1)
                skip_q = (self._ids[lo + pos] == want).nonzero()[0]
                skip_c = pos[skip_q]
            rows, _ = self._nearest(queries[at], cid, k, skip_q, skip_c)
            out[at] = self._ids[rows]
        return out

    def nearest_in_class(self, query, class_id, rank=1, exclude=()):
        """n-th nearest (1-based) non-excluded record of a class."""
        if rank < 1:
            raise ValueError("rank must be >= 1")
        return self.nearest_k_in_class(query, class_id, rank, exclude)[rank - 1]

    def nearest_k_in_class(self, query, class_id, k, exclude=()):
        _, ids, dists = self._nearest_one(query, class_id, k, exclude)
        return [(int(i), float(d)) for i, d in zip(ids, dists)]

    def topk_global(self, query, k, exclude=()):
        """Exact global top-k (ascending distance, id tie-break)."""
        rows, ids, dists = self._nearest_one(query, None, k, exclude)
        classes = np.searchsorted(self._bounds, rows, side="right") - 1
        return [(int(i), float(d), int(c)) for i, d, c in zip(ids, dists, classes)]
