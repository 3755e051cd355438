"""Exact squared-L2 nearest-neighbor index over pooled train vectors.

The pooled vectors are stored once, rows ordered by (class, record id), with
the row bounds of each class; every query ranks one row range, and
`nearest` serves a batch of (query, class) requests in one call. Distances are
exact squared L2 (monotone with L2); ties break by ascending record id. The
index is immutable after build; `subsample` returns a new index.
"""

import numpy as np
import numpy.ma  # noqa: F401  np.unique loads it; at import, not in the first run
import numpy.random  # noqa: F401  loaded at import, not in the first run

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
    def build(store):
        """The index of the store's train split."""
        labels = store.labels("train")
        ids = store.ids("train")
        order = np.lexsort((ids, labels))
        counts = np.bincount(labels, minlength=store.manifest.num_classes)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return ClassIndex(store.pooled_all("train")[order], ids[order], bounds)

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

    def _nearest(self, queries, class_id, k, exclude=None):
        """The k nearest rows lo:hi = `_rows(class_id)` for each query row by
        ascending (distance, id), query j skipping the row of record id
        exclude[j], if the range holds it: (n, k) rows and their direct-form
        squared distances.

        The Gram-form kernel picks the candidates, widened by a bound on its
        rounding error, and only they are ranked by the direct form, so the
        result equals ranking every row by the direct form."""
        lo, hi = self._rows(class_id)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        ids, vecs = self._ids[lo:hi], self._vecs[lo:hi]
        have = np.full(len(queries), hi - lo)
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=ids.dtype)
            have -= np.isin(exclude, ids)
        if len(queries) and have.min() < k:
            cls = "" if class_id is None else f"class {class_id}: "
            raise InsufficientCandidatesError(f"{cls}need {k} candidates, have {have.min()}")
        rows = np.empty((len(queries), k), dtype=np.intp)
        dists = np.empty((len(queries), k))
        if k == 0:
            return rows, dists
        # |Gram - direct| <= tol, per query: both forms round within a few
        # ulps of |q|^2 + |b|^2 for each of the D terms
        slack = 8 * (vecs.shape[1] + 2) * np.finfo(np.float64).eps
        bb_max = np.einsum("ij,ij->i", vecs, vecs).max(initial=0.0)
        step = max(1, _CHUNK // max(1, hi - lo))
        for s in range(0, len(queries), step):
            q = queries[s:s + step]
            approx = kernels.sqdist_many(q, vecs)
            tol = slack * (np.einsum("ij,ij->i", q, q) + bb_max)
            if exclude is not None:
                approx[ids == exclude[s:s + step, None]] = np.inf
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

    def nearest(self, queries, classes, k, exclude=None):
        """Ids of the k nearest records of class classes[j] for each query
        row j, by ascending (distance, id), as an (n, k) array, each class
        ranked once for all its queries; `exclude`, if given, holds one
        record id per query that the query skips."""
        classes = np.asarray(classes)
        exclude = None if exclude is None else np.asarray(exclude)
        out = np.empty((len(classes), k), dtype=self._ids.dtype)
        for cid in np.unique(classes).tolist():
            at = (classes == cid).nonzero()[0]
            rows, _ = self._nearest(queries[at], cid, k,
                                    None if exclude is None else exclude[at])
            out[at] = self._ids[rows]
        return out

    def nearest_in_class(self, query, class_id, rank=1, exclude=None):
        """n-th nearest (1-based) record of a class other than the record id
        `exclude`."""
        if rank < 1:
            raise ValueError("rank must be >= 1")
        return self.nearest_k_in_class(query, class_id, rank, exclude)[rank - 1]

    def nearest_k_in_class(self, query, class_id, k, exclude=None):
        """The k nearest records of a class other than the record id
        `exclude`, as (id, distance) pairs by ascending (distance, id)."""
        rows, dists = self._nearest(query, class_id, k, None if exclude is None else [exclude])
        return [(int(i), float(d)) for i, d in zip(self._ids[rows[0]], dists[0])]

    def topk_global(self, query, k, exclude=None):
        """Exact global top-k other than the record id `exclude`, as
        (id, distance, class) triples by ascending (distance, id)."""
        rows, dists = self._nearest(query, None, k, None if exclude is None else [exclude])
        classes = np.searchsorted(self._bounds, rows[0], side="right") - 1
        return [(int(i), float(d), int(c))
                for i, d, c in zip(self._ids[rows[0]], dists[0], classes)]
