"""Classifier outputs: synthetic centroid softmax or precomputed tables.

The synthetic classifier scores class c as softmax(-||pooled(x) - mu_c||^2 / tau)
and can be weakened by a seeded corruption that swaps the top-1 probability
with a uniformly chosen other class among its top-Q.
"""

import json
import zlib
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  loaded at import, not in the first run

from .atomicio import check_blob, sha256, write_blob
from .seedstreams import SeedStreams
from .validate import check_ints, check_reals, is_int

PROB_SUM_TOL = 1e-4
# dtype of a probability matrix written by `save_outputs`
MATRIX_DTYPE = "<f8"
# elements of the (rows, classes, depth) difference per block in `predict_split`
_CHUNK = 1 << 18


class ValidationError(ValueError):
    pass


@dataclass
class TopQPrediction:
    classes: np.ndarray  # (Q,) descending probability
    probs: np.ndarray  # (Q,)


class ClassifierOutput:
    """Probability table for one split: row i holds record ids[i]."""

    def __init__(self, split, ids, probs):
        probs = np.asarray(probs, dtype=np.float64)
        ids = list(ids)
        if probs.ndim != 2 or probs.shape[0] != len(ids):
            raise ValidationError(f"probs shape {probs.shape} vs {len(ids)} ids")
        self.split = split
        self.ids = ids
        self.probs = probs

    def probs_for(self, store, split):
        """`probs`, as rows of the store's split: the output must be of that
        split and list its ids in store order."""
        if self.split != split or not np.array_equal(self.ids, store.ids(split)):
            raise ValidationError(f"{self.split} outputs are not {split} ids in store order")
        return self.probs

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
    """Top-Q classes by probability, descending; ties by ascending class id.

    `probs` is one row (C,) or rows (n, C); the result has the same leading
    shape, each row ranked on its own."""
    probs = np.asarray(probs)
    c = probs.shape[-1]
    if not 1 <= q <= c:
        raise ValueError(f"Q={q} out of range 1..{c}")
    ids = np.broadcast_to(np.arange(c), probs.shape)
    order = np.lexsort((ids, -probs), axis=-1)[..., :q]
    return TopQPrediction(classes=order.astype(np.int64),
                          probs=np.take_along_axis(probs, order, axis=-1))


class SyntheticClassifier:
    """`corruption_q`, an integer >= 2, is the Q of the top-Q that a
    corrupted record's swap partner is drawn from; a value above the class
    count means any other class. `seed` is an integer >= 0 of any size, as
    `SeedStreams` takes."""

    def __init__(self, centroids, tau, corruption_rate=0.0, corruption_q=10, seed=0):
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.tau, self.corruption_rate, self.corruption_q = tau, corruption_rate, corruption_q
        check_ints(self, corruption_q=2)
        check_reals(self, tau="(0, inf)", corruption_rate="[0, 1]")
        if not (is_int(seed) and seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self.seed = int(seed)

    def _corrupt(self, probs, split, ids):
        """Apply the seeded corruption to the rows of `probs` in place: each
        record draws from its own (seed, split, id) stream whether its top-1
        probability swaps with a uniformly chosen other class of its top-Q.
        Every record's first draw is made at once (`SeedStreams`); only a
        hit at Q >= 3 builds its own generator, for the partner. A negative
        id raises ValueError naming the split."""
        q = min(self.corruption_q, probs.shape[1])
        prefix = [self.seed, zlib.crc32(split.encode())]
        streams = SeedStreams(prefix, ids, what=f"{split} record ids")
        hit = np.flatnonzero(streams.random < self.corruption_rate)
        if q < 2 or not len(hit):
            return
        pick = np.ones(len(hit), dtype=np.int64)
        if q > 2:  # a partner past the fixed one comes from the hit's own stream
            for i, rid in enumerate(ids[hit]):
                rng = np.random.default_rng(np.random.SeedSequence([*prefix, int(rid)]))
                rng.random()
                pick[i] += rng.integers(q - 1)
        classes = top_q(probs[hit], q).classes
        top1 = classes[:, 0]
        partner = classes[np.arange(len(hit)), pick]
        probs[hit, top1], probs[hit, partner] = probs[hit, partner], probs[hit, top1]

    def predict_split(self, store, split):
        pooled = store.pooled_all(split)
        ids = store.ids(split)
        c, d = self.centroids.shape
        logits = np.empty((len(ids), c))
        step = max(1, _CHUNK // (c * d))
        for s in range(0, len(ids), step):
            diff = self.centroids - pooled[s : s + step, None]
            logits[s : s + step] = -np.einsum("nij,nij->ni", diff, diff) / self.tau
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        self._corrupt(probs, split, ids)
        return ClassifierOutput(split, ids, probs).validate()


# ------------------------------------------------------- file roundtrip


def save_outputs(output, matrix_path, sidecar_path):
    """Write the probabilities as raw little-endian f8 and a JSON sidecar
    holding the ids, the dtype, the byte length and the sha256 of the matrix."""
    blob = output.probs.astype("<f8").tobytes()
    sidecar = {"split": output.split, "ids": [int(i) for i in output.ids],
               "classes": int(output.probs.shape[1]), "dtype": MATRIX_DTYPE,
               "bytes": len(blob), "sha256": sha256(blob)}
    write_blob(matrix_path, blob, sidecar_path, json.dumps(sidecar, indent=2))


def load_precomputed(matrix_path, sidecar_path):
    """Load what `save_outputs` wrote. The dtype, byte length, sha256 and id
    count are checked against the sidecar and every row is validated; a
    failure, a sidecar that is not JSON or lacks its split, ids or classes
    included, raises ValidationError naming the file."""
    try:
        with open(sidecar_path) as fh:
            side = json.load(fh)
        split, ids, c = side["split"], side["ids"], side["classes"]
        if not (isinstance(split, str) and isinstance(ids, list) and type(c) is int
                and all(type(i) is int for i in ids)):
            raise TypeError("split must be a string, ids a list of ints, classes an int")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{sidecar_path}: malformed sidecar ({exc!r})") from exc
    with open(matrix_path, "rb") as fh:
        blob = fh.read()
    n = len(ids)
    if side.get("dtype") != MATRIX_DTYPE:
        raise ValidationError(f"{sidecar_path}: dtype {side.get('dtype')!r}, "
                              f"expected {MATRIX_DTYPE!r}")
    if side.get("bytes") != n * c * 8:
        raise ValidationError(f"{sidecar_path}: {side.get('bytes')} bytes recorded "
                              f"for {n} ids x {c} classes")
    check_blob(blob, n * c * 8, side.get("sha256"), matrix_path, ValidationError)
    probs = np.frombuffer(blob, dtype=MATRIX_DTYPE).reshape(n, c).astype(np.float64)
    try:
        return ClassifierOutput(split, ids, probs).validate()
    except ValidationError as exc:
        raise ValidationError(f"{matrix_path}: {exc}") from exc
