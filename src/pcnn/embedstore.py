"""Token-grid embedding store: manifest + raw f32 payload, split/class lookup.

Payload layout: records concatenated in manifest order (all train records,
then all test records), each record a row-major T x D little-endian f32
block. The manifest is JSON and carries a sha256 of the payload, which
`atomicio.check_blob` checks on load with the payload's length.

Row i of a split is its i-th manifest record in every per-split array (grids,
pooled vectors, labels, ids); `rows` is the one map from record ids to rows.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .atomicio import check_blob, sha256, write_blob
from .validate import check_ints, is_int64

SPLITS = ("train", "test")


class IngestionError(ValueError):
    pass


class EmptyClassError(KeyError):
    pass


@dataclass
class DatasetManifest:
    """A ValueError (or TypeError) names the first field that is not of its
    type: `tokens` and `depth` integers >= 1, `class_names` a list of
    strings, and each split's records a list of [record_id, class_id]
    pairs of integers that int64 holds (an integer here is never a bool)."""

    dataset: str
    class_names: list  # index = class id
    tokens: int
    depth: int
    records: dict  # split -> list of [record_id, class_id]
    checksum: str

    def __post_init__(self):
        check_ints(self, tokens=1, depth=1)
        if not isinstance(self.class_names, list) or not all(
                isinstance(name, str) for name in self.class_names):
            raise ValueError(f"class_names must be a list of strings, got {self.class_names!r}")
        for split in SPLITS:
            for rec in self.records[split]:
                if not (isinstance(rec, list) and len(rec) == 2 and all(map(is_int64, rec))):
                    raise ValueError(f"record {rec!r} in split {split} is not a pair of "
                                     "integers [record_id, class_id] within int64")

    @property
    def num_classes(self):
        return len(self.class_names)

    def to_json(self):
        # the fields in order, not `asdict`, which deep-copies every record
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        return DatasetManifest(
            dataset=d["dataset"],
            class_names=d["class_names"],
            tokens=d["tokens"],
            depth=d["depth"],
            records={s: d["records"][s] for s in SPLITS},
            checksum=d["checksum"],
        )


class EmbeddingStore:
    """The store of a manifest and its payload bytes (from the files
    `manifest_where` and `where`, which a fault's IngestionError names);
    immutable: grids are read-only `<f4` views of the kept bytes, and
    pooled vectors and labels are derived once."""

    def __init__(self, manifest, payload, where="payload", manifest_where="manifest"):
        t, d = manifest.tokens, manifest.depth
        n_train = len(manifest.records["train"])
        n = n_train + len(manifest.records["test"])
        check_blob(payload, n * t * d * 4, manifest.checksum, where, IngestionError)
        self.manifest, self._payload = manifest, bytes(payload)
        flat = np.frombuffer(self._payload, dtype="<f4").reshape(n, t, d)
        self._grids = dict(zip(SPLITS, np.split(flat, [n_train])))  # split -> (N, T, D)
        for split, block in self._grids.items():
            if not np.isfinite(block).all():
                raise IngestionError(f"{where}: non-finite value in split {split}")
        # split -> (N, D) float64 token means; scorers and retrieval index them per call
        self._pooled = {s: g.mean(axis=1, dtype=np.float64) for s, g in self._grids.items()}
        # split -> (N,) record ids and (N,) class ids, in manifest order
        records = {s: np.array(manifest.records[s], dtype=np.int64).reshape(-1, 2)
                   for s in SPLITS}
        self._ids = {s: np.ascontiguousarray(r[:, 0]) for s, r in records.items()}
        self._labels = {s: np.ascontiguousarray(r[:, 1]) for s, r in records.items()}
        for derived in (*self._pooled.values(), *self._ids.values(), *self._labels.values()):
            derived.flags.writeable = False
        # split -> rows in ascending id order, for `rows` to binary-search
        self._id_order = {s: np.argsort(ids, kind="stable") for s, ids in self._ids.items()}
        for split, order in self._id_order.items():
            ascending = self._ids[split][order]
            dup = ascending[1:][ascending[1:] == ascending[:-1]]
            if len(dup):
                raise IngestionError(
                    f"{manifest_where}: duplicate record id {dup[0]} in split {split}")
            labels = self._labels[split]
            bad = ((labels < 0) | (labels >= manifest.num_classes)).nonzero()[0]
            if len(bad):
                raise IngestionError(f"{manifest_where}: unknown class id {labels[bad[0]]} for "
                                     f"record {self._ids[split][bad[0]]} in split {split}")

    # ---- queries -------------------------------------------------------

    def size(self, split):
        return len(self.manifest.records[split])

    def ids(self, split):
        return self._ids[split]

    def class_of(self, split, record_id):
        return int(self._labels[split][self.rows(split, [record_id])[0]])

    def grid(self, split, record_id):
        return self._grids[split][self.rows(split, [record_id])[0]]

    def grids(self, split):
        return self._grids[split]

    def rows(self, split, record_ids):
        """Row of each record id in `grids(split)`, as an index array; a
        KeyError names the first id the split does not hold."""
        ids, order = self._ids[split], self._id_order[split]
        want = np.asarray(record_ids, dtype=np.int64)
        missing = ~np.isin(want, ids)
        if missing.any():
            raise KeyError(f"unknown record id {want[missing][0]} in split {split}")
        return order[np.searchsorted(ids, want, sorter=order)]

    def pooled(self, split, record_id):
        """The record's read-only row of `pooled_all(split)`."""
        return self._pooled[split][self.rows(split, [record_id])[0]]

    def pooled_all(self, split):
        return self._pooled[split]

    def by_class(self, split, class_id):
        """Record ids of a class in ascending order."""
        if class_id < 0 or class_id >= self.manifest.num_classes:
            raise KeyError(f"unknown class id {class_id}")
        recs = np.sort(self._ids[split][self._labels[split] == class_id]).tolist()
        if not recs and split == "train":
            raise EmptyClassError(f"class {class_id} has no records in train split")
        return recs

    def labels(self, split):
        return self._labels[split]

    # ---- ingest / export ----------------------------------------------

    @staticmethod
    def load(manifest_path, payload_path):
        with open(manifest_path) as fh:
            try:
                manifest = DatasetManifest.from_json(fh.read())
            except (KeyError, TypeError, ValueError) as exc:
                raise IngestionError(f"{manifest_path}: malformed manifest ({exc!r})") from exc
        with open(payload_path, "rb") as fh:
            payload = fh.read()
        return EmbeddingStore(manifest, payload, payload_path, manifest_path)

    def export_payload(self):
        return self._payload

    def save(self, manifest_path, payload_path):
        write_blob(payload_path, self.export_payload(), manifest_path, self.manifest.to_json())


def build_store(dataset, class_names, records, grids_by_split):
    """The store of in-memory data: the grids encoded as its `<f4` payload,
    whose checksum the manifest records.

    records: split -> list of (record_id, class_id), order defines the payload.
    grids_by_split: split -> (N, T, D) float array.
    """
    any_split = next(s for s in SPLITS if len(records[s]))
    t, d = np.asarray(grids_by_split[any_split]).shape[1:3]
    payload = b"".join(np.asarray(grids_by_split[s], dtype="<f4").tobytes() for s in SPLITS)
    manifest = DatasetManifest(
        dataset=dataset,
        class_names=list(class_names),
        tokens=t,
        depth=d,
        records={s: [[int(r), int(c)] for r, c in records[s]] for s in SPLITS},
        checksum=sha256(payload),
    )
    return EmbeddingStore(manifest, payload)
