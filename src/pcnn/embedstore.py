"""Token-grid embedding store: manifest + raw f32 payload, split/class lookup.

Payload layout: records concatenated in manifest order (all train records,
then all test records), each record a row-major T x D little-endian f32
block. The manifest is JSON and carries a sha256 of the payload.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

SPLITS = ("train", "test")


class IngestionError(ValueError):
    pass


class EmptyClassError(KeyError):
    pass


@dataclass
class DatasetManifest:
    dataset: str
    class_names: list  # index = class id
    tokens: int
    depth: int
    records: dict  # split -> list of [record_id, class_id]
    checksum: str

    @property
    def num_classes(self):
        return len(self.class_names)

    def to_json(self):
        return json.dumps(
            {
                "dataset": self.dataset,
                "class_names": self.class_names,
                "tokens": self.tokens,
                "depth": self.depth,
                "records": self.records,
                "checksum": self.checksum,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        return DatasetManifest(
            dataset=d["dataset"],
            class_names=d["class_names"],
            tokens=int(d["tokens"]),
            depth=int(d["depth"]),
            records={s: [[int(r), int(c)] for r, c in d["records"][s]] for s in SPLITS},
            checksum=d["checksum"],
        )


def payload_checksum(payload):
    return hashlib.sha256(payload).hexdigest()


class EmbeddingStore:
    """Immutable after import; pooled vectors are always derived."""

    def __init__(self, manifest, grids):
        self.manifest = manifest
        self._grids = grids  # split -> (N, T, D) float64
        self._by_id = {}
        self._class_lists = {}
        for split in SPLITS:
            idx = {}
            per_class = {}
            for i, (rid, cid) in enumerate(manifest.records[split]):
                if rid in idx:
                    raise IngestionError(f"duplicate record id {rid} in split {split}")
                idx[rid] = i
                per_class.setdefault(cid, []).append(rid)
            for cid in per_class:
                per_class[cid].sort()
            self._by_id[split] = idx
            self._class_lists[split] = per_class

    # ---- queries -------------------------------------------------------

    def size(self, split):
        return len(self.manifest.records[split])

    def ids(self, split):
        return [rid for rid, _ in self.manifest.records[split]]

    def class_of(self, split, record_id):
        return self.manifest.records[split][self._by_id[split][record_id]][1]

    def grid(self, split, record_id):
        return self._grids[split][self._by_id[split][record_id]]

    def grids(self, split):
        return self._grids[split]

    def rows(self, split, record_ids):
        """Row of each record id in `grids(split)`, as an index array."""
        idx = self._by_id[split]
        return np.fromiter((idx[rid] for rid in record_ids), dtype=np.intp,
                           count=len(record_ids))

    def pooled(self, split, record_id):
        return self.grid(split, record_id).mean(axis=0)

    def pooled_all(self, split):
        return self._grids[split].mean(axis=1)

    def by_class(self, split, class_id):
        """Record ids of a class in ascending order."""
        if class_id < 0 or class_id >= self.manifest.num_classes:
            raise KeyError(f"unknown class id {class_id}")
        recs = self._class_lists[split].get(class_id, [])
        if not recs and split == "train":
            raise EmptyClassError(f"class {class_id} has no records in train split")
        return list(recs)

    def labels(self, split):
        return np.array([cid for _, cid in self.manifest.records[split]], dtype=np.int64)

    # ---- ingest / export ----------------------------------------------

    @staticmethod
    def from_payload(manifest, payload):
        t, d = manifest.tokens, manifest.depth
        rec_bytes = t * d * 4
        counts = {s: len(manifest.records[s]) for s in SPLITS}
        expected = sum(counts.values()) * rec_bytes
        if len(payload) != expected:
            offset = min(len(payload), expected)
            raise IngestionError(
                f"payload length {len(payload)} != expected {expected} (error at byte {offset})"
            )
        if payload_checksum(payload) != manifest.checksum:
            raise IngestionError("payload checksum mismatch")
        for split in SPLITS:
            for rid, cid in manifest.records[split]:
                if cid < 0 or cid >= manifest.num_classes:
                    raise IngestionError(f"unknown class id {cid} for record {rid}")
        flat = np.frombuffer(payload, dtype="<f4")
        grids = {}
        off = 0
        for split in SPLITS:
            n = counts[split]
            block = flat[off : off + n * t * d].reshape(n, t, d).astype(np.float64)
            if not np.all(np.isfinite(block)):
                raise IngestionError(f"non-finite value in split {split}")
            grids[split] = block
            off += n * t * d
        return EmbeddingStore(manifest, grids)

    @staticmethod
    def load(manifest_path, payload_path):
        with open(manifest_path) as fh:
            manifest = DatasetManifest.from_json(fh.read())
        with open(payload_path, "rb") as fh:
            payload = fh.read()
        return EmbeddingStore.from_payload(manifest, payload)

    def export_payload(self):
        parts = [self._grids[s].astype("<f4").tobytes() for s in SPLITS]
        return b"".join(parts)

    def save(self, manifest_path, payload_path):
        with open(payload_path, "wb") as fh:
            fh.write(self.export_payload())
        with open(manifest_path, "w") as fh:
            fh.write(self.manifest.to_json())


def build_store(dataset, class_names, records, grids_by_split):
    """Assemble a store from in-memory data, computing the checksum.

    records: split -> list of (record_id, class_id), order defines the payload.
    grids_by_split: split -> (N, T, D) float array.
    """
    any_split = next(s for s in SPLITS if len(records[s]))
    t, d = np.asarray(grids_by_split[any_split]).shape[1:3]
    grids = {
        s: np.ascontiguousarray(np.asarray(grids_by_split[s], dtype=np.float64).reshape(-1, t, d))
        for s in SPLITS
    }
    payload = b"".join(grids[s].astype("<f4").tobytes() for s in SPLITS)
    manifest = DatasetManifest(
        dataset=dataset,
        class_names=list(class_names),
        tokens=int(t),
        depth=int(d),
        records={s: [[int(r), int(c)] for r, c in records[s]] for s in SPLITS},
        checksum=payload_checksum(payload),
    )
    # round through f32 so in-memory grids equal a reloaded store bitwise
    f32 = {s: grids[s].astype(np.float32).astype(np.float64) for s in SPLITS}
    return EmbeddingStore(manifest, f32)
