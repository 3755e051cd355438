import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnn.embedstore import (
    DatasetManifest,
    EmbeddingStore,
    IngestionError,
    build_store,
    payload_checksum,
)

from conftest import toy_store


def test_roundtrip_bitwise(small_store, tmp_path):
    store, _ = small_store
    store.save(tmp_path / "m.json", tmp_path / "p.bin")
    loaded = EmbeddingStore.load(tmp_path / "m.json", tmp_path / "p.bin")
    assert loaded.manifest.checksum == store.manifest.checksum
    assert loaded.export_payload() == store.export_payload()
    np.testing.assert_array_equal(loaded.grids("train"), store.grids("train"))


def test_rows_index_grids(small_store):
    store, _ = small_store
    ids = store.ids("test")[::-2]
    rows = store.rows("test", ids)
    assert rows.dtype == np.intp
    for rid, row in zip(ids, rows):
        np.testing.assert_array_equal(store.grids("test")[row], store.grid("test", rid))
    assert store.rows("train", []).shape == (0,)
    with pytest.raises(KeyError):
        store.rows("train", [10**6])


def test_labels_are_the_manifest_classes_derived_once(small_store):
    store, _ = small_store
    for split in ("train", "test"):
        labels = store.labels(split)
        want = [cid for _, cid in store.manifest.records[split]]
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, want)
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0] = 1
        assert store.labels(split) is labels


def test_cub_shaped_manifest_accepted():
    # 200 classes, 5,994 train / 5,794 test records (tiny grids to keep it fast)
    t, d = 1, 2
    rng = np.random.default_rng(0)
    records = {
        "train": [(i, i % 200) for i in range(5994)],
        "test": [(i, i % 200) for i in range(5794)],
    }
    grids = {
        "train": rng.normal(size=(5994, t, d)),
        "test": rng.normal(size=(5794, t, d)),
    }
    store = build_store("cub-shaped", [f"c{i}" for i in range(200)], records, grids)
    assert store.size("train") == 5994
    assert store.size("test") == 5794


def test_truncated_payload_reports_offset(small_store):
    store, _ = small_store
    payload = store.export_payload()
    rec_bytes = store.manifest.tokens * store.manifest.depth * 4
    short = payload[:-rec_bytes]
    with pytest.raises(IngestionError, match=str(len(short))):
        EmbeddingStore.from_payload(store.manifest, short)


def test_checksum_mismatch(small_store):
    store, _ = small_store
    payload = bytearray(store.export_payload())
    payload[0] ^= 0xFF
    with pytest.raises(IngestionError, match="checksum"):
        EmbeddingStore.from_payload(store.manifest, bytes(payload))


def test_unknown_class_id(small_store):
    store, _ = small_store
    manifest = DatasetManifest.from_json(store.manifest.to_json())
    manifest.records["train"][0][1] = 99
    with pytest.raises(IngestionError, match="class id 99"):
        EmbeddingStore.from_payload(manifest, store.export_payload())


class TestPooled:
    def test_constant_grid(self):
        records = {"train": [(0, 0)], "test": []}
        v = np.array([1.5, -2.0, 0.25])
        grids = {"train": np.broadcast_to(v, (1, 4, 3)).copy(), "test": np.empty((0, 4, 3))}
        store = build_store("x", ["a"], records, grids)
        np.testing.assert_allclose(store.pooled("train", 0), v, atol=1e-7)

    def test_two_rows(self):
        records = {"train": [(0, 0)], "test": []}
        grids = {
            "train": np.array([[[0.0, 0.0], [2.0, 2.0]]]),
            "test": np.empty((0, 2, 2)),
        }
        store = build_store("x", ["a"], records, grids)
        np.testing.assert_array_equal(store.pooled("train", 0), [1.0, 1.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_bruteforce_mean(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(5, 7))
        records = {"train": [(0, 0)], "test": []}
        store = build_store("x", ["a"], records, {"train": grid[None], "test": np.empty((0, 5, 7))})
        brute = np.array([np.mean(store.grid("train", 0)[:, j]) for j in range(7)])
        np.testing.assert_allclose(store.pooled("train", 0), brute, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        records = {"train": [(0, 0)], "test": []}
        a = build_store("x", ["a"], records, {"train": grid[None], "test": np.empty((0, 6, 4))})
        b = build_store("x", ["a"], records, {"train": grid[perm][None], "test": np.empty((0, 6, 4))})
        np.testing.assert_allclose(a.pooled("train", 0), b.pooled("train", 0), atol=1e-12)

    def test_pooled_all_rows_are_the_pooled_records_and_read_only(self, small_store):
        store, _ = small_store
        for split in ("train", "test"):
            pooled = store.pooled_all(split)
            for row, rid in enumerate(store.ids(split)):
                want = store.grid(split, rid).mean(axis=0)
                np.testing.assert_array_equal(pooled[row], want)
            with pytest.raises(ValueError):
                pooled[0, 0] = 1.0


class TestByClass:
    def test_ascending_ids(self, small_store):
        store, _ = small_store
        ids = store.by_class("train", 1)
        assert ids == sorted(ids)
        assert len(ids) == 6

    def test_nonexistent_class(self, small_store):
        store, _ = small_store
        with pytest.raises(KeyError):
            store.by_class("train", 42)

    def test_union_covers_split(self, small_store):
        store, _ = small_store
        union = []
        for cid in range(store.manifest.num_classes):
            union.extend(store.by_class("train", cid))
        assert sorted(union) == sorted(store.ids("train"))
        assert len(union) == len(set(union)) == store.size("train")

    def test_sizes_sum_to_split(self, small_store):
        store, _ = small_store
        total = sum(
            len(store.by_class("test", c)) for c in range(store.manifest.num_classes)
        )
        assert total == store.size("test")


def test_checksum_is_sha256():
    assert payload_checksum(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
