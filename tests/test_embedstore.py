import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnn.classifier import ClassifierOutput, SyntheticClassifier
from pcnn.embedstore import (
    SPLITS,
    DatasetManifest,
    EmbeddingStore,
    IngestionError,
    build_store,
)
from pcnn.nnindex import ClassIndex
from pcnn.pairsampler import SamplerConfig, sample_eval, sample_train
from pcnn.reranker import CosineScorer, RerankConfig, evaluate_rerank

from conftest import toy_store


def test_roundtrip_bitwise(small_store, tmp_path):
    store, _ = small_store
    store.save(tmp_path / "m.json", tmp_path / "p.bin")
    loaded = EmbeddingStore.load(tmp_path / "m.json", tmp_path / "p.bin")
    assert loaded.manifest.checksum == store.manifest.checksum
    assert loaded.export_payload() == store.export_payload()
    np.testing.assert_array_equal(loaded.grids("train"), store.grids("train"))


def test_built_and_loaded_stores_hold_the_same_read_only_f4_grids(small_store, tmp_path):
    """`build_store` and `load` are one path: both decode the payload bytes."""
    store, _ = small_store
    store.save(tmp_path / "m.json", tmp_path / "p.bin")
    loaded = EmbeddingStore.load(tmp_path / "m.json", tmp_path / "p.bin")
    assert loaded.export_payload() == store.export_payload()
    for split in SPLITS:
        for s in (store, loaded):
            grids = s.grids(split)
            assert grids.dtype == np.dtype("<f4") and not grids.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                grids[0, 0, 0] = 1.0
        assert loaded.grids(split).tobytes() == store.grids(split).tobytes()
        assert loaded.pooled_all(split).tobytes() == store.pooled_all(split).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_store_rejects_a_non_finite_grid(value):
    grid = np.zeros((1, 2, 3))
    grid[0, 1, 2] = value
    with pytest.raises(IngestionError, match="^payload: non-finite value in split train$"):
        build_store("x", ["a"], {"train": [(0, 0)], "test": []},
                    {"train": grid, "test": np.empty((0, 2, 3))})


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


def test_sparse_shuffled_ids_are_looked_up_by_id():
    """With ids that are not rows, every lookup agrees with a scan of the
    manifest, and the pipeline gives the id == row store's outputs under
    the id relabelling."""
    dense, centroids = toy_store(seed=4)
    store, _ = toy_store(seed=4, sparse_ids=True)
    for split in SPLITS:
        records = store.manifest.records[split]
        ids = store.ids(split)
        assert not np.array_equal(np.sort(ids), ids)
        perm = np.random.default_rng(0).permutation(len(ids))
        np.testing.assert_array_equal(store.rows(split, ids[perm]), perm)
        for rid in ids[perm].tolist():
            row = next(r for r, (i, _) in enumerate(records) if i == rid)
            assert store.rows(split, [rid]).tolist() == [row]
            assert store.class_of(split, rid) == records[row][1]
            np.testing.assert_array_equal(store.grid(split, rid), dense.grids(split)[row])
        for cid in range(store.manifest.num_classes):
            assert store.by_class(split, cid) == sorted(i for i, c in records if c == cid)
        absent = min(set(range(len(ids) + 1)) - set(ids.tolist()))
        for missing in (absent, int(ids.max()) + 1):
            with pytest.raises(KeyError, match=f"record id {missing} in split {split}"):
                store.rows(split, [ids[0], missing])

    # dense id i is row i, so it relabels to store.ids(split)[i]
    relabel = {s: store.ids(s) for s in SPLITS}
    clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.3, seed=7)
    # the corruption draws per record id: both stores get the dense outputs
    outputs = {s: clf.predict_split(dense, s) for s in SPLITS}
    moved = {s: ClassifierOutput(s, relabel[s], outputs[s].probs) for s in SPLITS}
    dense_index, index = ClassIndex.build(dense), ClassIndex.build(store)
    cfg = SamplerConfig(q=3, seed=0)
    for split, sample in (("train", sample_train), ("test", sample_eval)):
        want = sample(dense, outputs[split], dense_index, cfg)
        got = sample(store, moved[split], index, cfg)
        relabeled = want.pairs.copy()
        relabeled.query_id = relabel[split][want.pairs.query_id]
        relabeled.neighbor_id = relabel["train"][want.pairs.neighbor_id]
        assert got.pairs.tolist() == relabeled.tolist()
        assert got.gt_in_topq == {int(relabel[split][q]): hit
                                  for q, hit in want.gt_in_topq.items()}

    rcfg = RerankConfig(k=3, n_neighbors=2, prob_floor=0.1)
    want = evaluate_rerank(dense, outputs["test"], dense_index, CosineScorer(), rcfg)
    got = evaluate_rerank(store, moved["test"], index, CosineScorer(), rcfg)
    assert (got.accuracy_c, got.accuracy_soft, got.accuracy_hard) == (
        want.accuracy_c, want.accuracy_soft, want.accuracy_hard)
    for table, ref in ((got.results_soft, want.results_soft),
                       (got.results_hard, want.results_hard)):
        assert not ref.wanted.all()
        np.testing.assert_array_equal(table.query_ids, relabel["test"][ref.query_ids])
        np.testing.assert_array_equal(
            table.neighbors,
            np.where(ref.wanted[..., None], relabel["train"][ref.neighbors], 0))
        for name in ("classes", "probs", "wanted", "s_scores", "predicted"):
            np.testing.assert_array_equal(getattr(table, name), getattr(ref, name))


def test_duplicate_record_id_names_id_and_split(small_store):
    store, _ = small_store
    manifest = DatasetManifest.from_json(store.manifest.to_json())
    manifest.records["test"][3][0] = manifest.records["test"][5][0]
    with pytest.raises(IngestionError, match="duplicate record id 5 in split test"):
        EmbeddingStore(manifest, store.export_payload())


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
        EmbeddingStore(store.manifest, short)


def test_checksum_mismatch(small_store):
    store, _ = small_store
    payload = bytearray(store.export_payload())
    payload[0] ^= 0xFF
    with pytest.raises(IngestionError, match="checksum"):
        EmbeddingStore(store.manifest, bytes(payload))


class TestLoadNamesTheFile:
    """`EmbeddingStore.load` names the file at fault."""

    @pytest.fixture
    def saved(self, small_store, tmp_path):
        store, _ = small_store
        manifest, payload = tmp_path / "manifest.json", tmp_path / "payload.bin"
        store.save(manifest, payload)
        return manifest, payload

    def test_truncated_payload(self, saved):
        manifest, payload = saved
        data = payload.read_bytes()
        payload.write_bytes(data[:-4])
        with pytest.raises(IngestionError,
                           match=f"{payload}: {len(data) - 4} bytes, expected {len(data)}"):
            EmbeddingStore.load(manifest, payload)

    def test_flipped_byte(self, saved):
        manifest, payload = saved
        data = bytearray(payload.read_bytes())
        data[7] ^= 0x01
        payload.write_bytes(bytes(data))
        with pytest.raises(IngestionError, match=f"{payload}: sha256 checksum"):
            EmbeddingStore.load(manifest, payload)

    @pytest.mark.parametrize("text", ["{", "{}", '{"records": 3}'])
    def test_malformed_manifest(self, saved, text):
        manifest, payload = saved
        manifest.write_text(text)
        with pytest.raises(IngestionError, match=f"{manifest}: malformed manifest"):
            EmbeddingStore.load(manifest, payload)

    @pytest.mark.parametrize("fields, record, message", [
        ({"tokens": 2.5}, None, "tokens must be an integer >= 1, got 2.5"),
        ({"tokens": "2"}, None, "tokens must be an integer >= 1, got '2'"),
        ({"tokens": -2, "depth": -4}, None, "tokens must be an integer >= 1, got -2"),
        ({"class_names": "abc"}, None, "class_names must be a list of strings, got 'abc'"),
        ({}, [0.5, 0], "record [0.5, 0] in split train is not a pair of integers"),
        ({}, [0, True], "record [0, True] in split train is not a pair of integers"),
        ({}, [2**70, 0], f"record [{2**70}, 0] in split train is not a pair of integers"),
        ({}, [0, -2**70], f"record [0, {-2**70}] in split train is not a pair of integers"),
    ], ids=["tokens-float", "tokens-str", "negative-shape", "class-names-str",
            "record-id-float", "class-id-bool", "record-id-over-int64", "class-id-under-int64"])
    def test_manifest_fields_are_checked_not_truncated(self, saved, fields, record, message):
        manifest, payload = saved
        doc = {**json.loads(manifest.read_text()), **fields}
        if record is not None:
            doc["records"]["train"][0] = record
        manifest.write_text(json.dumps(doc))
        with pytest.raises(IngestionError, match=f"^{re.escape(str(manifest))}: malformed "
                                                 f"manifest .*{re.escape(message)}"):
            EmbeddingStore.load(manifest, payload)

    @pytest.mark.parametrize("split, row, column, value, message", [
        ("train", 0, 1, 99, "unknown class id 99 for record 0 in split train"),
        ("test", 3, 0, 5, "duplicate record id 5 in split test"),
    ])
    def test_manifest_fault_names_the_manifest(self, saved, split, row, column, value,
                                               message):
        manifest, payload = saved
        doc = json.loads(manifest.read_text())
        doc["records"][split][row][column] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(IngestionError, match=f"^{re.escape(str(manifest))}: {message}$"):
            EmbeddingStore.load(manifest, payload)


def test_unknown_class_id(small_store):
    store, _ = small_store
    manifest = DatasetManifest.from_json(store.manifest.to_json())
    manifest.records["train"][0][1] = 99
    with pytest.raises(IngestionError, match="class id 99"):
        EmbeddingStore(manifest, store.export_payload())


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
        brute = np.array([np.mean(store.grid("train", 0)[:, j], dtype=np.float64)
                          for j in range(7)])
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
                want = store.grid(split, rid).mean(axis=0, dtype=np.float64)
                np.testing.assert_array_equal(pooled[row], want)
            with pytest.raises(ValueError):
                pooled[0, 0] = 1.0


    @pytest.mark.parametrize("tokens", [2, 9, 17])
    def test_pooled_is_the_read_only_pooled_all_row(self, tokens):
        store, _ = toy_store(tokens=tokens, sparse_ids=True)
        for split in ("train", "test"):
            pooled = store.pooled_all(split)
            for row, rid in enumerate(store.ids(split)):
                vec = store.pooled(split, rid)
                assert vec.tobytes() == pooled[row].tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    vec[0] = 1.0


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

