import json
import re
import zlib

import numpy as np
import pytest

from pcnn import classifier
from pcnn.classifier import (
    ClassifierOutput,
    SyntheticClassifier,
    ValidationError,
    load_precomputed,
    save_outputs,
    top_q,
)
from pcnn.embedstore import build_store
from pcnn.experiment import ExperimentConfig, StageError, prepare

from conftest import toy_store


def centered_store(classes=4, depth=6, per_class=3):
    """Records exactly at their centroids (noiseless)."""
    rng = np.random.default_rng(0)
    centroids = rng.normal(size=(classes, depth)) * 5
    records = {"train": [], "test": []}
    grids = {"train": [], "test": []}
    for split in ("train", "test"):
        rid = 0
        for cid in range(classes):
            for _ in range(per_class):
                records[split].append((rid, cid))
                grids[split].append(np.broadcast_to(centroids[cid], (2, depth)).copy())
                rid += 1
    store = build_store("c", [f"c{i}" for i in range(classes)], records,
                        {s: np.array(grids[s]) for s in ("train", "test")})
    return store, centroids


def reference_predict(clf, store, split):
    """Per-record reference of `predict_split`: the softmax of one row, then
    its seeded corruption, with the top-Q ranked by a sort."""
    rows = []
    tag = zlib.crc32(split.encode())
    for rid, pooled in zip(store.ids(split), store.pooled_all(split)):
        diff = clf.centroids - pooled
        logits = -np.einsum("ij,ij->i", diff, diff) / clf.tau
        logits -= logits.max()
        e = np.exp(logits)
        p = e / e.sum()
        rng = np.random.default_rng(np.random.SeedSequence([clf.seed, tag, rid]))
        q = min(clf.corruption_q, len(p))
        if rng.random() < clf.corruption_rate and q >= 2:
            ranked = sorted(range(len(p)), key=lambda c: (-p[c], c))[:q]
            top1, partner = ranked[0], ranked[1 + rng.integers(q - 1)]
            p[top1], p[partner] = p[partner], p[top1]
        rows.append(p)
    return np.array(rows)


def wide_ids(n, seed):
    """n distinct ids: the edges of one and two uint32 words, 2**63 - 1, and
    draws from [2**32, 2**63)."""
    edges = [0, 2**32 - 1, 2**32, 2**63 - 1]
    drawn = np.random.default_rng(seed).integers(2**32, 2**63 - 1, size=n - len(edges))
    return np.concatenate([edges, drawn])


def with_ids(store, ids):
    """The store's records, labels and grids under other ids: split -> ids."""
    records = {s: list(zip(ids[s], store.labels(s))) for s in ("train", "test")}
    return build_store("ids", store.manifest.class_names, records,
                       {s: store.grids(s) for s in ("train", "test")})


class TestPredictSynthetic:
    def test_dominant_logit(self):
        store, centroids = centered_store()
        clf = SyntheticClassifier(centroids, tau=0.01)
        probs = clf.predict_split(store, "test").probs[store.rows("test", [0])[0]]
        assert probs[store.class_of("test", 0)] > 0.99

    def test_equidistant_symmetry(self):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 50.0]])
        store = build_store(
            "x", ["a", "b", "c"],
            {"train": [(0, 0)], "test": [(0, 0)]},
            {"train": np.zeros((1, 1, 2)), "test": np.zeros((1, 1, 2))},
        )
        clf = SyntheticClassifier(centroids, tau=1.0)
        probs = clf.predict_split(store, "test").probs[store.rows("test", [0])[0]]
        assert probs[0] == pytest.approx(probs[1], abs=1e-9)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            SyntheticClassifier(np.zeros((2, 2)), tau=0.0)

    @pytest.mark.parametrize("seed", [3.7, True, -1, "3"])
    def test_bad_seed_names_the_field(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            SyntheticClassifier(np.zeros((2, 2)), tau=1.0, seed=seed)

    def test_seed_beyond_int64_constructs(self):
        assert SyntheticClassifier(np.zeros((2, 2)), tau=1.0, seed=2**70).seed == 2**70

    def test_zero_corruption_perfect_on_centroids(self):
        store, centroids = centered_store()
        clf = SyntheticClassifier(centroids, tau=0.5)
        out = clf.predict_split(store, "test")
        assert np.all(np.argmax(out.probs, axis=1) == store.labels("test"))

    def test_corruption_rate_halves_accuracy(self):
        # 10,000 queries; corruption 0.5 swaps top-1 away, so accuracy should be
        # ~50% of the uncorrupted accuracy, within a binomial 99% CI
        store, centroids = centered_store(classes=5, per_class=2000 // 5 * 1)
        # grow to 10,000 test queries by repeated prediction over 5 seeds' worth
        clf = SyntheticClassifier(centroids, tau=0.5, corruption_rate=0.5,
                                  corruption_q=5, seed=11)
        out = clf.predict_split(store, "test")
        labels = store.labels("test")
        n = len(labels)
        acc = np.mean(np.argmax(out.probs, axis=1) == labels)
        p = 0.5
        ci = 2.576 * np.sqrt(p * (1 - p) / n)
        assert abs(acc - 0.5) < ci + 0.01

    def test_corruption_deterministic(self):
        store, centroids = centered_store()
        a = SyntheticClassifier(centroids, tau=1, corruption_rate=0.7, seed=3)
        b = SyntheticClassifier(centroids, tau=1, corruption_rate=0.7, seed=3)
        np.testing.assert_array_equal(
            a.predict_split(store, "test").probs, b.predict_split(store, "test").probs
        )

    @pytest.mark.parametrize("chunk", [1, 64, classifier._CHUNK])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_matches_per_record_reference(self, monkeypatch, chunk, split):
        # chunk 1 and 64 split the rows over many distance blocks. Ids of two
        # uint32 words with seeds of one, two and three make entropy of 3 to
        # 6 words, so pools with and without extra mixing rounds; Q 2 fixes
        # the partner and Q 4 draws it.
        monkeypatch.setattr(classifier, "_CHUNK", chunk)
        store, centroids = toy_store(classes=7, per_class=9, depth=6, seed=3, noise=2.0)
        wide = with_ids(store, {s: wide_ids(store.size(s), seed) for seed, s in
                                enumerate(("train", "test"))})
        cases = [(store, 5, 4)] + [(wide, seed, q) for seed in (5, 2**33, 2**70)
                                   for q in (2, 4)]
        for store, seed, q in cases:
            clf = SyntheticClassifier(centroids, tau=2.0, corruption_rate=0.6,
                                      corruption_q=q, seed=seed)
            got = clf.predict_split(store, split).probs
            want = reference_predict(clf, store, split)
            assert not np.array_equal(want, reference_predict(
                SyntheticClassifier(centroids, tau=2.0, seed=seed), store, split))
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_negative_record_id_names_the_split(self, tmp_path, rate):
        store, _ = toy_store(classes=2, per_class=3)
        ids = {"train": np.arange(6), "test": np.array([0, 1, -3, 2, -7, 4])}
        with_ids(store, ids).save(tmp_path / "m.json", tmp_path / "p.bin")
        cfg = ExperimentConfig(
            seeds=[1], output_dir=str(tmp_path / "out"), manifest_path=str(tmp_path / "m.json"),
            payload_path=str(tmp_path / "p.bin"), synthetic={"corruption_rate": rate},
            sampler={"q": 2}, comparator={"heads": 1}, rerank={"k": 2})
        pipe = prepare(cfg, 1)
        pipe.out_train  # every train id is non-negative
        with pytest.raises(StageError, match="test record ids must be non-negative to "
                                             "seed a stream, got -3") as info:
            pipe.out_test
        assert info.value.stage == "classifier"

    def test_probs_sum_to_one(self, small_store):
        store, centroids = small_store
        clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.5, seed=0)
        out = clf.predict_split(store, "test")
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)


class TestTopQ:
    def test_full_ranking(self):
        probs = np.array([0.1, 0.6, 0.3])
        pred = top_q(probs, 3)
        np.testing.assert_array_equal(pred.classes, [1, 2, 0])

    def test_example(self):
        pred = top_q(np.array([0.6, 0.3, 0.1]), 2)
        np.testing.assert_array_equal(pred.classes, [0, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_q(np.array([1.0]), 2)

    def test_tie_break_ascending_id(self):
        pred = top_q(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        np.testing.assert_array_equal(pred.classes, [0, 1])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(8))
            q = int(rng.integers(1, 9))
            pred = top_q(probs, q)
            oracle = sorted(range(8), key=lambda c: (-probs[c], c))[:q]
            np.testing.assert_array_equal(pred.classes, oracle)

    def test_prefix_property(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(10))
        for q in range(1, 10):
            np.testing.assert_array_equal(
                top_q(probs, q).classes, top_q(probs, q + 1).classes[:q]
            )


    @pytest.mark.parametrize("q", [1, 2, 5, 8])
    def test_rows_match_per_row_reference(self, q):
        # probabilities drawn from four values, so most rows hold many ties
        rng = np.random.default_rng(6)
        probs = rng.choice([0.0, 0.05, 0.1, 0.25], size=(200, 8))
        pred = top_q(probs, q)
        assert pred.classes.shape == pred.probs.shape == (200, q)
        for row, classes, got in zip(probs, pred.classes, pred.probs):
            want = sorted(range(8), key=lambda c: (-row[c], c))[:q]
            np.testing.assert_array_equal(classes, want)
            np.testing.assert_array_equal(got, row[want])
            np.testing.assert_array_equal(classes, top_q(row, q).classes)


@pytest.fixture
def saved(tmp_path, small_store):
    store, centroids = small_store
    out = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.5).predict_split(
        store, "test")
    save_outputs(out, tmp_path / "p.bin", tmp_path / "p.json")
    return out, tmp_path / "p.bin", tmp_path / "p.json"


class TestPrecomputed:
    def test_roundtrip(self, saved):
        out, matrix, sidecar = saved
        loaded = load_precomputed(matrix, sidecar)
        assert loaded.split == "test"
        assert loaded.ids == out.ids
        np.testing.assert_array_equal(loaded.probs, out.probs)

    def test_flipped_byte_rejected(self, saved):
        _, matrix, sidecar = saved
        blob = bytearray(matrix.read_bytes())
        blob[13] ^= 0x01
        matrix.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=f"{matrix}: sha256"):
            load_precomputed(matrix, sidecar)

    def test_truncated_matrix_rejected(self, saved):
        _, matrix, sidecar = saved
        matrix.write_bytes(matrix.read_bytes()[:-8])
        with pytest.raises(ValidationError, match=f"{matrix}: .* bytes, expected"):
            load_precomputed(matrix, sidecar)

    @pytest.mark.parametrize("key, value", [("dtype", "<f4"), ("ids", [0, 1]),
                                            ("bytes", 8)])
    def test_sidecar_disagreement_rejected(self, saved, key, value):
        _, matrix, sidecar = saved
        side = json.loads(sidecar.read_text())
        side[key] = value
        sidecar.write_text(json.dumps(side))
        with pytest.raises(ValidationError, match=str(sidecar)):
            load_precomputed(matrix, sidecar)

    @pytest.mark.parametrize("edit", [
        lambda side: side.pop("split"),
        lambda side: side.pop("ids"),
        lambda side: side.pop("classes"),
        lambda side: side.update(ids="0123"),
        lambda side: side.update(ids=[0, "1"]),
        lambda side: side.update(classes="4"),
        lambda side: side.update(split=None),
        None,  # truncated JSON
    ], ids=["no-split", "no-ids", "no-classes", "ids-str", "id-str", "classes-str",
            "split-null", "truncated"])
    def test_malformed_sidecar_names_the_sidecar(self, saved, edit):
        _, matrix, sidecar = saved
        if edit is None:
            sidecar.write_text(sidecar.read_text()[:40])
        else:
            side = json.loads(sidecar.read_text())
            edit(side)
            sidecar.write_text(json.dumps(side))
        message = f"^{re.escape(str(sidecar))}: malformed sidecar"
        with pytest.raises(ValidationError, match=message):
            load_precomputed(matrix, sidecar)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError):
            ClassifierOutput("test", [0], np.array([[-0.1, 1.1]])).validate()

    def test_row_sum_violation_names_row(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.05]])
        with pytest.raises(ValidationError, match="row 1"):
            ClassifierOutput("test", [0, 1], probs).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, tmp_path, bad):
        # NaN fails every comparison, so range and sum checks alone pass it
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [bad, bad]])
        out = ClassifierOutput("test", [0, 1, 2], probs)
        with pytest.raises(ValidationError, match="non-finite probability in row 2"):
            out.validate()
        save_outputs(out, tmp_path / "p.bin", tmp_path / "p.json")
        with pytest.raises(ValidationError, match="row 2"):
            load_precomputed(tmp_path / "p.bin", tmp_path / "p.json")

    def test_size_mismatch(self, tmp_path, small_store):
        store, centroids = small_store
        out = SyntheticClassifier(centroids, tau=1.0).predict_split(store, "test")
        save_outputs(out, tmp_path / "p.bin", tmp_path / "p.json")
        with open(tmp_path / "p.bin", "ab") as fh:
            fh.write(b"\x00" * 4)
        with pytest.raises(ValidationError):
            load_precomputed(tmp_path / "p.bin", tmp_path / "p.json")


def test_topq_accuracy_nondecreasing(small_store):
    from pcnn.reranker import topq_ceiling

    store, centroids = small_store
    clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.3, seed=1)
    out = clf.predict_split(store, "test")
    table = topq_ceiling(store, out, range(1, 5))
    vals = [table[q] for q in range(1, 5)]
    assert vals == sorted(vals)
    assert topq_ceiling(store, out, [store.manifest.num_classes])[
        store.manifest.num_classes
    ] == 1.0
