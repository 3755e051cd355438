import numpy as np
import pytest

from pcnn.classifier import (
    ClassifierOutput,
    SyntheticClassifier,
    ValidationError,
    load_precomputed,
    save_outputs,
    top_q,
)
from pcnn.embedstore import build_store

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


class TestPredictSynthetic:
    def test_dominant_logit(self):
        store, centroids = centered_store()
        clf = SyntheticClassifier(centroids, tau=0.01)
        probs = clf.predict_split(store, "test").row(0)
        assert probs[store.class_of("test", 0)] > 0.99

    def test_equidistant_symmetry(self):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 50.0]])
        store = build_store(
            "x", ["a", "b", "c"],
            {"train": [(0, 0)], "test": [(0, 0)]},
            {"train": np.zeros((1, 1, 2)), "test": np.zeros((1, 1, 2))},
        )
        clf = SyntheticClassifier(centroids, tau=1.0)
        probs = clf.predict_split(store, "test").row(0)
        assert probs[0] == pytest.approx(probs[1], abs=1e-9)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            SyntheticClassifier(np.zeros((2, 2)), tau=0.0)

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


class TestPrecomputed:
    def test_roundtrip(self, tmp_path, small_store):
        store, centroids = small_store
        clf = SyntheticClassifier(centroids, tau=1.0)
        out = clf.predict_split(store, "test")
        save_outputs(out, tmp_path / "p.bin", tmp_path / "p.json")
        loaded = load_precomputed(tmp_path / "p.bin", tmp_path / "p.json")
        assert loaded.split == "test"
        np.testing.assert_allclose(loaded.probs, out.probs, atol=1e-7)

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
