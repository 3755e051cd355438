import json

import numpy as np
import pytest

from pcnn import reranker
from pcnn.classifier import SyntheticClassifier, top_q
from pcnn.comparator import ComparatorConfig, ComparatorModel
from pcnn.nnindex import ClassIndex
from pcnn.reranker import (
    CosineScorer,
    ModelScorer,
    OracleScorer,
    RerankConfig,
    evaluate_rerank,
    knn_classify,
    rerank,
    rerank_split,
    sanity_suite,
    save_results,
    topq_ceiling,
)

from conftest import toy_store


class FixedScorer:
    """Deterministic stand-in: score looked up by (query_id, neighbor_id)."""

    def __init__(self, table, default=0.5):
        self.table = table
        self.default = default

    def score(self, grids1, grids2, meta):
        return np.array([self.table.get(m, self.default) for m in meta])


@pytest.fixture(scope="module")
def world():
    store, centroids = toy_store(classes=5, per_class=8, seed=6)
    index = ClassIndex.build(store)
    clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.4,
                              corruption_q=3, seed=2)
    out = clf.predict_split(store, "test")
    return store, index, out


class TestRerank:
    def test_oracle_recovers_topk(self, world):
        # a perfect comparator must fix every query whose gt is in the top-K
        store, index, out = world
        cfg = RerankConfig(k=3, mode="hard")
        results = rerank_split(store, out, index, OracleScorer(store), cfg)
        ceiling = topq_ceiling(store, out, [3])[3]
        acc = np.mean(
            [r.predicted == store.class_of("test", r.query_id) for r in results]
        )
        assert acc == pytest.approx(ceiling)

    def test_soft_reduces_to_c_with_unit_scores(self, world):
        # constant score 1 makes prob x score the classifier ranking itself
        store, index, out = world
        cfg = RerankConfig(k=4, mode="soft")
        results = rerank_split(store, out, index, FixedScorer({}, default=1.0), cfg)
        for r in results:
            assert r.predicted == int(np.argmax(out.row(r.query_id)))

    def test_hard_ignores_probability(self, world):
        store, index, out = world
        qid = store.ids("test")[0]
        cfg = RerankConfig(k=3, mode="hard")
        entries = rerank(store, out, index, FixedScorer({}, default=1.0), cfg, qid)
        # all scores equal: tie-break falls back to C probability
        assert entries.predicted == int(np.argmax(out.row(qid)))
        # now give the lowest-prob candidate a strictly higher score
        pred = top_q(out.row(qid), 3)
        low = int(pred.classes[-1])
        table = {}
        pooled = store.pooled("test", qid)
        nid, _ = index.nearest_in_class(pooled, low, rank=1)
        table[(qid, nid)] = 0.9
        r = rerank(store, out, index, FixedScorer(table, default=0.4), cfg, qid)
        assert r.predicted == low

    def test_single_matches_split(self, world):
        store, index, out = world
        cfg = RerankConfig(k=3, mode="soft")
        scorer = CosineScorer()
        split = rerank_split(store, out, index, scorer, cfg)
        for r in split[:5]:
            single = rerank(store, out, index, scorer, cfg, r.query_id)
            assert single.predicted == r.predicted
            assert [e.final for e in single.entries] == [e.final for e in r.entries]

    def test_n_neighbors_averaging(self, world):
        store, index, out = world
        qid = store.ids("test")[1]
        cfg = RerankConfig(k=2, n_neighbors=3, mode="hard")
        pooled = store.pooled("test", qid)
        pred = top_q(out.row(qid), 2)
        table = {}
        want = {}
        for cid in pred.classes:
            vals = []
            for rank, (nid, _) in enumerate(
                index.nearest_k_in_class(pooled, int(cid), 3), start=1
            ):
                v = 0.1 * rank + 0.01 * cid
                table[(qid, nid)] = v
                vals.append(v)
            want[int(cid)] = np.mean(vals)
        r = rerank(store, out, index, FixedScorer(table), cfg, qid)
        for e in r.entries:
            assert e.s_score == pytest.approx(want[e.class_id])
        assert r.comparator_queries == 6

    def test_final_tie_breaks(self, world):
        store, index, out = world
        qid = store.ids("test")[2]
        cfg = RerankConfig(k=3, mode="hard")
        # identical scores everywhere: tie-break is C prob, then lower id
        r = rerank(store, out, index, FixedScorer({}, default=0.7), cfg, qid)
        pred = top_q(out.row(qid), 3)
        assert r.predicted == int(pred.classes[0])

    def test_prob_floor_skips_classes(self, world):
        store, index, out = world
        cfg = RerankConfig(k=5, mode="soft", prob_floor=0.2)
        base = RerankConfig(k=5, mode="soft", prob_floor=0.0)
        scorer = CosineScorer()
        floored = rerank_split(store, out, index, scorer, cfg)
        full = rerank_split(store, out, index, scorer, base)
        total_f = sum(r.comparator_queries for r in floored)
        total = sum(r.comparator_queries for r in full)
        assert total_f < total
        for r in floored:
            for e in r.entries:
                if e.prob < 0.2:
                    assert e.s_score is None
                    assert e.final == -np.inf
                    assert e.neighbor_ids == []
            # skipped entries can never win
            assert r.entries[
                [e.class_id for e in r.entries].index(r.predicted)
            ].s_score is not None

    def test_config_validation(self):
        for bad in (
            dict(k=0),
            dict(n_neighbors=0),
            dict(mode="x"),
            dict(prob_floor=1.0),
            dict(prob_floor=-0.1),
        ):
            with pytest.raises(ValueError):
                RerankConfig(**bad)


class TestEvaluate:
    def test_counts_and_modes(self, world):
        store, index, out = world
        report = evaluate_rerank(
            store, out, index, OracleScorer(store), RerankConfig(k=3)
        )
        assert report.mean_comparator_queries == 3.0
        assert report.accuracy_hard >= report.accuracy_c
        assert 0 <= report.accuracy_soft <= 1
        assert len(report.results_soft) == store.size("test")

    @pytest.mark.parametrize("floor", [0.0, 0.15])
    def test_one_pass_matches_separate_modes(self, world, tmp_path, floor):
        # soft and hard come from one scoring pass; each must serialize byte
        # for byte like its own rerank_split, with entries not shared
        store, index, out = world
        model = ComparatorModel(ComparatorConfig(depth=5, tokens=3, heads=1), seed=0)
        model.mlp_w[3].data = np.random.default_rng(4).normal(size=model.mlp_w[3].data.shape)
        scorer = ModelScorer(model, batch_size=7)
        cfg = RerankConfig(k=3, n_neighbors=2, prob_floor=floor)
        report = evaluate_rerank(store, out, index, scorer, cfg)
        for mode, results in (("soft", report.results_soft), ("hard", report.results_hard)):
            alone = rerank_split(store, out, index, scorer,
                                 RerankConfig(3, 2, mode, floor))
            save_results(results, tmp_path / "one.jsonl")
            save_results(alone, tmp_path / "alone.jsonl")
            assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
        for r_soft, r_hard in zip(report.results_soft, report.results_hard):
            assert all(a is not b for a, b in zip(r_soft.entries, r_hard.entries))

    def test_chunked_scoring_matches_one_gather(self, world, monkeypatch):
        # chunks a multiple of the scorer's batch leave every batch as is
        store, index, out = world
        model = ComparatorModel(ComparatorConfig(depth=5, tokens=3, heads=1), seed=0)
        model.mlp_w[3].data = np.random.default_rng(4).normal(size=model.mlp_w[3].data.shape)
        scorer = ModelScorer(model, batch_size=4)
        cfg = RerankConfig(k=3, n_neighbors=2)
        whole = rerank_split(store, out, index, scorer, cfg)
        real, sizes = scorer.score, []

        def score(grids1, grids2, meta):
            sizes.append(len(grids1))
            return real(grids1, grids2, meta)

        monkeypatch.setattr(scorer, "score", score)
        monkeypatch.setattr(reranker, "_GATHER", 8)
        chunked = rerank_split(store, out, index, scorer, cfg)
        assert sizes == [8] * (store.size("test") * 3 * 2 // 8)
        assert [r.to_json_obj() for r in chunked] == [r.to_json_obj() for r in whole]

    def test_save_results_jsonl(self, world, tmp_path):
        store, index, out = world
        results = rerank_split(
            store, out, index, CosineScorer(), RerankConfig(k=2, prob_floor=0.15)
        )
        path = tmp_path / "r.jsonl"
        save_results(results, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(results)
        for obj, r in zip(lines, results):
            assert obj["query"] == r.query_id
            assert obj["predicted"] == r.predicted
            for cobj, e in zip(obj["classes"], r.entries):
                assert cobj["class"] == e.class_id
                if e.s_score is None:
                    assert cobj["s_score"] is None and cobj["final"] is None
                else:
                    assert cobj["final"] == pytest.approx(e.final)


class TestScorers:
    def test_cosine_identical_is_one(self):
        g = np.random.default_rng(0).normal(size=(3, 2, 4))
        s = CosineScorer().score(g, g)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_cosine_opposite_is_zero(self):
        g = np.random.default_rng(1).normal(size=(3, 2, 4))
        s = CosineScorer().score(g, -g)
        np.testing.assert_allclose(s, 0.0, atol=1e-12)

    def test_cosine_range(self):
        rng = np.random.default_rng(2)
        s = CosineScorer().score(rng.normal(size=(50, 2, 4)), rng.normal(size=(50, 2, 4)))
        assert np.all((s >= 0) & (s <= 1))

    def test_model_scorer_batches_consistently(self, world):
        store, _, _ = world
        cfg = ComparatorConfig(depth=5, tokens=3, heads=1)
        model = ComparatorModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        g1 = rng.normal(size=(10, 3, 5))
        g2 = rng.normal(size=(10, 3, 5))
        a = ModelScorer(model, batch_size=3).score(g1, g2)
        b = ModelScorer(model, batch_size=100).score(g1, g2)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_model_scorer_meta_dedupes_without_changing_scores(self, monkeypatch):
        cfg = ComparatorConfig(depth=5, tokens=3, heads=1)
        model = ComparatorModel(cfg, seed=0)
        rng = np.random.default_rng(6)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        queries, neighbors = rng.normal(size=(3, 3, 5)), rng.normal(size=(4, 3, 5))
        meta = [(int(q), int(n)) for q, n in zip(rng.integers(0, 3, 17), rng.integers(0, 4, 17))]
        g1 = queries[[q for q, _ in meta]]
        g2 = neighbors[[n for _, n in meta]]
        scorer = ModelScorer(model, batch_size=5)
        real, branched = model.branch, []
        def branch(grids):
            branched.append(len(grids))
            return real(grids)

        monkeypatch.setattr(model, "branch", branch)
        with_meta = scorer.score(g1, g2, meta)
        assert sum(branched) == len({q for q, _ in meta}) + len({n for _, n in meta})
        np.testing.assert_array_equal(with_meta, scorer.score(g1, g2))
        np.testing.assert_array_equal(with_meta, np.concatenate(
            [model.score_pairs(g1[lo : lo + 5], g2[lo : lo + 5]) for lo in range(0, 17, 5)]))


class TestBaselinesAndDiagnostics:
    def test_knn_matches_bruteforce_vote(self, world):
        store, index, _ = world
        scorer = CosineScorer()
        for qid in store.ids("test")[:10]:
            got = knn_classify(store, index, scorer, qid, k=7)
            pooled = store.pooled("test", qid)
            dists = sorted(
                (float(np.sum((store.pooled("train", r) - pooled) ** 2)), r)
                for r in store.ids("train")
            )
            top = [r for _, r in dists[:7]]
            votes = {}
            for r in top:
                c = store.class_of("train", r)
                votes[c] = votes.get(c, 0) + 1
            best = max(votes.values())
            assert votes[got] == best

    def test_untrained_model_sanity_rates_zero(self, world):
        # untrained comparator outputs exactly 0.5; strict threshold rejects all
        store, _, _ = world
        cfg = ComparatorConfig(depth=5, tokens=3, heads=1)
        model = ComparatorModel(cfg, seed=0)
        rep = sanity_suite(model, store, seed=0)
        assert rep.self_pair_rate == 0.0
        assert rep.random_grid_rate == 0.0
        assert rep.shuffled_grid_rate == 0.0

    def test_topq_ceiling_known_values(self):
        store, centroids = toy_store(classes=4, per_class=4, seed=8)
        clf = SyntheticClassifier(centroids, tau=1.0, seed=0)
        out = clf.predict_split(store, "test")
        table = topq_ceiling(store, out, [1, 4])
        labels = store.labels("test")
        acc1 = float(np.mean(np.argmax(out.probs, axis=1) == labels))
        assert table[1] == pytest.approx(acc1)
        assert table[4] == 1.0
