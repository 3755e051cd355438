import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from pcnn import reranker
from pcnn.classifier import ClassifierOutput, SyntheticClassifier, ValidationError, top_q
from pcnn.comparator import ComparatorConfig, ComparatorModel, score_rows
from pcnn.embedstore import build_store
from pcnn.nnindex import ClassIndex
from pcnn.reranker import (
    CosineScorer,
    ModelScorer,
    OracleScorer,
    RerankConfig,
    evaluate_rerank,
    knn_classify,
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

    def score(self, rows1, rows2, *, store, query_split):
        ids1, ids2 = store.ids(query_split), store.ids("train")
        return np.array([self.table.get((ids1[r1], ids2[r2]), self.default)
                         for r1, r2 in zip(rows1, rows2)])


def grid_store(grids1, grids2):
    """Store whose test split holds grids1 and train split grids2, in order."""
    records = {"test": [(i, 0) for i in range(len(grids1))],
               "train": [(i, 0) for i in range(len(grids2))]}
    return build_store("grids", ["c0"], records, {"test": grids1, "train": grids2})


def scoring_batch(monkeypatch, batch_size):
    """From here on, `ModelScorer` scores through `score_rows` in chunks of
    `batch_size` rather than `SCORE_BATCH`."""
    monkeypatch.setattr(reranker, "score_rows", partial(score_rows, batch_size=batch_size))


def score_all(scorer, store):
    """Scores of the pairs (test row i, train row i)."""
    rows = np.arange(store.size("test"))
    return scorer.score(rows, rows, store=store, query_split="test")


@pytest.fixture(scope="module")
def world():
    store, centroids = toy_store(classes=5, per_class=8, seed=6)
    index = ClassIndex.build(store)
    clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.4,
                              corruption_q=3, seed=2)
    out = clf.predict_split(store, "test")
    return store, index, out


def rows(table):
    """(query id, predicted class) of every row of a re-rank table."""
    return zip(table.query_ids.tolist(), table.predicted.tolist())


def reference_jsonl(table):
    """save_results' bytes from the per-query path the table replaced: each
    query's entries as Python values, its prediction by max over
    (final, prob, -class id), where a NaN final, as in np.argmax, beats
    any number, and the old per-query dict layout."""
    lines = []
    for i, qid in enumerate(table.query_ids.tolist()):
        entries = []
        for c, p, w, n, s in zip(table.classes[i].tolist(), table.probs[i].tolist(),
                                 table.wanted[i].tolist(), table.neighbors[i].tolist(),
                                 table.s_scores[i].tolist()):
            if w:
                entries.append((c, p, n, s, p * s if table.mode == "soft" else s))
            else:
                entries.append((c, p, [], None, -np.inf))
        best = max(entries, key=lambda e: (math.isnan(e[4]), 0.0 if math.isnan(e[4]) else e[4],
                                           e[1], -e[0]))
        obj = {
            "query": int(qid),
            "predicted": int(best[0]),
            "comparator_queries": sum(len(e[2]) for e in entries),
            "classes": [
                {
                    "class": int(c),
                    "prob": p,
                    "neighbors": [int(x) for x in n],
                    "s_score": s,
                    "final": None if s is None else f,
                }
                for c, p, n, s, f in entries
            ],
        }
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines).encode()


class TestRerank:
    def test_oracle_recovers_topk(self, world):
        # a perfect comparator must fix every query whose gt is in the top-K
        store, index, out = world
        cfg = RerankConfig(k=3)
        results = rerank_split(store, out, index, OracleScorer(), cfg, mode="hard")
        ceiling = topq_ceiling(store, out, [3])[3]
        acc = np.mean([p == store.class_of("test", q) for q, p in rows(results)])
        assert acc == pytest.approx(ceiling)

    def test_oracle_on_train_split_reaches_ceiling(self, world):
        # the oracle compares train labels with train labels; self-matches
        # are excluded from retrieval
        store, index, _ = world
        _, centroids = toy_store(classes=5, per_class=8, seed=6)
        clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.4,
                                  corruption_q=3, seed=3)
        out = clf.predict_split(store, "train")
        cfg = RerankConfig(k=3)
        results = rerank_split(store, out, index, OracleScorer(), cfg, query_split="train",
                               mode="hard")
        acc = np.mean([p == store.class_of("train", q) for q, p in rows(results)])
        assert acc == topq_ceiling(store, out, [3], query_split="train")[3]
        assert results.wanted.all()
        assert not np.any(results.neighbors == results.query_ids[:, None, None])

    def test_soft_reduces_to_c_with_unit_scores(self, world):
        # constant score 1 makes prob x score the classifier ranking itself
        store, index, out = world
        cfg = RerankConfig(k=4)
        results = rerank_split(store, out, index, FixedScorer({}, default=1.0), cfg)
        for q, p in rows(results):
            assert p == int(np.argmax(out.probs[store.rows("test", [q])[0]]))

    def test_hard_ignores_probability(self, world):
        store, index, out = world
        qid = store.ids("test")[0]
        cfg = RerankConfig(k=3)
        table = rerank_split(store, out, index, FixedScorer({}, default=1.0), cfg,
                             mode="hard")
        # all scores equal: tie-break falls back to C probability
        assert table.query_ids[0] == qid
        assert table.predicted[0] == int(np.argmax(out.probs[store.rows("test", [qid])[0]]))
        # now give the lowest-prob candidate a strictly higher score
        pred = top_q(out.probs[store.rows("test", [qid])[0]], 3)
        low = int(pred.classes[-1])
        scores = {}
        pooled = store.pooled("test", qid)
        nid, _ = index.nearest_in_class(pooled, low, rank=1)
        scores[(qid, nid)] = 0.9
        table = rerank_split(store, out, index, FixedScorer(scores, default=0.4), cfg,
                             mode="hard")
        assert table.predicted[0] == low

    def test_n_neighbors_averaging(self, world):
        store, index, out = world
        qid = store.ids("test")[1]
        cfg = RerankConfig(k=2, n_neighbors=3)
        pooled = store.pooled("test", qid)
        pred = top_q(out.probs[store.rows("test", [qid])[0]], 2)
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
        r = rerank_split(store, out, index, FixedScorer(table), cfg, mode="hard")
        for cid, s in zip(r.classes[1].tolist(), r.s_scores[1].tolist()):
            assert s == pytest.approx(want[cid])
        assert r.comparator_queries[1] == 6

    def test_final_tie_breaks(self, world):
        store, index, out = world
        qid = store.ids("test")[2]
        cfg = RerankConfig(k=3)
        # identical scores everywhere: tie-break is C prob, then lower id
        r = rerank_split(store, out, index, FixedScorer({}, default=0.7), cfg, mode="hard")
        pred = top_q(out.probs[store.rows("test", [qid])[0]], 3)
        assert r.predicted[2] == int(pred.classes[0])

    def test_prob_floor_skips_classes(self, world):
        store, index, out = world
        cfg = RerankConfig(k=5, prob_floor=0.2)
        base = RerankConfig(k=5, prob_floor=0.0)
        scorer = CosineScorer()
        floored = rerank_split(store, out, index, scorer, cfg)
        full = rerank_split(store, out, index, scorer, base)
        total_f = floored.comparator_queries.sum()
        total = full.comparator_queries.sum()
        assert total_f < total
        skipped = floored.probs < 0.2
        np.testing.assert_array_equal(floored.wanted, ~skipped)
        assert np.all(floored.s_scores[skipped] == 0)
        assert np.all(floored.final[skipped] == -np.inf)
        assert np.all(floored.neighbors[skipped] == 0)
        # skipped entries can never win
        won = floored.classes == floored.predicted[:, None]
        assert np.all(won.sum(axis=1) == 1)
        assert floored.wanted[won].all()

    def test_config_validation(self):
        for bad in (
            dict(k=0),
            dict(n_neighbors=0),
            dict(prob_floor=1.0),
            dict(prob_floor=-0.1),
        ):
            with pytest.raises(ValueError):
                RerankConfig(**bad)
        # the mode is a keyword of rerank_split, not a config field
        with pytest.raises(TypeError):
            RerankConfig(mode="hard")

    def test_unknown_mode(self, world):
        store, index, out = world
        with pytest.raises(ValueError, match="unknown mode 'x'"):
            rerank_split(store, out, index, CosineScorer(), RerankConfig(k=2), mode="x")

    def test_table_equality_compares_values(self, world):
        store, index, out = world
        soft = rerank_split(store, out, index, CosineScorer(), RerankConfig(k=3, prob_floor=0.15))
        copy = replace(soft, **{name: getattr(soft, name).copy() for name in reranker._TABLE_ARRAYS})
        assert copy == soft
        assert replace(soft, mode="hard") != soft
        flipped = soft.wanted.copy()
        flipped[0, 0] = not flipped[0, 0]
        assert replace(soft, wanted=flipped) != soft


class TestEvaluate:
    def test_counts_and_modes(self, world):
        store, index, out = world
        report = evaluate_rerank(
            store, out, index, OracleScorer(), RerankConfig(k=3)
        )
        assert report.mean_comparator_queries == 3.0
        assert report.accuracy_hard >= report.accuracy_c
        assert 0 <= report.accuracy_soft <= 1
        assert len(report.results_soft) == store.size("test")

    @pytest.mark.parametrize("floor", [0.0, 0.15])
    def test_one_pass_matches_separate_modes(self, world, tmp_path, monkeypatch, floor):
        # soft and hard come from one scoring pass; each must serialize byte
        # for byte like its own rerank_split, and the arrays they share are
        # read-only
        store, index, out = world
        model = ComparatorModel(ComparatorConfig(depth=5, tokens=3, heads=1), seed=0)
        model.mlp_w[3].data = np.random.default_rng(4).normal(size=model.mlp_w[3].data.shape)
        scoring_batch(monkeypatch, 7)
        scorer = ModelScorer(model)
        cfg = RerankConfig(k=3, n_neighbors=2, prob_floor=floor)
        report = evaluate_rerank(store, out, index, scorer, cfg)
        for mode, results in (("soft", report.results_soft), ("hard", report.results_hard)):
            alone = rerank_split(store, out, index, scorer, cfg, mode=mode)
            save_results(results, tmp_path / "one.jsonl")
            save_results(alone, tmp_path / "alone.jsonl")
            assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
            for name in ("query_ids", "classes", "probs", "wanted", "neighbors", "s_scores"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(results, name)[0] = 0

    def test_save_results_jsonl(self, world, tmp_path):
        store, index, out = world
        results = rerank_split(
            store, out, index, CosineScorer(), RerankConfig(k=2, prob_floor=0.15)
        )
        path = tmp_path / "r.jsonl"
        save_results(results, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(results)
        for i, obj in enumerate(lines):
            assert obj["query"] == results.query_ids[i]
            assert obj["predicted"] == results.predicted[i]
            for j, cobj in enumerate(obj["classes"]):
                assert cobj["class"] == results.classes[i, j]
                if not results.wanted[i, j]:
                    assert cobj["s_score"] is None and cobj["final"] is None
                else:
                    assert cobj["final"] == pytest.approx(results.final[i, j])

    @pytest.mark.parametrize("case", ["n1", "n3", "floor", "floor_all", "ties", "non_finite"])
    def test_save_results_matches_per_query_reference(self, world, tmp_path, case):
        store, index, out = world
        rng = np.random.default_rng(11)
        scorer = FixedScorer({(q, n): float(rng.random()) for q in store.ids("test")
                              for n in store.ids("train")})
        cfg = {"n1": dict(), "n3": dict(n_neighbors=3),
               "floor": dict(n_neighbors=2, prob_floor=0.15),
               "floor_all": dict(), "ties": dict(n_neighbors=2), "non_finite": dict()}[case]
        if case == "floor_all":
            # a flat classifier, so that a floor can lie above every top-1 prob
            _, centroids = toy_store(classes=5, per_class=8, seed=6)
            out = SyntheticClassifier(centroids, tau=50.0).predict_split(store, "test")
            cfg["prob_floor"] = (out.probs.max() + 1) / 2
        if case == "ties":
            # rounding plants probability ties; constant scores tie every final
            probs = rng.dirichlet(np.ones(out.probs.shape[1]), size=len(out.ids))
            out = ClassifierOutput("test", out.ids, np.round(probs, 1))
            scorer = FixedScorer({}, default=0.5)
        if case == "non_finite":
            # json.dumps spells these NaN, Infinity and -Infinity
            values = [float("nan"), float("inf"), float("-inf"), 0.25]
            scorer.table = {pair: values[i % 4] for i, pair in enumerate(scorer.table)}
        cfg = RerankConfig(k=4, **cfg)
        report = evaluate_rerank(store, out, index, scorer, cfg)
        for table in (report.results_soft, report.results_hard):
            save_results(table, tmp_path / "r.jsonl")
            assert (tmp_path / "r.jsonl").read_bytes() == reference_jsonl(table)
        wanted = report.results_soft.wanted
        assert wanted.all() == (case in ("n1", "n3", "ties", "non_finite"))
        assert wanted.any() == (case != "floor_all")
        if case == "ties":
            top = report.results_soft.probs
            assert np.any(top[:, 0] == top[:, 1])
        s_scores = report.results_soft.s_scores
        for has in (np.isnan, np.isposinf, np.isneginf):
            assert has(s_scores).any() == (case == "non_finite")

    def test_outputs_must_be_the_split_in_store_order(self, world):
        store, index, out = world
        perm = np.roll(np.arange(len(out.ids)), 1)
        other_split = ClassifierOutput("train", out.ids, out.probs)
        reordered = ClassifierOutput("test", np.array(out.ids)[perm], out.probs[perm])
        for bad in (other_split, reordered):
            with pytest.raises(ValidationError, match="store order"):
                evaluate_rerank(store, bad, index, CosineScorer(), RerankConfig(k=3))


class TestBatchedParity:
    @pytest.mark.parametrize("n_neighbors, floor", [(1, 0.0), (3, 0.0), (3, 0.15)])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_split_matches_per_entry_reference(self, world, n_neighbors, floor, mode):
        """Candidates, s scores (bitwise, against np.mean of each entry's
        own scores) and predictions against a per-query, per-class loop."""
        store, index, out = world
        rng = np.random.default_rng(9)
        table = {(q, n): float(rng.random()) for q in store.ids("test")
                 for n in store.ids("train")}
        cfg = RerankConfig(k=4, n_neighbors=n_neighbors, prob_floor=floor)
        results = rerank_split(store, out, index, FixedScorer(table), cfg, mode=mode)
        final, predicted = results.final.tolist(), results.predicted.tolist()
        skipped = 0
        for i, qid in enumerate(store.ids("test")):
            assert results.query_ids[i] == qid
            pooled = store.pooled_all("test")[store.rows("test", [qid])[0]]
            pred = top_q(out.probs[store.rows("test", [qid])[0]], 4)
            want = []
            for cid, p in zip(pred.classes.tolist(), pred.probs.tolist()):
                if floor > 0 and p < floor:
                    want.append((cid, p, [], None, -np.inf))
                    continue
                nids = [n for n, _ in index.nearest_k_in_class(pooled, cid, n_neighbors)]
                s = float(np.mean(np.array([table[(qid, n)] for n in nids])))
                want.append((cid, p, nids, s, p * s if mode == "soft" else s))
            got = [(c, p, n if w else [], s if w else None, f)
                   for c, p, w, n, s, f in zip(results.classes[i].tolist(),
                                               results.probs[i].tolist(),
                                               results.wanted[i].tolist(),
                                               results.neighbors[i].tolist(),
                                               results.s_scores[i].tolist(), final[i])]
            assert got == want
            best = max(want, key=lambda w: (w[4], w[1], -w[0]))
            assert predicted[i] == best[0]
            assert results.comparator_queries[i] == sum(len(w[2]) for w in want)
            skipped += sum(w[3] is None for w in want)
        assert (skipped > 0) == (floor > 0)

    def test_evaluate_matches_per_query_accuracies(self, world):
        store, index, out = world
        report = evaluate_rerank(store, out, index, CosineScorer(),
                                 RerankConfig(k=3, n_neighbors=2, prob_floor=0.1))
        labels = {rid: store.class_of("test", rid) for rid in store.ids("test")}
        assert report.accuracy_c == np.mean(
            [int(np.argmax(out.probs[store.rows("test", [rid])[0]]) == labels[rid])
             for rid in store.ids("test")])
        for acc, results in ((report.accuracy_soft, report.results_soft),
                             (report.accuracy_hard, report.results_hard)):
            assert acc == np.mean([int(p == labels[q]) for q, p in rows(results)])

    def test_topq_ceiling_matches_per_row_reference(self):
        store, centroids = toy_store(classes=6, per_class=10, seed=8, noise=3.0)
        out = SyntheticClassifier(centroids, tau=2.0, corruption_rate=0.5,
                                  corruption_q=4, seed=1).predict_split(store, "test")
        # rounding the probabilities plants ties, broken by ascending id
        out.probs = np.round(out.probs, 1)
        ranks = []
        for rid, label in zip(store.ids("test"), store.labels("test")):
            row = out.probs[store.rows("test", [rid])[0]]
            ranks.append(sorted(range(6), key=lambda c: (-row[c], c)).index(label))
        table = topq_ceiling(store, out, range(1, 7))
        assert table == {q: float(np.mean(np.array(ranks) < q)) for q in range(1, 7)}
        assert len(set(table.values())) > 2
        # C's accuracy reads the same ordering, ties included
        report = evaluate_rerank(store, out, ClassIndex.build(store), OracleScorer(),
                                 RerankConfig(k=3))
        assert report.accuracy_c == table[1]


class TestScorers:
    def test_cosine_identical_is_one(self):
        g = np.random.default_rng(0).normal(size=(3, 2, 4))
        s = score_all(CosineScorer(), grid_store(g, g))
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_cosine_opposite_is_zero(self):
        g = np.random.default_rng(1).normal(size=(3, 2, 4))
        s = score_all(CosineScorer(), grid_store(g, -g))
        np.testing.assert_allclose(s, 0.0, atol=1e-12)

    def test_cosine_range(self):
        rng = np.random.default_rng(2)
        store = grid_store(rng.normal(size=(50, 2, 4)), rng.normal(size=(50, 2, 4)))
        s = score_all(CosineScorer(), store)
        assert np.all((s >= 0) & (s <= 1))

    def test_cosine_reads_the_given_rows(self):
        rng = np.random.default_rng(5)
        store = grid_store(rng.normal(size=(4, 2, 4)), rng.normal(size=(6, 2, 4)))
        rows1, rows2 = np.array([3, 0, 3, 1]), np.array([5, 5, 2, 0])
        s = CosineScorer().score(rows1, rows2, store=store, query_split="test")
        a = store.grids("test")[rows1].mean(axis=1, dtype=np.float64)
        b = store.grids("train")[rows2].mean(axis=1, dtype=np.float64)
        want = 0.5 * (1 + np.sum(a * b, axis=1)
                      / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)))
        np.testing.assert_allclose(s, want, rtol=1e-12)

    def test_model_scorer_batches_consistently(self, monkeypatch):
        cfg = ComparatorConfig(depth=5, tokens=3, heads=1)
        model = ComparatorModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        store = grid_store(rng.normal(size=(10, 3, 5)), rng.normal(size=(10, 3, 5)))
        scoring_batch(monkeypatch, 3)
        a = score_all(ModelScorer(model), store)
        scoring_batch(monkeypatch, 100)
        b = score_all(ModelScorer(model), store)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_model_scorer_branches_each_distinct_row_once(self, monkeypatch):
        cfg = ComparatorConfig(depth=5, tokens=3, heads=1)
        model = ComparatorModel(cfg, seed=0)
        rng = np.random.default_rng(6)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        store = grid_store(rng.normal(size=(3, 3, 5)), rng.normal(size=(4, 3, 5)))
        rows1, rows2 = rng.integers(0, 3, 17), rng.integers(0, 4, 17)
        scoring_batch(monkeypatch, 5)
        scorer = ModelScorer(model)
        real, branched = model.branch, []

        def branch(grids):
            branched.append(len(grids))
            return real(grids)

        monkeypatch.setattr(model, "branch", branch)
        got = scorer.score(rows1, rows2, store=store, query_split="test")
        assert sum(branched) == len(set(rows1.tolist())) + len(set(rows2.tolist()))
        g1, g2 = store.grids("test")[rows1], store.grids("train")[rows2]
        np.testing.assert_array_equal(got, np.concatenate(
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

    @pytest.mark.parametrize("n", [36, 65, 129])
    def test_sanity_shuffled_pairs_are_never_self_pairs(self, monkeypatch, n):
        # 65 and 129 records leave a one-record tail after the batches of 64
        rng = np.random.default_rng(n)
        store = grid_store(rng.normal(size=(n, 3, 5)), rng.normal(size=(2, 3, 5)))
        calls = []

        def score_rows(model, grids1, rows1, grids2, rows2, *args):
            calls.append((np.asarray(rows1), np.asarray(rows2)))
            return np.zeros(len(rows1))

        monkeypatch.setattr(reranker, "score_rows", score_rows)
        sanity_suite(None, store, seed=3)
        rows, partner = calls[2]
        np.testing.assert_array_equal(rows, np.arange(n))
        assert np.all(partner != rows)
        np.testing.assert_array_equal(np.sort(partner), np.arange(n))

    def test_topq_ceiling_known_values(self):
        store, centroids = toy_store(classes=4, per_class=4, seed=8)
        clf = SyntheticClassifier(centroids, tau=1.0, seed=0)
        out = clf.predict_split(store, "test")
        table = topq_ceiling(store, out, [1, 4])
        labels = store.labels("test")
        acc1 = float(np.mean(np.argmax(out.probs, axis=1) == labels))
        assert table[1] == pytest.approx(acc1)
        assert table[4] == 1.0
