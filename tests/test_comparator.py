import hashlib
import json
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from pcnn import comparator
from pcnn import numkernel as nk
from pcnn.classifier import SyntheticClassifier
from pcnn.comparator import (
    CheckpointError,
    ComparatorConfig,
    ComparatorModel,
    TrainConfig,
    TrainingError,
    distinct_grids,
    evaluate_binary,
    expected_param_count,
    load_checkpoint,
    metrics_from_scores,
    one_cycle_lr,
    pairset_rows,
    save_checkpoint,
    score_pairset,
    score_rows,
    train,
)
from pcnn.nnindex import ClassIndex
from pcnn.pairsampler import SamplerConfig, sample_eval, sample_train

from conftest import toy_store


def small_cfg(**kw):
    base = dict(depth=8, tokens=3, blocks=1, cross_layers=1, self_layers=1, heads=2)
    base.update(kw)
    return ComparatorConfig(**base)


def branch_calls(model, monkeypatch):
    """The grid count of each `model.branch` call from here on."""
    real, calls = model.branch, []

    def branch(grids):
        calls.append(len(grids))
        return real(grids)

    monkeypatch.setattr(model, "branch", branch)
    return calls


class TestArchitecture:
    @pytest.mark.parametrize("lmn", [(1, 1, 1), (2, 4, 4), (3, 3, 3), (0, 0, 0)])
    def test_param_count_matches_formula(self, lmn):
        l, m, n = lmn
        cfg = small_cfg(blocks=l, cross_layers=m, self_layers=n)
        model = ComparatorModel(cfg, seed=0)
        assert model.param_count() == expected_param_count(cfg)

    def test_untrained_score_is_half(self):
        # zero-init final MLP layer forces logit 0 before any training
        model = ComparatorModel(small_cfg(), seed=1)
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=(5, 3, 8))
        g2 = rng.normal(size=(5, 3, 8))
        np.testing.assert_array_equal(model.score_pairs(g1, g2), 0.5)

    def test_swap_symmetry(self):
        model = ComparatorModel(small_cfg(blocks=2, self_layers=2), seed=2)
        # give the head nonzero weights so symmetry is tested on real scores
        rng = np.random.default_rng(3)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        g1 = rng.normal(size=(4, 3, 8))
        g2 = rng.normal(size=(4, 3, 8))
        # symmetrize the first MLP layer so concat order cannot matter
        d = model.cfg.depth
        model.mlp_w[0].data[d:] = model.mlp_w[0].data[:d]
        a = model.score_pairs(g1, g2)
        b = model.score_pairs(g2, g1)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_blocks_is_mlp_only(self):
        model = ComparatorModel(small_cfg(blocks=0, cross_layers=0, self_layers=0), seed=4)
        rng = np.random.default_rng(5)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        g1 = rng.normal(size=(2, 3, 8))
        g2 = rng.normal(size=(2, 3, 8))
        # token order must not matter: the L=0 branch only sees pooled tokens
        perm = rng.permutation(3)
        a = model.score_pairs(g1, g2)
        b = model.score_pairs(g1[:, perm], g2)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_shape_mismatch_raises(self):
        model = ComparatorModel(small_cfg(), seed=0)
        with pytest.raises(nk.ShapeError):
            model.score_pairs(np.zeros((1, 2, 8)), np.zeros((1, 3, 8)))

    def test_heads_must_divide_depth(self):
        with pytest.raises(nk.ConfigError):
            ComparatorConfig(depth=10, tokens=2, heads=4)

    def test_forward_pair_matches_batch(self):
        model = ComparatorModel(small_cfg(), seed=6)
        rng = np.random.default_rng(7)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        g1 = rng.normal(size=(3, 3, 8))
        g2 = rng.normal(size=(3, 3, 8))
        batch = model.score_pairs(g1, g2)
        singles = [model.score_pairs(g1[i : i + 1], g2[i : i + 1])[0] for i in range(3)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestScoreRows:
    CONFIGS = [
        dict(blocks=0, cross_layers=0, self_layers=0),
        dict(blocks=1),
        dict(blocks=2),
        dict(blocks=1, self_layers=2),
        dict(blocks=2, self_layers=2, cross_layers=2),
    ]

    @staticmethod
    def model(cfg, seed=0):
        model = ComparatorModel(small_cfg(**cfg), seed=seed)
        rng = np.random.default_rng(seed + 1)
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        model.bn1.running_mean = rng.normal(0, 0.1, size=512)
        return model

    @staticmethod
    def per_batch(model, grids1, rows1, grids2, rows2, batch_size):
        return np.concatenate([
            model.score_pairs(grids1[rows1[lo : lo + batch_size]],
                              grids2[rows2[lo : lo + batch_size]])
            for lo in range(0, len(rows1), batch_size)
        ])

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("single", [False, True])
    def test_bitwise_equal_to_score_pairs(self, cfg, single, monkeypatch):
        # duplicated, unsorted rows; 23 pairs in batches of 4; with `single`
        # every pair shares one query row
        model = self.model(cfg)
        rng = np.random.default_rng(8)
        grids1, grids2 = rng.normal(size=(6, 3, 8)), rng.normal(size=(5, 3, 8))
        rows1 = np.full(23, 4) if single else rng.integers(0, 6, size=23)
        rows2 = rng.integers(0, 5, size=23)
        want = self.per_batch(model, grids1, rows1, grids2, rows2, 4)
        real, branched = model.branch, []

        def branch(grids):
            branched.append(len(grids))
            return real(grids)

        monkeypatch.setattr(model, "branch", branch)
        got = score_rows(model, grids1, rows1, grids2, rows2, batch_size=4)
        np.testing.assert_array_equal(got, want)
        # each distinct row runs the branch once
        assert sum(branched) == len(np.unique(rows1)) + len(np.unique(rows2))
        assert max(branched) <= 4

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_shared_grids_branch_each_distinct_row_once(self, cfg, monkeypatch):
        # both sides index one array: a row on both sides is one record
        model = self.model(cfg)
        rng = np.random.default_rng(10)
        grids = rng.normal(size=(6, 3, 8))
        rows1, rows2 = rng.integers(0, 4, size=15), rng.integers(2, 6, size=15)
        want = self.per_batch(model, grids, rows1, grids, rows2, 4)
        branched = branch_calls(model, monkeypatch)
        got = score_rows(model, grids, rows1, grids, rows2, batch_size=4)
        np.testing.assert_array_equal(got, want)
        assert sum(branched) == len(np.unique(np.concatenate([rows1, rows2])))

    def test_no_rows(self):
        model = self.model(dict(blocks=1))
        grids = np.zeros((2, 3, 8))
        assert score_rows(model, grids, [], grids, []).shape == (0,)

    @pytest.fixture
    def worker(self, monkeypatch):
        """A fresh scoring worker, so the two-thread path runs on any machine,
        and a short switch interval, so the two threads interleave often."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(1) as pool:
                monkeypatch.setattr(comparator, "_WORKER", pool)
                yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("shared", [False, True])
    def test_two_threads_bitwise_equal_to_serial(self, worker, shared, monkeypatch):
        # 19 pairs in 5 batches of 4: the caller scores batches 0, 2 and 4,
        # the worker 1 and 3; `shared` makes both sides index one array
        model = self.model(dict(blocks=2))
        rng = np.random.default_rng(12)
        grids1 = rng.normal(size=(9, 3, 8))
        grids2 = grids1 if shared else rng.normal(size=(7, 3, 8))
        rows1, rows2 = rng.integers(0, 9, size=19), rng.integers(0, len(grids2), size=19)
        want = self.per_batch(model, grids1, rows1, grids2, rows2, 4)
        real, scored_on = model.pair_logits, []

        def pair_logits(*args):
            scored_on.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(model, "pair_logits", pair_logits)
        got = score_rows(model, grids1, rows1, grids2, rows2, batch_size=4)
        np.testing.assert_array_equal(got, want)
        caller = threading.get_ident()
        assert sorted(t == caller for t in scored_on) == [False, False, True, True, True]

    def test_worker_error_is_raised(self, worker, monkeypatch):
        model = self.model(dict(blocks=1))
        grids = np.random.default_rng(13).normal(size=(6, 3, 8))
        real = model.pair_logits

        def pair_logits(recs, i1, i2, mode):
            if threading.current_thread() is not threading.main_thread():
                raise nk.ShapeError("worker batch")
            return real(recs, i1, i2, mode)

        monkeypatch.setattr(model, "pair_logits", pair_logits)
        with pytest.raises(nk.ShapeError, match="worker batch"):
            score_rows(model, grids, np.arange(6), grids, np.arange(6)[::-1], batch_size=2)

    def test_refuses_an_active_tape(self):
        model = self.model(dict(blocks=1))
        grids = np.zeros((2, 3, 8))
        with nk.Tape(), pytest.raises(nk.TapeError):
            score_rows(model, grids, [0], grids, [1])

    def test_branch_rejects_wrong_grid_shape(self):
        model = self.model(dict(blocks=1))
        for bad in (np.zeros((2, 4, 8)), np.zeros((2, 3, 7)), np.zeros((3, 8))):
            with pytest.raises(nk.ShapeError):
                model.branch(bad)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_forward_logits_is_fuse_of_branches(self, cfg):
        # a pair's logit fuses its two records' per-record work, however the
        # record set is laid out: here each grid once, in reverse order
        model = self.model(cfg)
        rng = np.random.default_rng(9)
        g1, g2 = rng.normal(size=(5, 3, 8)), rng.normal(size=(5, 3, 8))
        recs = model.records(np.concatenate([g2, g1])[::-1])
        np.testing.assert_array_equal(
            model.forward_logits(g1, g2).data,
            model.pair_logits(recs, np.arange(4, -1, -1), np.arange(9, 4, -1)).data,
        )


def per_pair_logits(model, g1, g2, mode):
    """The pair composition with no per-record sharing: both branches of
    every pair, each cross layer over both full states, then the head."""
    cfg = model.cfg
    x1, x2 = model.branch(g1), model.branch(g2)
    for l in range(cfg.blocks):
        if l:
            for p in model.self_attn[l]:
                x1 = nk.add(x1, nk.mhsa(x1, p, cfg.heads))
                x2 = nk.add(x2, nk.mhsa(x2, p, cfg.heads))
        for p in model.cross_attn[l]:
            x1, x2 = nk.cross_attention(x1, x2, p, cfg.heads)
    h = nk.concat([model._branch_cls(x1), model._branch_cls(x2)], axis=1)
    return model._head(h, mode)


class TestUnionStep:
    @pytest.mark.parametrize("lm", [(0, 1), (1, 1), (1, 2), (2, 1)])
    def test_grads_match_per_pair_composition(self, lm):
        l, m = lm
        model = ComparatorModel(small_cfg(blocks=l, cross_layers=m), seed=11)
        rng = np.random.default_rng(12)
        # the final layer's zero init would zero most gradients
        model.mlp_w[3].data = rng.normal(size=model.mlp_w[3].data.shape)
        grids = rng.normal(size=(7, 3, 8))
        rows1, rows2 = rng.integers(0, 7, size=12), rng.integers(0, 7, size=12)
        y = rng.integers(0, 2, size=12).astype(np.float64)
        snap = model.snapshot()

        def step(logits_of):
            model.restore(snap)
            with nk.Tape() as tape:
                loss = nk.bce_with_logits(logits_of(), y)
            for _, t in model.parameters():
                t.grad = None
            nk.backward(tape, loss)
            return float(loss.data), {name: t.grad for name, t in model.parameters()}

        def union():
            distinct, at1, at2 = distinct_grids(grids, rows1, grids, rows2)
            assert len(distinct) == len(np.unique(np.concatenate([rows1, rows2])))
            return model.pair_logits(model.records(distinct), at1, at2, "train")

        loss, got = step(union)
        want_loss, want = step(lambda: per_pair_logits(model, grids[rows1], grids[rows2], "train"))
        assert loss == pytest.approx(want_loss, rel=1e-12)
        # relative to the largest gradient entry: some entries are zero
        # analytically (key biases, batch-constant CLS rows) and rounding noise
        scale = max(np.max(np.abs(w)) for w in want.values())
        for name, w in want.items():
            assert np.any(w != 0), name
            assert np.max(np.abs(got[name] - w)) <= 1e-12 * scale, name


class TestMetrics:
    def test_perfect_separation(self):
        m = metrics_from_scores([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert m.accuracy == m.precision == m.recall == m.f1 == 1.0
        assert m.confusion == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}

    def test_threshold_is_strict(self):
        # a score of exactly 0.5 counts as a reject
        m = metrics_from_scores([0.5, 0.5], [1, 0])
        assert m.confusion == {"tp": 0, "fp": 0, "tn": 1, "fn": 1}
        assert m.accuracy == 0.5

    def test_known_confusion(self):
        m = metrics_from_scores([0.9, 0.4, 0.7, 0.2], [1, 1, 0, 0])
        assert m.confusion == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.f1 == 0.5

    def test_mean_confidence(self):
        m = metrics_from_scores([0.9, 0.7, 0.1], [1, 1, 0])
        assert m.mean_confidence["correctly_accept"] == pytest.approx(0.8)
        assert m.mean_confidence["correctly_reject"] == pytest.approx(0.9)
        assert math.isnan(m.mean_confidence["incorrectly_accept"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_scores([], [])

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            metrics_from_scores([0.5], [1], threshold=1.0)


class TestSchedule:
    def test_endpoints_and_peak(self):
        cfg = TrainConfig(max_lr=0.1)
        total = 1001
        lrs = [one_cycle_lr(s, total, cfg) for s in range(total)]
        assert lrs[0] == pytest.approx(cfg.max_lr / cfg.div_factor)
        assert max(lrs) == pytest.approx(cfg.max_lr, rel=1e-4)
        assert lrs[-1] == pytest.approx(cfg.max_lr / cfg.final_div_factor, rel=1e-2)
        peak = int(np.argmax(lrs))
        assert abs(peak / (total - 1) - cfg.warmup_fraction) < 0.01

    def test_monotone_up_then_down(self):
        cfg = TrainConfig(max_lr=0.05)
        lrs = [one_cycle_lr(s, 200, cfg) for s in range(200)]
        peak = int(np.argmax(lrs))
        assert all(a <= b + 1e-15 for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
        assert all(a >= b - 1e-15 for a, b in zip(lrs[peak:], lrs[peak + 1 :]))


@pytest.fixture(scope="module")
def tiny_task():
    store, centroids = toy_store(classes=4, per_class=8, tokens=3, depth=8, seed=10)
    index = ClassIndex.build(store)
    clf = SyntheticClassifier(centroids, tau=1.0, seed=0)
    out_train = clf.predict_split(store, "train")
    out_test = clf.predict_split(store, "test")
    scfg = SamplerConfig(q=3, seed=0)
    train_pairs = sample_train(store, out_train, index, scfg)
    eval_pairs = sample_eval(store, out_test, index, scfg)
    return store, train_pairs, eval_pairs


class TestTraining:
    def test_learns_separable_task(self, tiny_task):
        store, train_pairs, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(), seed=42)
        cfg = TrainConfig(epochs=8, batch_size=64, max_lr=0.05, seed=42)
        model, report = train(model, store, train_pairs, eval_pairs, cfg)
        assert len(report.epochs) == 8
        best = report.epochs[report.selected_epoch]
        assert best["eval_accuracy"] > 0.9
        # restored weights must reproduce the selected epoch's metrics
        m = evaluate_binary(model, store, eval_pairs)
        assert m.f1 == pytest.approx(best["f1"], abs=1e-12)

    def test_deterministic(self, tiny_task):
        store, train_pairs, eval_pairs = tiny_task
        cfg = TrainConfig(epochs=2, batch_size=64, max_lr=0.02, seed=7)
        runs = []
        for _ in range(2):
            model = ComparatorModel(small_cfg(), seed=7)
            model, report = train(model, store, train_pairs, eval_pairs, cfg)
            runs.append((model.snapshot(), report.epochs))
        assert runs[0][1] == runs[1][1]
        for k in runs[0][0]:
            np.testing.assert_array_equal(runs[0][0][k], runs[1][0][k])

    def test_pairset_scores_independent_of_batch_size(self, tiny_task):
        store, _, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(), seed=3)
        model.mlp_w[3].data = np.random.default_rng(5).normal(size=model.mlp_w[3].data.shape)
        whole = score_pairset(model, store, eval_pairs, batch_size=len(eval_pairs.pairs))
        small = score_pairset(model, store, eval_pairs, batch_size=5)
        np.testing.assert_allclose(small, whole, atol=1e-12)
        p = eval_pairs.pairs[0]
        one = model.score_pairs(store.grid("test", p.query_id)[None],
                                store.grid("train", p.neighbor_id)[None])
        assert small[0] == pytest.approx(one[0], abs=1e-12)

    def test_selected_epoch_has_max_f1(self, tiny_task):
        store, train_pairs, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(), seed=1)
        cfg = TrainConfig(epochs=5, batch_size=64, max_lr=0.05, seed=1)
        _, report = train(model, store, train_pairs, eval_pairs, cfg)
        f1s = [row["f1"] for row in report.epochs]
        best = max(f1s)
        assert f1s[report.selected_epoch] == best
        assert report.selected_epoch == f1s.index(best)  # ties keep earliest

    def test_report_averages_over_trained_samples(self, tiny_task):
        # n = batch_size + 1: the single-sample last batch is skipped (batch
        # norm), so loss and accuracy average over the batch_size trained pairs
        store, train_pairs, eval_pairs = tiny_task
        cfg = TrainConfig(epochs=1, batch_size=4, max_lr=0.02, seed=5)
        subset = replace(train_pairs, pairs=train_pairs.pairs[:5])
        _, report = train(ComparatorModel(small_cfg(), seed=2), store, subset, eval_pairs, cfg)
        idx = np.random.default_rng(cfg.seed).permutation(5)[:4]
        rows1, rows2 = pairset_rows(store, subset)
        y = np.array([subset.pairs[i].label for i in idx], dtype=np.float64)
        with nk.Tape():
            logits = ComparatorModel(small_cfg(), seed=2).forward_logits(
                store.grids(subset.split)[rows1[idx]], store.grids("train")[rows2[idx]], "train")
            loss = nk.bce_with_logits(logits, y)
        row = report.epochs[0]
        assert row["loss"] == pytest.approx(float(loss.data), rel=1e-12)
        assert row["train_accuracy"] == np.sum((logits.data > 0) == (y == 1)) / 4

    def test_epoch_branches_each_batch_union_once(self, tiny_task, monkeypatch):
        store, train_pairs, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(), seed=4)
        calls = branch_calls(model, monkeypatch)
        cfg = TrainConfig(epochs=1, batch_size=16, max_lr=0.02, seed=8)
        train(model, store, train_pairs, eval_pairs, cfg)
        rows1, rows2 = pairset_rows(store, train_pairs)
        perm = np.random.default_rng(cfg.seed).permutation(len(rows1))
        batches = [perm[lo : lo + 16] for lo in range(0, len(perm), 16)]
        want = [len(np.unique(np.concatenate([rows1[b], rows2[b]]))) for b in batches
                if len(b) >= 2]
        assert calls[: len(want)] == want
        assert sum(want) < 2 * sum(len(b) for b in batches)  # the union saved rows
        # then the epoch's eval pairs, each distinct grid once
        e1, e2 = pairset_rows(store, eval_pairs)
        assert sum(calls[len(want) :]) == len(np.unique(e1)) + len(np.unique(e2))

    def test_jitter_branches_every_jittered_grid(self, tiny_task, monkeypatch):
        store, train_pairs, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(jitter_sigma=0.05), seed=4)
        calls = branch_calls(model, monkeypatch)
        cfg = TrainConfig(epochs=1, batch_size=16, max_lr=0.02, seed=8)
        train(model, store, train_pairs, eval_pairs, cfg)
        n = len(train_pairs.pairs)
        want = [2 * min(16, n - lo) for lo in range(0, n, 16) if n - lo >= 2]
        assert calls[: len(want)] == want

    def test_rejects_a_single_train_pair(self, tiny_task):
        store, train_pairs, eval_pairs = tiny_task
        one = replace(train_pairs, pairs=train_pairs.pairs[:1])
        with pytest.raises(ValueError, match="2 train pairs"):
            train(ComparatorModel(small_cfg(), seed=0), store, one, eval_pairs,
                  TrainConfig(epochs=1, batch_size=4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_lr_raises(self, tiny_task):
        store, train_pairs, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(), seed=0)
        cfg = TrainConfig(epochs=20, batch_size=64, max_lr=1e6, seed=0)
        with pytest.raises(TrainingError, match="epoch"):
            train(model, store, train_pairs, eval_pairs, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)


class TestCheckpoints:
    def test_roundtrip_bitwise(self, tiny_task, tmp_path):
        store, train_pairs, eval_pairs = tiny_task
        model = ComparatorModel(small_cfg(), seed=3)
        cfg = TrainConfig(epochs=1, batch_size=64, max_lr=0.02, seed=3)
        model, _ = train(model, store, train_pairs, eval_pairs, cfg)
        save_checkpoint(model, tmp_path / "m.bin", tmp_path / "m.json",
                        extra={"note": "x"})
        loaded, header = load_checkpoint(tmp_path / "m.bin", tmp_path / "m.json")
        assert header["extra"] == {"note": "x"}
        for k, v in model.state_arrays().items():
            np.testing.assert_array_equal(loaded.state_arrays()[k], v)
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=(4, 3, 8))
        g2 = rng.normal(size=(4, 3, 8))
        np.testing.assert_array_equal(
            model.score_pairs(g1, g2), loaded.score_pairs(g1, g2)
        )
        # written through temporary files that are moved into place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "m.json"]
        assert header["blob_bytes"] == (tmp_path / "m.bin").stat().st_size


@pytest.fixture
def saved(tmp_path):
    model = ComparatorModel(small_cfg(), seed=3)
    blob, head = tmp_path / "m.bin", tmp_path / "m.json"
    save_checkpoint(model, blob, head)
    return blob, head


class TestNonFiniteState:
    def test_training_stops_when_a_parameter_turns_non_finite(self, tiny_task):
        """One batch per epoch: the loss never sees the NaN weights, so only
        the parameter check can stop a NaN learning rate."""
        store, train_pairs, eval_pairs = tiny_task
        cfg = TrainConfig(epochs=1, batch_size=512, seed=0)
        cfg.max_lr = float("nan")  # past the config check, as a diverging run would be
        model = ComparatorModel(small_cfg(), seed=0)
        with pytest.raises(TrainingError, match="non-finite parameter .* after epoch 0"):
            train(model, store, train_pairs, eval_pairs, cfg)

    def test_save_rejects_non_finite_array(self, tmp_path):
        model = ComparatorModel(small_cfg(), seed=3)
        model.x_pos.data[0, 0] = np.inf
        blob = tmp_path / "m.bin"
        with pytest.raises(CheckpointError, match=re.escape(str(blob)) + ".*'x_pos'"):
            save_checkpoint(model, blob, tmp_path / "m.json")
        assert not list(tmp_path.iterdir())

    def test_load_rejects_non_finite_array(self, saved):
        blob, head = saved
        header = json.loads(head.read_text())
        data = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        data[0] = np.nan  # the first array in name order
        blob.write_bytes(data.tobytes())
        header["blob_sha256"] = hashlib.sha256(blob.read_bytes()).hexdigest()
        head.write_text(json.dumps(header))
        first = sorted(header["arrays"])[0]
        with pytest.raises(CheckpointError, match=re.escape(str(blob)) + f".*'{first}'"):
            load_checkpoint(blob, head)


class TestConfigChecks:
    @pytest.mark.parametrize("field, value", [
        ("mlp_hidden", 0), ("heads", 0), ("depth", 0), ("self_layers", -1),
        ("jitter_sigma", -1.0), ("jitter_sigma", float("nan")), ("jitter_sigma", True),
        ("jitter_sigma", "0.1"), ("jitter_sigma", None),
    ])
    def test_comparator_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("momentum", -1.0), ("momentum", 1.0), ("max_lr", float("nan")), ("max_lr", 0.0),
        ("div_factor", float("inf")), ("final_div_factor", -1.0), ("max_lr", True),
        ("momentum", False), ("warmup_fraction", "0.3"), ("final_div_factor", None),
        ("seed", -1), ("seed", True),
    ])
    def test_train_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestCheckpointIntegrity:
    @pytest.mark.parametrize("edit", [
        lambda b: b[:-8],  # truncated
        lambda b: b + bytes(8),  # oversized
        lambda b: b[:-1],  # not a whole number of f8 values
    ], ids=["truncated", "oversized", "ragged"])
    def test_length_checked(self, saved, edit):
        blob, head = saved
        blob.write_bytes(edit(blob.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(str(blob)) + ".*bytes"):
            load_checkpoint(blob, head)

    def test_checksum_checked(self, saved):
        blob, head = saved
        data = bytearray(blob.read_bytes())
        data[100] ^= 0x01  # one flipped bit, same length
        blob.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=re.escape(str(blob)) + ".*sha256"):
            load_checkpoint(blob, head)

    @pytest.mark.parametrize("edit", [
        lambda h: h["arrays"].update({"x_pos": [3, 8]}),  # wrong shape
        lambda h: h["arrays"].pop("bn2.beta"),  # missing array
        lambda h: h["config"].update({"mlp_hidden": 16}),  # config of another model
    ], ids=["shape", "missing", "config"])
    def test_shapes_checked_against_built_model(self, saved, edit):
        blob, head = saved
        header = json.loads(head.read_text())
        edit(header)
        head.write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match=re.escape(str(head)) + ".*shape"):
            load_checkpoint(blob, head)

    def test_declared_length_checked_against_shapes(self, saved):
        blob, head = saved
        header = json.loads(head.read_text())
        header["blob_bytes"] += 8
        head.write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match=re.escape(str(head)) + ".*blob_bytes"):
            load_checkpoint(blob, head)

    def test_unparsable_header_rejected(self, saved):
        blob, head = saved
        head.write_text(head.read_text()[:-10])
        with pytest.raises(CheckpointError, match=re.escape(str(head))):
            load_checkpoint(blob, head)

    def test_header_without_integrity_fields_rejected(self, saved):
        blob, head = saved
        header = json.loads(head.read_text())
        del header["blob_sha256"]
        head.write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match=re.escape(str(head))):
            load_checkpoint(blob, head)
