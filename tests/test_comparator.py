import json
import math
import re

import numpy as np
import pytest

from pcnn import numkernel as nk
from pcnn.classifier import SyntheticClassifier
from pcnn.comparator import (
    CheckpointError,
    ComparatorConfig,
    ComparatorModel,
    TrainConfig,
    TrainingError,
    evaluate_binary,
    expected_param_count,
    load_checkpoint,
    metrics_from_scores,
    one_cycle_lr,
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
        singles = [model.forward_pair(g1[i], g2[i]) for i in range(3)]
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

    def test_no_rows(self):
        model = self.model(dict(blocks=1))
        grids = np.zeros((2, 3, 8))
        assert score_rows(model, grids, [], grids, []).shape == (0,)

    def test_branch_rejects_wrong_grid_shape(self):
        model = self.model(dict(blocks=1))
        for bad in (np.zeros((2, 4, 8)), np.zeros((2, 3, 7)), np.zeros((3, 8))):
            with pytest.raises(nk.ShapeError):
                model.branch(bad)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_forward_logits_is_fuse_of_branches(self, cfg):
        model = self.model(cfg)
        rng = np.random.default_rng(9)
        g1, g2 = rng.normal(size=(5, 3, 8)), rng.normal(size=(5, 3, 8))
        np.testing.assert_array_equal(
            model.forward_logits(g1, g2).data,
            model.fuse_logits(model.branch(g1), model.branch(g2)).data,
        )


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
