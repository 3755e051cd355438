import hashlib
import json
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcnn import comparator, experiment, pairsampler
from pcnn.classifier import SyntheticClassifier
from pcnn.experiment import (
    ExperimentConfig,
    StageError,
    prepare,
    run,
    run_seed,
    train_comparator,
)
from pcnn.nnindex import ClassIndex
from pcnn.synthgen import SyntheticSpec, make_centroids, synth_gen
from pcnn.validate import is_int

from conftest import record_calls

TINY = {
    "classes": 4,
    "train_per_class": 6,
    "test_per_class": 4,
    "depth": 8,
    "tokens": 2,
    "groups": 2,
    "token_noise": 0.3,
    "tau": 1.0,
    "corruption_rate": 0.3,
    "corruption_q": 2,
}


def reference_synth_gen(spec, seed):
    """The generator as one record per draw and hand-written pair loops:
    (payload bytes, manifest JSON, centroids) for `synth_gen` to match."""

    def min_distance(points):
        dmin = np.inf
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                dmin = min(dmin, float(np.linalg.norm(points[i] - points[j])))
        return dmin

    def spread(rng, n, d, min_dist):
        pts = rng.normal(size=(n, d))
        return pts if n == 1 else pts * (min_dist / min_distance(pts))

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCE27]))
    centers = spread(rng, spec.groups, spec.depth, spec.separation * spec.group_spread)
    centroids = np.empty((spec.classes, spec.depth))
    k = 0
    for g, members in enumerate(np.array_split(np.arange(spec.classes), spec.groups)):
        centroids[k:k + len(members)] = centers[g] + spread(
            rng, len(members), spec.depth, spec.separation * 1.2)
        k += len(members)
    dmin = min_distance(centroids)
    if dmin < spec.separation:
        centroids *= spec.separation / dmin
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    records, blocks = {}, []
    for split, per_class in (("train", spec.train_per_class), ("test", spec.test_per_class)):
        records[split] = []
        for cid in range(spec.classes):
            for _ in range(per_class):
                grid = centroids[cid] + rng.normal(0, spec.token_noise,
                                                   size=(spec.tokens, spec.depth))
                records[split].append([len(records[split]), cid])
                blocks.append(grid.astype("<f4").tobytes())
    payload = b"".join(blocks)
    manifest = json.dumps({
        "dataset": "synthetic",
        "class_names": [f"class_{i:03d}" for i in range(spec.classes)],
        "tokens": spec.tokens,
        "depth": spec.depth,
        "records": records,
        "checksum": hashlib.sha256(payload).hexdigest(),
    }, indent=2)
    return payload, manifest, centroids


def tiny_cfg(tmp_path, **kw):
    base = dict(
        seeds=[1],
        output_dir=str(tmp_path / "out"),
        synthetic=dict(TINY),
        sampler={"q": 3},
        comparator={"heads": 2},
        train={"epochs": 2, "batch_size": 64, "max_lr": 0.02},
        rerank={"k": 3},
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSynthGen:
    def test_deterministic(self):
        spec = SyntheticSpec(**TINY)
        a, ca = synth_gen(spec, 5)
        b, cb = synth_gen(spec, 5)
        np.testing.assert_array_equal(ca, cb)
        assert a.manifest.checksum == b.manifest.checksum

    def test_seed_changes_data(self):
        spec = SyntheticSpec(**TINY)
        a, _ = synth_gen(spec, 5)
        b, _ = synth_gen(spec, 6)
        assert a.manifest.checksum != b.manifest.checksum

    def test_sizes_and_labels(self):
        spec = SyntheticSpec(**TINY)
        store, centroids = synth_gen(spec, 0)
        assert store.size("train") == 24
        assert store.size("test") == 16
        assert centroids.shape == (4, 8)
        counts = np.bincount(store.labels("train"), minlength=4)
        assert list(counts) == [6, 6, 6, 6]

    def test_min_centroid_separation(self):
        spec = SyntheticSpec(**{**TINY, "separation": 2.0})
        c = make_centroids(spec, 3)
        dmin = min(
            float(np.linalg.norm(c[i] - c[j]))
            for i in range(len(c))
            for j in range(i + 1, len(c))
        )
        assert dmin >= 2.0 - 1e-9

    def test_within_group_closer_than_across(self):
        spec = SyntheticSpec(classes=20, groups=5, depth=16)
        c = make_centroids(spec, 0)
        sizes = [len(a) for a in np.array_split(np.arange(20), 5)]
        bounds = np.cumsum([0] + sizes)
        group_of = np.empty(20, dtype=int)
        for g in range(5):
            group_of[bounds[g] : bounds[g + 1]] = g
        within, across = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                d = float(np.linalg.norm(c[i] - c[j]))
                (within if group_of[i] == group_of[j] else across).append(d)
        assert np.mean(within) < np.mean(across)

    def test_records_near_centroid(self):
        spec = SyntheticSpec(**{**TINY, "token_noise": 0.01})
        store, centroids = synth_gen(spec, 1)
        for rid in store.ids("train")[:5]:
            cid = store.class_of("train", rid)
            d = np.linalg.norm(store.pooled("train", rid) - centroids[cid])
            assert d < 0.1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(groups=0)
        with pytest.raises(ValueError):
            SyntheticSpec(separation=0.0)

    @pytest.mark.parametrize("name, value", [
        ("depth", 0), ("tokens", 0), ("train_per_class", 0), ("test_per_class", -1),
        ("separation", float("nan")), ("separation", float("inf")), ("separation", -1.0),
        ("group_spread", 0.0), ("group_spread", float("nan")),
        ("token_noise", float("nan")), ("token_noise", -0.1), ("token_noise", float("inf")),
        ("separation", True), ("group_spread", "8"), ("token_noise", None),
        ("token_noise", False),
    ])
    def test_spec_rejects_bad_field(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=name):
            SyntheticSpec(**{**TINY, name: value})
        with pytest.raises(StageError, match=name) as info:
            prepare(tiny_cfg(tmp_path, synthetic={**TINY, name: value}), 1)
        assert info.value.stage == "data"

    @pytest.mark.parametrize("spec", [
        {},
        {"classes": 20, "train_per_class": 500, "test_per_class": 1},  # c02
        {"classes": 6, "train_per_class": 8, "test_per_class": 6,  # c10
         "depth": 8, "tokens": 2, "groups": 2},
        {"classes": 5, "train_per_class": 3, "test_per_class": 0, "groups": 5},
        {"classes": 7, "groups": 1, "depth": 5, "tokens": 9},
    ])
    def test_matches_reference_generator(self, spec):
        spec = SyntheticSpec(**spec)
        for seed in (0, 7, 42):
            store, centroids = synth_gen(spec, seed)
            payload, manifest, want = reference_synth_gen(spec, seed)
            assert store.export_payload() == payload
            assert store.manifest.to_json() == manifest
            assert centroids.tobytes() == want.tobytes()


class TestPipeline:
    def test_prepare_deterministic(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        a = prepare(cfg, 1)
        b = prepare(cfg, 1)
        assert a.store.manifest.checksum == b.store.manifest.checksum
        np.testing.assert_array_equal(a.out_test.probs, b.out_test.probs)
        assert [(p.query_id, p.neighbor_id) for p in a.train_pairs.pairs] == [
            (p.query_id, p.neighbor_id) for p in b.train_pairs.pairs
        ]

    def test_eval_pairs_balanced(self, tmp_path):
        pipe = prepare(tiny_cfg(tmp_path), 1)
        assert len(pipe.eval_pairs.positives()) == len(pipe.eval_pairs.negatives())

    def test_eval_step_writes_empty_cells_as_null(self, tmp_path):
        # the last layer starts at zero, so an untrained model scores every
        # pair exactly 0.5, a reject: both accept cells are empty
        pipe = prepare(tiny_cfg(tmp_path), 1)
        pipe.model = comparator.ComparatorModel(pipe.comparator_cfg)
        doc = experiment.eval_step(pipe)
        json.dumps(doc, allow_nan=False)
        assert doc["confusion"]["tp"] == doc["confusion"]["fp"] == 0
        assert doc["mean_confidence"]["correctly_accept"] is None
        assert doc["mean_confidence"]["incorrectly_accept"] is None
        assert doc["mean_confidence"]["correctly_reject"] == 0.5

    def test_stage_error_names_stage(self, tmp_path):
        cfg = tiny_cfg(tmp_path, sampler={"q": 50})  # classes too small for 50 positives
        with pytest.raises(StageError, match="sampling"):
            prepare(cfg, 1).train_pairs

    def test_failed_stage_is_not_cached(self, tmp_path, monkeypatch):
        pipe = prepare(tiny_cfg(tmp_path), 1)
        real, calls = pairsampler.sample_eval, []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return real(*args)

        monkeypatch.setattr(pairsampler, "sample_eval", flaky)
        with pytest.raises(StageError, match="sampling") as info:
            pipe.eval_pairs
        assert info.value.stage == "sampling"
        assert len(pipe.eval_pairs.pairs) > 0
        assert pipe.eval_pairs is pipe.eval_pairs
        assert len(calls) == 2

    def test_inner_stage_keeps_its_name(self, tmp_path, monkeypatch):
        def broken(self, store, split):
            raise RuntimeError("no classifier")

        monkeypatch.setattr(SyntheticClassifier, "predict_split", broken)
        with pytest.raises(StageError) as info:
            prepare(tiny_cfg(tmp_path), 1).train_pairs
        assert info.value.stage == "classifier"

    def test_bad_data_stage(self, tmp_path):
        cfg = tiny_cfg(tmp_path, manifest_path=str(tmp_path / "missing.json"),
                       payload_path=str(tmp_path / "missing.bin"))
        with pytest.raises(StageError, match="data"):
            prepare(cfg, 1)

    @pytest.mark.parametrize("section, bad, stage", [
        ("sampler", {"q": 1}, "sampling"),
        ("sampler", {"negative_mode": "bogus"}, "sampling"),
        ("comparator", {"heads": 3}, "training"),  # depth 8
        ("train", {"epochs": 0}, "training"),
        ("rerank", {"k": 0}, "evaluation"),
        ("rerank", {"prob_floor": 1.0}, "evaluation"),
        ("rerank", {"k": 3, "mode": "hard"}, "evaluation"),
        ("train", {"warmup_fraction": 1.0}, "training"),
        ("train", {"warmup_fraction": -0.1}, "training"),
        ("comparator", {"mlp_hidden": 0}, "training"),
        ("comparator", {"heads": 0}, "training"),
        ("comparator", {"jitter_sigma": -1}, "training"),
        ("train", {"momentum": -1}, "training"),
        ("train", {"max_lr": float("nan"), "epochs": 1}, "training"),
        ("rerank", {"n_neighbors": 7}, "evaluation"),  # 6 train records per class
        ("synthetic", {**TINY, "tau": float("nan")}, "classifier"),
        ("synthetic", {**TINY, "tau": 0}, "classifier"),
        ("rerank", {"k": 2.5}, "evaluation"),
        ("rerank", {"k": 3, "n_neighbors": 1.5}, "evaluation"),
        ("train", {"epochs": 1.5}, "training"),
        ("sampler", {"q": 2.5}, "sampling"),
        ("synthetic", {**TINY, "corruption_q": 1.5}, "classifier"),
        ("synthetic", {**TINY, "corruption_q": 0}, "classifier"),
        ("synthetic", {**TINY, "corruption_q": True}, "classifier"),
        ("synthetic", {**TINY, "corruption_rate": True}, "classifier"),
        ("synthetic", {**TINY, "tau": "1.0"}, "classifier"),
        ("synthetic", {**TINY, "corruption_rate": None}, "classifier"),
        ("comparator", {"jitter_sigma": True}, "training"),
        ("train", {"momentum": "0.5"}, "training"),
        ("train", {"max_lr": None, "epochs": 1}, "training"),
        ("train", {"seed": -1}, "training"),
        ("rerank", {"prob_floor": False}, "evaluation"),
        ("rerank", {"prob_floor": "0.1"}, "evaluation"),
        ("rerank", {"prob_floor": None}, "evaluation"),
        ("sampler", {"seed": True}, "sampling"),
        ("comparator", {"heads": 2, "depth": 4}, "training"),  # the store fixes depth 8
        ("comparator", {"tokens": 3}, "training"),  # and tokens 2
    ])
    def test_bad_config_section_fails_before_training(self, tmp_path, monkeypatch,
                                                       section, bad, stage):
        def no_training(*args, **kwargs):
            raise AssertionError("comparator.train was called")

        def no_sampling(*args, **kwargs):
            raise AssertionError("pairsampler.sample_train was called")

        monkeypatch.setattr(comparator, "train", no_training)
        monkeypatch.setattr(pairsampler, "sample_train", no_sampling)
        cfg = tiny_cfg(tmp_path, **{section: bad})
        with pytest.raises(StageError) as info:
            run_seed(cfg, 1, str(tmp_path / "out" / "seed_1"))
        assert info.value.stage == stage
        # the error names a field the row sets away from tiny_cfg's section
        base = getattr(tiny_cfg(tmp_path), section)
        assert any(name in str(info.value) for name, value in bad.items()
                   if name not in base or base[name] != value)
        with pytest.raises(StageError, match=stage):
            prepare(cfg, 1)

    @pytest.mark.parametrize("section, field, value, low", [
        ("rerank", "k", 2.5, 1), ("train", "epochs", True, 1), ("sampler", "q", "3", 2),
    ])
    def test_integer_field_error_names_the_field(self, tmp_path, section, field, value, low):
        # a bool is no integer here, although True passes `epochs >= 1`
        with pytest.raises(StageError, match=f"{field} must be an integer >= {low}, "
                                             f"got {value!r}"):
            prepare(tiny_cfg(tmp_path, **{section: {field: value}}), 1)

    @pytest.mark.parametrize("section, field, value", [
        ("comparator", "mlp_hidden", 10**400), ("rerank", "k", 2**63),
    ], ids=["mlp_hidden-10**400", "k-2**63"])
    def test_integer_field_beyond_int64_names_the_field(self, tmp_path, section, field, value):
        with pytest.raises(StageError, match=f"{field} must be an integer that int64 holds"):
            prepare(tiny_cfg(tmp_path, **{section: {field: value}}), 1)

    @pytest.mark.parametrize("given", ["manifest_path", "payload_path"])
    def test_manifest_and_payload_set_together(self, tmp_path, given):
        with pytest.raises(ValueError, match="manifest_path and payload_path"):
            tiny_cfg(tmp_path, **{given: str(tmp_path / "store")})

    def test_n_neighbors_checked_against_subsampled_class(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("comparator.train was called")

        monkeypatch.setattr(comparator, "train", no_training)
        # subsampling keeps ceil(0.5 * 6) = 3 train records per class
        cfg = tiny_cfg(tmp_path, subsample_fraction=0.5, rerank={"k": 3, "n_neighbors": 4})
        with pytest.raises(StageError, match="class 0: n_neighbors 4 exceeds its 3") as info:
            run_seed(cfg, 1, str(tmp_path / "out" / "seed_1"))
        assert info.value.stage == "evaluation"
        assert not (tmp_path / "out" / "seed_1" / "train_report.json").exists()
        cfg = tiny_cfg(tmp_path, subsample_fraction=0.5, rerank={"k": 3, "n_neighbors": 3})
        assert prepare(cfg, 1).rerank_cfg.n_neighbors == 3

    def test_model_build_failure_names_training(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(experiment, "ComparatorModel", broken)
        with pytest.raises(StageError, match="training"):
            train_comparator(prepare(tiny_cfg(tmp_path), 1))

    def test_subsample_shrinks_index(self, tmp_path):
        cfg = tiny_cfg(tmp_path, subsample_fraction=0.5, sampler={"q": 2})
        pipe = prepare(cfg, 1)
        for c in pipe.index.classes:
            assert pipe.index.class_size(c) == 3  # ceil(0.5 * 6)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_subsample_fraction_out_of_range_rejected(self, fraction):
        text = json.dumps({"synthetic": dict(TINY), "subsample_fraction": fraction})
        with pytest.raises(ValueError, match="subsample_fraction"):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize("seeds", [[], [True], ["1"], [-1], [1.5], 3])
    def test_seeds_must_be_integers_at_least_zero(self, seeds):
        # `[True]` would otherwise run seed 1 into seed_True/
        with pytest.raises(ValueError, match=re.escape(
                f"seeds must be a non-empty list of integers >= 0, got {seeds!r}")):
            ExperimentConfig(seeds=seeds)

    def test_seeds_must_fit_int64(self):
        # otherwise seed 1 trains before the pipeline of seed 2**63 rejects it
        with pytest.raises(ValueError, match=re.escape(
                "seeds must be integers that int64 holds, got [1, 9223372036854775808]")):
            ExperimentConfig(seeds=[1, 2**63])
        assert ExperimentConfig(seeds=[1, 2**63 - 1]).seeds == [1, 2**63 - 1]

    def test_seeds_must_be_distinct(self):
        # otherwise seed 1 trains twice into seed_1/ and counts twice in the means
        with pytest.raises(ValueError, match=re.escape(
                "seeds must be distinct, got [1, 2, 1, 3, 2]: 1, 2 repeated")):
            ExperimentConfig(seeds=[1, 2, 1, 3, 2])
        with pytest.raises(ValueError, match=re.escape("got [1, 1]: 1 repeated")):
            ExperimentConfig.from_json(json.dumps({"seeds": [1, 1]}))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=[])

    def test_from_json(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        text = json.dumps(
            {"seeds": [3], "output_dir": "x", "synthetic": dict(TINY)}
        )
        loaded = ExperimentConfig.from_json(text)
        assert loaded.seeds == [3]


# Every numeric config field: (section, field) -> (values that run, values out
# of range). "" is the top level of ExperimentConfig. Each field is also drawn
# with every `NOT_A_NUMBER` value and with an integer that neither a float nor
# an int64 holds, and an integer field with a float.
CONFIG_SPACE = {
    ("synthetic", "separation"): ([0.5, 2], [0, -1.0]),
    ("synthetic", "group_spread"): ([1, 4.0], [0.0, -2]),
    ("synthetic", "token_noise"): ([0.05, 1], [-0.1]),
    ("synthetic", "tau"): ([0.5, 3], [0, -1.0]),
    ("synthetic", "corruption_rate"): ([0, 0.5, 1], [-0.1, 1.5]),
    ("synthetic", "corruption_q"): ([2, 4], [1]),
    ("synthetic", "groups"): ([1, 4], [0, 5]),  # 4 classes
    ("sampler", "q"): ([2, 3], [1]),
    ("sampler", "nn_rank"): ([1, 2], [0]),
    ("sampler", "seed"): ([0, 5], [-1]),
    ("comparator", "heads"): ([1, 4], [0, 3]),  # depth 8
    ("comparator", "mlp_hidden"): ([1, 16], [0]),
    ("comparator", "jitter_sigma"): ([0, 0.05], [-0.1]),
    ("train", "batch_size"): ([2, 64], [1]),
    ("train", "seed"): ([0, 9], [-1]),
    ("train", "momentum"): ([0, 0.5], [1, -0.1]),
    ("train", "max_lr"): ([0.01, 1], [0, -1.0]),
    ("train", "warmup_fraction"): ([0, 0.5], [1, 1.5]),
    ("train", "div_factor"): ([1, 25.0], [0]),
    ("train", "final_div_factor"): ([1, 1e4], [0.0]),
    ("rerank", "k"): ([1, 4], [0]),
    ("rerank", "n_neighbors"): ([1, 3], [0, 7]),  # 6 train records per class
    ("rerank", "prob_floor"): ([0, 0.2], [1, -0.1]),
    ("", "subsample_fraction"): ([0.7, 1], [0, 1.5]),
    ("", "seeds"): ([[0], [3, 4]], [[], [True], ["1"], [-1], [1.0], 1, [1, 2**63]]),
}
NOT_A_NUMBER = [True, False, "0.5", None, float("nan"), float("inf"), float("-inf")]


def _numbers(doc):
    """Every number in a JSON document, in one flat list."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc]


@st.composite
def config_cases(draw):
    """(section, field, value, whether the value is valid)."""
    section, name = draw(st.sampled_from(sorted(CONFIG_SPACE)))
    valid, out_of_range = CONFIG_SPACE[section, name]
    invalid = out_of_range + NOT_A_NUMBER + [10**400]
    if all(is_int(v) for v in valid):
        invalid.append(float(valid[-1]))
    value, ok = draw(st.sampled_from([(v, True) for v in valid] + [(v, False) for v in invalid]))
    return section, name, value, ok


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=config_cases())
def test_config_space_runs_or_fails_before_training(tmp_path_factory, case):
    """A valid value runs to finite results; an invalid one fails, as the
    StageError of its stage (or ExperimentConfig's own ValueError) naming
    its field, before any comparator is trained."""
    section, name, value, ok = case
    doc = {"seeds": [1], "synthetic": dict(TINY), "sampler": {"q": 3},
           "comparator": {"heads": 2}, "train": {"epochs": 1, "batch_size": 64},
           "rerank": {"k": 3}}
    if section:
        doc[section] = {**doc[section], name: value}
    else:
        doc[name] = value
    out = str(tmp_path_factory.mktemp("config_space"))
    if ok:
        results = run_seed(ExperimentConfig(**doc, output_dir=out), 1)
        assert np.isfinite(_numbers(results)).all()
        return

    def no_training(*args, **kwargs):
        raise AssertionError("comparator.train was called")

    with mock.patch.object(comparator, "train", no_training):
        with pytest.raises((StageError, ValueError)) as info:
            run_seed(ExperimentConfig(**doc, output_dir=out), 1)
    assert isinstance(info.value, StageError) or not section
    assert name in str(info.value)


class TestRun:
    def test_run_seed_artifacts(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        out_dir = tmp_path / "out" / "seed_1"
        results = run_seed(cfg, 1, str(out_dir))
        for name in (
            "checkpoint.bin", "checkpoint.json", "train_report.json",
            "rerank_soft.jsonl", "rerank_hard.jsonl", "pairs_train.jsonl",
            "pairs_eval.jsonl", "results.json",
        ):
            assert (out_dir / name).exists(), name
        on_disk = json.loads((out_dir / "results.json").read_text())
        # json stringifies the integer Q keys of the ceiling table
        on_disk["topq_ceiling"] = {int(k): v for k, v in on_disk["topq_ceiling"].items()}
        assert on_disk == results
        assert 0 <= results["binary"]["accuracy"] <= 1
        assert set(results["rerank"]) == {
            "accuracy_c", "accuracy_soft", "accuracy_hard", "mean_comparator_queries",
        }

    def test_run_summary(self, tmp_path):
        cfg = tiny_cfg(tmp_path, seeds=[1, 2])
        summary = run(cfg)
        assert summary["seeds"] == [1, 2]
        assert len(summary["per_seed"]) == 2
        accs = [r["binary"]["accuracy"] for r in summary["per_seed"]]
        assert summary["binary_accuracy"]["mean"] == pytest.approx(np.mean(accs))
        assert summary["binary_accuracy"]["std"] == pytest.approx(np.std(accs))
        on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert on_disk["seeds"] == [1, 2]

    def test_run_seed_builds_each_stage_once(self, tmp_path, monkeypatch):
        calls = []
        record_calls(monkeypatch, ClassIndex, "build", calls)
        record_calls(monkeypatch, SyntheticClassifier, "predict_split", calls)
        record_calls(monkeypatch, pairsampler, "sample_train", calls)
        record_calls(monkeypatch, pairsampler, "sample_eval", calls)
        record_calls(monkeypatch, comparator, "train", calls)
        record_calls(monkeypatch, comparator, "load_checkpoint", calls)
        run_seed(tiny_cfg(tmp_path), 1, str(tmp_path / "out" / "seed_1"))
        assert Counter(calls) == {"build": 1, "predict_split": 2, "sample_train": 1,
                                  "sample_eval": 1, "train": 1, "load_checkpoint": 1}

    def test_run_seed_writes_into_the_seed_directory_by_default(self, tmp_path):
        cfg = tiny_cfg(tmp_path, train={"epochs": 1, "batch_size": 64, "max_lr": 0.02})
        results = run_seed(cfg, 3)
        on_disk = json.loads((tmp_path / "out" / "seed_3" / "results.json").read_text())
        assert on_disk["seed"] == results["seed"] == 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["seed_3"]

    def test_reload_checkpoint_reproduces_scores(self, tmp_path):
        from pcnn.comparator import load_checkpoint

        cfg = tiny_cfg(tmp_path)
        out_dir = tmp_path / "out" / "seed_1"
        run_seed(cfg, 1, str(out_dir))
        model, header = load_checkpoint(out_dir / "checkpoint.bin", out_dir / "checkpoint.json")
        pipe = prepare(cfg, 1)
        fresh, _ = train_comparator(pipe)
        g1 = pipe.store.grids("test")[:8]
        g2 = pipe.store.grids("train")[:8]
        np.testing.assert_array_equal(
            model.score_pairs(g1, g2), fresh.score_pairs(g1, g2)
        )

    @pytest.mark.parametrize("name, saved, value", [("heads", 2, 4), ("mlp_hidden", 32, 16)])
    def test_checkpoint_of_another_comparator_config_fails(self, tmp_path, name, saved, value):
        train = {"epochs": 1, "batch_size": 64, "max_lr": 0.02}
        experiment.train_step(prepare(tiny_cfg(tmp_path, train=train), 1))
        pipe = prepare(tiny_cfg(tmp_path, train=train, comparator={"heads": 2, name: value}), 1)
        header = tmp_path / "out" / "seed_1" / "checkpoint.json"
        for step in (experiment.eval_step, experiment.rerank_step, experiment.sanity_step):
            with pytest.raises(comparator.CheckpointError, match=re.escape(
                    f"{header}: comparator {name} is {saved}, the config's {value}")):
                step(pipe)
