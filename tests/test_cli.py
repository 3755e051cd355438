import json

import pytest

from pcnn import experiment, pairsampler
from pcnn.classifier import SyntheticClassifier
from pcnn.cli import build_parser, main
from pcnn.experiment import ExperimentConfig, run_seed
from pcnn.nnindex import ClassIndex

from conftest import record_calls, toy_store

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


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seeds": [1],
        "output_dir": str(root / "out"),
        "synthetic": TINY,
        "sampler": {"q": 3},
        "comparator": {"heads": 2},
        "train": {"epochs": 2, "batch_size": 64, "max_lr": 0.02},
        "rerank": {"k": 3},
    }
    path = root / "cfg.json"
    path.write_text(json.dumps(cfg))
    return root, path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_full_pipeline(cfg_path, capsys):
    root, path = cfg_path
    seed_dir = root / "out" / "seed_1"

    code, out, _ = run_cli(capsys, "synth", "--config", str(path), "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == {"train": 24, "test": 16}
    assert (seed_dir / "manifest.json").exists()

    code, out, _ = run_cli(capsys, "sample", "--config", str(path), "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["audit_ok"] is True
    assert (seed_dir / "pairs_train.jsonl").exists()

    code, out, _ = run_cli(capsys, "train", "--config", str(path), "--seed", "1")
    assert code == 0
    assert "selected_epoch" in json.loads(out)
    assert (seed_dir / "checkpoint.bin").exists()

    code, out, _ = run_cli(capsys, "eval", "--config", str(path), "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"accuracy", "precision", "recall", "f1", "confusion"}

    code, out, _ = run_cli(capsys, "rerank", "--config", str(path), "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert {"accuracy_c", "accuracy_soft", "accuracy_hard"} <= set(doc)
    assert (seed_dir / "rerank_soft.jsonl").exists()

    code, out, _ = run_cli(capsys, "sanity", "--config", str(path), "--seed", "1")
    assert code == 0
    assert "self_pair_rate" in json.loads(out)

    code, out, _ = run_cli(capsys, "ceiling", "--config", str(path), "--seed", "1")
    assert code == 0
    table = json.loads(out)
    assert table[str(TINY["classes"])] == 1.0

    # structured retrieval inspection against the written manifest
    code, out, _ = run_cli(
        capsys, "index",
        "--manifest", str(seed_dir / "manifest.json"),
        "--payload", str(seed_dir / "payload.bin"),
        "--query-id", "0", "--k", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["neighbors"]) == 3
    dists = [n["distance"] for n in doc["neighbors"]]
    assert dists == sorted(dists)

    code, out, _ = run_cli(
        capsys, "ingest",
        "--manifest", str(seed_dir / "manifest.json"),
        "--payload", str(seed_dir / "payload.bin"),
    )
    assert code == 0
    assert json.loads(out)["classes"] == 4

    code, out, _ = run_cli(
        capsys, "explain",
        "--results", str(seed_dir / "rerank_soft.jsonl"),
        "--manifest", str(seed_dir / "manifest.json"),
        "--payload", str(seed_dir / "payload.bin"),
        "--out", str(seed_dir / "explain.json"),
    )
    assert code == 0
    doc = json.loads((seed_dir / "explain.json").read_text())
    assert doc["explanations"][0]["classes"][0]["class_name"].startswith("class_")


def test_commands_build_only_what_they_read(capsys, tmp_path, monkeypatch):
    """No command after `train` samples train pairs, and each builds only
    the index and classifier outputs it reads."""
    cfg = {
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
        "synthetic": TINY,
        "sampler": {"q": 3},
        "comparator": {"heads": 2},
        "train": {"epochs": 1, "batch_size": 64, "max_lr": 0.02},
        "rerank": {"k": 3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path), "--seed", "1"]
    assert run_cli(capsys, "train", *argv)[0] == 0
    # command -> stages it builds beyond the store
    reads = {
        "synth": [],
        "sanity": [],
        "ceiling": ["predict_split"],
        "rerank": ["build", "predict_split"],
        "eval": ["build", "predict_split"],
    }
    commands = tuple(reads)
    before = {cmd: run_cli(capsys, cmd, *argv) for cmd in commands}

    def no_train_pairs(*args):
        raise AssertionError("train pairs sampled")

    built = []
    monkeypatch.setattr(pairsampler, "sample_train", no_train_pairs)
    record_calls(monkeypatch, ClassIndex, "build", built)
    record_calls(monkeypatch, SyntheticClassifier, "predict_split", built)
    for cmd in commands:
        built.clear()
        code, out, err = run_cli(capsys, cmd, *argv)
        assert code == 0, err
        assert out == before[cmd][1]
        assert sorted(built) == reads[cmd], cmd


def test_commands_write_what_run_seed_writes(capsys, tmp_path):
    """`sample`, `train` and `rerank` write run_seed's bytes, and `rerank`,
    `sanity` and `ceiling` print its results.json sections."""
    cfg = {
        "seeds": [1],
        "synthetic": TINY,
        "sampler": {"q": 3},
        "comparator": {"heads": 2},
        "train": {"epochs": 2, "batch_size": 64, "max_lr": 0.02},
        "rerank": {"k": 3},
    }
    ran_dir = tmp_path / "run" / "seed_1"
    run_seed(ExperimentConfig(output_dir=str(tmp_path / "run"), **cfg), 1, str(ran_dir))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / "cli")}))
    printed = {}
    for cmd in ("sample", "train", "rerank", "sanity", "ceiling"):
        code, out, err = run_cli(capsys, cmd, "--config", str(path), "--seed", "1")
        assert code == 0, err
        printed[cmd] = json.loads(out)
    ran = {p.name: p.read_bytes() for p in ran_dir.iterdir()}
    written = {p.name: p.read_bytes() for p in (tmp_path / "cli" / "seed_1").iterdir()}
    assert sorted(written) == sorted(set(ran) - {"results.json"})
    for name, data in written.items():
        assert data == ran[name], name
    results = json.loads(ran["results.json"])
    assert printed["rerank"] == results["rerank"]
    assert printed["sanity"] == results["sanity"]
    assert printed["ceiling"] == results["topq_ceiling"]
    assert printed["train"] == {"selected_epoch": results["selected_epoch"],
                                "f1": results["binary"]["f1"]}


def test_rerank_mode_in_config_fails(capsys, tmp_path):
    """`rerank.mode` is no config field: evaluate_rerank reports both modes.
    Every config section is checked when the pipeline is built, so `train`
    fails too, before it trains anything."""
    cfg = {
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
        "synthetic": TINY,
        "sampler": {"q": 3},
        "comparator": {"heads": 2},
        "train": {"epochs": 1, "batch_size": 64, "max_lr": 0.02},
        "rerank": {"k": 3, "mode": "hard"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path), "--seed", "1"]
    for cmd in ("train", "rerank"):
        code, _, err = run_cli(capsys, cmd, *argv)
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "StageError"
        assert "'evaluation'" in doc["message"] and "mode" in doc["message"]
    assert not (tmp_path / "out" / "seed_1" / "checkpoint.bin").exists()


@pytest.mark.parametrize("class_id", [-1, 4])
def test_explain_rejects_unknown_class_id(capsys, tmp_path, class_id):
    store, _ = toy_store(classes=4)
    manifest, payload = tmp_path / "m.json", tmp_path / "p.bin"
    store.save(str(manifest), str(payload))
    entry = {"class": class_id, "prob": 0.5, "neighbors": [], "s_score": None, "final": None}
    results = tmp_path / "r.jsonl"
    results.write_text(json.dumps({"query": int(store.ids("test")[0]), "predicted": 0,
                                   "comparator_queries": 0, "classes": [entry]}) + "\n")
    code, _, err = run_cli(capsys, "explain", "--results", str(results),
                           "--manifest", str(manifest), "--payload", str(payload),
                           "--out", str(tmp_path / "explain.json"))
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "KeyError" and f"class id {class_id}" in doc["message"]
    assert not (tmp_path / "explain.json").exists()


@pytest.mark.parametrize("where", ["query", "neighbor"])
def test_explain_rejects_dangling_ids(capsys, tmp_path, where):
    # with sparse ids the two splits hold different ids: a train id is no
    # query, a test id no neighbor
    store, _ = toy_store(classes=4, sparse_ids=True)
    manifest, payload = tmp_path / "m.json", tmp_path / "p.bin"
    store.save(str(manifest), str(payload))
    test_ids, train_ids = store.ids("test").tolist(), store.ids("train").tolist()
    query, neighbor = test_ids[0], train_ids[0]
    if where == "query":
        bad = query = next(i for i in train_ids if i not in test_ids)
    else:
        bad = neighbor = next(i for i in test_ids if i not in train_ids)
    entry = {"class": 0, "prob": 0.5, "neighbors": [train_ids[1], neighbor],
             "s_score": 0.5, "final": 0.25}
    results = tmp_path / "r.jsonl"
    results.write_text(json.dumps({"query": query, "predicted": 0,
                                   "comparator_queries": 2, "classes": [entry]}) + "\n")
    code, _, err = run_cli(capsys, "explain", "--results", str(results),
                           "--manifest", str(manifest), "--payload", str(payload),
                           "--out", str(tmp_path / "explain.json"))
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "KeyError" and f"dangling {where} id {bad}" in doc["message"]
    assert not (tmp_path / "explain.json").exists()


def test_ingest_names_the_truncated_payload(capsys, tmp_path):
    store, _ = toy_store(classes=4)
    manifest, payload = tmp_path / "m.json", tmp_path / "p.bin"
    store.save(str(manifest), str(payload))
    payload.write_bytes(payload.read_bytes()[:-4])
    code, _, err = run_cli(capsys, "ingest", "--manifest", str(manifest),
                           "--payload", str(payload))
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "IngestionError" and doc["message"].startswith(f"{payload}: ")


def test_config_commands_are_the_experiment_steps(capsys, tmp_path, monkeypatch):
    (subparsers,) = build_parser()._subparsers._group_actions
    assert set(subparsers.choices) == set(experiment.STEPS) | {
        "ingest", "index", "explain", "sweep"}
    seen = []

    def probe(pipe):
        seen.append(pipe)
        return {"seed": pipe.seed}

    monkeypatch.setattr(experiment, "STEPS", {"probe": probe})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), "synthetic": TINY}))
    code, out, err = run_cli(capsys, "probe", "--config", str(path), "--seed", "5")
    assert code == 0, err
    assert json.loads(out) == {"seed": 5}
    assert isinstance(seen[0], experiment.Pipeline) and seen[0].cfg.synthetic == TINY


@pytest.mark.parametrize("seeds, argv, written", [
    ([7], [], "seed_7"),  # no --seed: the config's only seed
    ([7], ["--seed", "3"], "seed_3"),  # an explicit --seed wins
    ([7, 8], ["--seed", "8"], "seed_8"),
    ([7, 8], [], None),  # no --seed and two config seeds: which one is unsaid
], ids=["config_seed", "seed_wins", "seed_picks_one", "two_seeds_fail"])
def test_config_command_seed(capsys, tmp_path, seeds, argv, written):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeds": seeds, "output_dir": str(tmp_path / "out"),
                                "synthetic": TINY}))
    code, out, err = run_cli(capsys, "synth", "--config", str(path), *argv)
    if written is None:
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "seeds" in doc["message"]
        assert not (tmp_path / "out").exists()
    else:
        assert code == 0, err
        assert [p.name for p in (tmp_path / "out").iterdir()] == [written]


def test_ceiling_creates_no_seed_directory(cfg_path, capsys, tmp_path):
    root, path = cfg_path
    cfg = json.loads(path.read_text())
    cfg["output_dir"] = str(tmp_path / "fresh")
    p2 = tmp_path / "cfg2.json"
    p2.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "ceiling", "--config", str(p2), "--seed", "1")
    assert code == 0, err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("cmd", ["eval", "rerank", "sanity"])
def test_rerank_without_checkpoint_fails(cfg_path, capsys, tmp_path, cmd):
    root, path = cfg_path
    cfg = json.loads(path.read_text())
    cfg["output_dir"] = str(tmp_path / "fresh")
    p2 = tmp_path / "cfg2.json"
    p2.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, cmd, "--config", str(p2), "--seed", "1")
    assert code == 1
    doc = json.loads(err)
    assert doc["command"] == cmd
    assert doc["error"] == "FileNotFoundError"
    assert str(tmp_path / "fresh" / "seed_1" / "checkpoint.bin") in doc["message"]


def test_missing_config_error_json(capsys):
    code, out, err = run_cli(capsys, "train", "--config", "/nonexistent.json")
    assert code == 1
    doc = json.loads(err)
    assert doc["command"] == "train"
    assert "message" in doc


def test_sweep(capsys, tmp_path):
    cfg = {
        "seeds": [1, 2],
        "output_dir": str(tmp_path / "out"),
        "synthetic": TINY,
        "sampler": {"q": 2},
        "comparator": {"heads": 2},
        "train": {"epochs": 1, "batch_size": 64, "max_lr": 0.02},
        "rerank": {"k": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["sweep", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["seeds"] == [1, 2]
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "seed_2" / "results.json").exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_negative_seed_fails_naming_seed(cfg_path, capsys, seed):
    _, path = cfg_path
    code, out, err = run_cli(capsys, "ceiling", "--config", str(path), "--seed", seed)
    assert code == 1 and out == ""
    assert json.loads(err) == {"command": "ceiling", "error": "ValueError",
                               "message": f"seed must be an integer >= 0, got {seed}"}
