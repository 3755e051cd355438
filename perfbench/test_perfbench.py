"""Self-tests of the benchmark, run on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench_run  # noqa: E402
from perfbench import trace, workloads  # noqa: E402

WORKLOADS = ("seed", "prepare_10k", "posttrain_cli")
# the workloads BENCHMARK.json lists; prepare_10k runs only when asked for
LISTED = ("seed", "posttrain_cli")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(LISTED)
    assert list(workloads.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(trace.PER_LAYER)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, traced):
    result, detail = bench_run.run(workload, 3, 0.01, traced, shapes=workloads.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = _bench_json()
    listed = bench["per_layer"] if traced else bench["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if not traced:
            assert entry["value"] != 0, m["name"]
    assert detail["env"]["seed"] == 3
    assert detail["env"]["kernels_backend"] in ("numpy", "numba")
    if traced:
        spans = (ROOT / detail["trace_file"]).read_text().splitlines()
        first = json.loads(spans[1])
        assert {"name", "start", "end", "parent", "run"} <= set(first)


def test_swapped_neighbor_id_is_a_failure():
    def swap(bench, output):
        pairs = output.values["train_pairs"].pairs
        p = pairs[0]  # the query's nearest positive
        same = [rid for rid in bench.store.by_class("train", p.source_class)
                if rid not in (p.neighbor_id, p.query_id)]
        p.neighbor_id = same[-1]

    result, detail = bench_run.run("prepare_10k", 3, 0.01, 0,
                                   shapes=workloads.TINY, inject=swap)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert any("positives" in p for p in detail["problems"])


def test_missing_checkpoint_is_a_failure(monkeypatch):
    original = workloads.PosttrainCliWorkload.warmup

    def warmup_then_delete(self):
        original(self)
        cfg = json.loads(Path(self.config_path).read_text())
        os.remove(Path(cfg["output_dir"]) / f"seed_{self.seed}" / "checkpoint.bin")

    monkeypatch.setattr(workloads.PosttrainCliWorkload, "warmup", warmup_then_delete)
    result, detail = bench_run.run("posttrain_cli", 3, 0.01, 0, shapes=workloads.TINY)
    rounds = result["attempted"] // 4
    assert not result["correct"]
    assert result["failed"] == 3 * rounds  # eval, rerank, sanity; ceiling needs none
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(0.25)
    assert any("no checkpoint" in p for p in detail["problems"])


def test_self_time_excludes_children():
    tracer = trace.Tracer("t")
    outer = tracer.enter("outer", True)
    inner = tracer.enter("inner", False)
    inner_s = tracer.exit(inner)
    outer_s = tracer.exit(outer)
    agg = tracer.aggs["setup"]
    assert agg["outer"].self_s == pytest.approx(outer_s - inner_s)
    assert agg["inner"].self_s == pytest.approx(inner_s)
    assert tracer.spans[0]["parent"] is None and len(tracer.spans) == 1


def test_install_undo_restores_every_binding():
    from pcnn import cli, experiment, nnindex, numkernel

    before = (numkernel.matmul, cli.load_checkpoint, experiment.synth_gen,
              nnindex.ClassIndex.__dict__["build"])
    installed = trace.install(trace.Tracer("t"))
    assert cli.load_checkpoint is not before[1]
    installed.undo()
    after = (numkernel.matmul, cli.load_checkpoint, experiment.synth_gen,
             nnindex.ClassIndex.__dict__["build"])
    assert all(a is b for a, b in zip(before, after))


def test_bench_kernels_still_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench_kernels.py", "--queries", "4", "--base", "16",
         "--depth", "8", "--repeats", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sqdist_many" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
