import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcnn import blas

SRC = Path(__file__).resolve().parents[1] / "src"

# one `run_seed` at a shape whose GEMMs OpenBLAS splits over two threads when
# it may: the default synthetic store (D = 64), batch 256, one epoch
RUN = """
import sys
from pcnn.experiment import ExperimentConfig, run_seed
cfg = ExperimentConfig(sampler={"q": 10}, train={"epochs": 1, "max_lr": 0.05},
                       rerank={"k": 10}, output_dir=sys.argv[1])
run_seed(cfg, 1, sys.argv[1])
"""


def test_pin_leaves_one_thread():
    if not blas.PINNED:
        pytest.skip("numpy's OpenBLAS does not export its thread calls; nothing is pinned")
    assert blas.threads() == 1


def test_artifacts_identical_across_blas_thread_counts(tmp_path):
    if not blas.PINNED:
        pytest.skip("numpy's OpenBLAS does not export its thread calls, so artifacts "
                    "follow OPENBLAS_NUM_THREADS")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", RUN, str(out)], env=env, check=True)
        outs.append({p.relative_to(out).as_posix(): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()})
    assert "checkpoint.bin" in outs[0] and "rerank_soft.jsonl" in outs[0]
    assert sorted(outs[0]) == sorted(outs[1])
    assert [name for name in outs[0] if outs[0][name] != outs[1][name]] == []
