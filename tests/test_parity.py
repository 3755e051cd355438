import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_compare_trees_finds_a_flipped_byte_and_a_missing_file(tmp_path):
    same = {"c10/seed_7/results.json": b'{"a": 1}\n', "cli/stdout/eval.json": b"{}"}
    ours = _tree(tmp_path / "ours", {**same, "c10/seed_7/pairs.jsonl": b"[1, 2]\n[3, 4]\n",
                                     "c10/seed_7/checkpoint.bin": b"\x00\x01"})
    theirs = _tree(tmp_path / "theirs", {**same, "c10/seed_7/pairs.jsonl": b"[1, 2]\n[3, 5]\n"})
    report = parity.compare_trees(ours, theirs)
    assert report["files"] == 4 and report["identical"] == 2
    assert report["differ"] == [{"file": "c10/seed_7/pairs.jsonl", "line": 2, "offset": 11,
                                 "ours": "[3, 4]", "theirs": "[3, 5]"}]
    assert report["missing"] == [{"file": "c10/seed_7/checkpoint.bin", "only_in": "ours"}]
    assert report["unexpected"] == ["c10/seed_7/pairs.jsonl", "c10/seed_7/checkpoint.bin"]
    expected = parity.compare_trees(ours, theirs, ["c10/seed_7/pairs.jsonl"])
    assert expected["unexpected"] == ["c10/seed_7/checkpoint.bin"]


def test_identical_trees_report_nothing(tmp_path):
    files = {"a/b.bin": bytes(range(256)), "c.txt": b"x\n"}
    report = parity.compare_trees(_tree(tmp_path / "ours", files), _tree(tmp_path / "theirs", files))
    assert report == {"files": 2, "identical": 2, "differ": [], "missing": [], "unexpected": []}


def test_environment_reports_versions_blas_and_thread_variables(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    env = parity.environment()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "blas": {"name": blas["name"], "version": blas["version"]},
                   "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                               "MKL_NUM_THREADS": "3"}}
    assert json.loads(json.dumps(env)) == env
