"""Byte-parity check of this tree's outputs against another revision.

    python tools/parity.py --against REV [--expect-diff PATH ...] [--workdir DIR]

REV is checked out with `git worktree add --detach` and removed afterwards.
In each tree a subprocess, with that tree's `src` first on PYTHONPATH, runs
the same fixed shapes and writes everything they produce under one
directory:

- `c10`, `random7`, `seed` and `corrupt_q4`: every `run_seed` artifact at
  the c10 determinism config, at a 7-class config (random-class negatives,
  `nn_rank` 2, `n_neighbors` 3, `prob_floor` 0.1, `subsample_fraction` 0.7),
  at the `seed` benchmark shape, and at the c10 config with seed 2**33, two
  entropy words, `corruption_q` 4 and `corruption_rate` 0.6, so that the
  corruption also draws its swap partners;
- `cli`: the files and the exit code, stdout and stderr of `synth`,
  `sample`, `train`, `eval`, `rerank`, `sanity`, `ceiling`, `explain`,
  `ingest` and `index` at the `posttrain_cli` benchmark shape. `index` runs
  three times: for a test query, and for a train query, globally and in its
  own class, where it must skip itself. Each run's exit code, stdout and
  stderr go to `cli/stdout/<name>.json`;
- `sweep`: `pcnn sweep` (`experiment.run`) at the c10 config with seeds 7
  and 8: both seed directories and `summary.json`, its output in
  `cli/stdout/sweep.json`;
- `config_seed`: `ceiling` at the `posttrain_cli` shape with `seeds`
  [31] and no `--seed`, so the seed a config command picks by itself shows
  in `cli/stdout/config_seed.json`;
- rejected configs: a bool and a string in real fields and a
  `comparator.depth` of 32 on a depth-64 store through `ceiling`,
  and a bool seed and a repeated seed through `sweep`, each with its output in
  `cli/stdout/bad_<name>.json`, so a change to what is rejected, or how it
  is named, shows in the report. Whatever a tree that accepts them writes
  under `cli/bad/out` is removed.

Configs use paths relative to that directory, so their bytes match across
trees. The two directories are compared byte for byte and one JSON report
is printed: the files compared, the identical count, each differing or
missing file with its first differing line, `src_diff`, the
`git diff --shortstat REV -- src` line that gives the size of the change,
and `env`, where the trees ran: the Python and numpy versions, numpy's BLAS,
the BLAS thread variables and the BLAS thread count this tree's pcnn
computes with, which it pins to 1 on import (the report only; nothing is
written into the compared directories).
The exit code is 1 when a file differs or is missing and `--expect-diff`
(paths relative to the output directory, e.g. `c10/seed_7/checkpoint.bin`)
does not list it, 2 when a tree cannot run the shapes, and 0 otherwise.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_C10 = {
    "synthetic": {"classes": 6, "train_per_class": 8, "test_per_class": 6,
                  "depth": 8, "tokens": 2, "groups": 2},
    "sampler": {"q": 3}, "comparator": {"heads": 2},
    "train": {"epochs": 3, "batch_size": 64, "max_lr": 0.03}, "rerank": {"k": 3},
}
# name -> (seed, config without output_dir)
RUN_SEED_SHAPES = {
    "c10": (7, _C10),
    "random7": (3, {
        **_C10,
        "synthetic": {**_C10["synthetic"], "classes": 7},
        "sampler": {"q": 3, "negative_mode": "random_class", "nn_rank": 2},
        "train": {"epochs": 2, "batch_size": 64, "max_lr": 0.03},
        "rerank": {"k": 4, "n_neighbors": 3, "prob_floor": 0.1},
        "subsample_fraction": 0.7,
    }),
    "seed": (1, {"synthetic": {}, "sampler": {"q": 10},
                 "train": {"epochs": 10, "max_lr": 0.05}, "rerank": {"k": 10}}),
    "corrupt_q4": (2**33, {
        **_C10,
        "synthetic": {**_C10["synthetic"], "corruption_q": 4, "corruption_rate": 0.6},
    }),
}
CLI_SEED = 31
CLI_CONFIG = {"synthetic": {"classes": 20, "train_per_class": 30, "test_per_class": 60},
              "sampler": {"q": 10}, "train": {"epochs": 1, "max_lr": 0.05},
              "rerank": {"k": 10}}
# name -> (command, config without output_dir) of configs every check must reject
BAD_CONFIGS = {
    "jitter_sigma_bool": ("ceiling", {**CLI_CONFIG, "comparator": {"jitter_sigma": True}}),
    "prob_floor_str": ("ceiling", {**CLI_CONFIG, "rerank": {"k": 10, "prob_floor": "0.1"}}),
    "comparator_depth": ("ceiling", {**CLI_CONFIG, "comparator": {"depth": 32}}),
    "seeds_bool": ("sweep", {**_C10, "seeds": [True]}),
    "seeds_dup": ("sweep", {**_C10, "seeds": [1, 1]}),
}


# ------------------------------------------------------------ comparison


def _first_difference(a, b):
    """(1-based line, byte offset) of the first difference of two byte strings."""
    offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return a[:offset].count(b"\n") + 1, offset


def compare_trees(ours, theirs, expect_diff=()):
    """Compare every file under two directories byte for byte.

    Returns the report: the files compared, how many are identical, each
    differing file with its first differing line and byte offset, each file
    only one side has, and `unexpected`, the differing or missing files that
    `expect_diff` does not list."""
    ours, theirs = Path(ours), Path(theirs)

    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    mine, other = files(ours), files(theirs)
    differ, missing = [], []
    for name in sorted(mine | other):
        if name not in mine or name not in other:
            missing.append({"file": name, "only_in": "ours" if name in mine else "theirs"})
            continue
        a, b = (ours / name).read_bytes(), (theirs / name).read_bytes()
        if a != b:
            line, offset = _first_difference(a, b)
            differ.append({"file": name, "line": line, "offset": offset,
                           "ours": a.split(b"\n")[line - 1][:200].decode(errors="replace"),
                           "theirs": b.split(b"\n")[line - 1][:200].decode(errors="replace")})
    moved = [d["file"] for d in differ + missing]
    return {"files": len(mine | other), "identical": len(mine | other) - len(moved),
            "differ": differ, "missing": missing,
            "unexpected": [name for name in moved if name not in set(expect_diff)]}


def environment():
    """The report's `env`: Python and numpy versions, the name and version of
    numpy's BLAS, each BLAS thread variable (None when unset) and
    `blas_threads`, the thread count OpenBLAS computes with once this tree's
    pcnn is imported (None where numpy's OpenBLAS does not report it)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from pcnn import blas as pinned

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {name: os.environ.get(name)
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "blas_threads": pinned.threads()}


# ---------------------------------------------------------------- shapes


def _write_json(path, config):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2))
    return path.as_posix()


def run_shapes():
    """Run every shape into the working directory with the pcnn on sys.path."""
    from pcnn import cli
    from pcnn.experiment import ExperimentConfig, run_seed

    for name, (seed, config) in RUN_SEED_SHAPES.items():
        path = _write_json(Path(name, "config.json"), {**config, "output_dir": name})
        run_seed(ExperimentConfig.load(path), seed, f"{name}/seed_{seed}")

    seed_dir = f"cli/out/seed_{CLI_SEED}"
    synth = _write_json(Path("cli/synth.json"), {**CLI_CONFIG, "output_dir": "cli/out"})
    store = _write_json(Path("cli/store.json"), {
        **CLI_CONFIG, "output_dir": "cli/out",
        "manifest_path": f"{seed_dir}/manifest.json", "payload_path": f"{seed_dir}/payload.bin"})
    files = ["--manifest", f"{seed_dir}/manifest.json", "--payload", f"{seed_dir}/payload.bin"]
    seeded = ["--seed", str(CLI_SEED)]
    commands = [("synth", ["--config", synth, *seeded])] + [
        (cmd, ["--config", store, *seeded])
        for cmd in ("sample", "train", "eval", "rerank", "sanity", "ceiling")
    ] + [
        ("explain", ["--results", f"{seed_dir}/rerank_soft.jsonl", *files,
                     "--out", "cli/out/explain.json"]),
        ("ingest", files),
    ]
    for cmd, argv in commands:
        _run_cli(cli, cmd, argv)
    records = json.loads(Path(seed_dir, "manifest.json").read_text())["records"]
    (test_id, _), (train_id, train_class) = records["test"][0], records["train"][0]
    train = [*files, "--split", "train", "--query-id", str(train_id), "--k", "5"]
    _run_cli(cli, "index", [*files, "--query-id", str(test_id), "--k", "5"])
    _run_cli(cli, "index", train, "index_train")
    _run_cli(cli, "index", [*train, "--class-id", str(train_class)], "index_train_class")
    config_seed = _write_json(Path("cli/config_seed.json"),
                              {**CLI_CONFIG, "seeds": [CLI_SEED], "output_dir": "cli/out"})
    _run_cli(cli, "ceiling", ["--config", config_seed], "config_seed")
    sweep = _write_json(Path("sweep/config.json"), {**_C10, "seeds": [7, 8], "output_dir": "sweep"})
    _run_cli(cli, "sweep", ["--config", sweep])
    for name, (cmd, config) in BAD_CONFIGS.items():
        path = _write_json(Path("cli/bad", f"{name}.json"), {**config, "output_dir": "cli/bad/out"})
        _run_cli(cli, cmd, ["--config", path], f"bad_{name}")
    shutil.rmtree("cli/bad/out", ignore_errors=True)


def _run_cli(cli, cmd, argv, name=None):
    """Run one command; write its exit code, stdout and stderr to
    `cli/stdout/<name>.json`, the name defaulting to the command's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([cmd, *argv])
    _write_json(Path("cli/stdout", f"{name or cmd}.json"),
               {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})


def _run_tree(tree, out):
    """Run the shapes with `tree`'s pcnn into `out`; SystemExit(2) on failure."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(tree, "src"))}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-shapes",
                           str(Path(tree, "src"))], cwd=out, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        print(json.dumps({"error": f"the shapes failed in {tree}",
                          "stderr": proc.stderr[-2000:]}), file=sys.stderr)
        raise SystemExit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", help="revision to compare this tree's outputs with")
    ap.add_argument("--expect-diff", nargs="*", default=[], metavar="PATH",
                    help="output files allowed to differ, relative to the output directory")
    ap.add_argument("--workdir", help="where the worktree and outputs go "
                                      "(default: a new temporary directory)")
    ap.add_argument("--run-shapes", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_shapes:  # the subprocess of one tree
        import pcnn

        if Path(pcnn.__file__).resolve().parent != Path(args.run_shapes, "pcnn").resolve():
            raise SystemExit(f"imported pcnn from {pcnn.__file__}, not {args.run_shapes}")
        run_shapes()
        return 0
    if not args.against:
        ap.error("--against is required")

    work = Path(args.workdir or tempfile.mkdtemp(prefix="pcnn-parity-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    theirs = work / "rev"
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--verify", f"{args.against}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    subprocess.run([*git, "worktree", "add", "--detach", str(theirs), commit],
                   check=True, capture_output=True)
    try:
        _run_tree(ROOT, work / "out_ours")
        _run_tree(theirs, work / "out_theirs")
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(theirs)],
                       check=True, capture_output=True)
    report = compare_trees(work / "out_ours", work / "out_theirs", args.expect_diff)
    src_diff = subprocess.run([*git, "diff", "--shortstat", commit, "--", "src"],
                              check=True, capture_output=True, text=True).stdout.strip()
    print(json.dumps({"against": args.against, "commit": commit, "outputs": str(work),
                      "src_diff": src_diff, "env": environment(), **report}, indent=2))
    return 1 if report["unexpected"] else 0


if __name__ == "__main__":
    sys.exit(main())
