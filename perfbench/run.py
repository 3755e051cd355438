"""pcnn benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload seed|prepare_10k|posttrain_cli \
        --seed N --seconds S --trace 0|1

The run sets up the workload several times, warms it up once, then repeats
its timed job until the next job would end after S seconds of timed work,
with a per-workload minimum number of jobs, and checks every job's outputs
outside the timed region. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it wraps every pcnn module boundary, prints the
per-layer metrics, and writes the spans to .perfbench/.

The last line of stdout is the result object; the line before it holds the
environment record and the raw samples.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("acc_c", "ratio"),
)

_NPROC = len(os.sched_getaffinity(0))
# BLAS uses at most two threads, so machines with more cores measure the
# same configuration; set before numpy is first imported
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, str(min(_NPROC, 2)))


def _import_pcnn():
    """Import pcnn from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "pcnn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pcnn sources under {src}")
    sys.path.insert(0, str(src))
    import pcnn

    if Path(pcnn.__file__).resolve().parent != (src / "pcnn").resolve():
        raise SystemExit(f"perfbench: imported pcnn from {pcnn.__file__}, not {src}")


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(seed):
    import numpy as np
    from pcnn import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
        blas_config = blas.get("openblas configuration", "")
    except (KeyError, TypeError, ValueError):
        vendor, blas_config = "unknown", ""
    return {
        "nproc": _NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_config": blas_config,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "kernels_backend": kernels.backend_name(),
        "seed": seed,
    }


def run(workload, seed, seconds, trace, shapes=None, inject=None):
    """Run one workload; returns (result, detail).

    shapes: workload -> shape dict (the self-tests pass TINY).
    inject: optional callable(workload_object, job_output) applied to each
    job's output before it is checked (the self-tests use it).
    """
    from perfbench import workloads as wl
    from perfbench.trace import PER_LAYER, Tracer, install, per_layer_metrics

    shapes = shapes or wl.SHAPES
    run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    workdir = BENCH_DIR / "work" / run_id
    tracer = Tracer(run_id) if trace else None
    installed = install(tracer) if trace else None

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    def set_phase(phase):
        if tracer:
            tracer.phase = phase

    try:
        bench = wl.WORKLOADS[workload](shapes[workload], seed, str(workdir))
        setup_times = []
        for repeat in range(bench.setup_repeats):
            t0 = time.perf_counter()
            bench.setup(repeat)
            setup_times.append(time.perf_counter() - t0)
        set_phase("warmup")
        bench.warmup()

        job_times, op_times, problems, quality = [], {}, [], {}
        attempted = failed = 0
        timed = 0.0
        while True:
            # each job starts from the same heap: the last job's outputs are
            # freed and collected outside the timed region
            output = None
            gc.collect()
            set_phase("job")
            with span("bench.job"):
                output = bench.job(span)
            if tracer:
                tracer.jobs += 1
            set_phase("check")
            if inject is not None:
                inject(bench, output)
            try:
                found, q = bench.check(output)
            except Exception:  # a crashing check fails every op of the job
                found, q = [(op.name, traceback.format_exc(limit=3)) for op in output.ops], {}
            quality.update(q)
            bad = {name for name, _ in found}
            problems += [f"{name}: {msg}" for name, msg in found]
            for op in output.ops:
                attempted += 1
                if op.error is not None:
                    problems.append(f"{op.name}: {op.error}")
                if op.error is not None or op.name in bad:
                    failed += 1
                else:
                    op_times.setdefault(op.name, []).append(op.seconds)
            job_s = sum(op.seconds for op in output.ops)
            job_times.append((job_s, not bad and all(op.error is None for op in output.ops)))
            timed += job_s
            if len(job_times) >= bench.min_jobs and timed + job_s > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if installed:
            installed.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    good = [t for t, ok in job_times if ok]
    # with no successful job there is no clean timing; report all jobs and
    # let `correct: false` reject the run
    job_s = _median(good or [t for t, _ in job_times])
    env = environment(seed)
    detail = {
        "workload": workload, "seconds": seconds, "trace": bool(trace), "env": env,
        "setup_samples_s": setup_times, "job_samples_s": [t for t, _ in job_times],
        "ops": {name: {"median_s": _median(ts), "samples": len(ts)}
                for name, ts in op_times.items()},
        "quality": quality, "problems": problems[:20],
    }
    if trace:
        metrics = per_layer_metrics(tracer, op_times)
        metrics.update({
            "comparator.binary_f1": quality.get("binary_f1", 0.0),
            "reranker.acc_soft": quality.get("acc_soft", 0.0),
            "reranker.acc_hard": quality.get("acc_hard", 0.0),
            "trace.job_s": job_s,
            "trace.setup_s": _median(setup_times),
            "trace.peak_rss_mb": peak_rss_mb,
            "trace.spans": float(len(tracer.spans)),
        })
        trace_path = BENCH_DIR / "traces" / f"{run_id}.jsonl"
        tracer.write(str(trace_path), env)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "job_s": job_s,
            "setup_s": _median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
            "acc_c": quality.get("acc_c", 0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("seed", "prepare_10k", "posttrain_cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_pcnn()
    sys.path.insert(0, str(ROOT))
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    for line in detail["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
