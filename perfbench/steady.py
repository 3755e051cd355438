"""Steadiness check: run each workload on several seeds and report spreads.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads seed,posttrain_cli]
        [--seeds 0-9] [--traced] [--out .perfbench/steady.json]

--workloads defaults to the workloads BENCHMARK.json lists.

For every end-to-end metric and workload it prints the median over the seeds
and the spread, taken as the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. With --traced it also makes one traced
run per workload (on the first seed) and reports the tracing overhead: the
traced value minus the untraced value of that seed for each end-to-end
metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=".perfbench/steady.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, detail, wall = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "detail": detail})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"{values}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, spr = spread(values)
            entry["metrics"][name] = {"median": med, "spread": spr, "bound": bound,
                                      "values": values}
            flag = "ok" if spr < bound / 3 else ("WITHIN BOUND" if spr <= bound else "TOO WIDE")
            print(f"  {name:<14} median {med:.5g}  spread {spr:.4f}  bound {bound}  {flag}")
        if args.traced:
            traced, tdetail, wall = run_once(workload, seeds[0], args.seconds, 1)
            plain = runs[0]["result"]["metrics"]
            overhead = {
                "job_s": traced["metrics"]["trace.job_s"]["value"] - plain["job_s"]["value"],
                "setup_s": traced["metrics"]["trace.setup_s"]["value"] - plain["setup_s"]["value"],
                "peak_rss_mb": (traced["metrics"]["trace.peak_rss_mb"]["value"]
                                - plain["peak_rss_mb"]["value"]),
            }
            entry["traced"] = {"seed": seeds[0], "wall_s": wall, "result": traced,
                               "detail": tdetail, "overhead": overhead}
            print(f"  traced run: correct={traced['correct']} overhead {overhead}")
        report["workloads"][workload] = entry
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
