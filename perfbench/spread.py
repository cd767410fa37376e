#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the acceptance check
computes it: for each workload, ten runs with seeds 1..10, and for each
metric the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median. A spread
above a third of the metric's bound is flagged.

    python3 perfbench/spread.py
    python3 perfbench/spread.py --baseline perfbench/baseline.json

--baseline also makes one traced run per workload and writes the medians,
quartiles and spreads plus the traced per-layer values, layer shares and
run environment to the given file.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
RUNS = 10


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        return None, None
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="write medians and one traced run per workload here")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    baseline = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(1, RUNS + 1):
            info, result = run(workload, seed, 0)
            if result is None:
                print(f"{workload} seed {seed}: failed")
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {len(values['setup_s'])} runs")
        summary = {}
        for name, xs in values.items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"bound {bounds[name]:.2f}{flag}")
        if args.baseline:
            info, traced = run(workload, 1, 1)
            ok = ok and traced is not None and traced["correct"]
            baseline[workload] = {
                "runs": len(values["setup_s"]),
                "end_to_end": summary,
                "per_layer": traced and {k: v["value"] for k, v in traced["metrics"].items()},
                "layer_shares": info and info.get("layer_shares"),
                "environment": info and {k: info.get(k) for k in
                                         ("nproc", "threads", "isa", "build_type", "git_sha",
                                          "src_digest")},
            }
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
