#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench/perfbench.cpp).

    python3 perfbench/run.py --workload short_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke     # every workload tiny + fault-injection check

Run from anywhere inside a checkout of the repository. The library and the
benchmark binary are built from source into $CARGO_TARGET_DIR (default
.bench_build at the repository root). The last line of standard output is the
result JSON {"correct", "attempted", "failed", "metrics"}; the line before it
is {"info": {...}}: environment (nproc, thread count, ISA, build type, git SHA
or a digest of src/ when there is no git), tail percentile, sample counts and
the traced layer shares. Exits non-zero without a result line on any failure.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY = "saloba_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {BENCH_DIR.name}/ (expected src/ and CMakeLists.txt)")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", BINARY])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / BINARY


def source_identity():
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def run(args):
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail("benchmark output lacks the info and result lines")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = declared_metrics(args.trace == 1)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared is not None and declared != reported:
        fail(f"reported metrics {reported} differ from BENCHMARK.json {declared}")

    sha, digest = source_identity()
    info.update(git_sha=sha, src_digest=digest)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))


def smoke():
    binary = build()
    sys.exit(subprocess.run([str(binary), "--smoke"], timeout=RUN_TIMEOUT_S).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["short_reads", "long_reads", "ultralong_reads",
                                          "tenant_extend"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny size: clean, traced, and with injected faults")
    args = p.parse_args()
    if args.smoke:
        smoke()
    if args.workload is None:
        p.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
