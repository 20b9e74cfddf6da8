#!/usr/bin/env python3
"""Build bench_perf from source and run one workload of the benchmark.

    python3 perfbench/run.py --workload sweep_replay --seed 7 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
into .bench_build/ (the vmsim library from src/ plus the harness);
later calls only rebuild what changed. The last line on stdout is one
JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of the
traced run with --trace 1 (its spans go to .bench_build/).

--record FILE also appends {"workload", "seed", "trace", "result"} to
FILE as one JSON line, the input compare.py reads.

--smoke runs every workload on its smoke grid in both modes with an
already-built --binary, and checks that each run is correct, reports
exactly the metrics BENCHMARK.json names, and that the plain and
traced runs agree on the digest of the simulated output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "expected_digests.json")
WORKLOADS = ["sweep_replay", "generate_cold", "mc_pressure", "observed_check"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def build():
    """Configure once, then build bench_perf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: vmsim sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_perf",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench_perf")


def bench(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload in one mode; returns (exit code, result line)."""
    args = [binary, f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", "--traced" if trace else "--plain",
            f"--digests={DIGESTS}", *extra]
    if trace:
        args.append(f"--trace-out={BUILD}/spans_{workload}_{seed}.json")
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: bench_perf printed no result (exit "
                 f"{proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(line, trace):
    """Problems with the metric names and units of one result line."""
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    problems = [f"missing {k}" for k in want if k not in got]
    problems += [f"unexpected {k}" for k in got if k not in want]
    problems += [f"{k}: unit {got[k]} != {u}" for k, u in want.items()
                 if k in got and got[k] != u]
    return problems


def smoke(binary):
    bad = []
    for w in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            _, line = bench(binary, w, 12345, 0, trace, ["--smoke"])
            tag = f"{w} {'traced' if trace else 'plain'}"
            if not line["correct"] or line["failed"]:
                bad.append(f"{tag}: correct={line['correct']} "
                           f"failed={line['failed']}")
            bad += [f"{tag}: {p}" for p in check_metrics(line, trace)]
            digests[trace] = line["digest"]
        if digests[0] != digests[1]:
            bad.append(f"{w}: plain digest {digests[0]} != traced "
                       f"{digests[1]}")
    for b in bad:
        log("smoke:", b)
    log("smoke:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", metavar="PATH")
    a = ap.parse_args()

    binary = a.binary or build()
    if a.smoke:
        return smoke(binary)
    if not a.workload:
        ap.error("--workload is required")

    code, line = bench(binary, a.workload, a.seed, a.seconds, a.trace)
    problems = check_metrics(line, a.trace)
    if problems:
        sys.exit("run.py: " + "; ".join(problems))
    result = {k: line[k] for k in ("correct", "attempted", "failed",
                                   "metrics")}
    if a.record:
        with open(a.record, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                "trace": a.trace, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
