#!/usr/bin/env python3
"""Entry point of the benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 20 --trace 0

builds the Rust harness in this directory (release, offline, into
$CARGO_TARGET_DIR, default .bench_build) and runs it. The last stdout
line is the run's JSON result.

Steadiness mode:

    python3 perfbench/run.py --steady 10

runs every workload in BENCHMARK.json that many times with seeds 1..K
and prints, for every end-to-end metric, the median, the quartiles and
the quartile spread as a share of the median beside the metric's bound.

--seconds defaults to BENCHMARK.json's run_seconds. Run both from the
root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steady(binary, spec, runs, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = []
    for w in (w["name"] for w in spec["workloads"]):
        results = [run_once(binary, w, seed, seconds) for seed in range(1, runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w}: {runs} runs, failed share(s) {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  bound/3")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = "ok" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
            print(f"  {name:20s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.2f}  {ok}")
            print("  " + " " * 20 + " runs: " + " ".join(f"{v:.4g}" for v in values))
            worst.append((spread / bound, w, name))
        sys.stdout.flush()
    ratio, w, name = max(worst)
    print(f"widest spread relative to its bound: {w} {name} at {ratio:.2f} of the bound")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    args = ap.parse_args()
    if args.steady is None and not args.workload:
        ap.error("--workload or --steady is required")

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    if args.steady is not None:
        steady(binary, spec, args.steady, seconds)
        return
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
