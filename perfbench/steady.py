"""Steadiness check: run one workload k times and report the spread.

    python3 perfbench/steady.py --workload dse_search -k 10 --seed 1

Runs ``run.py`` k times with seeds ``seed .. seed+k-1`` (one run at a
time) and prints, for each metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median,
and the largest deviation from the median, each next to the metric's
bound from ``BENCHMARK.json``.  A metric is steady when its spread stays
below a third of its bound.  ``--json PATH`` also saves the raw values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit("run failed (%d): %s%s" % (
            done.returncode, done.stdout[-2000:], done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values, bound):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    worst = max(abs(v - median) for v in values) / median if median else 0.0
    verdict = ""
    if bound is not None:
        verdict = "steady" if spread < bound / 3.0 else (
            "within bound" if spread <= bound else "TOO WIDE")
    return median, q1, q3, spread, worst, verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for offset in range(args.k):
        result = run_once(args.workload, args.seed + offset, seconds)
        runs.append(result)
        print("seed %d: correct %s, %d/%d failed, %s" % (
            args.seed + offset, result["correct"], result["failed"],
            result["attempted"], ", ".join(
                "%s %.4g" % (name, m["value"])
                for name, m in result["metrics"].items()
                if name in bounds)), flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("\n%s: %d runs of %g s, failed share %s, all correct %s" % (
        args.workload, args.k, seconds, sorted(shares),
        all(r["correct"] for r in runs)))
    print("%-24s %12s %12s %12s %8s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "worst", "bound",
        "verdict"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        bound = bounds.get(name)
        median, q1, q3, spread, worst, verdict = summarise(values, bound)
        print("%-24s %12.4f %12.4f %12.4f %8.4f %8.4f %6s  %s" % (
            name, median, q1, q3, spread, worst,
            "-" if bound is None else "%.2f" % bound, verdict))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle, indent=1)


if __name__ == "__main__":
    main()
