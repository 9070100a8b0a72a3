"""The benchmark's self-test.

    python3 perfbench/selftest.py

1. Every check fails when handed a perturbed copy of a real result, and
   passes on the result itself:
   - a one-shot decoder checksum off by one;
   - a one-shot makespan 20% off the board cycles;
   - a traffic latency below the single-instance makespan;
   - a search optimum that differs from the exhaustive one.
2. Every workload runs at its smallest size (one round) through
   ``run.py`` and passes its checks with no failed op.

Takes about a minute.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5


def expect(label, problems, fail):
    if bool(problems) != fail:
        sys.exit("selftest FAILED: %s: expected %s, got %r" % (
            label, "a failed check" if fail else "a pass", problems))
    print("ok  %-52s %s" % (label, "fails" if fail else "passes"))


def perturbations(workdir):
    import checks
    import flows

    oneshot = flows.OneShot(ROOT, SEED, workdir)
    oneshot.setup()
    out = oneshot.run(0, False)
    board = oneshot.reference["board_cycles"][oneshot.designs[0].name]
    checksum = oneshot.reference["decoder_checksum"]
    expect("one-shot result", checks.check_oneshot(out, board, checksum),
           False)
    expect("one-shot checksum off by one", checks.check_oneshot(
        dict(out, checksum=out["checksum"] + 1), board, checksum), True)
    expect("one-shot makespan 20% off the board", checks.check_oneshot(
        dict(out, makespan=int(board * 1.2)), board, checksum), True)

    traffic = flows.TrafficKernel(ROOT, SEED, workdir)
    traffic.setup()
    traffic.prepare()
    spec = traffic.round_ops(0)[0]
    result = traffic.run(spec, False)
    expect("traffic point", traffic.check(spec, result), False)
    result.latencies_cycles[0] = traffic.single_makespan - 1
    expect("traffic latency below the single instance",
           traffic.check_point(result), True)

    search = flows.Search(ROOT, SEED, workdir)
    staged, truth, runner_up = search.validation_optima()
    expect("staged search optimum", checks.check_optimum(staged, truth),
           False)
    expect("search optimum differing from exhaustive",
           checks.check_optimum(runner_up, truth), True)


def smallest_runs():
    for workload in ("mp3_cold", "dse_search", "traffic_kernel",
                     "traffic_replay"):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", "0", "--trace",
               "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        result = None
        if done.returncode == 0:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result or not result["correct"] or result["failed"]:
            sys.exit("selftest FAILED: %s one round: %s%s" % (
                workload, done.stdout[-2000:], done.stderr[-2000:]))
        print("ok  %-52s %d ops, 0 failed" % (workload + " one round",
                                                 result["attempted"]))


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run

    run.clean_environment()
    workdir = os.path.join(run.WORK, "selftest-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        perturbations(workdir)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    smallest_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
