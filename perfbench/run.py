"""Benchmark of the repository's estimation flows.

    python3 perfbench/run.py --workload mp3_cold --seed 1 --seconds 12 --trace 0

Runs one workload (``mp3_cold``, ``dse_search``, ``traffic_kernel`` or
``traffic_replay``, see ``flows.py``) as a closed loop with one client, in
whole rounds until ``--seconds`` have passed, checks every op's output and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``op_ms``,
``setup_s``, ``peak_rss_mb``, ``error_pct``); with ``--trace 1`` they are
the per-layer ones, recorded by wrapping the program's entry points (see
``spans.py``), plus the tracing overhead.  Times are normalised to host
speed by a ruler (``ruler.py``).  Exits non-zero without a result when
the program's sources or the reference data are missing or stale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Developer-local caches that would turn a cold op warm.
CACHE_ENV = ("REPRO_ARTIFACTS", "REPRO_ARTIFACTS_DIR", "REPRO_SCHED_CACHE",
             "REPRO_SCHED_CACHE_FILE")

#: Extra set-ups per untraced run, each in a fresh interpreter; setup_s is
#: the median of these and the run's own.
SETUP_PROBES = 2

END_TO_END = (("op_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("error_pct", "%"))

PER_LAYER = (
    ("import.cli_ms", "ms"), ("cli.main_ms", "ms"),
    ("tlm.load_design_ms", "ms"),
    ("cfrontend.lex_ms", "ms"), ("cfrontend.parse_ms", "ms"),
    ("cdfg.build_ms", "ms"), ("estimation.annotate_ms", "ms"),
    ("codegen.emit_ms", "ms"), ("codegen.compile_ms", "ms"),
    ("tlm.run_ms", "ms"), ("estimation.sched_memo_hit_ratio", "ratio"),
    ("cfrontend.source_kb", "KB"), ("codegen.source_kb", "KB"),
    ("simkernel.activations", "count"),
    ("estimation.profile_ms", "ms"), ("search.static_ms", "ms"),
    ("simtrace.capture_ms", "ms"), ("simtrace.replay_ms", "ms"),
    ("explore.exact_ms", "ms"), ("search.static_points", "count"),
    ("simtrace.replayed_points", "count"),
    ("simtrace.fallback_points", "count"),
    ("explore.exact_points", "count"), ("artifacts.hit_ratio", "ratio"),
    ("workloads.traffic_ms", "ms"), ("simkernel.events_scheduled", "count"),
    ("simkernel.activations_per_ms", "1/ms"),
    ("tlm.contention.queued_grants", "count"),
    ("tlm.contention.stall_cycles", "cycles"),
    ("traffic_replay.sweep_ms", "ms"),
    ("traffic_replay.kernel_fallback_ms", "ms"),
    ("traffic_replay.replayed_points", "count"),
    ("traffic_replay.flagged_points", "count"),
    ("traffic.capture_ms", "ms"), ("ruler_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: Per-layer metrics read once from the run's set-up, not per op.
SETUP_LAYERS = ("import.cli_ms", "traffic.capture_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_to_one_cpu():
    """Run the benchmark and every process it starts on one CPU, so that
    the ruler measures the CPU the op ran on.  The CPUs of a shared host
    can differ in speed by more than half, and a one-shot op's child can
    otherwise land on another CPU than its parent's ruler."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def clean_environment():
    for name in CACHE_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def timed_setup(workload, tracer):
    """``import repro.cli`` plus the workload's set-up, normalised to the
    tokenize ruler.  Returns ``(setup_s, layers)``."""
    from ruler import TOKENIZE

    before = TOKENIZE.ms()
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1000.0
    if tracer is not None:
        tracer.install()
    workload.setup()
    seconds = time.perf_counter() - start
    layers = {}
    if tracer is not None:
        layers = tracer.take()
        tracer.remove()
    layers["import.cli_ms"] = import_ms
    after = TOKENIZE.ms()
    return (TOKENIZE.normalise(seconds, before, after),
            normalise_spans(TOKENIZE, layers, before, after))


def normalise_spans(ruler, record, before, after):
    """Span times (``*_ms``) scaled to the nominal ruler speed, like
    ``op_ms``; counts and ratios unchanged."""
    return {name: ruler.normalise(value, before, after)
            if name.endswith("_ms") else value
            for name, value in record.items()}


def probe_setup(args):
    """``setup_s`` of one more set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stdout[-500:]
                           + done.stderr[-500:])
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """The closed measuring loop and its accounting."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.untraced = []  # (kind, raw ms, normalised ms)
        self.traced = []
        self.records = []
        self.rulers = []

    def slots(self, index):
        """``(op, traced)`` of round ``index``; a traced run pairs every
        untraced op with a traced one, alternating which goes first."""
        workload = self.workload
        if self.tracer is None:
            return [(op, False) for op in workload.round_ops(index)]
        pairs = zip(workload.round_ops(2 * index),
                    workload.round_ops(2 * index + 1))
        slots = []
        for position, (plain, traced) in enumerate(pairs):
            pair = [(plain, False), (traced, True)]
            slots += pair if position % 2 == 0 else pair[::-1]
        return slots

    def one(self, op, traced):
        workload = self.workload
        ruler = workload.ruler
        self.attempted += 1
        in_process = traced and workload.in_process
        before = ruler.ms()
        if in_process:
            self.tracer.install()
        try:
            start = time.perf_counter()
            out = workload.run(op, traced)
            raw_ms = (time.perf_counter() - start) * 1000.0
            record = self.tracer.take() if in_process else {}
        except Exception:  # an op's failure is counted, never retried
            self.failed += 1
            print("op failed: %r\n%s" % (op, traceback.format_exc()))
            return
        finally:
            if in_process:
                self.tracer.remove()
        after = ruler.ms()
        try:
            problems = workload.check(op, out)
        except Exception:  # a check that raises fails its op
            self.failed += 1
            print("op's check raised: %r\n%s" % (op, traceback.format_exc()))
            return
        if problems:
            self.failed += 1
            print("op failed its check: %r: %s" % (op, "; ".join(problems)))
            return
        self.rulers += [before, after]
        sample = (workload.kind(op), raw_ms,
                  ruler.normalise(raw_ms, before, after))
        if traced:
            if not workload.in_process:
                record = workload.child_spans(out)
            record = normalise_spans(ruler, record, before, after)
            workload.layer_counts(op, out, record)
            self.records.append(record)
            self.traced.append(sample)
        else:
            self.untraced.append(sample)

    def run(self, seconds):
        start = time.perf_counter()
        index = 0
        while True:
            for op, traced in self.slots(index):
                self.one(op, traced)
            index += 1
            if time.perf_counter() - start >= seconds:
                return index


def layer_metrics(loop, setup_layers):
    values = {}
    for name, _ in PER_LAYER:
        if name in SETUP_LAYERS:
            values[name] = setup_layers.get(name, 0.0)
            continue
        # Means, so that the layers of an op add up to its mean time.
        values[name] = statistics.fmean(r.get(name, 0.0)
                                        for r in loop.records)
    values["ruler_ms"] = statistics.median(loop.rulers)
    values["trace.overhead_pct"] = 100.0 * (
        op_ms(loop.traced) / op_ms(loop.untraced) - 1.0)
    if "import.cli_ms" in (loop.records[0] if loop.records else {}):
        # One-shot ops import the CLI themselves, in every child.
        values["import.cli_ms"] = statistics.median(
            r["import.cli_ms"] for r in loop.records)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def op_ms(samples):
    """The median normalised time of each kind of op in a round, averaged
    over the kinds: a round mixes ops of different cost, and a plain
    median would jump between them."""
    kinds = {}
    for kind, _, norm in samples:
        kinds.setdefault(kind, []).append(norm)
    return statistics.fmean(statistics.median(v) for v in kinds.values())


def describe(label, samples):
    raw = [r for _, r, _ in samples]
    norm = [n for _, _, n in samples]
    line = "%s: %d ops, op_ms %.2f, median %.2f (raw %.2f ms)" % (
        label, len(samples), op_ms(samples), statistics.median(norm),
        statistics.median(raw))
    if len(samples) >= 10:
        line += ", p90 %.2f (raw %.2f)" % (percentile(norm, 90),
                                          percentile(raw, 90))
    return line + ", max %.2f (raw %.2f)" % (max(norm), max(raw))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: no program sources under %s\n" % SRC)
        return 2
    clean_environment()
    pin_to_one_cpu()
    import flows
    import inputs
    from spans import Tracer

    if args.workload not in flows.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (choose %s)\n"
                         % (args.workload, ", ".join(flows.WORKLOADS)))
        return 2
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = flows.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        setup_s, setup_layers = timed_setup(workload, tracer)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s]
        if not args.trace:
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
        problems = workload.prepare()
        loop = Loop(workload, tracer)
        rounds = loop.run(args.seconds)
        # Before finish(), whose untimed checks are not the program's ops.
        peak_rss_mb = workload.peak_rss_mb()
        problems = problems + workload.finish()
    except inputs.StaleReference as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    for problem in problems:
        print("check failed: %s" % problem)
    import numpy

    print("perfbench %s seed %d: %d rounds in %.0f s, trace %d" % (
        args.workload, args.seed, rounds, args.seconds, args.trace))
    print("env: python %s, numpy %s, nproc %d (pinned to CPU %s), %s ruler "
          "median %.3f ms (nominal %.1f)" % (
              platform.python_version(), numpy.__version__, os.cpu_count(),
              ",".join(map(str, sorted(os.sched_getaffinity(0)))),
              workload.ruler.name, statistics.median(loop.rulers),
              workload.ruler.nominal_ms))
    print("ops: attempted %d, failed %d" % (loop.attempted, loop.failed))
    print(describe("untraced", loop.untraced))
    if args.trace:
        print(describe("traced", loop.traced))
        metrics = layer_metrics(loop, setup_layers)
    else:
        print("setup_s samples: %s" % ", ".join("%.3f" % s for s in setups))
        values = {
            "op_ms": op_ms(loop.untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "error_pct": workload.error_pct(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print("  %-36s %14.4f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not problems, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
