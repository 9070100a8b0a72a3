"""The four workloads.  Each is a closed loop with one client.

A workload has a timed ``setup`` (after ``import repro.cli``), an untimed
``prepare`` of its check data, ``round_ops(r)`` giving the ops of round
``r`` (every run attempts whole rounds), ``kind(op)`` naming which op of
a round it is, ``run(op, traced)`` doing one op,
``check(op, out)`` returning problems, ``layer_counts`` adding the op's
per-layer counts in a traced run, and ``finish()`` returning run-level
problems.  ``ruler`` is the ruler that normalises its ops.  A workload
whose ops run in a child (``in_process`` false) also has
``child_spans(out)``, the spans the traced child reported.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys

import checks
import inputs
from ruler import MIXED, TOKENIZE

HERE = os.path.dirname(os.path.abspath(__file__))
TRAFFIC_N = 64
GRANULARITY = "block"


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


class OneShot:
    """``mp3_cold``: one-shot ``python -m repro simulate <design.json>`` of
    the 20 calibrated Tables 2/3 designs, each in a fresh interpreter."""

    name = "mp3_cold"
    in_process = False
    ruler = TOKENIZE

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.makespans = {}
        self.rss_mb = []

    def setup(self):
        from repro.tlm.serialize import save_design

        calibration = inputs.calibrate_mp3()
        self.designs = inputs.mp3_designs(calibration)
        self.reference = inputs.load_reference(
            self.designs, inputs.traffic_design())
        self.paths = []
        for index, design in enumerate(self.designs):
            path = os.path.join(self.workdir, "design%02d.json" % index)
            save_design(design, path)
            self.paths.append(path)

    def prepare(self):
        # One untimed op: it also leaves the interpreter's bytecode cache
        # of every module the CLI imports written, as any installed copy
        # would have it.
        return self.check(0, self.run(0, False))

    def round_ops(self, index):
        order = list(range(len(self.paths)))
        _rng(self.seed, self.name, index).shuffle(order)
        return order

    def run(self, op, traced):
        argv = ["simulate", self.paths[op]]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "trace_child.py")]
        else:
            cmd = [sys.executable, "-m", "repro"]
        proc = subprocess.Popen(cmd + argv, cwd=self.root,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        text = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return _parse_oneshot(text, proc.returncode, usage.ru_maxrss / 1024.0)

    def kind(self, op):
        return op

    def check(self, op, out):
        design = self.designs[op]
        problems = checks.check_oneshot(
            out, self.reference["board_cycles"][design.name],
            self.reference["decoder_checksum"])
        if not problems:
            self.makespans[op] = out["makespan"]
            self.rss_mb.append(out["rss_mb"])
        return problems

    def child_spans(self, out):
        """The spans and counts the traced child printed."""
        return dict(out.get("trace") or {})

    def layer_counts(self, op, out, record):
        pass  # the child's spans hold every count

    def finish(self):
        missing = len(self.designs) - len(self.makespans)
        return ["%d designs never checked" % missing] if missing else []

    def error_pct(self):
        board = self.reference["board_cycles"]
        return 100.0 * statistics.fmean(
            checks.relative_error(makespan, board[self.designs[op].name])
            for op, makespan in self.makespans.items())

    def peak_rss_mb(self):
        return statistics.median(self.rss_mb)


_MAKESPAN = re.compile(r"makespan (\d+) cycles")
_DECODER = re.compile(r"^\s+decoder\s.*-> (\S+)\s*$", re.M)


def _parse_oneshot(text, returncode, rss_mb):
    out = {"returncode": returncode, "rss_mb": rss_mb,
           "tail": text.strip()[-300:]}
    match = _MAKESPAN.search(text)
    if match:
        out["makespan"] = int(match.group(1))
    match = _DECODER.search(text)
    if match:
        out["checksum"] = int(match.group(1))
    for line in text.splitlines():
        if line.startswith("PERFBENCH-TRACE "):
            out["trace"] = json.loads(line.split(" ", 1)[1])
    return out


def _peak_rss_self_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Search:
    """``dse_search``: staged search of the 10,000-point MP3 platform x PUM
    space, from a fresh artifact store and schedule memo, on a source seed
    no earlier op of the run used."""

    name = "dse_search"
    in_process = True
    ruler = TOKENIZE
    round_size = 4
    KEEP_TOP = 16
    RUNG_FRACTION = 0.02

    def __init__(self, root, seed, workdir):
        self.seed = seed
        self.static_errors = []

    def setup(self):
        from repro import artifacts, search  # noqa: F401
        from repro.estimation import schedcache  # noqa: F401

    def prepare(self):
        return []

    @staticmethod
    def space(source_seed, small=False):
        from repro.search import mp3_product_space

        if small:
            # The seeded validation space: cheap enough to enumerate.
            return mp3_product_space(
                inputs.small_params(), variants=("SW", "SW+2"), n_frames=1,
                seed=source_seed, icache_sizes=(4096, 8192),
                dcache_sizes=(4096,), bus_widths=(1, 4),
                bus_arbitrations=(1, 8), cpu_mhz=(66.0, 100.0, 150.0, 200.0))
        return mp3_product_space(
            inputs.small_params(), variants=("SW+2",), n_frames=1,
            seed=source_seed, icache_sizes=(2048, 4096, 8192, 16384),
            dcache_sizes=(2048, 4096), bus_widths=(1, 2, 4, 8, 16),
            bus_arbitrations=(1, 2, 4, 8, 16),
            cpu_mhz=tuple(50.0 + 3.0 * step for step in range(50)))

    def round_ops(self, index):
        return [1000 * (self.seed % 1000000) + self.round_size * index + k
                for k in range(self.round_size)]

    @staticmethod
    def _fresh_caches():
        from repro import artifacts
        from repro.estimation import schedcache

        artifacts.reset_default_store()
        schedcache.reset_default_cache()

    def kind(self, op):
        return self.name

    def run(self, op, traced):
        import repro.search

        self._fresh_caches()
        space = self.space(op)
        return space, repro.search.search(
            space, keep_top=self.KEEP_TOP, rung_fraction=self.RUNG_FRACTION)

    def check(self, op, out):
        from repro.search import static_scores
        from repro.tlm import generate_tlm

        space, result = out
        if result.exploration.failures:
            return ["%d exact-tier points failed"
                    % len(result.exploration.failures)]
        best = result.best()
        resimulated = generate_tlm(best.point.build(),
                                   store=False).run().makespan_cycles
        problems = checks.check_resimulated(
            best.point.name, best.makespan_cycles, resimulated)
        finalists = result.exploration.results
        scores, _ = static_scores(space, [r.index for r in finalists])
        self.static_errors.append(statistics.fmean(
            checks.relative_error(score, r.makespan_cycles)
            for score, r in zip(scores, finalists)))
        return problems

    def layer_counts(self, op, out, record):
        report = out[1].report
        record["search.static_points"] = report.stage_named("static").entered
        record["explore.exact_points"] = report.stage_named("exact").entered
        replayed = fallback = 0
        for name in ("approx-rung", "exact"):
            counters = report.stage_named(name).counters
            replayed += (counters.get("replayed_exact", 0)
                         + counters.get("replayed_approx", 0))
            fallback += counters.get("simulated", 0)
        record["simtrace.replayed_points"] = replayed
        record["simtrace.fallback_points"] = fallback

    def validation_optima(self):
        """``(name, makespan)`` of the staged optimum of a seeded validation
        space, of its exhaustive optimum (every point on the kernel, no
        pruning, no replay) and of the exhaustive runner-up."""
        from repro.explore import explore
        from repro.search import search

        space = self.space(self.seed, small=True)
        self._fresh_caches()
        staged = search(space, keep_top=8, rung_fraction=0.1).best()
        self._fresh_caches()
        ranked = explore(space.points(), replay="off").ranked()
        self._fresh_caches()
        return [(r.point.name, r.makespan_cycles)
                for r in (staged, ranked[0], ranked[1])]

    def finish(self):
        staged, truth, _ = self.validation_optima()
        return checks.check_optimum(staged, truth)

    def error_pct(self):
        """Stage-0 static estimate vs exact makespan of the finalists."""
        return 100.0 * statistics.fmean(self.static_errors)

    def peak_rss_mb(self):
        return _peak_rss_self_mb()


class _Traffic:
    """Shared set-up of the two traffic workloads: MP3 SW+1 at the reduced
    size, fifo-arbitrated bus, block granularity, one captured profile."""

    in_process = True
    ruler = TOKENIZE

    def __init__(self, root, seed, workdir):
        self.seed = seed
        self.compared = 0

    def setup(self):
        import repro.workloads.traffic as traffic

        self.design = inputs.traffic_design(inputs.calibrate_traffic())
        self.profile = traffic.capture_traffic_profile(
            self.design, granularity=GRANULARITY, record_grants=True)

    def prepare(self):
        from repro.tlm import generate_tlm
        from repro.workloads import compile_replay_plan

        reference = inputs.load_reference(inputs.mp3_designs(),
                                          self.design)
        single = generate_tlm(self.design, granularity=GRANULARITY,
                              store=False).run()
        self.single_makespan = single.makespan_cycles
        self.single_grants = {bus: stats["grants"]
                              for bus, stats in single.bus_stats.items()}
        self.error = checks.relative_error(
            single.makespan_cycles, reference["traffic_board_cycles"])
        self.plan = compile_replay_plan(self.profile, self.design)
        return []

    def check_point(self, result):
        return checks.check_traffic_point(
            result.latencies_cycles,
            {bus: stats["grants"] for bus, stats in result.bus_stats.items()},
            TRAFFIC_N, self.single_makespan, self.single_grants)

    def kernel(self, spec):
        import repro.workloads.traffic as traffic

        return traffic.run_traffic(self.design, spec,
                                   granularity=GRANULARITY,
                                   profile=self.profile)

    def error_pct(self):
        """Single-instance timed TLM vs board cycles of the design."""
        return 100.0 * self.error

    def peak_rss_mb(self):
        return _peak_rss_self_mb()


def _result_key(result):
    return checks.traffic_key(result.end_time_ns, result.latencies_cycles,
                              result.bus_stats)


class TrafficKernel(_Traffic):
    """``traffic_kernel``: one N=64 contended point per op on the event
    kernel (``run_traffic(..., replay="off")``)."""

    name = "traffic_kernel"
    #: (arrivals, mean gap in cycles) of the four points of a round.
    GRID = (("poisson", 500.0), ("poisson", 2000.0),
            ("bursty", 1000.0), ("bursty", 4000.0))

    def round_ops(self, index):
        from repro.workloads import TrafficSpec

        rng = _rng(self.seed, self.name, index)
        return [TrafficSpec(TRAFFIC_N, arrivals=arrivals,
                            mean_gap_cycles=gap, burst_size=8,
                            seed=rng.randrange(1 << 30))
                for arrivals, gap in self.GRID]

    def kind(self, op):
        return (op.arrivals, op.mean_gap_cycles)

    def run(self, op, traced):
        return self.kernel(op)

    def check(self, op, out):
        problems = self.check_point(out)
        replayed = self._replay(op)
        if replayed is not None:
            self.compared += 1
            problems += checks.check_identical(
                repr(op), _result_key(out), replayed)
        return problems

    def _replay(self, spec):
        """The analytic replay's key for ``spec``, or ``None`` where the
        replay flags the point and would itself fall back to the kernel."""
        from repro.workloads import traffic_replay

        try:
            end, latencies, bus_stats, _ = traffic_replay.replay_traffic_point(
                self.plan, spec)
        except traffic_replay._Flagged:
            return None
        return checks.traffic_key(end, latencies, bus_stats)

    def layer_counts(self, op, out, record):
        kernel_ms = record.get("workloads.traffic_ms", 0.0)
        activations = record.get("simkernel.activations", 0)
        record["simkernel.activations_per_ms"] = (
            activations / kernel_ms if kernel_ms else 0.0)
        record["tlm.contention.queued_grants"] = sum(
            stats["queued_grants"] for stats in out.bus_stats.values())
        record["tlm.contention.stall_cycles"] = sum(
            stats["stall_cycles"] for stats in out.bus_stats.values())

    def finish(self):
        """Make sure a seeded sample reached the kernel-vs-replay
        comparison: when every point of the run was flagged, compare
        further seeded Poisson points (untimed) until one replays."""
        from repro.workloads import TrafficSpec

        rng = _rng(self.seed, self.name, "sample")
        for _ in range(16):
            if self.compared:
                return []
            spec = TrafficSpec(TRAFFIC_N, arrivals="poisson",
                               mean_gap_cycles=4000.0,
                               seed=rng.randrange(1 << 30))
            problems = self.check(spec, self.kernel(spec))
            if problems:
                return problems
        return ["no point of the run could be compared with the replay"]


class TrafficReplay(_Traffic):
    """``traffic_replay``: sweeps of N=64 Poisson points through the
    analytic grant-queue tier (``replay_traffic_sweep``); only flagged
    points reach the kernel.

    The grid is fixed, and the seed sets the order of the sweeps.  A
    flagged point costs about 90x a replayed one, so the grid leaves out
    the points the tier flags (``FLAGGED``) but one, ``KEPT_FLAGGED``: the
    replay engine then does most of a round's work, and the one kernel
    fallback per round keeps that path measured.  A grid drawn from the
    seed would make op time swing with how many points it flags."""

    name = "traffic_replay"
    #: Numpy does about a third of a sweep's work (see ``ruler.py``).
    ruler = MIXED
    GAPS = (3000.0, 4000.0, 6000.0, 8000.0)
    #: Traffic seeds 0-127 that the tier flags at each gap, found by
    #: running ``replay_traffic_point`` on every point of the grid.
    FLAGGED = {
        3000.0: (10, 12, 33, 36, 59, 65, 66, 88, 91, 112, 114, 118),
        4000.0: (10, 27, 32, 36, 43, 56, 67, 99, 102, 109, 118, 122, 123),
        6000.0: (7, 63, 75, 91, 97, 118),
        8000.0: (28, 70, 91, 118),
    }
    KEPT_FLAGGED = (8000.0, 118)
    #: Four sweeps a round; sweep k holds traffic seeds 32k .. 32k+31 at
    #: every gap, about 120 points lasting about a second, like the
    #: host's speed phases: the rulers before and after a longer op miss
    #: the phases inside it.
    round_size = 4
    SEEDS_PER_SWEEP = 32

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        #: (gap, traffic seed) -> key of the point's replayed result; as
        #: large as the grid, however many rounds a run does.
        self.replayed = {}

    def round_ops(self, index):
        from repro.workloads import TrafficSpec

        sweeps = []
        for k in range(self.round_size):
            seeds = range(self.SEEDS_PER_SWEEP * k,
                          self.SEEDS_PER_SWEEP * (k + 1))
            sweeps.append([
                TrafficSpec(TRAFFIC_N, arrivals="poisson",
                            mean_gap_cycles=gap, seed=seed)
                for gap in self.GAPS for seed in seeds
                if seed not in self.FLAGGED[gap]
                or (gap, seed) == self.KEPT_FLAGGED])
        _rng(self.seed, self.name, index).shuffle(sweeps)
        return sweeps

    def kind(self, op):
        return op[0].seed

    def run(self, op, traced):
        import repro.workloads.traffic_replay as traffic_replay

        return traffic_replay.replay_traffic_sweep(
            self.design, op, granularity=GRANULARITY, profile=self.profile,
            validate_n=0)

    def check(self, op, out):
        results, stats = out
        problems = []
        if stats["replayed"] + stats["flagged"] != len(op):
            problems.append("sweep stats do not add up: %r" % (stats,))
        for spec, result in zip(op, results):
            problems += self.check_point(result)
            if result.replayed:
                self.replayed[spec.mean_gap_cycles, spec.seed] = (
                    _result_key(result))
        return problems

    def layer_counts(self, op, out, record):
        stats = out[1]
        record["traffic_replay.replayed_points"] = stats["replayed"]
        record["traffic_replay.flagged_points"] = stats["flagged"]

    def finish(self):
        """A seeded sample of the run's replayed points, re-run on the
        kernel (untimed), must be bit-identical."""
        from repro.workloads import TrafficSpec

        if not self.replayed:
            return ["no point of the run was replayed"]
        gap, seed = _rng(self.seed, self.name, "sample").choice(
            sorted(self.replayed))
        spec = TrafficSpec(TRAFFIC_N, arrivals="poisson",
                           mean_gap_cycles=gap, seed=seed)
        return checks.check_identical(
            repr(spec), _result_key(self.kernel(spec)),
            self.replayed[gap, seed])


WORKLOADS = {cls.name: cls
             for cls in (OneShot, Search, TrafficKernel, TrafficReplay)}
