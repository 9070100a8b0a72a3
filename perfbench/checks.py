"""Output checks.  Each returns a list of problems; empty means it passed.

The checks compare an op's output with computations made apart from the
timed path (reference data, a direct private-store re-simulation, the
kernel) or with properties the method must have.  ``selftest.py`` hands
each of them a perturbed result to show it can fail.
"""

from __future__ import annotations

#: Largest accepted |timed-TLM makespan - board cycles| / board cycles for
#: one design.  The paper's worst case (Table 3) is 13.9%; the worst of the
#: 20 one-shot designs here is 8.0% (see README.md).
MAKESPAN_TOLERANCE = 0.10


def relative_error(estimate, reference):
    return abs(estimate - reference) / float(reference)


def check_oneshot(out, board_cycles, checksum):
    """One ``python -m repro simulate`` run against the reference data."""
    if out.get("returncode") != 0:
        return ["exit code %r: %s" % (out.get("returncode"),
                                      out.get("tail", ""))]
    problems = []
    if out.get("checksum") != checksum:
        problems.append("decoder returned %r, reference interpreter %r"
                        % (out.get("checksum"), checksum))
    makespan = out.get("makespan")
    if makespan is None:
        problems.append("no makespan in the output")
    elif relative_error(makespan, board_cycles) > MAKESPAN_TOLERANCE:
        problems.append(
            "makespan %d is %.1f%% off the board's %d cycles (tolerance "
            "%.1f%%)" % (makespan, 100 * relative_error(makespan,
                                                        board_cycles),
                         board_cycles, 100 * MAKESPAN_TOLERANCE))
    return problems


def check_resimulated(name, reported, resimulated):
    """A search optimum re-simulated under a direct ``generate_tlm``."""
    if reported != resimulated:
        return ["optimum %s reported %r cycles, re-simulation %r"
                % (name, reported, resimulated)]
    return []


def check_optimum(staged, exhaustive):
    """``(name, makespan)`` of the staged optimum against the exhaustive
    one."""
    if staged != exhaustive:
        return ["staged search optimum %r differs from exhaustive %r"
                % (staged, exhaustive)]
    return []


def check_traffic_point(latencies, bus_grants, n_instances, single_makespan,
                        single_grants):
    """One N-instance traffic point against the single instance: every
    instance has a latency no shorter than running alone, and each bus
    grants exactly N times the single instance's grants."""
    problems = []
    if len(latencies) != n_instances:
        problems.append("%d latencies for %d instances"
                        % (len(latencies), n_instances))
    short = [lat for lat in latencies if lat < single_makespan]
    if short:
        problems.append("%d latencies below the single-instance makespan "
                        "%d (lowest %d)" % (len(short), single_makespan,
                                            min(short)))
    expected = {bus: n_instances * grants
                for bus, grants in single_grants.items()}
    if bus_grants != expected:
        problems.append("bus grants %r, expected %r"
                        % (bus_grants, expected))
    return problems


def traffic_key(end_time_ns, latencies, bus_stats):
    """Everything the kernel and the analytic replay must agree on (the
    makespan derives from the end time)."""
    return (
        end_time_ns,
        tuple(latencies),
        tuple(sorted((bus, tuple(sorted(stats.items())))
                     for bus, stats in bus_stats.items())),
    )


def check_identical(label, kernel_key, replay_key):
    if kernel_key != replay_key:
        return ["%s: kernel and analytic replay differ" % label]
    return []
