"""The inputs of the workloads and the reference data that checks them.

Everything here is built from the repository's own MP3 case study.  The
reference data (``reference.json``, made by ``make_reference.py``) holds
PCAM board cycles and the reference interpreter's decoder checksum; it is
keyed by :func:`fingerprint` of the designs it came from, and
:func:`load_reference` refuses data whose fingerprint no longer matches.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The paper's Tables 2/3 grid: every variant at every I/D-cache config.
VARIANTS = ("SW", "SW+1", "SW+2", "SW+4")
#: Calibration input seed, held out from the evaluation input.
TRAIN_SEED = 99
TRAIN_FRAMES = 1
EVAL_SEED = 7
EVAL_FRAMES = 2

#: Traffic and search designs run the decoder at a reduced size.
TRAFFIC_SEED = 3
TRAFFIC_CACHE = (8 * 1024, 4 * 1024)
TRAFFIC_VARIANT = "SW+1"


class StaleReference(Exception):
    """The reference data does not belong to the designs being checked."""


def small_params():
    from repro.apps.mp3 import Mp3Params

    return Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def mp3_grid():
    """``(variant, icache, dcache)`` of the 20 one-shot designs."""
    from repro.pum import PAPER_CACHE_CONFIGS

    return [(variant, icache, dcache) for variant in VARIANTS
            for icache, dcache in PAPER_CACHE_CONFIGS]


def calibrate_mp3():
    """Calibrated CPU statistics from the held-out training input."""
    from repro.apps.mp3 import Mp3Params, build_design
    from repro.calibration import calibrate_pum
    from repro.pum import PAPER_CACHE_CONFIGS, microblaze

    params = Mp3Params()

    def train(icache, dcache):
        return build_design("SW", params, n_frames=TRAIN_FRAMES,
                            seed=TRAIN_SEED, icache_size=icache,
                            dcache_size=dcache)[0]

    return calibrate_pum(microblaze(), train, PAPER_CACHE_CONFIGS)


def mp3_designs(calibration=None):
    """The 20 grid designs, calibrated when ``calibration`` is given."""
    from repro.apps.mp3 import Mp3Params, build_design
    from repro.apps.mp3.source import build_sources

    params = Mp3Params()
    models = {}
    if calibration is not None:
        models = {"memory_model": calibration.memory_model,
                  "branch_model": calibration.branch_model}
    sources = {variant: build_sources(variant, params, EVAL_FRAMES,
                                      EVAL_SEED)
               for variant in VARIANTS}
    return [build_design(variant, params, n_frames=EVAL_FRAMES,
                         seed=EVAL_SEED, icache_size=icache,
                         dcache_size=dcache, sources=sources[variant],
                         **models)[0]
            for variant, icache, dcache in mp3_grid()]


def calibrate_traffic():
    """Calibrated statistics for the reduced-size traffic design."""
    from repro.apps.mp3 import build_design
    from repro.calibration import calibrate_pum
    from repro.pum import microblaze

    def train(icache, dcache):
        return build_design("SW", small_params(), n_frames=TRAIN_FRAMES,
                            seed=TRAIN_SEED, icache_size=icache,
                            dcache_size=dcache)[0]

    return calibrate_pum(microblaze(), train, [TRAFFIC_CACHE])


def traffic_design(calibration=None):
    """MP3 SW+1 at the reduced size, its bus fifo-arbitrated."""
    from repro.apps.mp3 import build_design

    models = {}
    if calibration is not None:
        models = {"memory_model": calibration.memory_model,
                  "branch_model": calibration.branch_model}
    design, _ = build_design(
        TRAFFIC_VARIANT, small_params(), n_frames=1, seed=TRAFFIC_SEED,
        icache_size=TRAFFIC_CACHE[0], dcache_size=TRAFFIC_CACHE[1],
        **models)
    for bus in design.buses.values():
        bus.policy = "fifo"
    return design


def fingerprint(designs):
    """Hash of what board cycles depend on: sources, mapping, caches and
    buses.  Calibrated statistics and bus arbitration policy are left out
    (the board models real caches and an uncontended bus)."""
    digest = hashlib.sha256()
    for design in designs:
        parts = [design.name]
        for name in sorted(design.processes):
            proc = design.processes[name]
            parts.append("%s:%s:%s:%s:%s" % (
                name, proc.entry, proc.pe_name, list(proc.args),
                hashlib.sha256(proc.source.encode()).hexdigest()))
        for name in sorted(design.pes):
            pum = design.pes[name].pum
            parts.append("%s:%s:%d:%d:%r" % (
                name, pum.name, pum.icache_size, pum.dcache_size,
                pum.frequency_mhz))
        for name in sorted(design.buses):
            bus = design.buses[name]
            parts.append("%s:%d:%d:%r" % (
                name, bus.words_per_cycle, bus.arbitration_cycles,
                bus.cycle_ns))
        for chan_id in sorted(design.channels):
            chan = design.channels[chan_id]
            parts.append("%d:%s:%s" % (chan_id, chan.name, chan.bus_name))
        digest.update("\n".join(parts).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def load_reference(mp3, traffic):
    """The reference data for ``mp3`` (grid designs) and ``traffic``.

    Raises :class:`StaleReference` when the file is missing or was made
    from other designs."""
    try:
        with open(REFERENCE_PATH) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise StaleReference("cannot read %s: %s" % (REFERENCE_PATH, exc))
    expected = fingerprint(list(mp3) + [traffic])
    if data.get("fingerprint") != expected:
        raise StaleReference(
            "%s was made from other designs (fingerprint %s, designs %s); "
            "run perfbench/make_reference.py" % (
                REFERENCE_PATH, data.get("fingerprint"), expected))
    return data
