"""Per-layer spans and counters, recorded from outside the program.

A :class:`Tracer` wraps the public entry points each flow calls into (the
names ``repro.tlm.generator`` imports, the search stages, the simtrace
and traffic engines), times every call, and reads the program's own
counters (``SIM_TOTALS``, artifact-store stats) at op boundaries.  No
file of the program changes: the wrappers are installed on module and
class attributes for the length of one op and removed afterwards.

Span times are inclusive (``cfrontend.parse`` contains ``cfrontend.lex``)
and a span re-entered while already open counts once.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import sys
import time

# (module, attribute, span).  The attribute is patched where the caller
# looks it up: ``repro.tlm.generator`` binds its stage functions at import,
# so they are wrapped there; the search and CLI modules import simtrace
# and tlm names at call time, so the package attribute is wrapped.
SITES = (
    ("repro.cfrontend.parser", "tokenize", "cfrontend.lex"),
    ("repro.tlm.generator", "parse_and_analyze", "cfrontend.parse"),
    ("repro.tlm.generator", "build_program", "cdfg.build"),
    ("repro.tlm.generator", "annotate_ir_program", "estimation.annotate"),
    ("repro.tlm.generator", "generate_source", "codegen.emit"),
    ("repro.tlm.generator", "program_from_source", "codegen.compile"),
    ("repro.tlm.generator", "compile", "codegen.compile"),
    ("repro.tlm", "load_design", "tlm.load_design"),
    ("repro.tlm.model:TLModel", "run", "tlm.run"),
    ("repro.search", "profile_design", "estimation.profile"),
    ("repro.search", "static_scores", "search.static"),
    ("repro.search", "explore", "explore"),
    ("repro.simtrace", "capture_tlm_trace", "simtrace.capture"),
    ("repro.simtrace", "replay_many", "simtrace.replay"),
    ("repro.workloads.traffic", "capture_traffic_profile", "traffic.capture"),
    ("repro.workloads.traffic", "run_traffic", "workloads.traffic"),
    ("repro.workloads.traffic_replay", "replay_traffic_sweep",
     "traffic_replay.sweep"),
)

#: ``SIM_TOTALS`` keys reported as per-op counts.
SIM_COUNTERS = ("activations", "events_scheduled")


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span timers and counters for the ops of one run."""

    def __init__(self):
        self._saved = []
        self._open = {}
        self._totals = {}
        self._sim_before = None
        self._store_before = None

    # -- recording ----------------------------------------------------------

    def _add(self, name, value):
        self._totals[name] = self._totals.get(name, 0.0) + value

    def _span_name(self, span, kwargs):
        if span == "explore":
            # search() calls explore once per simulating stage; the approx
            # rung passes replay="approx", the exact finalists do not.
            tier = "approx" if kwargs.get("replay") == "approx" else "exact"
            return "explore." + tier
        return span

    def _wrap(self, span, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = self._span_name(span, kwargs)
            if self._open.get(name):
                return func(*args, **kwargs)
            fallback = (name == "workloads.traffic"
                        and self._open.get("traffic_replay.sweep"))
            self._open[name] = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - start) * 1000.0
                self._open[name] = False
                self._add(name + "_ms", elapsed)
                if fallback:
                    self._add("traffic_replay.kernel_fallback_ms", elapsed)
            self._count(name, args, result)
            return result
        return wrapper

    def _count(self, name, args, result):
        if name == "cfrontend.parse":
            self._add("cfrontend.source_kb", len(args[0]) / 1024.0)
        elif name == "codegen.emit":
            self._add("codegen.source_kb", len(result) / 1024.0)

    # -- install / remove ---------------------------------------------------

    def install(self, loaded_only=False):
        """Wrap every site and open a counting window.  ``loaded_only``
        skips sites in modules not imported yet, so that tracing imports
        nothing the traced flow would not."""
        for path, attr, span in SITES:
            if loaded_only and path.partition(":")[0] not in sys.modules:
                continue
            owner = _owner(path)
            original = owner.__dict__.get(attr)
            if original is None and attr == "compile":
                original = builtins.compile
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(span, original))
        self.begin()

    def remove(self):
        """Restore every wrapped site."""
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []

    def begin(self):
        """Start a new op: zero the spans, snapshot the program counters."""
        from repro import artifacts
        from repro.simkernel.kernel import SIM_TOTALS

        self._totals = {}
        self._sim_before = dict(SIM_TOTALS)
        store = artifacts.default_store()
        self._store_before = (store, _store_counts(store))

    def take(self):
        """The op's spans and counters since :meth:`begin`."""
        from repro import artifacts
        from repro.simkernel.kernel import SIM_TOTALS

        record = dict(self._totals)
        for key in SIM_COUNTERS:
            record["simkernel." + key] = (
                SIM_TOTALS[key] - self._sim_before[key])
        store = artifacts.default_store()
        counts = _store_counts(store)
        before_store, before = self._store_before
        if store is before_store:
            counts = {kind: (hits - before.get(kind, (0, 0))[0],
                             lookups - before.get(kind, (0, 0))[1])
                      for kind, (hits, lookups) in counts.items()}
        record["artifacts.hit_ratio"] = _ratio(counts.values())
        record["estimation.sched_memo_hit_ratio"] = _ratio(
            [counts.get("sched", (0, 0))])
        self.begin()
        return record


def _store_counts(store):
    if store is None:
        return {}
    return {kind: (store.stats(kind).hits, store.stats(kind).lookups)
            for kind in store.kinds()}


def _ratio(pairs):
    hits = sum(h for h, _ in pairs)
    lookups = sum(n for _, n in pairs)
    return hits / lookups if lookups else 0.0
