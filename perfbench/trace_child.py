"""Traced twin of ``python -m repro <args>`` for the one-shot workload.

Times ``import repro.cli``, wraps the layer entry points (see
:mod:`spans`), runs the CLI exactly as ``python -m repro`` would, and
prints one extra last line, ``PERFBENCH-TRACE <json>``, holding the
spans and counters of the run.

    PYTHONPATH=src python3 perfbench/trace_child.py simulate design.json
"""

from __future__ import annotations

import json
import sys
import time


def main(argv):
    start = time.perf_counter()
    import repro.cli

    import_ms = (time.perf_counter() - start) * 1000.0
    # The modules holding the one-shot path's sites, imported here rather
    # than inside main() so that they can be wrapped; their import time
    # still counts in cli.main_ms.
    start = time.perf_counter()
    import repro.cfrontend.parser  # noqa: F401
    import repro.tlm  # noqa: F401

    path_ms = (time.perf_counter() - start) * 1000.0
    from spans import Tracer

    tracer = Tracer()
    tracer.install(loaded_only=True)
    start = time.perf_counter()
    code = repro.cli.main(argv)
    main_ms = path_ms + (time.perf_counter() - start) * 1000.0
    record = tracer.take()
    record["import.cli_ms"] = import_ms
    record["cli.main_ms"] = main_ms
    sys.stdout.write("PERFBENCH-TRACE %s\n" % json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
