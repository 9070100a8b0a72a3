"""Make the reference data the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Runs the cycle-accurate PCAM co-simulation (``repro.cycle.run_pcam``, the
stand-in for the paper's board) on the 20 one-shot designs and on the
traffic design, runs the decoder on the reference interpreter
(``repro.cdfg.interp.Interpreter``) for its checksum, and writes
``perfbench/reference.json`` keyed by the designs' fingerprint.  Takes
about a minute; rerun it whenever the benchmark reports stale reference
data.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402


def main():
    from repro.cdfg.interp import Interpreter
    from repro.cycle import run_pcam
    from repro.tlm.generator import compile_process

    start = time.perf_counter()
    mp3 = inputs.mp3_designs()
    traffic = inputs.traffic_design()
    board = {}
    for design in mp3:
        board[design.name] = run_pcam(design).makespan_cycles
        print("%-24s board %d cycles" % (design.name, board[design.name]))
    traffic_board = run_pcam(traffic).makespan_cycles
    print("traffic %-16s board %d cycles" % (traffic.name, traffic_board))
    decoder = mp3[0].processes["decoder"]
    checksum = Interpreter(compile_process(decoder)).call(decoder.entry)
    print("decoder checksum %r" % (checksum,))
    data = {
        "fingerprint": inputs.fingerprint(mp3 + [traffic]),
        "board_cycles": board,
        "decoder_checksum": checksum,
        "traffic_board_cycles": traffic_board,
    }
    with open(inputs.REFERENCE_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s in %.1f s" % (inputs.REFERENCE_PATH,
                                  time.perf_counter() - start))


if __name__ == "__main__":
    main()
