"""The host-speed rulers: fixed tasks timed around every op.

The benchmark's host is a small shared machine whose speed drifts in
phases lasting seconds.  Every op is timed between two runs of its
workload's ruler, and its time is divided by theirs and multiplied by the
ruler's nominal time, so a reported ``op_ms`` reads as "ms on a host where
the ruler takes its nominal time".

:data:`TOKENIZE` tokenizes a fixed Python text with the stdlib
``tokenize`` module: interpreter-bound work of the same kind as the
repository's frontend and kernel loops.  It normalises every set-up and
the ops of every workload but ``traffic_replay``.

:data:`MIXED` runs the same pass followed by a fixed numpy pass, a left
fold (``add.accumulate``) over a 64 x 256 grid.  The analytic traffic
replay spends about a third of its time in such numpy loops, which slow
less than the interpreter when the host does.  Over 200 seconds of
replayed points alternating with both rulers, as the tokenize pass slowed
by 37%, the replay slowed by 24%: its ratio to the tokenize ruler fell by
9%, its ratio to this one moved by 1.1%.  In two shorter samples, where
the tokenize pass slowed by 47% and 64%, the ratio to it fell by 17% and
21%.

A ruler's tasks and nominal time never change once the benchmark's
bounds are set: changing either changes every figure it normalises.
"""

from __future__ import annotations

import io
import time
import tokenize

_TEXT = "".join(
    "def f%d(a, b=%d):\n"
    "    x = [a * %d + b for _ in range(3)]\n"
    "    return {'k%d': x, \"s\": a // (b or 1)}  # c\n" % (i, i, i, i)
    for i in range(48)
)


class Ruler:
    """A tokenize pass plus ``numpy_folds`` numpy folds."""

    def __init__(self, name, nominal_ms, numpy_folds=0):
        self.name = name
        #: Ruler time, in ms, that the figures it normalises are scaled to.
        self.nominal_ms = nominal_ms
        self.numpy_folds = numpy_folds
        self._grid = self._fold = None

    def ms(self):
        """One timed pass of the ruler, in ms."""
        if self.numpy_folds and self._grid is None:
            import numpy

            self._grid = numpy.linspace(0.0, 1.0, 64 * 256).reshape(64, 256)
            self._fold = numpy.add.accumulate
        start = time.perf_counter()
        for _ in tokenize.generate_tokens(io.StringIO(_TEXT).readline):
            pass
        for _ in range(self.numpy_folds):
            self._fold(self._grid, axis=1)
        return (time.perf_counter() - start) * 1000.0

    def normalise(self, raw, before, after):
        """``raw`` (any unit) scaled to the nominal ruler speed."""
        return raw * self.nominal_ms / ((before + after) / 2.0)


TOKENIZE = Ruler("tokenize", 8.0)
MIXED = Ruler("tokenize+numpy", 16.0, numpy_folds=115)
