"""Fixed work that times the machine, not casson4.

The test machine's speed drifts by 10-40 % over seconds and minutes, and
not by the same factor for computing as for starting a process.  So the
benchmark scales its times by two calibrations, neither of which
touches casson4, and a change to the library cannot change them:

- ``chunk()``: pure-Python work like casson4's own, big-integer Bareiss
  elimination, Fraction sums with growing denominators, and dict and
  str work.  A worker runs one before its first job, then one before a
  job whenever ``EVERY_S`` seconds of jobs have passed since the last,
  and one after its last job.  Each job's time is scaled by
  ``REFERENCE_S`` over the mean of the chunk just before it and the one
  just after.
- ``SPAWN_CODE``: a fresh interpreter that imports some standard
  library modules.  The harness runs it right before each worker and
  scales the worker's set-up time by ``REFERENCE_SPAWN_S`` over its time.

A scaled time reads as seconds on a machine where one chunk takes
``REFERENCE_S`` and the spawn takes ``REFERENCE_SPAWN_S``.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.015
EVERY_S = 0.1
REFERENCE_SPAWN_S = 0.085
SPAWN_CODE = "import argparse, dataclasses, decimal, email.parser, fractions, json, logging, pathlib, typing, unittest"

_MATRIX = [[(i * 7 + j * 13) % 17 - 8 + 5 * (i == j) for j in range(16)] for i in range(16)]


def _work() -> None:
    for _ in range(2):
        a = [row[:] for row in _MATRIX]
        prev = 1
        for k in range(len(a) - 1):
            for i in range(k + 1, len(a)):
                for j in range(k + 1, len(a)):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k] or 1
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction((-1) ** i, i * i + 1)
    table: dict = {}
    for i in range(15000):
        key = (i % 97, str(i % 89))
        table[key] = table.get(key, 0) + i


def chunk() -> float:
    """Seconds one chunk takes now.  The cyclic collector is off while
    it runs, so the size of the library's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
