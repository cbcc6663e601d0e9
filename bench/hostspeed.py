"""A fixed probe of the host's current speed.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent over seconds to minutes, as other tenants come and go.  CPU
time moves with wall time, so timing CPU instead of wall does not remove it.
The probe is a fixed piece of work of the same kind the program does at
small sizes (small complex SVDs and Hermitian eigenvalues through numpy,
plus a Python-level loop) that takes about a millisecond.  The benchmark
runs it between timed commands and scales each command's time by
``REFERENCE_S / probe time``, so that a slow spell of the host does not read
as a slow program.  Dense LAPACK calls on large blocks do not slow down in
step with the probe, so a workload whose time they fill scales only the
rest.  The probe uses no ``opgeo`` code: a change to the
program does not change the probe, and the change's own speed-up or
slow-down shows in full.
"""

from __future__ import annotations

import time

import numpy as np

#: probe time on the host the benchmark was defined on (2-vCPU shared VM,
#: numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  Scaled figures read as
#: figures on that host; the constant only sets the scale.
REFERENCE_S = 0.0013

#: the least time between two probes in a timed loop
INTERVAL_S = 0.1

#: back-to-back repeats per probe; the fastest counts, so that the caches
#: the timed command left cold do not count against the host
REPEATS = 3

_rng = np.random.default_rng(20261017)
_SMALL = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n)) for n in (2, 3, 4, 6, 8, 16, 24)]
_DENSE = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))


def _once() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for m in _SMALL:
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        acc += float(np.linalg.eigvalsh(m + m.conj().T)[0])
    acc += float(np.linalg.svd(_DENSE)[1][-1])
    table: dict[int, float] = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0.0) + i * acc
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float, share: float = 1.0) -> float:
    """`seconds` at the reference host speed, when `share` of it moves with
    the probe and the rest does not."""
    return seconds * (1.0 - share + share * REFERENCE_S / probe_s)


def probe() -> float:
    """Seconds the fixed probe work takes now: the fastest of REPEATS."""
    return min(_once() for _ in range(REPEATS))


class Tracker:
    """Probes the host at most every INTERVAL_S between timed ops.

    Call `after_op(seconds)` after each timed op and `flush()` at the end.
    Each op gets the first probe taken after it ends.
    """

    def __init__(self):
        self.ops: list[float] = []  # seconds as timed
        self.probe_of_op: list[float] = []
        self._pending: list[float] = []
        self._last = time.perf_counter()

    def after_op(self, seconds: float) -> None:
        self._pending.append(seconds)
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Probe now and assign the probe to every op not yet scaled."""
        if self._pending:
            p = probe()
            self.ops += self._pending
            self.probe_of_op += [p] * len(self._pending)
            self._pending = []
        self._last = time.perf_counter()
