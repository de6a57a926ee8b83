"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared 2-core VM the CPU runs ramseylb-like code up to 1.7x slower
for stretches of 5-30 s, when other guests load the host, and a whole
30-s run can fall into one such stretch.  The end-to-end times are
therefore rescaled by a reference kernel timed throughout the run:

    reported = measured wall time x NOMINAL_S / mean reference time

``reference()`` shares no code with ramseylb, so no change to the
program can make it faster or slower; it is built to resemble what
ramseylb does: the bytecode compiler, bitset clique search on Python
ints, small numpy arrays modulo a prime, text formatting and parsing,
Fractions and SHA-256.  The collector is off while it runs, so that a
program keeping more objects alive does not slow the reference.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from fractions import Fraction

import numpy as np

# The reference kernel's time on an unloaded 2-core VM ("Intel(R) Xeon(R)
# Processor", 2.0 GHz, Python 3.11.7, numpy 2.4.6).  It only fixes the
# scale of the reported seconds; changing it rescales every run alike.
NOMINAL_S = 0.030
# Seconds of request time between two reference samples: often enough to
# follow stretches of 5 s, at about a tenth of the run's time.
EVERY_S = 0.5

_SOURCE = "".join(
    f"def f{i}(x, y={i}):\n    return [x * y + k for k in range({i % 17}) if k % 3]\n"
    for i in range(60))
_rng = random.Random(20090)
_N = 48
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.7:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_MATRIX = np.array([[_rng.randrange(3) for _ in range(24)] for _ in range(24)], dtype=np.int64)


def _max_clique(cand: int, size: int) -> int:
    if not cand:
        return size
    best = size
    while cand:
        if size + bin(cand).count("1") <= best:
            break
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        best = max(best, _max_clique(cand & _ADJ[v], size + 1))
    return best


def reference() -> None:
    """One fixed unit of mixed interpreter and numpy work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        compile(_SOURCE, "<reference>", "exec")
        _max_clique((1 << _N) - 1, 0)
        m = _MATRIX
        for _ in range(100):
            m = (m @ _MATRIX.T + 1) % 3
        text = "\n".join(" ".join(str((i * j) % 5) for j in range(60)) for i in range(60))
        sum(int(x) for line in text.split("\n") for x in line.split(" "))
        sum(Fraction(1, k) for k in range(1, 60))
        hashlib.sha256(text.encode()).digest()
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Times ``reference()`` once per EVERY_S seconds of request time."""

    def __init__(self):
        self.due = 0.0
        self.times: list[float] = []

    def after(self, request_s: float) -> None:
        """Call after each timed request, outside its timed region."""
        self.due -= request_s
        if self.due <= 0:
            t0 = time.perf_counter()
            reference()
            self.times.append(time.perf_counter() - t0)
            self.due = EVERY_S

    def scale(self) -> float:
        """NOMINAL_S over the mean reference time of the run."""
        return NOMINAL_S / statistics.fmean(self.times)

    def describe(self) -> str:
        return (f"reference  n={len(self.times)} mean={statistics.fmean(self.times) * 1e3:.2f} ms "
                f"nominal={NOMINAL_S * 1e3:.2f} ms scale={self.scale():.4f}")
