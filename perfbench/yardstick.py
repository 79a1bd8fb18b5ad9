"""A fixed piece of Python work that measures how fast the machine runs right now.

The machines this benchmark runs on are shared, and their speed drifts by tens
of percent over seconds to minutes: the median of the same srb op can read
170 ms over one 30-second window and 320 ms over another.  The yardstick does the same kinds of
work as srb's hot paths: GF(2^16) log/exp table lookups over freshly built
vectors, big-endian symbol packing, scalar calls through a method with range
checks, and scattered reads over a working set of several MB, since srb's ops
slow down more than compact code when the machine is busy.  Its code and tables
are its own, so it never changes when srb does.  The runner times it between
consecutive ops, and inside a long op at a fixed interval (``interlude``); an
op's time divided by the harmonic mean of the yardstick times around and
inside it cancels most of the drift.  Over seven minutes of drift, 30-second medians of an
encode varied by 17% (coefficient of variation) raw, 5.2% normalized without
the scattered reads and 3.8% with them; for a clean bootstrap, 13.9%, 2.6% and
1.5%.

Normalized times are expressed in seconds at the reference speed: the speed
at which one yardstick run takes NOMINAL_S.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.050


class Yardstick:
    """Times one fixed run of srb-like work; see the module docstring."""

    def __init__(self):
        order = 1 << 16
        log = [-1] * order
        exp = [0] * (2 * order)
        v = 1
        for i in range(order - 1):
            log[v] = i
            exp[i] = exp[i + order - 1] = v
            v <<= 1
            if v & order:
                v ^= 0x1100B
        self._log, self._exp, self._order = log, exp, order
        rng = random.Random("yardstick")
        self._vec = [rng.randrange(1, order) for _ in range(16384)]
        self._raw = rng.randbytes(32768)
        self._coeffs = [rng.randrange(1, order) for _ in range(4)]
        self._scattered = [rng.randrange(1 << 30) for _ in range(1 << 18)]
        self._reads = [rng.randrange(1 << 18) for _ in range(1 << 16)]
        self.samples: list[float] = []
        self.paused = 0.0       # seconds spent in interludes during the current op

    def _mul(self, a: int, b: int) -> int:
        if not (0 <= a < self._order and 0 <= b < self._order):
            raise ValueError("operand out of range")
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _work(self) -> int:
        log, exp, vec = self._log, self._exp, self._vec
        acc = [0] * len(vec)
        for c in self._coeffs:
            lc = log[c]
            acc = [a ^ (exp[lc + log[x]] if x else 0) for a, x in zip(acc, vec)]
        raw = self._raw
        symbols = tuple(int.from_bytes(raw[off : off + 2], "big") for off in range(0, len(raw), 2))
        horner = 0
        for x in vec[:512]:
            for c in self._coeffs:
                horner = self._mul(horner, x) ^ c
        scattered = self._scattered
        parity = sum(scattered[i] & 1 for i in self._reads)
        return acc[-1] ^ symbols[-1] ^ horner ^ parity

    def latest(self) -> float:
        """The last sample, or a fresh one if there is none yet."""
        return self.samples[-1] if self.samples else self.measure()

    def measure(self) -> float:
        """Seconds one yardstick run takes now; also kept in `samples`."""
        started = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def interlude(self) -> None:
        """A run in the middle of a long op; the op's time leaves it out."""
        started = time.perf_counter()
        self.measure()
        self.paused += time.perf_counter() - started
