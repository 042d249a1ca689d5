"""A fixed reference computation that gauges the machine's current speed.

On a shared host the same Python code can run 1.4-2x slower for seconds
to minutes at a time.  Timing a fixed piece of work next to every timed
operation measures that speed; scaling the operation's time by
``NOMINAL_S / reference time`` turns it into the time the operation would
take on a machine where the reference takes ``NOMINAL_S``.  The reference
is a sparse polynomial product with ``Fraction`` coefficients, like
pqnet's own kernels, but it uses no pqnet code, so a change to pqnet
cannot move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# The reference time the scaled figures are expressed at: about the median
# time of one reference product on a shared 2-vCPU 2.1 GHz VM, whose
# samples ranged from 2.5 ms to 9.6 ms.
NOMINAL_S = 0.004


def _operand(seed: int, terms: int, degree: int) -> dict[tuple[int, ...], Fraction]:
    rng = random.Random(seed)
    return {
        tuple(sorted(rng.sample(range(12), degree))): Fraction(rng.randint(1, 9), rng.randint(2, 11))
        for _ in range(terms)
    }


_LEFT = _operand(1, 40, 3)
_RIGHT = _operand(2, 24, 2)


def work() -> dict[tuple[int, ...], Fraction]:
    """Multiply two fixed sparse polynomials."""
    product: dict[tuple[int, ...], Fraction] = {}
    for left, a in _LEFT.items():
        for right, b in _RIGHT.items():
            key = tuple(sorted(left + right))
            product[key] = product.get(key, 0) + a * b
    return product


def sample() -> float:
    """Seconds one reference product takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal speed, from the reference samples taken
    just before and just after the timed work."""
    return seconds * NOMINAL_S / ((before + after) / 2)


class Clock:
    """Times the steps of ops, with reference samples between steps.

    A reference sample is taken before the first step and whenever at
    least ``every`` seconds of steps have run since the last sample; each
    step is scaled by the two samples around it.  Long ops are thus
    scaled piecewise, tracking speed changes within them.
    """

    def __init__(self, every: float = 0.05):
        self.every = every
        self.before = sample()
        self.pending: list[float] = []
        self.wall = 0.0
        self.scaled = 0.0

    def step(self, function, *args):
        """Call ``function(*args)`` as one timed step."""
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.pending.append(time.perf_counter() - start)
            if sum(self.pending) >= self.every:
                self.sync()

    def sync(self) -> None:
        """Take a reference sample and scale the steps since the last one."""
        if not self.pending:
            return
        after = sample()
        for seconds in self.pending:
            self.wall += seconds
            self.scaled += scaled(seconds, self.before, after)
        self.before = after
        self.pending = []

    def take(self) -> tuple[float, float]:
        """Wall and scaled seconds of the steps since the last ``take``."""
        self.sync()
        wall, scaled_total = self.wall, self.scaled
        self.wall = self.scaled = 0.0
        return wall, scaled_total
