"""Deterministic fault injection for the common services.

The paper's architecture promises that extension failures of every class —
vetoes, protocol violations, outright crashes — are coordinated by the
common services without corrupting shared state.  Testing that promise
requires *producing* those failures on demand.  This service threads named
injection points through the layers that can fail in a real system:

* ``disk.read`` / ``disk.write`` — device I/O errors
* ``wal.append`` / ``wal.flush`` — log manager failures
* ``buffer.write_back`` — failures while cleaning a dirty frame
* ``foreign.remote_call`` — lost messages to the foreign gateway
* ``dispatch.storage.<op>`` / ``dispatch.attached.<type>.<op>`` — faults
  raised from inside a procedure-vector call (a buggy extension)

Every armed point is **deterministic**: fail on the Nth call, or fail with
a seeded probability, in one-shot or persistent mode.  Given the same
seed and call sequence, a schedule of injected faults replays exactly —
the crash-recovery fuzz harness (benchmarks/bench_faults.py, E17) relies
on this to make adversarial schedules reproducible in CI.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..errors import InjectedFault
from .stats import StatsService

__all__ = ["FaultInjector", "InjectedFault"]


class _FaultPlan:
    """One armed injection point's schedule."""

    __slots__ = ("point", "error", "nth", "probability", "rng", "one_shot",
                 "calls", "fired")

    def __init__(self, point: str, error=None, nth: Optional[int] = None,
                 probability: float = 0.0, seed: Optional[int] = None,
                 one_shot: bool = True):
        self.point = point
        self.error = error
        self.nth = nth
        self.probability = probability
        self.rng = random.Random(seed) if probability > 0.0 else None
        self.one_shot = one_shot
        self.calls = 0
        self.fired = 0

    def should_fire(self) -> bool:
        self.calls += 1
        if self.nth is not None:
            # One-shot: fire on exactly the Nth call.  Persistent: fire on
            # every Nth call (a period), which keeps long fuzz runs honest.
            if self.one_shot:
                return self.calls == self.nth
            return self.calls % self.nth == 0
        if self.rng is not None:
            return self.rng.random() < self.probability
        return False  # armed with neither trigger: counts calls only

    def make_error(self):
        if self.error is None:
            return InjectedFault(self.point, self.calls)
        if isinstance(self.error, BaseException):
            return self.error
        if isinstance(self.error, type):
            return self.error(
                f"injected fault at {self.point!r} (call #{self.calls})")
        return self.error()


class FaultInjector:
    """Named deterministic injection points, armed per point.

    Injection points call :meth:`fire` on every pass; an unarmed injector
    is a cheap attribute check on the hot path (``faults.armed``).  Tests
    and the fuzz harness arm points with :meth:`arm`, reproduce schedules
    from seeds, and read back counters from the shared stats service
    (``faults.injected.<point>``).
    """

    def __init__(self, stats=None):
        self.stats = stats if stats is not None else StatsService()
        self._plans: Dict[str, _FaultPlan] = {}
        self._fired: Dict[str, int] = {}
        #: True when any point is armed — the hot-path guard.
        self.armed = False

    # -- arming ---------------------------------------------------------------
    def arm(self, point: str, error=None, nth: Optional[int] = None,
            probability: float = 0.0, seed: Optional[int] = None,
            one_shot: bool = True) -> None:
        """Arm an injection point.

        ``error`` may be an exception instance, an exception class, or a
        zero-argument factory; omitted, the point raises
        :class:`InjectedFault`.  ``nth`` fires on the Nth call (one-shot)
        or every Nth call (persistent); ``probability`` + ``seed`` fires
        with a seeded per-point probability.  ``one_shot`` disarms the
        point after its first firing.
        """
        self._plans[point] = _FaultPlan(point, error, nth, probability,
                                        seed, one_shot)
        self.armed = True

    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point, or all of them when ``point`` is omitted."""
        if point is None:
            self._plans.clear()
        else:
            self._plans.pop(point, None)
        self.armed = bool(self._plans)

    # -- the injection points call this ----------------------------------------
    def fire(self, point: str) -> None:
        """Raise the armed error if the point's schedule says so."""
        if not self.armed:
            return
        plan = self._plans.get(point)
        if plan is None or not plan.should_fire():
            return
        plan.fired += 1
        self._fired[point] = self._fired.get(point, 0) + 1
        error = plan.make_error()
        if plan.one_shot:
            self.disarm(point)
        self.stats.bump("faults.injected")
        self.stats.bump(f"faults.injected.{point}")
        raise error

    # -- introspection -----------------------------------------------------------
    def calls(self, point: str) -> int:
        plan = self._plans.get(point)
        return plan.calls if plan is not None else 0

    def injected(self, point: Optional[str] = None) -> int:
        if point is None:
            return sum(self._fired.values())
        return self._fired.get(point, 0)

    def __repr__(self) -> str:
        return f"FaultInjector({sorted(self._plans)})"
