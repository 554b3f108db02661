"""Machine-speed calibration: timings in reference-speed seconds.

The container this benchmark runs in shares a host.  Its speed for pure
Python work drifts by ±20 % in phases that last tens of seconds (longer
than a run), and the program under test slows down with it: left alone,
run-to-run spread of every timing is 15–35 %, far above any bound worth
fixing.  Counting CPU time instead of wall time does not help (the
drift is in the CPU time too).

So every timing the benchmark reports is scaled by how fast the machine
was running *while it was taken*: two fixed reference computations —
miniatures of what the program does — are timed every ``INTERVAL``
seconds of the run, and

    reported = measured × nominal ÷ (reference computation's time now)

The host does not slow all code alike: call-heavy code (index descents,
dict lookups, unpickling small nodes) and scan-heavy code (unpacking
slotted pages spread over 4 MB, a lock per record, a small group-by)
drift apart by a tenth.  Hence two references, ``point`` and ``scan``,
and each operation class is scaled by the one it resembles (measured:
README, "Steadiness").  The nominal times only fix the unit: a machine
on which a reference takes exactly its nominal time reports what it
measures.  The references live here, import nothing from ``src/``, and
so cannot be moved by a change to the program: a change that makes the
program twice as fast reads twice as fast.
"""

from __future__ import annotations

import pickle
import struct
from collections import Counter, deque
from statistics import median
from time import perf_counter

__all__ = ["Calibrator", "NOMINAL_S"]

#: One pass of each reference on the baseline container, host quiet.
NOMINAL_S = {"point": 0.0003, "scan": 0.0003}
_RECORD = struct.Struct("<iqd?")


class _Reference:
    """A fixed, deterministic miniature of the program's inner loops."""

    PAGES = 1024            # x 4 KiB = 4 MiB, larger than the L2 cache

    def __init__(self):
        self.pages = [bytearray(4096) for __ in range(self.PAGES)]
        for number, page in enumerate(self.pages):
            for slot in range(0, 1024, 64):
                _RECORD.pack_into(page, slot, number, slot,
                                  float(number + slot), True)
        self.stats: Counter = Counter()
        self.locks: dict = {}
        self.node = pickle.dumps(
            {"leaf": True, "keys": list(range(120)),
             "values": [(i, i % 7) for i in range(120)]})
        self.position = 0

    def _pin(self, number: int) -> bytearray:
        self.stats["pins"] += 1
        return self.pages[number % self.PAGES]

    def _lock(self, key) -> None:
        held = self.locks.get(key)
        if held is None:
            self.locks[key] = held = [0]
        held[0] += 1

    def _scan(self, start: int) -> list:
        out = []
        for number in range(start, start + 12 * 89, 89):
            page = memoryview(self._pin(number))
            for slot in range(0, 1024, 64):
                record = _RECORD.unpack_from(page, slot)
                self._lock((number, slot))
                if record[2] >= 0.0 and record[3]:
                    out.append((record[0], record[1], record[2]))
        self.locks.clear()
        return out

    def _descend(self, key: int):
        for __ in range(3):
            node = pickle.loads(self.node)
            keys = node["keys"]
            lo, hi = 0, len(keys)
            while lo < hi:
                mid = (lo + hi) // 2
                if keys[mid] < key:
                    lo = mid + 1
                else:
                    hi = mid
        return node["values"][lo % 120]

    def point(self) -> None:
        """Call-heavy: fourteen index descents."""
        for i in range(14):
            self._descend(i * 7 % 120)

    def scan(self) -> list:
        """Scan-heavy: twelve pages, a few descents, a group-by."""
        self.position += 37
        rows = self._scan(self.position)
        for i in range(6):
            self._descend((self.position + i) % 120)
        groups: dict = {}
        for row in rows:
            group = groups.get(row[0] % 8)
            if group is None:
                groups[row[0] % 8] = [1, row[2]]
            else:
                group[0] += 1
                group[1] += row[2]
        return sorted(groups.items())


class Calibrator:
    """Tracks, per reference, ``nominal ÷ (reference time now)``: the
    factor that turns a measured duration into reference-speed seconds."""

    INTERVAL = 0.03     # seconds of run between reference passes
    WINDOW = 5          # passes the current speed is the median of

    def __init__(self):
        reference = _Reference()
        self._kernels = (("point", reference.point),
                         ("scan", reference.scan))
        self._recent = {kind: deque(maxlen=self.WINDOW)
                        for kind in NOMINAL_S}
        self._due = 0.0
        self.current = dict.fromkeys(NOMINAL_S, 1.0)
        self.history = []       # every scan factor measured, for the report
        self.settle()

    def _pass(self) -> None:
        for kind, kernel in self._kernels:
            started = perf_counter()
            kernel()
            self._recent[kind].append(perf_counter() - started)
            self.current[kind] = NOMINAL_S[kind] / median(self._recent[kind])
        self.history.append(self.current["scan"])
        self._due = perf_counter() + self.INTERVAL

    def settle(self) -> float:
        """Forget what was measured before a long pause and measure
        afresh; returns the scan factor."""
        for recent in self._recent.values():
            recent.clear()
        for __ in range(self.WINDOW):
            self._pass()
        return self.current["scan"]

    def factor(self, kind: str, now: float) -> float:
        """The ``kind`` factor at time ``now`` (a ``perf_counter``
        reading), re-measured if the last pass is older than
        ``INTERVAL``."""
        if now >= self._due:
            self._pass()
        return self.current[kind]

    def timed(self, fn, *args) -> float:
        """Reference-speed seconds ``fn(*args)`` took; for long work
        (a build, a restart) bracketed by fresh measurements."""
        before = self.settle()
        started = perf_counter()
        fn(*args)
        elapsed = perf_counter() - started
        return elapsed * (before + self.settle()) / 2
