"""Logical clocks for the simulated-time substrate."""

from __future__ import annotations

import threading
import typing

#: Simulated time is counted in whole picoseconds.
TICKS_PER_SECOND = 10**12


def to_ticks(seconds: float) -> int:
    """``seconds`` rounded to the nearest whole tick."""
    return round(seconds * TICKS_PER_SECOND)


def charge(clock: "SimClock | None", seconds: float) -> float:
    """Add ``seconds``, quantised to ticks, to ``clock`` (if any) and
    return exactly the seconds added."""
    ticks = to_ticks(seconds)
    if clock is not None:
        clock.advance_ticks(ticks)
    return ticks / TICKS_PER_SECOND


def synchronize(clocks: "typing.Iterable[SimClock]") -> float:
    """Move every clock up to the latest one, in ticks (a stage barrier
    between quiescent stages); returns the common reading in seconds."""
    clocks = list(clocks)
    latest = max(clock.ticks for clock in clocks)
    for clock in clocks:
        clock.advance_ticks(latest - clock.ticks)
    return latest / TICKS_PER_SECOND


class SimClock:
    """A monotonically advancing count of simulated time.

    Time is a Python ``int`` of picoseconds (:data:`TICKS_PER_SECOND`);
    :attr:`now` reads it as float seconds.  A charge is quantised once,
    where it enters the clock, and charges then add as integers, so the
    reading does not depend on their order or grouping.

    Each worker node owns one clock.  Every device operation (disk I/O,
    memory copy, serialization, network transfer) charges its cost here.
    Cluster-wide stage barriers synchronize all node clocks to the maximum,
    which models the bulk-synchronous execution used by the paper's
    distributed benchmarks.

    Thread-safe: several threads driving
    :class:`~repro.services.sequential.PageIterator` objects over one
    node's shards all charge that node's clock, so the read-modify-write
    in :meth:`advance_ticks` is guarded by a leaf lock (held for the
    increment only, never while calling out).
    """

    def __init__(self, now: float = 0.0) -> None:
        if now < 0:
            raise ValueError(f"clock cannot start at negative time: {now}")
        self._ticks = to_ticks(now)
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._ticks / TICKS_PER_SECOND

    @property
    def ticks(self) -> int:
        """Current simulated time in picoseconds."""
        return self._ticks

    def advance(self, seconds: float) -> float:
        """Charge ``seconds`` (rounded to ticks) and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        return self.advance_ticks(to_ticks(seconds))

    def advance_ticks(self, ticks: int) -> float:
        """Charge ``ticks`` picoseconds and return the new time in seconds."""
        if ticks < 0:
            raise ValueError(f"cannot advance clock by negative time: {ticks} ticks")
        with self._lock:
            self._ticks += ticks
            return self._ticks / TICKS_PER_SECOND

    def reset(self) -> None:
        """Rewind to time zero (used between benchmark runs)."""
        with self._lock:
            self._ticks = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self.now:.6f})"


class TickCounter:
    """A discrete access-sequence counter.

    The paging model in the paper measures page recency in "time ticks",
    which are buffer-pool access events rather than seconds.  The paging
    system increments this counter on every page access and stores the tick
    of the last reference on each page.

    Thread-safe: concurrent workers touching pages race on :meth:`next`;
    the leaf lock makes each tick unique and strictly increasing.
    """

    def __init__(self) -> None:
        self._tick = 0
        self._lock = threading.Lock()

    @property
    def now(self) -> int:
        return self._tick

    def next(self) -> int:
        """Advance by one access event and return the new tick."""
        with self._lock:
            self._tick += 1
            return self._tick

    def reset(self) -> None:
        with self._lock:
            self._tick = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TickCounter(now={self._tick})"
