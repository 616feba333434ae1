"""Deterministic discrete-event kernel for the network simulation.

The paper's evaluation (Section V) ran on a real CORBA deployment where
message delay, node outages and partitions genuinely reorder and postpone
delivery.  This module reproduces that substrate: a virtual-time event
scheduler every transport, and so the whole network stack, runs on.

Design
------
* Events live in a priority queue keyed by ``(time, tiebreak, seq)``.
  ``time`` is virtual milliseconds; ``tiebreak`` is drawn from a seeded RNG
  so the ordering of same-instant events is *deterministic but not
  insertion-ordered* (two runs with the same seed replay identically, yet
  simultaneous messages do not trivially arrive in call order); ``seq`` is a
  monotone counter that makes the ordering total.
* ``run_until`` / ``run`` pop due events and advance :attr:`now` — virtual
  time only moves through the kernel, never through the wall clock, which is
  what makes every simulation replayable byte-for-byte.
* Handlers may schedule further events but never run them: entering
  :meth:`EventKernel.step` or :meth:`EventKernel.run_until` from inside an
  executing event raises :class:`KernelError` (a request awaiting its reply
  is a process, :func:`repro.network.transport.spawn`).  Nothing is
  scheduled into the past, so ``now`` is monotone.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.errors import SelectiveDeletionError

#: A scheduled action; return values are ignored.
Action = Callable[[], Any]


class KernelError(SelectiveDeletionError):
    """Raised on invalid scheduling requests (e.g. scheduling into the past)
    and on re-entering the kernel from inside an executing event."""


@dataclass(slots=True)
class EventHandle:
    """Cancellation token for a scheduled (possibly recurring) event.

    One handle is allocated per scheduled event, so the class is slotted:
    simulations schedule hundreds of thousands of events and the per-instance
    ``__dict__`` was pure overhead on the kernel's hot path.
    """

    time: float
    label: str = ""
    recurring: bool = False
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Prevent the event (and, for recurring events, all repeats) from firing."""
        self.cancelled = True


class EventKernel:
    """A deterministic virtual-time event scheduler."""

    def __init__(self, *, seed: int = 11) -> None:
        self.seed = seed
        self._queue: list[tuple[float, float, int, EventHandle, Action]] = []
        self._seq = itertools.count()
        self._tiebreak = random.Random(seed)
        # Bound method, looked up once: schedule_at draws exactly one sample
        # per call and sits on the hot path of every message send.
        self._tiebreak_random = self._tiebreak.random
        self._now = 0.0
        self.events_scheduled = 0
        self.events_processed = 0
        self.events_cancelled = 0
        #: The event whose action is executing, ``None`` between events.
        self._running: Optional[EventHandle] = None

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (cancelled ones included)."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(self, time: float, action: Action, *, label: str = "") -> EventHandle:
        """Schedule ``action`` at absolute virtual ``time``."""
        if time < self._now:
            raise KernelError(
                f"cannot schedule {label or 'event'!r} at {time}; virtual time is already {self._now}"
            )
        time = float(time)
        handle = EventHandle(time=time, label=label)
        heapq.heappush(
            self._queue, (time, self._tiebreak_random(), next(self._seq), handle, action)
        )
        self.events_scheduled += 1
        return handle

    def schedule(self, delay: float, action: Action, *, label: str = "") -> EventHandle:
        """Schedule ``action`` ``delay`` virtual milliseconds from now."""
        if delay < 0:
            raise KernelError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, action, label=label)

    def every(
        self,
        interval: float,
        action: Action,
        *,
        label: str = "",
        until: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``action`` every ``interval`` ms (first firing after one
        interval) until the returned handle is cancelled or ``until`` passes."""
        if interval <= 0:
            raise KernelError(f"interval must be positive, got {interval}")
        master = EventHandle(time=self._now + interval, label=label, recurring=True)
        if until is not None and master.time > until:
            # The bound expires before the first firing: nothing to schedule.
            master.cancelled = True
            return master

        def fire() -> None:
            if master.cancelled:
                return
            action()
            next_time = self._now + interval
            if until is None or next_time <= until:
                master.time = next_time
                self.schedule_at(next_time, fire, label=label)

        self.schedule_at(master.time, fire, label=label)
        return master

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _check_not_running(self) -> None:
        if self._running is not None:
            upcoming = self._queue[0][3].label if self._queue else "nothing"
            raise KernelError(
                f"kernel entered from inside event {self._running.label!r} "
                f"(next due: {upcoming!r}); spawn a process instead of waiting"
            )

    def step(self) -> bool:
        """Execute the single earliest queued event; ``False`` when idle."""
        self._check_not_running()
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            time, _, _, handle, action = heappop(queue)
            if handle.cancelled:
                self.events_cancelled += 1
                continue
            self._now = time
            self.events_processed += 1
            self._running = handle
            try:
                action()
            finally:
                self._running = None
            return True
        return False

    def run_until(self, time: float) -> int:
        """Execute every event due at or before ``time``; set now to ``time``.

        Returns the number of events executed.  A target before the current
        virtual time is a no-op (time never rewinds).
        """
        self._check_not_running()
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            head_time, _, _, head_handle, _ = queue[0]
            if head_handle.cancelled:
                heappop(queue)
                self.events_cancelled += 1
                continue
            if head_time > time:
                break
            if self.step():
                executed += 1
        if time > self._now:
            self._now = time
        return executed

    def run(self) -> int:
        """Drain the queue; returns the number of events executed."""
        executed = 0
        while self._queue:
            if self.step():
                executed += 1
        return executed

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def statistics(self) -> dict[str, Any]:
        """Deterministic counters for simulation reports."""
        return {
            "virtual_time_ms": round(self._now, 6),
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "events_cancelled": self.events_cancelled,
            "seed": self.seed,
        }

    def __repr__(self) -> str:
        return (
            f"EventKernel(now={self._now:.3f}ms, pending={len(self._queue)}, "
            f"processed={self.events_processed}, seed={self.seed})"
        )
