"""Clocks.

Block timestamps drive two paper mechanisms: summary blocks reuse the
timestamp of the preceding block (Section IV-B), and temporary entries as
well as time-based retention compare against the current time
(Sections IV-D3 and IV-D4).  To keep everything deterministic and testable
the chain takes an injectable clock; the default :class:`LogicalClock` simply
counts ticks, :class:`SystemClock` uses wall-clock seconds for deployments
that want real timestamps, and :class:`SimulationClock` slaves chain time to
the virtual time of a network :class:`~repro.network.kernel.EventKernel`.

The protocol distinguishes *consuming* reads from *passive* reads:
``now()`` stamps a new block (and, for :class:`LogicalClock`, advances the
tick counter), while ``peek()`` answers "what time is it" without side
effects.  Every non-block read — idle-interval checks, expiry evaluation
during summarisation, logging, statistics — must use ``peek()``; a passive
read routed through ``now()`` would silently age a :class:`LogicalClock`
chain (see the regression tests in ``tests/test_core_config_schema.py``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - only for type annotations
    from repro.network.kernel import EventKernel


class Clock(Protocol):
    """Minimal clock interface: a monotonically non-decreasing integer time.

    ``now()`` is the consuming read used to stamp blocks; ``peek()`` is the
    passive read used everywhere else and must never advance the clock.
    """

    def now(self) -> int:
        """Return the current time (may advance the clock)."""
        ...  # pragma: no cover

    def peek(self) -> int:
        """Return the current time without advancing the clock."""
        ...  # pragma: no cover


class LogicalClock:
    """Deterministic tick counter advancing by ``step`` on every reading.

    Reading the time advances it, so consecutive blocks naturally receive
    increasing timestamps without any wall-clock dependence.  Tests and
    workload generators can also advance the clock explicitly to model idle
    periods (which is what triggers empty blocks, Section IV-D3).
    """

    def __init__(self, start: int = 0, step: int = 1) -> None:
        if step < 0:
            raise ValueError("clock step must be non-negative")
        self._current = start
        self._step = step

    def now(self) -> int:
        """Return the current tick and advance by the configured step."""
        value = self._current
        self._current += self._step
        return value

    def peek(self) -> int:
        """Return the next tick without advancing."""
        return self._current

    def advance(self, ticks: int) -> None:
        """Jump the clock forward by ``ticks`` (models idle time)."""
        if ticks < 0:
            raise ValueError("cannot advance the clock backwards")
        self._current += ticks


# repro: allow[REPRO-S601] the one wall clock a deployment outside the simulator passes
class SystemClock:
    """Wall-clock seconds since the epoch, as integers."""

    def now(self) -> int:
        """Return ``int(time.time())``."""
        return int(time.time())

    def peek(self) -> int:
        """Same as :meth:`now`; the wall clock advances on its own."""
        return int(time.time())


class SimulationClock:
    """Chain time slaved to the virtual time of an event kernel.

    Every chain in a simulated deployment holds one of these bound to the
    shared :class:`~repro.network.kernel.EventKernel`, so block timestamps,
    idle-interval checks and temporary-entry expiry all follow *simulated*
    time: an idle period is a stretch of kernel time with no traffic, not a
    manual ``tick()`` call.  Because every replica reads the same kernel,
    expiry decisions during summarisation agree across nodes by
    construction (with per-replica logical clocks they could diverge).

    ``ms_per_tick`` converts kernel milliseconds into chain ticks; the
    default of 1.0 makes one tick one virtual millisecond.  Reading the
    clock never advances it — the kernel owns time.  :meth:`advance` (used
    by the idle-tick protocol path) fast-forwards the *kernel*, executing
    any deliveries and faults that fall due on the way, so "advance the
    producer's clock" and "let simulated time pass" are the same operation.
    """

    def __init__(self, kernel: "EventKernel", *, ms_per_tick: float = 1.0, start: int = 0) -> None:
        if ms_per_tick <= 0:
            raise ValueError("ms_per_tick must be positive")
        self._kernel = kernel
        self._ms_per_tick = ms_per_tick
        self._start = start

    @property
    def kernel(self) -> "EventKernel":
        """The kernel this clock reads."""
        return self._kernel

    @property
    def ms_per_tick(self) -> float:
        """Virtual milliseconds per chain tick."""
        return self._ms_per_tick

    def now(self) -> int:
        """Current chain tick derived from kernel time (never advances)."""
        return self.peek()

    def peek(self) -> int:
        """Current chain tick derived from kernel time."""
        return self._start + int(self._kernel.now // self._ms_per_tick)

    def advance(self, ticks: int) -> None:
        """Fast-forward the kernel by ``ticks`` chain ticks of virtual time.

        Events (deliveries, scheduled faults, heartbeats) falling due inside
        the window are executed — simulated time genuinely passes.
        """
        if ticks < 0:
            raise ValueError("cannot advance the clock backwards")
        self._kernel.run_until(self._kernel.now + ticks * self._ms_per_tick)
