"""CPU model: sockets, cores, DVFS governors, and Turbo Boost.

The paper attributes tail latency to four hardware factors (Table III),
two of which live here:

* **DVFS governor** (``ondemand`` vs ``performance``).  Under
  ``ondemand`` an idle core down-clocks; the next request both runs the
  first stretch of its service at a lower frequency and pays a
  voltage/frequency ramp stall.  This is the mechanism behind the
  paper's Finding 3 (latency can be *higher at lower utilization*
  under ``ondemand``, because idle gaps are longer there).

* **Turbo Boost.**  Frequency headroom above nominal is granted from a
  per-socket thermal budget that depletes under sustained power draw
  and recovers when the socket idles.  This reproduces Finding 8
  (Turbo helps mostly at low load, where thermal headroom is
  plentiful) and the positive ``turbo:dvfs`` interaction of Table IV
  (the ``performance`` governor burns the headroom Turbo needs).

Each :class:`Core` is a single FIFO queue of :class:`Job` items — the
same abstraction a memcached worker thread pinned to a core presents.
Service time is resolved *at dispatch time* because it depends on the
core's instantaneous frequency and the socket's thermal state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from .engine import Simulator

__all__ = ["CpuConfig", "Job", "Core", "Socket", "CpuComplex"]

#: Governor identifiers (Table III low/high levels for the dvfs factor).
GOVERNOR_ONDEMAND = "ondemand"
GOVERNOR_PERFORMANCE = "performance"


@dataclass
class CpuConfig:
    """Static CPU parameters, loosely modelled on the Xeon E5-2660 v2
    of the paper's Table II, with counts scaled down for simulation
    tractability (see DESIGN.md scale note)."""

    sockets: int = 2
    cores_per_socket: int = 4
    base_freq_ghz: float = 2.2
    min_freq_ghz: float = 1.2
    #: Maximum extra frequency Turbo can add when headroom is full.
    turbo_bonus_ghz: float = 0.3
    #: Governor in use; one of ``ondemand`` / ``performance``.
    governor: str = GOVERNOR_ONDEMAND
    #: Whether Turbo Boost is enabled.
    turbo_enabled: bool = False
    #: Idle-time constant (us) for ondemand down-clocking: after an
    #: idle gap g the core has decayed toward min frequency by
    #: ``1 - exp(-g / tau)``.
    ondemand_idle_tau_us: float = 120.0
    #: Worst-case stall (us) paid to ramp voltage/frequency back up
    #: when a request lands on a fully down-clocked core.
    ondemand_ramp_stall_us: float = 45.0
    #: Thermal relaxation time constant (us) of the per-socket
    #: headroom state.
    thermal_tau_us: float = 1500.0
    #: How aggressively socket utilization erodes turbo headroom.
    #: Equilibrium headroom is ``1 - thermal_k * effective_power``.
    thermal_k: float = 1.25
    #: Extra power factor of the performance governor (cores never
    #: down-clock, so static power stays high).
    performance_power_bias: float = 0.25
    #: Optional discrete P-state ladder: when set, the ondemand
    #: governor quantizes the down-clocked frequency to this many
    #: evenly spaced steps between min and base frequency (real
    #: cpufreq exposes a discrete table).  ``None`` keeps the smooth
    #: decay model, which is the calibrated default.
    pstate_steps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.governor not in (GOVERNOR_ONDEMAND, GOVERNOR_PERFORMANCE):
            raise ValueError(f"unknown governor {self.governor!r}")
        if self.min_freq_ghz > self.base_freq_ghz:
            raise ValueError("min_freq_ghz must not exceed base_freq_ghz")
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("need at least one socket and one core")
        if self.pstate_steps is not None and self.pstate_steps < 2:
            raise ValueError("pstate_steps must be >= 2 when set")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket


class Job:
    """A unit of work bound for one core.

    ``work_us`` scales with frequency (compute); ``fixed_us`` does not
    (I/O waits, lock handoffs); ``mem_us`` is resolved by the memory
    system at dispatch (it depends on contention and NUMA placement at
    that instant) via the ``mem_cost`` callable.
    """

    __slots__ = ("work_us", "fixed_us", "mem_cost", "on_done", "on_done_args", "tag")

    def __init__(
        self,
        work_us: float,
        fixed_us: float = 0.0,
        mem_cost: Optional[Callable[["Core"], float]] = None,
        on_done: Optional[Callable[..., None]] = None,
        tag: Optional[object] = None,
        on_done_args: tuple = (),
    ):
        if work_us < 0 or fixed_us < 0:
            raise ValueError("job costs must be non-negative")
        self.work_us = work_us
        self.fixed_us = fixed_us
        self.mem_cost = mem_cost
        #: Completion callback, invoked as ``on_done(duration, *on_done_args)``
        #: so hot callers can pass a bound method plus payload instead of
        #: allocating a per-job closure.
        self.on_done = on_done
        self.on_done_args = on_done_args
        self.tag = tag


class Socket:
    """Per-socket shared state: busy-time accounting and thermal headroom."""

    __slots__ = (
        "config",
        "index",
        "cores",
        "busy_us_acc",
        "_util_sample_time",
        "_util_sample_busy",
        "util_estimate",
        "headroom",
        "_headroom_time",
    )

    def __init__(self, config: CpuConfig, index: int):
        self.config = config
        self.index = index
        self.cores: List["Core"] = []
        #: Total busy core-microseconds accumulated on this socket.
        self.busy_us_acc = 0.0
        self._util_sample_time = 0.0
        self._util_sample_busy = 0.0
        #: Smoothed socket utilization in [0, 1].
        self.util_estimate = 0.0
        #: Turbo thermal headroom in [0, 1]; 1 = cold socket.
        self.headroom = 1.0
        self._headroom_time = 0.0

    def utilization(self, now: float) -> float:
        """Smoothed utilization over recent history, sampled lazily."""
        dt = now - self._util_sample_time
        if dt > 0:
            window_busy = self.busy_us_acc - self._util_sample_busy
            inst = min(1.0, window_busy / (dt * len(self.cores)))
            # Exponential smoothing with the thermal time constant so
            # the turbo model sees utilization on the same timescale
            # it reacts on.
            alpha = 1.0 - math.exp(-dt / self.config.thermal_tau_us)
            self.util_estimate += alpha * (inst - self.util_estimate)
            self._util_sample_time = now
            self._util_sample_busy = self.busy_us_acc
        return self.util_estimate

    def thermal_headroom(self, now: float) -> float:
        """Current turbo headroom in [0, 1], relaxed toward equilibrium.

        Equilibrium is ``1 - thermal_k * power`` where power is the
        smoothed socket utilization, biased upward under the
        ``performance`` governor (cores never drop to low-power
        states).
        """
        power = self.utilization(now)
        if self.config.governor == GOVERNOR_PERFORMANCE:
            power = min(1.0, power + self.config.performance_power_bias * power)
        equilibrium = max(0.0, 1.0 - self.config.thermal_k * power)
        dt = now - self._headroom_time
        if dt > 0:
            alpha = 1.0 - math.exp(-dt / self.config.thermal_tau_us)
            self.headroom += alpha * (equilibrium - self.headroom)
            self._headroom_time = now
        return self.headroom


class Core:
    """One core: a FIFO work queue with frequency-aware service times."""

    __slots__ = (
        "sim",
        "config",
        "socket",
        "index",
        "queue",
        "busy",
        "last_busy_end",
        "busy_us",
        "jobs_done",
        "irq_us",
        "_schedule",
    )

    def __init__(self, sim: Simulator, config: CpuConfig, socket: Socket, index: int):
        self.sim = sim
        self.config = config
        self.socket = socket
        self.index = index
        # Pre-bound kernel schedule — one job dispatch per event makes
        # the attribute hop + method bind measurable.
        self._schedule = sim.schedule
        self.queue: Deque[Job] = deque()
        self.busy = False
        #: Time the core last went idle; drives ondemand down-clocking.
        self.last_busy_end = 0.0
        self.busy_us = 0.0
        self.jobs_done = 0
        #: Busy time attributable to interrupt handling (diagnostics).
        self.irq_us = 0.0

    # ------------------------------------------------------------------
    # frequency model
    # ------------------------------------------------------------------
    def downclock_fraction(self, now: float) -> float:
        """How far toward min frequency the core has decayed in [0, 1].

        Zero while busy or under the ``performance`` governor.
        """
        if self.config.governor != GOVERNOR_ONDEMAND or self.busy:
            return 0.0
        gap = max(0.0, now - self.last_busy_end)
        return 1.0 - math.exp(-gap / self.config.ondemand_idle_tau_us)

    def effective_freq_ghz(self, now: float, down: Optional[float] = None) -> float:
        """Instantaneous frequency: governor state plus turbo bonus.

        With ``pstate_steps`` configured, the governor part snaps to
        the nearest rung of the discrete P-state ladder.
        """
        cfg = self.config
        if down is None:
            down = self.downclock_fraction(now)
        span = cfg.base_freq_ghz - cfg.min_freq_ghz
        if cfg.pstate_steps is not None and span > 0:
            rung = round(down * (cfg.pstate_steps - 1))
            down = rung / (cfg.pstate_steps - 1)
        freq = cfg.base_freq_ghz - span * down
        if cfg.turbo_enabled:
            freq += cfg.turbo_bonus_ghz * self.socket.thermal_headroom(now)
        return freq

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self.queue) + (1 if self.busy else 0)

    def submit(self, job: Job) -> None:
        """Enqueue ``job``; dispatch immediately if the core is idle."""
        if self.busy:
            self.queue.append(job)
            return
        # Duplicate of _dispatch's no-turbo fast path (see there for
        # the exactness argument) — submit is called once per job, so
        # the extra frame would cost on every request.
        cfg = self.config
        if not cfg.turbo_enabled and cfg.governor != GOVERNOR_ONDEMAND:
            self.busy = True
            duration = job.work_us + job.fixed_us
            if job.mem_cost is not None:
                duration += job.mem_cost(self)
            self._schedule(duration, self._finish, job, duration)
            return
        self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        cfg = self.config
        # Fast path: a busy or performance-governed core with Turbo off
        # runs at exactly base frequency, so ``work * (base/base)``
        # reduces to ``work`` bit-for-bit and the whole frequency /
        # thermal machinery can be skipped.  (With Turbo enabled the
        # full path must run: ``thermal_headroom`` advances stateful
        # socket EMAs whose call sequence is part of the results.)
        if not cfg.turbo_enabled and (
            self.busy or cfg.governor != GOVERNOR_ONDEMAND
        ):
            self.busy = True
            duration = job.work_us + job.fixed_us
            if job.mem_cost is not None:
                duration += job.mem_cost(self)
            self._schedule(duration, self._finish, job, duration)
            return
        now = self.sim.now
        down = self.downclock_fraction(now)
        self.busy = True
        freq = self.effective_freq_ghz(now, down)
        duration = job.work_us * (cfg.base_freq_ghz / freq) + job.fixed_us
        if down > 0.0:
            # Ramp stall: request triggered an up-transition.
            duration += cfg.ondemand_ramp_stall_us * down
        if job.mem_cost is not None:
            duration += job.mem_cost(self)
        self._schedule(duration, self._finish, job, duration)

    def _finish(self, job: Job, duration: float) -> None:
        self.busy_us += duration
        self.jobs_done += 1
        self.socket.busy_us_acc += duration
        queue = self.queue
        if queue:
            self._dispatch(queue.popleft())
        else:
            self.busy = False
            self.last_busy_end = self.sim.now
        if job.on_done is not None:
            job.on_done(duration, *job.on_done_args)


class CpuComplex:
    """All sockets and cores of one machine."""

    def __init__(self, sim: Simulator, config: CpuConfig):
        self.sim = sim
        self.config = config
        self.sockets = [Socket(config, s) for s in range(config.sockets)]
        self.cores: List[Core] = []
        for socket in self.sockets:
            for c in range(config.cores_per_socket):
                core = Core(sim, config, socket, len(self.cores))
                socket.cores.append(core)
                self.cores.append(core)

    def core(self, index: int) -> Core:
        return self.cores[index]

    def cores_on_socket(self, socket_index: int) -> List[Core]:
        return list(self.sockets[socket_index].cores)

    def utilization(self, now: Optional[float] = None) -> float:
        """Machine-wide smoothed utilization (mean over sockets)."""
        if now is None:
            now = self.sim.now
        return sum(s.utilization(now) for s in self.sockets) / len(self.sockets)

    def total_busy_us(self) -> float:
        return sum(core.busy_us for core in self.cores)
