"""Conservative parallel DES: one simulation, many sub-kernels.

The serial kernel (:mod:`repro.sim.engine`) executes one global event
heap.  This module shards that heap: hosts are grouped into
**sub-kernels** (per rack when the partition count allows, splitting
within racks otherwise), each owning its own event queue, and all
sub-kernels advance in lockstep through **conservative time windows**.

Why this is exact, not approximate
----------------------------------

Every cross-host interaction travels the network model
(:mod:`repro.sim.network`), and every network edge imposes a minimum
propagation delay before a packet can be observed by another host.
The minimum over all edges — :meth:`Topology.lookahead_us` — is the
**lookahead** ``L``.  With ``gmin`` the earliest pending event across
all sub-kernels, every event below the barrier ``gmin + L`` is safe to
execute: any message it emits toward another partition carries a
timestamp ``>= its emit time + L >= gmin + L`` (float addition is
monotone), i.e. at or beyond the barrier.  So each window runs without
null messages, and cross-partition events are exchanged only at window
boundaries.

Exchanged events are inserted into the destination kernel in a
deterministic total order — ``(timestamp, source partition, per-window
sequence)`` — so two boundary events sharing a timestamp always enqueue
in the same order regardless of which partition reported first.
Events at equal timestamps in *different* kernels commute (they touch
disjoint hosts; cross-host effects only flow through the network,
which is itself an event), so the merged execution reproduces the
serial kernel's results bit for bit.  The one caveat: an *exact*
float-equal timestamp collision between a boundary event and an
unrelated local event has no serial-order witness; with continuous
stochastic delays such collisions have probability zero, and the
golden-digest gates would catch one if it ever mattered.

Event-count parity
------------------

``RunResult.events_processed`` is part of the bit-identical contract,
so a cut edge must cost exactly as many events as its serial
counterpart:

* same-rack cut: the source side uses :meth:`Link.transmit` (FIFO
  bookkeeping, **no event**) and exports the delivery time; the import
  fires the destination downlink at that time — 2 events, like the
  serial uplink→downlink chain.
* cross-rack cut: the uplink schedules a local *traverse* event that
  draws the spine delay from the source host's own stream and exports;
  the import fires the downlink — 3 events, like serial
  uplink→spine→downlink.

Execution
---------

Benches build against a :class:`PartitionedSimulator` exactly as they
build against one :class:`Simulator`, and their ``run_to_completion``
hands over to :meth:`PartitionedSimulator.run_to_completion`, which
drives every sub-kernel in this process through :func:`run_windows`.
After the final clock sync the bench's live objects read exactly as
after a serial run, so serial and sharded runs finish through the same
result assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .engine import SimulationError, Simulator

__all__ = [
    "SimError",
    "SubKernel",
    "assign_shards",
    "PartitionedSimulator",
    "CoordinatorStats",
    "ShardHandle",
    "run_windows",
    "drive_partitioned",
]

#: The ISSUE-facing alias: partition-protocol failures raise the
#: kernel's own :class:`SimulationError` — one error type for "the
#: simulation could not proceed", whether serial or sharded.
SimError = SimulationError


class SubKernel(Simulator):
    """One partition's event queue plus its boundary mailboxes."""

    def __init__(self, shard_id: int):
        super().__init__()
        self.shard_id = shard_id
        #: Boundary events produced this window: ``(time, cid, payload)``
        #: in emission order (the per-window sequence of the tiebreak).
        self.outbox: List[Tuple[float, int, object]] = []
        #: ``(time, instance name)`` completion records for this window.
        self.completions: List[Tuple[float, str]] = []


def assign_shards(
    hosts: Sequence[Tuple[str, str]], n_shards: int
) -> Dict[str, int]:
    """Deterministically map hosts to sub-kernels, rack-affine.

    ``hosts`` is ``(name, rack)`` in construction order.  When the
    partition count does not exceed the rack count, whole racks map to
    shards (per-rack sub-kernels, the primary grouping the network
    lookahead argument is built around); otherwise shards are split
    among racks in proportion to rack order and hosts round-robin
    within their rack's shard block.  Any deterministic map is
    *correct* (cross-host causality only flows through the network);
    this one just minimizes cut edges.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    rack_order: List[str] = []
    rack_hosts: Dict[str, List[str]] = {}
    for name, rack in hosts:
        if rack not in rack_hosts:
            rack_order.append(rack)
            rack_hosts[rack] = []
        rack_hosts[rack].append(name)
    mapping: Dict[str, int] = {}
    n_racks = len(rack_order)
    if n_racks == 0:
        return mapping
    if n_shards <= n_racks:
        for i, rack in enumerate(rack_order):
            shard = i % n_shards
            for name in rack_hosts[rack]:
                mapping[name] = shard
        return mapping
    # More shards than racks: rack i owns the contiguous shard block
    # [floor(i*K/R), floor((i+1)*K/R)); its hosts round-robin inside.
    for i, rack in enumerate(rack_order):
        lo = (i * n_shards) // n_racks
        hi = ((i + 1) * n_shards) // n_racks
        width = max(1, hi - lo)
        for j, name in enumerate(rack_hosts[rack]):
            mapping[name] = lo + (j % width)
    return mapping


# ----------------------------------------------------------------------
# channels: every cross-machine flow, cut-aware
# ----------------------------------------------------------------------
class _ThroughChannel:
    """A flow whose endpoints share a sub-kernel: plain path.send."""

    __slots__ = ("path", "deliver", "extra", "size_of")

    def __init__(self, path, deliver, extra, size_of):
        self.path = path
        self.deliver = deliver
        self.extra = extra
        self.size_of = size_of

    def send(self, payload) -> None:
        self.path.send(self.size_of(payload), self.deliver, payload, *self.extra)


class _CutChannel:
    """A flow crossing partitions: source-side export, barrier import."""

    __slots__ = (
        "cid",
        "src_kernel",
        "downlink",
        "uplink",
        "spine_port",
        "deliver",
        "extra",
        "size_of",
    )

    def __init__(self, cid, path, deliver, extra, size_of, src_kernel):
        self.cid = cid
        self.uplink = path.uplink
        self.downlink = path.downlink
        self.spine_port = path.spine
        self.deliver = deliver
        self.extra = extra
        self.size_of = size_of
        self.src_kernel = src_kernel

    def send(self, payload) -> None:
        if self.spine_port is None:
            # Same-rack cut: occupy the uplink now, no local event —
            # export the delivery-at-downlink time (>= now + link
            # propagation, the lookahead bound for this edge).
            t = self.uplink.transmit(self.size_of(payload))
            self.src_kernel.outbox.append((t, self.cid, payload))
        else:
            # Cross-rack cut: the traverse stays a *local* event (as in
            # serial), so the spine delay is drawn from the source
            # host's stream in local uplink-FIFO order.
            self.uplink.send(self.size_of(payload), self._traverse, payload)

    def _traverse(self, payload) -> None:
        t = self.src_kernel.now + self.spine_port.delay_us()
        self.src_kernel.outbox.append((t, self.cid, payload))

    def deliver_import(self, payload) -> None:
        """Runs in the destination kernel at the exported timestamp."""
        self.downlink.send(self.size_of(payload), self.deliver, payload, *self.extra)


class PartitionedSimulator:
    """K sub-kernels, a host→shard map, and the cut-aware channels.

    One instance represents one sharded simulation.  Benches build
    against it exactly as they build against a single
    :class:`Simulator` — hosts land on their owning kernels via
    :meth:`sim_for_host`, flows become channels via :meth:`channel` —
    and :meth:`run_to_completion` advances all kernels in conservative
    windows.  ``n_shards=1`` degenerates to a windowed serial run and
    is part of the bit-identical test matrix.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.kernels = [SubKernel(i) for i in range(n_shards)]
        self.shard_map: Dict[str, int] = {}
        self._import_fns: Dict[int, Callable[[object], None]] = {}
        #: ``cid -> (src_shard, dst_shard)`` — the window loop's routing
        #: table.
        self.routes: Dict[int, Tuple[int, int]] = {}
        self.lookahead_us: Optional[float] = None
        #: Set by :meth:`run_to_completion`: how many instance
        #: completions end the run, and the background processes stopped
        #: at ``T_done + L``.
        self.n_instances = 0
        self.antagonists: Sequence[object] = ()

    # -- construction --------------------------------------------------
    def assign(self, mapping: Dict[str, int]) -> None:
        for host, shard in mapping.items():
            if not 0 <= shard < self.n_shards:
                raise ValueError(f"host {host!r} assigned to bad shard {shard}")
        self.shard_map.update(mapping)

    def sim_for_host(self, host: str) -> Simulator:
        """Topology hook: each host's links live on its owning kernel."""
        return self.kernels[self.shard_map[host]]

    def set_lookahead(self, lookahead_us: float) -> None:
        """Validate and pin the window lookahead (must be positive)."""
        if lookahead_us <= 0.0:
            raise SimulationError(
                "partitioned execution requires positive network lookahead; "
                f"topology offers {lookahead_us!r}us (zero-propagation links "
                "leave no conservative window)"
            )
        self.lookahead_us = lookahead_us

    def channel(
        self,
        path,
        deliver: Callable[..., None],
        *extra: object,
        src: str,
        dst: str,
        size_attr: str,
    ) -> Callable[[object], None]:
        """Wrap one directed flow ``src -> dst``; returns its send callable.

        ``deliver(payload, *extra)`` fires on the destination host after
        its downlink, exactly like the serial continuation.  Channel ids
        are assigned in creation order, which is a pure function of the
        spec.
        """
        cid = len(self.routes)
        src_shard = self.shard_map[src]
        dst_shard = self.shard_map[dst]
        size_of = attrgetter(size_attr)
        if src_shard == dst_shard:
            ch: object = _ThroughChannel(path, deliver, extra, size_of)
        else:
            ch = _CutChannel(
                cid, path, deliver, extra, size_of, self.kernels[src_shard]
            )
            self._import_fns[cid] = ch.deliver_import
        self.routes[cid] = (src_shard, dst_shard)
        return ch.send

    def import_fn(self, cid: int) -> Callable[[object], None]:
        return self._import_fns[cid]

    # -- execution -----------------------------------------------------
    def run_to_completion(
        self, instances, antagonists: Sequence[object], lookahead_us: float
    ) -> "CoordinatorStats":
        """Run until every instance is done, stop ``antagonists`` at
        ``T_done + lookahead_us``, drain, and sync every kernel clock.

        The partitioned twin of the bench's serial
        ``run_to_completion``; returns the window loop's stats.
        """
        self.set_lookahead(lookahead_us)
        self.n_instances = len(instances)
        self.antagonists = antagonists
        for inst in instances:
            inst.on_done = _log_completion
        return drive_partitioned(self)

    # -- introspection -------------------------------------------------
    @property
    def events_processed(self) -> int:
        return sum(k.events_processed for k in self.kernels)

    def sync_clocks(self, now: float) -> None:
        for kernel in self.kernels:
            kernel.sync_now(now)


def _log_completion(inst) -> None:
    """``instance.on_done``: log the completion in its client's kernel."""
    kernel = inst.client.sim
    kernel.completions.append((kernel.now, inst.name))


# ----------------------------------------------------------------------
# the window-barrier loop
# ----------------------------------------------------------------------
@dataclass
class CoordinatorStats:
    """What one partitioned run did (bench-harness evidence)."""

    windows: int = 0
    boundary_events: int = 0
    executed: int = 0
    global_now: float = 0.0
    completions: List[Tuple[float, str]] = field(default_factory=list)
    t_done: Optional[float] = None


class ShardHandle:
    """Drives one sub-kernel through the window protocol."""

    def __init__(self, partition: PartitionedSimulator, shard: int):
        self._import_fn = partition.import_fn
        self._antagonists = partition.antagonists
        self.kernel = partition.kernels[shard]

    def exchange(self, imports, controls) -> float:
        """Apply boundary imports and antagonist stops; return the
        earliest pending event time."""
        at = self.kernel.at
        import_fn = self._import_fn
        for t, cid, payload in imports:
            at(t, import_fn(cid), payload)
        for t, idx in controls:
            at(t, self._antagonists[idx].stop)
        return self.kernel.next_time()

    def advance(self, barrier: float):
        """Run strictly below ``barrier``; return ``(exports,
        completions, executed, now)``."""
        kernel = self.kernel
        executed = kernel.run_window(barrier)
        exports = kernel.outbox
        completions = kernel.completions
        if exports:
            kernel.outbox = []
        if completions:
            kernel.completions = []
        return exports, completions, executed, kernel.now


def run_windows(
    handles,
    *,
    lookahead_us: float,
    n_instances: int,
    antagonist_shards: Sequence[int],
    routes: Dict[int, Tuple[int, int]],
) -> CoordinatorStats:
    """Advance all shards to quiescence through conservative windows.

    Per window, (1) every shard applies the previous window's boundary
    imports (in ``(time, source partition, sequence)`` order) plus any
    control events and reports its earliest pending event; (2) the
    barrier is the global minimum ``gmin`` plus ``L``; (3) every shard
    runs strictly below the barrier and returns its exports and
    instance completions.  When the final instance completes at
    ``T_done``, one stop control per antagonist is issued at ``T_done +
    L`` — at or beyond the next barrier by construction, and the same
    rule the serial bench applies inline, so both kernels shut
    background load down at the identical virtual instant.

    Raises :class:`SimulationError` if the heaps drain before every
    instance completed (a wiring bug).
    """
    stats = CoordinatorStats()
    n_shards = len(handles)
    pending_imports: List[List[Tuple[float, int, object]]] = [
        [] for _ in range(n_shards)
    ]
    pending_controls: List[List[Tuple[float, int]]] = [[] for _ in range(n_shards)]
    controls_issued = not antagonist_shards
    nows = [0.0] * n_shards
    while True:
        next_times = [
            handle.exchange(pending_imports[shard], pending_controls[shard])
            for shard, handle in enumerate(handles)
        ]
        pending_imports = [[] for _ in range(n_shards)]
        pending_controls = [[] for _ in range(n_shards)]
        gmin = min(next_times)
        if gmin == float("inf"):
            break
        barrier = gmin + lookahead_us
        exported: List[Tuple[float, int, int, int, object]] = []
        for shard, handle in enumerate(handles):
            exports, completions, executed, now = handle.advance(barrier)
            stats.executed += executed
            nows[shard] = now
            for seq, (t, cid, payload) in enumerate(exports):
                exported.append((t, shard, seq, cid, payload))
            stats.completions.extend(completions)
        stats.windows += 1
        if exported:
            # The deterministic total order of boundary events:
            # timestamp, then (partition, sequence) as the stable tiebreak.
            exported.sort(key=lambda r: (r[0], r[1], r[2]))
            for t, _shard, _seq, cid, payload in exported:
                pending_imports[routes[cid][1]].append((t, cid, payload))
            stats.boundary_events += len(exported)
        if not controls_issued and len(stats.completions) >= n_instances:
            stats.t_done = max(t for t, _ in stats.completions)
            stop_at = stats.t_done + lookahead_us
            for idx, shard in enumerate(antagonist_shards):
                pending_controls[shard].append((stop_at, idx))
            controls_issued = True
    if len(stats.completions) < n_instances:
        raise SimulationError(
            f"partitioned run drained after {stats.windows} windows with "
            f"{len(stats.completions)}/{n_instances} instances complete "
            "(lost boundary event or wiring bug)"
        )
    if stats.t_done is None:
        stats.t_done = max(t for t, _ in stats.completions)
    stats.global_now = max(nows)
    return stats


def drive_partitioned(partition: PartitionedSimulator) -> CoordinatorStats:
    """Drive a partition armed by
    :meth:`PartitionedSimulator.run_to_completion` to quiescence, then
    sync every kernel's clock to the last event, so the bench's live
    objects read exactly as they would after a serial run."""
    stats = run_windows(
        [ShardHandle(partition, shard) for shard in range(partition.n_shards)],
        lookahead_us=partition.lookahead_us,
        n_instances=partition.n_instances,
        antagonist_shards=[proc.sim.shard_id for proc in partition.antagonists],
        routes=partition.routes,
    )
    partition.sync_clocks(stats.global_now)
    return stats
