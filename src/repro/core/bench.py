"""Test-bench wiring: servers, a topology, and client machines.

A :class:`TestBench` assembles everything one load-testing run needs
inside a single virtual-time simulator (or one
:class:`~repro.sim.partition.PartitionedSimulator`):

* the :class:`~repro.sim.machine.ServerMachine` under test (booted
  fresh, so every bench carries new hidden placement state — one bench
  corresponds to one of the paper's independent *runs*),
* a rack :class:`~repro.sim.network.Topology` with the server and any
  number of client hosts, and
* per-client packet plumbing: request packets travel client NIC ->
  network -> server pipeline -> network -> client NIC, with a
  :class:`~repro.sim.tcpdump.PacketCapture` riding each client NIC for
  ground truth.

Load testers (Treadmill and the pitfall baselines alike) only deal in
:meth:`TestBench.add_client` / :meth:`TestBench.open_connections` and
the returned machines; all routing stays here.

It is the library's one wired bench.  The scenario bench
(:class:`~repro.scenarios.bench.ScenarioBench`) subclasses it to boot
N server pools and colocated antagonists instead of one server, and
routes per connection instead of per client; the per-run RNG, the
topology, kernel selection, client wiring, cut-aware routing and the
run loop are all inherited from here.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from ..sim.machine import ClientMachine, ClientSpec, HardwareSpec, ServerMachine
from ..sim.network import LinkConfig, SpineConfig, Topology
from ..sim.rng import RngRegistry
from ..sim.tcpdump import PacketCapture
from ..workloads.base import Request, Workload

__all__ = [
    "BenchConfig",
    "TestBench",
    "drive_until",
    "partition_hosts",
    "run_without_gc",
]


def drive_until(sim: Simulator, predicate: Callable[[], bool], check_every: int = 256) -> None:
    """Run ``sim`` until ``predicate()`` is true.

    The predicate is polled every ``check_every`` events to keep the
    loop overhead negligible; raises if the event heap drains while
    the predicate is still false (a wiring bug: nothing left to wait
    for).  Events are executed in batches of ``check_every`` via the
    kernel's fused ``run`` loop rather than one ``step()`` call per
    event — same predicate cadence, a fraction of the dispatch
    overhead.
    """
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    while True:
        if predicate():
            return
        executed = sim.run(max_events=check_every)
        if executed < check_every and sim.peek() is None:
            if predicate():
                return
            raise RuntimeError(
                "simulation drained before the run condition was met "
                "(no pending events; check load-tester wiring)"
            )


def run_without_gc(bench, instances):
    """``bench.run_to_completion(instances)`` with cyclic GC paused.

    The event loop allocates no reference cycles, so cyclic-GC passes
    in the middle of a run are pure overhead.  The collector's prior
    state is restored even on error.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return bench.run_to_completion(instances)
    finally:
        if gc_was_enabled:
            gc.enable()


def partition_hosts(hosts, n_shards: Optional[int]):
    """A :class:`~repro.sim.partition.PartitionedSimulator` with every
    host assigned to a shard, or ``None`` (serial) for ``n_shards=None``.

    ``hosts`` is ``(name, rack)`` in bench construction order, servers
    first — so shard 0 holds the first server.
    """
    if n_shards is None:
        return None
    from ..sim.partition import PartitionedSimulator, assign_shards

    partition = PartitionedSimulator(n_shards)
    partition.assign(assign_shards(hosts, n_shards))
    return partition


@dataclass
class BenchConfig:
    """Everything needed to stand up one experiment run."""

    workload: Workload
    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    seed: int = 0
    server_name: str = "server"
    server_rack: str = "rack0"
    spine: SpineConfig = field(default_factory=SpineConfig)
    #: Access-link configuration for the server host.
    server_link: LinkConfig = field(default_factory=LinkConfig)


class TestBench:
    """One wired experiment run (server + network + clients)."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, config: BenchConfig, run_index: int = 0, partition=None):
        self.config = config
        self._wire(config.seed, run_index, config.spine, partition)
        self.server = self._boot_server(
            config.server_name,
            config.server_rack,
            config.server_link,
            config.hardware,
            config.workload,
            self.rng.child("server"),
        )

    # ------------------------------------------------------------------
    # construction (shared with the scenario bench)
    # ------------------------------------------------------------------
    def _wire(self, seed: int, run_index: int, spine: SpineConfig, partition) -> None:
        """The per-run state every bench starts from."""
        self.run_index = run_index
        #: Optional :class:`~repro.sim.partition.PartitionedSimulator`
        #: with every host already assigned to a shard.  When set, each
        #: host's machine and links land on its owning sub-kernel and
        #: cross-shard flows become boundary channels; ``bench.sim`` is
        #: then shard 0, which holds the first server.
        self._partition = partition
        self.sim = Simulator() if partition is None else partition.kernels[0]
        # Each run derives an independent seed so repeated runs are
        # independent experiments (the hysteresis procedure needs this).
        self.rng = RngRegistry(hash((seed, run_index)) & 0x7FFFFFFF)
        # Spine delays draw from a per-source-host stream, so the draw
        # order is a local property of each host's uplink FIFO — the
        # property that lets sub-kernels replay the identical draws no
        # matter how the simulation is sharded.
        self.topology = Topology(
            self.sim,
            spine_config=spine,
            spine_streams=lambda host: self.rng.stream(f"spine/{host}"),
            sim_for_host=None if partition is None else partition.sim_for_host,
        )
        self.clients: Dict[str, ClientMachine] = {}
        self.captures: Dict[str, PacketCapture] = {}
        #: Background processes stopped at ``T_done + lookahead`` (the
        #: scenario bench's antagonists; none on a plain bench).
        self.antagonists: List = []
        self._conn_counter = 0
        self._running = 0

    def _sim_for(self, host: str) -> Simulator:
        """The kernel that owns ``host`` (``self.sim`` unless partitioned)."""
        if self._partition is None:
            return self.sim
        return self._partition.sim_for_host(host)

    def _boot_server(self, name, rack, link, hardware, workload, rng) -> ServerMachine:
        self.topology.add_host(name, rack, link_config=link)
        server = ServerMachine(self._sim_for(name), hardware, workload, rng, name=name)
        server.boot()
        return server

    def _wire_client(self, name, rack, client_spec, link_config, capture) -> ClientMachine:
        """Stand up a client host; the caller installs its packet route."""
        if name in self.clients:
            raise ValueError(f"duplicate client {name!r}")
        self.topology.add_host(name, rack, link_config=link_config)
        cap = PacketCapture(name) if capture else None
        client = ClientMachine(
            self._sim_for(name),
            client_spec or ClientSpec(),
            name,
            send_packet=None,
            capture=cap,
        )
        self.clients[name] = client
        if cap is not None:
            self.captures[name] = cap
        return client

    def _route(self, client: ClientMachine, server: ServerMachine) -> Callable[[Request], None]:
        """The ``send_packet`` callable for requests ``client -> server``."""
        fwd = self.topology.path(client.name, server.name)
        rev = self.topology.path(server.name, client.name)
        partition = self._partition
        if partition is not None:
            # Identical flows, cut-aware: a channel whose endpoints
            # share a shard degenerates to the closures below; a cut
            # channel exports at the boundary.  The reverse path comes
            # first (it is the forward continuation).
            respond = partition.channel(
                rev, client.deliver, src=server.name, dst=client.name,
                size_attr="response_bytes",
            )
            return partition.channel(
                fwd, server.receive, respond, src=client.name, dst=server.name,
                size_attr="request_bytes",
            )
        deliver = client.deliver
        receive = server.receive

        def respond(request: Request) -> None:
            rev.send(request.response_bytes, deliver, request)

        def send_packet(request: Request) -> None:
            fwd.send(request.request_bytes, receive, request, respond)

        return send_packet

    def _accept(self, server: ServerMachine) -> int:
        """Open one connection on ``server``; ids are bench-global."""
        conn_id = self._conn_counter
        self._conn_counter += 1
        server.accept(conn_id)
        return conn_id

    def add_client(
        self,
        name: str,
        rack: Optional[str] = None,
        client_spec: Optional[ClientSpec] = None,
        link_config: Optional[LinkConfig] = None,
        capture: bool = True,
    ) -> ClientMachine:
        """Stand up a load-tester host and wire its packet paths."""
        rack = rack if rack is not None else self.config.server_rack
        client = self._wire_client(name, rack, client_spec, link_config, capture)
        client._send_packet = self._route(client, self.server)
        return client

    def open_connections(self, count: int) -> List[int]:
        """Accept ``count`` new connections on the server; returns ids."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self._accept(self.server) for _ in range(count)]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_to_completion(self, instances):
        """Run until every instance is done, then drain in-flight work.

        Instances stop their own controllers at the final counted
        sample.  When the last one completes at ``T_done``, every
        antagonist gets one stop event at ``T_done + lookahead`` (they
        reschedule themselves forever, so draining without a stop
        would never terminate).  Both instants are properties of the
        event stream, never of the drive loop's polling cadence, so
        the partitioned window loop reproduces them exactly; a
        partitioned bench hands over to it and returns its
        :class:`~repro.sim.partition.CoordinatorStats`.
        """
        if self._partition is not None:
            return self._partition.run_to_completion(
                instances, self.antagonists, self.topology.lookahead_us()
            )
        pending = list(instances)
        if self.antagonists:
            self._running = len(pending)
            for inst in pending:
                inst.on_done = self._note_done
        drive_until(self.sim, lambda: all(inst.done for inst in pending))
        for inst in pending:
            inst.stop()
        self.sim.run()
        return None

    def _note_done(self, inst) -> None:
        self._running -= 1
        if self._running == 0:
            stop_at = self.sim.now + self.topology.lookahead_us()
            for proc in self.antagonists:
                proc.sim.at(stop_at, proc.stop)

    @property
    def events_processed(self) -> int:
        """Events executed so far, over every sub-kernel if partitioned."""
        return (self._partition or self.sim).events_processed
