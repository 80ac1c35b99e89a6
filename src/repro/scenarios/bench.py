"""The multi-pool scenario bench: N client fleets x M server pools.

:class:`ScenarioBench` is a :class:`~repro.core.bench.TestBench` that
boots every pool's servers (each fresh, with its own hidden placement
state) and the colocated antagonists instead of one server.  The
per-run RNG, the rack topology with per-host spine streams, kernel
selection, client wiring, cut-aware routing and the run loop are the
inherited ones; what stays here is what only scenarios have: pools
booted from their JSON, antagonists, the per-fleet view and
:meth:`ScenarioBench.fleet_total_rate`.

Treadmill instances are reused completely unchanged: they drive an
abstract bench protocol (``sim`` / ``rng`` / ``config.workload`` /
``add_client`` / ``open_connections``), which :meth:`fleet_view`
satisfies per fleet.  A view pins the fleet's rack and target pool and
routes per *connection*, because a fleet's connections round-robin
across its pool's servers.  It shares the parent's simulator, RNG
registry and global connection counter, so host wiring order — and
therefore every RNG stream — is a pure function of the scenario.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.bench import TestBench
from ..core.config import hardware_from_json, workload_from_json
from ..sim.machine import (
    AntagonistConfig,
    AntagonistProcess,
    ClientMachine,
    ClientSpec,
    HardwareSpec,
    ServerMachine,
)
from ..sim.network import LinkConfig, SpineConfig
from .config import link_from_json, spine_from_json
from .schema import ClientFleetSpec, ScenarioSpec

__all__ = ["ScenarioBench"]


class _FleetConfig:
    """The minimal ``bench.config`` surface TreadmillInstance reads."""

    __slots__ = ("workload",)

    def __init__(self, workload):
        self.workload = workload


class _FleetView:
    """One fleet's bench-protocol adapter (duck-typed TestBench)."""

    def __init__(
        self,
        parent: "ScenarioBench",
        fleet: ClientFleetSpec,
        servers: List[ServerMachine],
        rack: str,
    ):
        self._parent = parent
        self._servers = servers
        self._rack = rack
        self._current_client: Optional[ClientMachine] = None
        # Round-robin cursor across the pool's servers; per fleet, so
        # every fleet spreads its connections evenly regardless of how
        # other fleets share the pool.
        self._rr = 0
        self.sim = parent.sim
        self.rng = parent.rng
        self.config = _FleetConfig(parent.pool_workloads[fleet.target])

    # -- TestBench protocol -------------------------------------------
    def add_client(
        self,
        name: str,
        rack: Optional[str] = None,
        client_spec: Optional[ClientSpec] = None,
        link_config: Optional[LinkConfig] = None,
        capture: bool = True,
    ) -> ClientMachine:
        parent = self._parent
        rack = rack if rack is not None else self._rack
        client = parent._wire_client(name, rack, client_spec, link_config, capture)
        routes = parent._routes

        def send_packet(request) -> None:
            routes[request.conn_id](request)

        client._send_packet = send_packet
        self._current_client = client
        return client

    def open_connections(self, count: int) -> List[int]:
        """Accept ``count`` connections, round-robin across the pool.

        Connection ids are global across the whole scenario (matching
        the TestBench counter semantics); each id is routed to one
        server of the fleet's target pool at accept time and its
        route is built once, here, not per packet.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        parent = self._parent
        client = self._current_client
        if client is None:
            raise RuntimeError("open_connections before add_client")
        ids = []
        for _ in range(count):
            server = self._servers[self._rr % len(self._servers)]
            self._rr += 1
            conn_id = parent._accept(server)
            parent._routes[conn_id] = parent._route(client, server)
            ids.append(conn_id)
        return ids


class ScenarioBench(TestBench):
    """One wired scenario run (pools + topology + antagonists).

    Clients join through :meth:`fleet_view`; the single-server
    ``add_client`` / ``open_connections`` pair does not apply.
    """

    def __init__(self, scenario: ScenarioSpec, run_index: int = 0, partition=None):
        self.scenario = scenario
        spine = (
            spine_from_json(dict(scenario.spine))
            if scenario.spine is not None
            else SpineConfig()
        )
        self._wire(scenario.seed, run_index, spine, partition)
        #: pool name -> that pool's booted servers, in index order.
        self.pools: Dict[str, List[ServerMachine]] = {}
        #: pool name -> the pool's (shared) workload model instance.
        self.pool_workloads: Dict[str, object] = {}
        for pool in scenario.pools:
            workload = workload_from_json(dict(pool.workload))
            hardware = (
                hardware_from_json(dict(pool.hardware))
                if pool.hardware is not None
                else HardwareSpec()
            )
            link = (
                link_from_json(dict(pool.link)) if pool.link is not None else None
            )
            names = [f"{pool.name}{i}" for i in range(pool.count)]
            self.pools[pool.name] = [
                self._boot_server(
                    name, pool.rack, link, hardware, workload, self.rng.child(name)
                )
                for name in names
            ]
            self.pool_workloads[pool.name] = workload
        # Antagonist processes, in scenario order then server order.
        for spec in scenario.antagonists:
            servers = self.pools[spec.pool]
            targets = servers if spec.server is None else [servers[spec.server]]
            for server in targets:
                cfg = AntagonistConfig(
                    rate_rps=spec.rate_rps,
                    work_us=spec.work_us,
                    fixed_us=spec.fixed_us,
                    socket=spec.socket,
                )
                self.antagonists.append(
                    AntagonistProcess(
                        server.sim,
                        server,
                        cfg,
                        self.rng.stream(f"antagonist/{spec.name}/{server.name}"),
                        name=f"{spec.name}@{server.name}",
                    )
                )
        #: conn id -> that connection's ``send_packet`` route.
        self._routes: Dict[int, object] = {}

    def fleet_view(self, fleet_name: str) -> _FleetView:
        """The bench adapter a fleet's Treadmill instances drive."""
        fleet = self.scenario.fleet(fleet_name)
        pool = self.scenario.pool(fleet.target)
        rack = fleet.rack if fleet.rack is not None else pool.rack
        return _FleetView(self, fleet, self.pools[fleet.target], rack)

    def fleet_total_rate(self, fleet_name: str) -> float:
        """The fleet's total offered load in requests per second."""
        fleet = self.scenario.fleet(fleet_name)
        if fleet.rate_rps is not None:
            return fleet.rate_rps
        servers = self.pools[fleet.target]
        # target_utilization is the per-server utilization this fleet's
        # load alone would induce; all servers of a pool are identical,
        # so one calibration call covers the pool.
        per_us = servers[0].arrival_rate_for_utilization(fleet.target_utilization)
        return per_us * 1e6 * len(servers)

    def start_antagonists(self) -> None:
        for proc in self.antagonists:
            proc.start()
