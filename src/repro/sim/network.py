"""Network model: links, racks, and cross-rack paths.

Two of the paper's pitfalls live in the network:

* **Client-side queueing bias** (Section II-C, Fig. 3): in a
  single-client setup the client's access link and NIC run at the same
  utilization as the server, so network queueing delay grows with load
  and pollutes the measurement.  We model each host's access link as a
  FIFO queue with finite bandwidth, so driving one client hard makes
  its link queue exactly as the paper shows.

* **Cross-rack aggregation bias** (Section II-B, Fig. 2): a client on
  a different rack traverses the spine, adding propagation delay plus
  bursty queueing from background traffic; its samples dominate the
  high quantiles of a naively merged distribution.  The spine model
  adds a configurable base hop cost plus a heavy-ish burst component.

Links are simulated as single-server FIFO queues: transmission time is
``bytes / bandwidth`` and packets depart in order; propagation delay is
added after transmission completes (it does not occupy the link).

**Partitioning hooks.**  The same topology can span several sub-kernels
(:mod:`repro.sim.partition`): ``sim_for_host`` places each host's links
on its owning kernel, spine randomness is drawn from one independent
stream *per source host* (``spine/<host>``) so the draw order is a
local property of that host's uplink FIFO rather than of the global
event interleaving, and :meth:`Topology.lookahead_us` derives the
conservative window bound — the minimum propagation delay any packet
must pay before it can touch another host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .engine import Simulator

__all__ = [
    "LinkConfig",
    "Link",
    "SpineConfig",
    "Spine",
    "SpinePort",
    "NetworkPath",
    "Rack",
    "Topology",
]


@dataclass
class LinkConfig:
    """One directed link (a host's NIC uplink or downlink)."""

    #: Bandwidth in bytes per microsecond (10 GbE = 1250 B/us).
    bandwidth_bpus: float = 1250.0
    #: One-way propagation + switching latency inside the rack.
    propagation_us: float = 3.0

    def __post_init__(self) -> None:
        if self.bandwidth_bpus <= 0:
            raise ValueError("bandwidth must be positive")
        if self.propagation_us < 0:
            raise ValueError("propagation must be non-negative")


class Link:
    """A directed FIFO link with finite bandwidth.

    ``send`` enqueues a packet; ``on_delivered`` fires after the packet
    has been transmitted (queueing + transmission) and propagated.
    """

    __slots__ = (
        "sim",
        "config",
        "_bandwidth",
        "_propagation",
        "_schedule",
        "_free_at",
        "busy_us",
        "packets",
        "bytes_sent",
    )

    def __init__(self, sim: Simulator, config: LinkConfig):
        self.sim = sim
        self.config = config
        # Config is immutable after construction; cache the two hot
        # fields as plain floats (dataclass attribute access is a dict
        # lookup on the per-packet path otherwise), and the kernel's
        # schedule as a pre-bound method.
        self._bandwidth = config.bandwidth_bpus
        self._propagation = config.propagation_us
        self._schedule = sim.schedule
        self._free_at = 0.0
        self.busy_us = 0.0
        self.packets = 0
        self.bytes_sent = 0

    def send(
        self, size_bytes: int, on_delivered: Callable[..., None], *args: object
    ) -> float:
        """Transmit a packet; returns the queueing delay experienced.

        FIFO ordering is maintained by tracking when the transmitter
        frees up; no per-packet event is needed while the link is
        backlogged, which keeps the simulation cheap.  Extra ``args``
        are forwarded to ``on_delivered``, so callers can pass a bound
        method plus its payload instead of building a per-packet
        closure.
        """
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        now = self.sim.now
        free_at = self._free_at
        start = free_at if free_at > now else now
        tx_us = size_bytes / self._bandwidth
        self._free_at = free_at = start + tx_us
        self.busy_us += tx_us
        self.packets += 1
        self.bytes_sent += size_bytes
        delivered_at = free_at + self._propagation
        self._schedule(delivered_at - now, on_delivered, *args)
        return start - now

    def transmit(self, size_bytes: int) -> float:
        """Occupy the link for a packet and return its absolute delivery time.

        Identical FIFO bookkeeping to :meth:`send` but **no event is
        scheduled**: partitioned channels use this on the source side
        of a cut edge, exporting the returned timestamp to the peer
        sub-kernel instead of scheduling locally — so a cut edge costs
        exactly as many events as the serial kernel's path.
        """
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        now = self.sim.now
        free_at = self._free_at
        start = free_at if free_at > now else now
        tx_us = size_bytes / self._bandwidth
        self._free_at = free_at = start + tx_us
        self.busy_us += tx_us
        self.packets += 1
        self.bytes_sent += size_bytes
        return free_at + self._propagation

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the transmitter was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_us / self.sim.now)


@dataclass
class SpineConfig:
    """Cross-rack hop: aggregation/spine switches plus longer cables."""

    #: Extra one-way propagation for leaving the rack.
    propagation_us: float = 18.0
    #: Mean of the exponential queueing component from background
    #: datacenter traffic sharing the spine.
    background_mean_us: float = 6.0
    #: Probability that a packet hits a background burst, and the mean
    #: extra delay when it does.  This is what pushes a cross-rack
    #: client's samples into the tail (Fig. 2).
    burst_probability: float = 0.02
    burst_mean_us: float = 250.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        for name in ("propagation_us", "background_mean_us", "burst_mean_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class Spine:
    """The shared inter-rack fabric; adds stochastic per-packet delay.

    Randomness is organized as one independent stream per **source
    host** (see :class:`SpinePort`): a host's uplink delivers packets
    to the spine in FIFO order, so its port consumes draws in local
    arrival order regardless of how other hosts' events interleave —
    the property that lets a partitioned run reproduce the serial
    draw-for-draw.  A single shared generator (``rng``) is kept as a
    fallback for direct users of this class.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SpineConfig,
        rng: Optional[np.random.Generator] = None,
        stream_factory: Optional[Callable[[str], np.random.Generator]] = None,
    ):
        self.sim = sim
        self.config = config
        self._rng = rng
        self._stream_factory = stream_factory
        self._ports: dict = {}

    def sample_delay(self, rng: np.random.Generator) -> float:
        """Draw one traversal delay from ``rng`` (shared by all ports)."""
        cfg = self.config
        delay = cfg.propagation_us
        if cfg.background_mean_us > 0:
            delay += float(rng.exponential(cfg.background_mean_us))
        if cfg.burst_probability > 0 and rng.random() < cfg.burst_probability:
            delay += float(rng.exponential(cfg.burst_mean_us))
        return delay

    def traverse(self, on_delivered: Callable[..., None], *args: object) -> None:
        """Legacy shared-stream traversal (single-kernel direct users)."""
        if self._rng is None:
            raise ValueError("spine has no shared rng; use port(src).traverse")
        self.sim.schedule(self.sample_delay(self._rng), on_delivered, *args)

    def port(self, src: str, sim: Optional[Simulator] = None) -> "SpinePort":
        """The per-source-host ingress port (memoized per host)."""
        port = self._ports.get(src)
        if port is None:
            if self._stream_factory is not None:
                rng = self._stream_factory(src)
            elif self._rng is not None:
                rng = self._rng
            else:
                raise ValueError("spine has neither stream factory nor shared rng")
            port = SpinePort(sim or self.sim, self, rng)
            self._ports[src] = port
        return port


class SpinePort:
    """One source host's ingress into the spine.

    Owns that host's delay stream and schedules on that host's kernel,
    so traversal is a purely local affair of the source partition; the
    sampled delay decides which *destination* kernel time the packet
    reaches the far downlink at.
    """

    __slots__ = ("sim", "spine", "rng")

    def __init__(self, sim: Simulator, spine: Spine, rng: np.random.Generator):
        self.sim = sim
        self.spine = spine
        self.rng = rng

    def delay_us(self) -> float:
        """Draw this packet's traversal delay (no event scheduled)."""
        return self.spine.sample_delay(self.rng)

    def traverse(self, on_delivered: Callable[..., None], *args: object) -> None:
        self.sim.schedule(self.spine.sample_delay(self.rng), on_delivered, *args)


class NetworkPath:
    """A unidirectional path: source uplink [-> spine] -> dest downlink."""

    def __init__(
        self,
        uplink: Link,
        downlink: Link,
        spine: "Optional[SpinePort | Spine]" = None,
    ):
        self.uplink = uplink
        self.downlink = downlink
        self.spine = spine

    def send(
        self, size_bytes: int, on_delivered: Callable[..., None], *args: object
    ) -> None:
        # Hop-to-hop continuations are expressed as (bound method,
        # payload) pairs, so the common same-rack case allocates no
        # closures at all on the per-packet path.
        if self.spine is None:
            self.uplink.send(
                size_bytes, self.downlink.send, size_bytes, on_delivered, *args
            )
        else:
            self.uplink.send(
                size_bytes,
                self.spine.traverse,
                self.downlink.send,
                size_bytes,
                on_delivered,
                *args,
            )


@dataclass
class Rack:
    """A rack groups hosts; same-rack traffic stays under the ToR."""

    name: str
    hosts: List[str] = field(default_factory=list)


class Topology:
    """Racks of hosts with per-host access links.

    Every host owns one uplink and one downlink :class:`Link`; all of
    its flows share them, which is precisely how a saturated client's
    own NIC biases its measurements (Fig. 3).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[np.random.Generator] = None,
        spine_config: Optional[SpineConfig] = None,
        spine_streams: Optional[Callable[[str], np.random.Generator]] = None,
        sim_for_host: Optional[Callable[[str], Simulator]] = None,
    ):
        self.sim = sim
        self._sim_for_host = sim_for_host
        self.spine = Spine(
            sim, spine_config or SpineConfig(), rng, stream_factory=spine_streams
        )
        self._racks: dict = {}
        self._host_rack: dict = {}
        self._uplinks: dict = {}
        self._downlinks: dict = {}

    def sim_for(self, host: str) -> Simulator:
        """The kernel that owns ``host`` (``self.sim`` unless partitioned)."""
        if self._sim_for_host is None:
            return self.sim
        return self._sim_for_host(host)

    def add_host(
        self, name: str, rack: str, link_config: Optional[LinkConfig] = None
    ) -> None:
        if name in self._host_rack:
            raise ValueError(f"duplicate host {name!r}")
        cfg = link_config or LinkConfig()
        host_sim = self.sim_for(name)
        self._racks.setdefault(rack, Rack(rack)).hosts.append(name)
        self._host_rack[name] = rack
        self._uplinks[name] = Link(host_sim, cfg)
        self._downlinks[name] = Link(host_sim, cfg)

    def rack_of(self, host: str) -> str:
        return self._host_rack[host]

    def hosts(self) -> List[str]:
        """All host names, in insertion order (deterministic)."""
        return list(self._host_rack)

    def racks(self) -> List[str]:
        """All rack names, in insertion order (deterministic)."""
        return list(self._racks)

    def uplink(self, host: str) -> Link:
        return self._uplinks[host]

    def downlink(self, host: str) -> Link:
        return self._downlinks[host]

    def same_rack(self, a: str, b: str) -> bool:
        return self._host_rack[a] == self._host_rack[b]

    def path(self, src: str, dst: str) -> NetworkPath:
        """Build the directed path ``src -> dst``."""
        if src not in self._host_rack or dst not in self._host_rack:
            missing = src if src not in self._host_rack else dst
            raise KeyError(f"unknown host {missing!r}")
        if self.same_rack(src, dst):
            spine = None
        else:
            spine = self.spine.port(src, sim=self.sim_for(src))
        return NetworkPath(self._uplinks[src], self._downlinks[dst], spine)

    def lookahead_us(self) -> float:
        """The conservative partitioning lookahead this topology offers.

        Any packet leaving a host pays at least its access link's
        propagation delay before it can be observed by another host,
        and any cross-rack packet additionally pays at least the
        spine's propagation after its traversal delay is drawn.  The
        minimum over those lower bounds is therefore a time window in
        which no partition can causally affect another — the
        null-message-free barrier spacing used by
        :mod:`repro.sim.partition`.  Evaluated on the final topology
        (call after all hosts are added); independent of partition
        count, so it is also the control-plane delay ``Δ`` used for
        deterministic antagonist shutdown.
        """
        bounds = [link._propagation for link in self._uplinks.values()]
        if len(self._racks) > 1:
            bounds.append(self.spine.config.propagation_us)
        return min(bounds) if bounds else 0.0
