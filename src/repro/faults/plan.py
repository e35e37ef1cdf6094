"""Declarative fault schedules.

A :class:`FaultPlan` is plain data: what to inject, where, when, and
with what probability.  It is interpreted by
:class:`~repro.faults.injector.FaultInjector` at simulation time; the
plan itself never touches an RNG, so the same plan object can be reused
across worlds and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["LossSpec", "StallSpec", "KillSpec", "LinkDownSpec",
           "TransportParams", "FaultPlan"]


@dataclass(frozen=True)
class LossSpec:
    """Probabilistic packet-level faults on matching deliveries.

    Attributes
    ----------
    drop_p / dup_p / corrupt_p / delay_p:
        Per-packet probabilities of dropping, duplicating, corrupting
        (checksum-detectable payload mangling) or delaying the packet.
        Independent draws; a drop short-circuits the rest.
    delay_mean:
        Mean of the exponential extra flight delay (µs) when a delay
        fault fires.
    src / dst:
        Restrict to packets from/to a specific rank (``None`` = any).
    kinds:
        Restrict to specific packet kinds (``None`` = any).
    start / stop:
        Simulated-time window in which the spec is live.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    corrupt_p: float = 0.0
    delay_p: float = 0.0
    delay_mean: float = 10.0
    src: Optional[int] = None
    dst: Optional[int] = None
    kinds: Optional[Tuple[str, ...]] = None
    start: float = 0.0
    stop: float = math.inf

    def __post_init__(self) -> None:
        for name in ("drop_p", "dup_p", "corrupt_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
        if self.delay_mean < 0:
            raise ValueError("delay_mean must be >= 0")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")

    def matches(self, src: int, dst: int, kind: str, now: float) -> bool:
        """Whether this spec applies to a packet at simulated ``now``."""
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.kinds is not None and kind not in self.kinds:
            return False
        return self.start <= now < self.stop


@dataclass(frozen=True)
class StallSpec:
    """Freeze one rank's NIC serializer for a window of simulated time."""

    rank: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration < 0:
            raise ValueError("stall start/duration must be >= 0")


@dataclass(frozen=True)
class KillSpec:
    """Kill a rank at ``at`` (and optionally restart it later).

    A killed rank's fabric port goes silent — every packet to or from
    it is dropped — and, when ``kill_program`` is set, its running rank
    program is terminated.  On restart the rank's memory is intact (a
    transient outage, not a reboot from scratch); transport flows and
    RMA sequence state touching the rank are re-synchronized.  The
    killed program is *not* resurrected.
    """

    rank: int
    at: float
    restart_at: Optional[float] = None
    kill_program: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("kill time must be >= 0")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError("restart_at must be after the kill time")


@dataclass(frozen=True)
class LinkDownSpec:
    """Fail a topology cable at ``at`` (and optionally restore it).

    Only meaningful on a routed fabric (a world whose network config
    carries a topology); arming it on a flat fabric raises.  ``u`` and
    ``v`` name graph nodes of the topology; with ``both`` (default) the
    full-duplex cable fails in both directions.  Traffic re-routes
    around the dead cable; when none survives, packets between the
    partitioned hosts are dropped and the reliable transport's retry
    budget eventually surfaces the partition as a structured
    :class:`~repro.rma.target_mem.RmaError`.
    """

    u: Any
    v: Any
    at: float
    restore_at: Optional[float] = None
    both: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("link-down time must be >= 0")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ValueError("restore_at must be after the link-down time")


@dataclass(frozen=True)
class TransportParams:
    """Tuning knobs of the reliable transport armed with a fault plan.

    Attributes
    ----------
    retry_budget:
        Retransmissions allowed per packet before the (src, dst) path
        is declared failed.
    rto_scale:
        Multiplier over the path's analytic round-trip estimate
        (:meth:`~repro.network.config.NetworkConfig.retransmit_timeout`)
        for the initial retransmission timeout.
    backoff:
        Exponential backoff factor applied to the RTO per retry.
    rto_max:
        Cap on the backed-off RTO (µs).
    degrade_threshold:
        Retransmissions to one destination after which the RMA engine
        stops trusting hardware delivery acks on that path and degrades
        to software (application-level) acks.
    """

    retry_budget: int = 6
    rto_scale: float = 1.5
    backoff: float = 2.0
    rto_max: float = 50_000.0
    degrade_threshold: int = 8

    def __post_init__(self) -> None:
        if self.retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        if self.rto_scale <= 0 or self.backoff < 1.0 or self.rto_max <= 0:
            raise ValueError("invalid RTO parameters")
        if self.degrade_threshold < 1:
            raise ValueError("degrade_threshold must be >= 1")


@dataclass
class FaultPlan:
    """A complete fault schedule (see the builder methods).

    >>> plan = (FaultPlan()
    ...         .drop(0.05)                    # 5% uniform loss
    ...         .corrupt(0.01, dst=3)          # mangle 1% of packets to 3
    ...         .stall(rank=1, start=100.0, duration=50.0)
    ...         .kill(rank=2, at=500.0))
    """

    losses: List[LossSpec] = field(default_factory=list)
    stalls: List[StallSpec] = field(default_factory=list)
    kills: List[KillSpec] = field(default_factory=list)
    link_downs: List[LinkDownSpec] = field(default_factory=list)
    transport: TransportParams = field(default_factory=TransportParams)

    # -- builders --------------------------------------------------------
    def add(self, spec: LossSpec) -> "FaultPlan":
        """Append a fully-specified :class:`LossSpec`."""
        self.losses.append(spec)
        return self

    def drop(self, p: float, **kw) -> "FaultPlan":
        """Drop matching packets with probability ``p``."""
        return self.add(LossSpec(drop_p=p, **kw))

    def duplicate(self, p: float, **kw) -> "FaultPlan":
        """Deliver matching packets twice with probability ``p``."""
        return self.add(LossSpec(dup_p=p, **kw))

    def corrupt(self, p: float, **kw) -> "FaultPlan":
        """Mangle matching payloads (checksum-detectable) with
        probability ``p``."""
        return self.add(LossSpec(corrupt_p=p, **kw))

    def delay(self, p: float, mean: float = 10.0, **kw) -> "FaultPlan":
        """Add exponential extra flight delay with probability ``p``."""
        return self.add(LossSpec(delay_p=p, delay_mean=mean, **kw))

    def stall(self, rank: int, start: float, duration: float) -> "FaultPlan":
        """Freeze ``rank``'s NIC serializer for ``duration`` µs."""
        self.stalls.append(StallSpec(rank, start, duration))
        return self

    def kill(self, rank: int, at: float, restart_at: Optional[float] = None,
             kill_program: bool = True) -> "FaultPlan":
        """Kill ``rank`` at simulated time ``at``."""
        self.kills.append(KillSpec(rank, at, restart_at, kill_program))
        return self

    def link_down(self, u: Any, v: Any, at: float,
                  restore_at: Optional[float] = None,
                  both: bool = True) -> "FaultPlan":
        """Fail the topology cable ``u <-> v`` at simulated time ``at``
        (routed fabrics only; see :class:`LinkDownSpec`)."""
        self.link_downs.append(LinkDownSpec(u, v, at, restore_at, both))
        return self

    def with_transport(self, **kw) -> "FaultPlan":
        """Replace transport tuning parameters."""
        from dataclasses import replace

        self.transport = replace(self.transport, **kw)
        return self

    # -- queries ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the plan injects anything at all.

        An inactive plan arms neither the injector nor the reliable
        transport — the simulation stays on the fault-free fast path
        and is timestamp-identical to passing no plan.
        """
        return bool(self.losses or self.stalls or self.kills
                    or self.link_downs)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan that injects nothing (fast path preserved)."""
        return cls()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultPlan losses={len(self.losses)} "
                f"stalls={len(self.stalls)} kills={len(self.kills)} "
                f"link_downs={len(self.link_downs)}>")
