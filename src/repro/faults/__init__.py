"""Deterministic fault injection for the simulated machine.

The paper's completion attributes are only interesting because real
fabrics fail: packets are dropped, duplicated, delayed or corrupted,
NICs stall, and whole nodes die.  This package provides a
seeded, fully reproducible fault model:

- :class:`FaultPlan` — a declarative schedule of packet-level faults
  (:class:`LossSpec`), NIC serializer stalls (:class:`StallSpec`),
  rank kills/restarts (:class:`KillSpec`) and topology cable failures
  (:class:`LinkDownSpec`, routed fabrics only), plus the
  reliable-transport tuning knobs (:class:`TransportParams`);
- :class:`FaultInjector` — the runtime object the
  :class:`~repro.network.fabric.Fabric` consults per packet.  It draws
  from its own named RNG streams (one per (src, dst) path), so adding
  faults never perturbs the jitter streams and two runs with the same
  seed and plan are bit-identical.

Passing an *active* plan to :class:`~repro.runtime.World` also enables
the reliable transport in every :class:`~repro.network.nic.Nic`
(sequence numbers, ack-gated retransmission with exponential backoff,
duplicate suppression, checksum verification) and failure-aware RMA
completion.  With no plan (or an empty one) none of that machinery is
armed and the simulation is timestamp-identical to a fault-free run.
"""

from repro.faults.injector import FaultInjector, PacketFate
from repro.faults.plan import (
    FaultPlan,
    KillSpec,
    LinkDownSpec,
    LossSpec,
    StallSpec,
    TransportParams,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "KillSpec",
    "LinkDownSpec",
    "LossSpec",
    "PacketFate",
    "StallSpec",
    "TransportParams",
]
