"""Machine configuration and named presets.

A :class:`MachineConfig` describes the hardware a simulated job runs on:
how many nodes, which ranks live where, each node's memory-system
personality (coherence, endianness, pointer width), whether the OS allows
extra communication threads (Catamount famously does not — paper
§III-B1), and the CPU-side cost model (:class:`MachineTimings`).

Presets correspond to the systems the paper discusses:

===============================  =========================================
preset                           paper reference
===============================  =========================================
:func:`cray_xt5_catamount`       §III-B1/§V-A — coherent, **no threads**,
                                 Portals, so atomicity needs a coarse lock
:func:`cray_xt5_cnl`             §III-B1 — Compute Node Linux allows a
                                 communication thread
:func:`cray_x1e`                 §III-B1 — coherent within a node, remote
                                 accesses uncached
:func:`nec_sx9`                  §III-B2 — non-coherent scalar caches,
                                 fence required for visibility
:func:`hybrid_accelerator`       §III-B3 — mixed endianness/pointer width
:func:`generic_cluster`          neutral default
===============================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.machine.address_space import AddressSpace
from repro.machine.cache import (
    CacheModel,
    CoherentCache,
    NoCache,
    WriteThroughNonCoherentCache,
)
from repro.machine.placement import PLACEMENTS, placement_map

__all__ = [
    "MachineTimings",
    "NodeConfig",
    "MachineConfig",
    "cray_xt5_catamount",
    "cray_xt5_cnl",
    "cray_x1e",
    "nec_sx9",
    "hybrid_accelerator",
    "generic_cluster",
]


@dataclass(frozen=True)
class MachineTimings:
    """CPU-side cost model.  All times in microseconds.

    Attributes
    ----------
    call_overhead:
        Software overhead of entering a communication call.
    mem_copy_per_byte:
        Local memory copy cost (pack/unpack of noncontiguous data).
    cache_fence:
        Cost of a full cache/memory fence (large on the SX).
    am_handler:
        Fixed cost for an active-message handler activation on the
        communication thread (the thread-serializer per-message cost).
    lock_op:
        CPU cost of a local lock/unlock operation (excludes network
        round trips, which the fabric charges separately).
    accumulate_per_byte:
        Arithmetic cost of applying a reduction op at the target.
    mem_register_base / mem_register_per_page:
        Cost of registering memory with the NIC when exposing it for
        RMA (the paper's §V note that "the network interconnect may
        require the memory to be registered").  Charged by the
        collective exposure/window/segment creation paths; pages are
        4 KiB.
    """

    call_overhead: float = 0.2
    mem_copy_per_byte: float = 0.0005
    cache_fence: float = 1.5
    am_handler: float = 0.5
    lock_op: float = 0.1
    accumulate_per_byte: float = 0.001
    mem_register_base: float = 1.0
    mem_register_per_page: float = 0.05


@dataclass(frozen=True)
class NodeConfig:
    """Per-node memory-system personality."""

    coherent: bool = True
    endianness: str = "little"
    pointer_bits: int = 64
    cache_line: int = 64
    #: Factory building this node's cache model for a given space.
    cache_factory: Optional[Callable[[AddressSpace, int], CacheModel]] = None

    def make_cache(self, space: AddressSpace) -> CacheModel:
        """Instantiate the cache model for one rank's address space."""
        if self.cache_factory is not None:
            return self.cache_factory(space, self.cache_line)
        if self.coherent:
            return CoherentCache(space, self.cache_line)
        return WriteThroughNonCoherentCache(space, self.cache_line)


@dataclass(frozen=True)
class MachineConfig:
    """The whole machine.

    ``nodes`` may be shorter than the node count implied by
    ``n_nodes``; the last entry is replicated (convenient for
    homogeneous machines described by one :class:`NodeConfig`).

    ``placement`` picks the rank-to-node strategy (see
    :mod:`repro.machine.placement`): ``"block"`` (the default, rank
    ``r`` on node ``r // ranks_per_node``), ``"round_robin"``, or
    ``"random"`` (seeded by ``placement_seed``).
    """

    name: str = "generic"
    n_nodes: int = 8
    ranks_per_node: int = 1
    threads_allowed: bool = True
    nodes: List[NodeConfig] = field(default_factory=lambda: [NodeConfig()])
    timings: MachineTimings = field(default_factory=MachineTimings)
    placement: str = "block"
    placement_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if not self.nodes:
            raise ValueError("at least one NodeConfig is required")
        if len(self.nodes) > self.n_nodes:
            # A short list replicates its last entry, but a *longer* one
            # means the caller described nodes that do not exist — almost
            # certainly a mismatched n_nodes, so refuse instead of
            # silently ignoring the tail.
            raise ValueError(
                f"{len(self.nodes)} NodeConfig entries for a machine with "
                f"only {self.n_nodes} node(s); drop the extras or raise "
                "n_nodes")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}: "
                f"expected one of {PLACEMENTS}")
        # Cache the rank->node map (frozen dataclass: set via object).
        rank_node = placement_map(self.placement, self.n_nodes,
                                  self.ranks_per_node, self.placement_seed)
        if len(rank_node) != self.n_nodes * self.ranks_per_node:
            raise ValueError(
                f"placement map covers {len(rank_node)} rank(s) but the "
                f"machine hosts {self.n_nodes} node(s) x "
                f"{self.ranks_per_node} rank(s)/node = "
                f"{self.n_nodes * self.ranks_per_node}")
        bad = [n for n in rank_node if not 0 <= n < self.n_nodes]
        if bad:
            raise ValueError(
                f"placement map names node(s) {sorted(set(bad))} outside "
                f"0..{self.n_nodes - 1}")
        object.__setattr__(self, "_rank_node", rank_node)
        # ...and its inverse, node -> ascending ranks, built in one pass.
        node_ranks: List[List[int]] = [[] for _ in range(self.n_nodes)]
        for rank, node in enumerate(rank_node):
            node_ranks[node].append(rank)
        object.__setattr__(self, "_node_ranks",
                           tuple(tuple(rs) for rs in node_ranks))

    @property
    def n_ranks(self) -> int:
        """Total ranks the machine hosts."""
        return self.n_nodes * self.ranks_per_node

    def node_config(self, node_id: int) -> NodeConfig:
        """The :class:`NodeConfig` for ``node_id`` (last entry replicates)."""
        if node_id < 0 or node_id >= self.n_nodes:
            raise ValueError(f"node {node_id} out of range 0..{self.n_nodes - 1}")
        if node_id < len(self.nodes):
            return self.nodes[node_id]
        return self.nodes[-1]

    def node_of_rank(self, rank: int) -> int:
        """The node hosting ``rank`` under this machine's placement."""
        if rank < 0 or rank >= self.n_ranks:
            raise ValueError(f"rank {rank} out of range 0..{self.n_ranks - 1}")
        return self._rank_node[rank]  # type: ignore[attr-defined]

    def ranks_on_node(self, node_id: int) -> List[int]:
        """The ranks hosted on ``node_id`` (ascending)."""
        if node_id < 0 or node_id >= self.n_nodes:
            raise ValueError(f"node {node_id} out of range 0..{self.n_nodes - 1}")
        return list(self._node_ranks[node_id])  # type: ignore[attr-defined]

    def with_nodes(self, n_nodes: int) -> "MachineConfig":
        """Copy with a different node count."""
        return replace(self, n_nodes=n_nodes)

    def with_placement(self, strategy: str, seed: int = 0) -> "MachineConfig":
        """Copy with a different rank-to-node placement."""
        return replace(self, placement=strategy, placement_seed=seed)


# ---------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------

def cray_xt5_catamount(n_nodes: int = 8) -> MachineConfig:
    """Cray XT5 under the Catamount lightweight kernel.

    Coherent caches, but user processes **cannot spawn threads** and
    Portals has no active messages, so the atomicity attribute must fall
    back to a coarse-grain process-level lock (paper §III-B1, §V-A).
    """
    return MachineConfig(
        name="cray-xt5-catamount",
        n_nodes=n_nodes,
        threads_allowed=False,
        nodes=[NodeConfig(coherent=True)],
    )


def cray_xt5_cnl(n_nodes: int = 8) -> MachineConfig:
    """Cray XT5 under Compute Node Linux: a communication thread is
    available, enabling the thread serializer."""
    return MachineConfig(
        name="cray-xt5-cnl",
        n_nodes=n_nodes,
        threads_allowed=True,
        nodes=[NodeConfig(coherent=True)],
    )


def cray_x1e(n_nodes: int = 8) -> MachineConfig:
    """Cray X1E: coherent within a node; remote accesses uncached.

    From the RMA implementation's point of view this behaves like a
    coherent machine (paper §III-B1), which is how we model it.
    """
    return MachineConfig(
        name="cray-x1e",
        n_nodes=n_nodes,
        threads_allowed=True,
        nodes=[NodeConfig(coherent=True, cache_line=32)],
    )


def nec_sx9(n_nodes: int = 4, ranks_per_node: int = 2) -> MachineConfig:
    """NEC SX-9: non-coherent write-through scalar caches; a memory
    fence is needed before RMA-deposited data becomes visible
    (paper §III-B2).  Fences on the SX are comparatively expensive."""
    return MachineConfig(
        name="nec-sx9",
        n_nodes=n_nodes,
        ranks_per_node=ranks_per_node,
        threads_allowed=True,
        nodes=[NodeConfig(coherent=False, cache_line=128)],
        timings=MachineTimings(cache_fence=6.0),
    )


def hybrid_accelerator(n_host_nodes: int = 4, n_accel_nodes: int = 4) -> MachineConfig:
    """Roadrunner-flavoured hybrid: big-endian 64-bit hosts plus
    little-endian 32-bit accelerator nodes seen as MPI tasks
    (paper §III-B3)."""
    hosts = [
        NodeConfig(coherent=True, endianness="big", pointer_bits=64)
    ] * n_host_nodes
    accels = [
        NodeConfig(coherent=True, endianness="little", pointer_bits=32)
    ] * n_accel_nodes
    return MachineConfig(
        name="hybrid-accelerator",
        n_nodes=n_host_nodes + n_accel_nodes,
        threads_allowed=True,
        nodes=hosts + accels,
    )


def generic_cluster(n_nodes: int = 8, ranks_per_node: int = 1) -> MachineConfig:
    """A neutral coherent little-endian cluster."""
    return MachineConfig(
        name="generic-cluster",
        n_nodes=n_nodes,
        ranks_per_node=ranks_per_node,
    )
