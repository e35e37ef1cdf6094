"""Analytic op-trains: closed-form delivery of attribute-uniform runs.

PR 1 proved that the flight of an uncontended burst on a flat, ordered,
fault-free path is closed-form: injection times are a running sum of
serialization charges, arrivals are ``inject + latency`` clamped
monotonic per (src, dst) pair.  The *op-train* fast path lifts that
observation from one operation's fragments to a whole run of
operations: the engine computes every timestamp of each eligible op as
a numpy expression at issue time (:meth:`RmaEngine._try_issue_train`)
and records the op here instead of injecting packets.

A train is a per-(src, dst) sequence of :class:`TrainElement`, each a
fully-described write (put/accumulate) with a precomputed *apply time*
(its last fragment's analytic arrival).  Application is **lazy**: the
fabric materializes the arrived prefix of every train headed for a rank
immediately before delivering any real packet to it
(:meth:`~repro.network.fabric.Fabric.materialize_trains`), and the
world drains all trains at end of run.  Because arrivals on an ordered
path are clamped strictly monotonic, any real packet was sent *after*
the train elements it follows and arrives after them — so handlers
(flush requests, later gets, atomics) always observe exactly the
target-memory and watermark state the per-packet path would have
produced at the same simulated time.

Timestamps are bit-identical to the event-loop path by construction:
the engine times each op with `Nic.reserve` and `Fabric.fifo_arrivals`,
the same float arithmetic `Nic.send` / `Fabric.transmit` perform per
packet, just evaluated eagerly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.rma.layout import Fragment, apply_accumulate, apply_put_fragment

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["TrainElement", "OpTrain"]


def _dead_in_batch(batch: List["TrainElement"], i: int) -> bool:
    """Whether ``batch[i]``'s memcpy can be elided: some later put in
    the same materialization batch rewrites every byte it writes,
    before any accumulate could read them.

    Two cases, both byte-exact: a later put with the *identical*
    layout signature (any shape, the PR 6 rule), or — for a contiguous
    put — a later contiguous put to the same memory whose interval
    contains this one.  An intervening overlapping accumulate reads
    the target bytes, so the scan stops conservatively at the first
    accumulate (batches are same-(src, dst) runs into one scratch
    area; precise acc intervals are not worth tracking here)."""
    elem = batch[i]
    sig = elem.overwrite_sig
    if sig is None:
        return False
    contig = sig[0] == "contig"
    if contig:
        _, mem_id, lo, nb = sig
        hi = lo + nb
    for later in batch[i + 1:]:
        if later.kind != "put":
            return False
        lsig = later.overwrite_sig
        if lsig == sig:
            return True
        if contig and lsig is not None and lsig[0] == "contig":
            _, lmem, llo, lnb = lsig
            if lmem == mem_id and llo <= lo and llo + lnb >= hi:
                return True
    return False


class TrainElement:
    """One analytically-timed write riding a train."""

    __slots__ = ("seq", "op_key", "kind", "mem_id", "base_disp", "swap",
                 "frags", "wire", "nfrags", "apply_time", "acc_args",
                 "overwrite_sig", "total_wire")

    def __init__(
        self,
        seq: int,
        op_key: Tuple[int, int],
        kind: str,
        mem_id: int,
        base_disp: int,
        swap: bool,
        frags: Optional[List[Fragment]],
        wire: Any,
        nfrags: int,
        apply_time: float,
        acc_args: Optional[tuple],
        overwrite_sig: Optional[tuple],
        total_wire: int,
    ) -> None:
        self.seq = seq
        self.op_key = op_key
        self.kind = kind  # "put" | "acc"
        self.mem_id = mem_id
        self.base_disp = base_disp
        self.swap = swap
        #: Explicit fragment layout, or None for a *lazy* element — a
        #: contiguous same-endian put whose application is one dense
        #: deposit of ``wire`` at ``base_disp`` (fragmentation is pure
        #: timing there, so no Fragment objects are ever built).
        self.frags = frags
        self.wire = wire
        self.nfrags = nfrags
        #: Analytic arrival of the last fragment — the instant the op
        #: counts as applied (matching `_deliver_burst`'s replay point).
        self.apply_time = apply_time
        #: (np_elem, op, scale) for accumulates, None for puts.
        self.acc_args = acc_args
        #: Tagged layout signature for puts — two puts with equal
        #: signatures write byte-identical regions, and a later
        #: ``("contig", mem_id, disp, nbytes)`` signature *covers* an
        #: earlier one whose byte interval it contains.  A put covered
        #: later in its own materialization batch is dead and its
        #: memcpy is elided.
        self.overwrite_sig = overwrite_sig
        self.total_wire = total_wire


class OpTrain:
    """A pending run of analytic ops from one origin to one target."""

    __slots__ = ("src", "dst", "_sim", "_elements", "_next", "_target")

    def __init__(self, sim: "Simulator", src: int, dst: int) -> None:
        self._sim = sim
        self.src = src
        self.dst = dst
        self._elements: List[TrainElement] = []
        self._next = 0
        self._target = None  # target-rank RmaEngine, resolved lazily

    @property
    def done(self) -> bool:
        return self._next >= len(self._elements)

    @property
    def next_time(self) -> Optional[float]:
        """Analytic arrival of the earliest unapplied element, or
        ``None`` when the train is drained."""
        if self._next >= len(self._elements):
            return None
        return self._elements[self._next].apply_time

    def append(self, elem: TrainElement) -> None:
        self._elements.append(elem)

    def drop_rest(self) -> int:
        """Discard every unmaterialized element (rank death); returns
        the number of fragments dropped (they count as in-flight
        packets for the fabric's ``dead_dropped`` stat)."""
        dropped = self._elements[self._next:]
        del self._elements[self._next:]
        return sum(e.nfrags for e in dropped)

    def _target_engine(self):
        eng = self._target
        if eng is None:
            world = self._sim.context["world"]
            eng = self._target = world.contexts[self.dst].rma.engine
        return eng

    def materialize_upto(self, now: float) -> bool:
        """Apply every element whose analytic arrival has passed.

        Returns True once the train is fully drained (the fabric then
        drops it from the registry).  Replays the exact target-side
        effects of per-packet delivery: fragment application, delivery
        stats, the applied-watermark roll, then gate draining and flush
        answering once per batch (`_op_applied` does the same pair of
        calls per op; batching them is safe because the intermediate
        watermark states are never observable — nothing else can run
        between elements of one materialization).
        """
        elements = self._elements
        end = self._next
        n = len(elements)
        while end < n and elements[end].apply_time <= now:
            end += 1
        if end == self._next:
            return self._next >= n
        eng = self._target_engine()
        fabric = eng.nic.fabric
        tpeer = eng._target_peer(self.src)
        mem = eng.mem
        batch = elements[self._next:end]
        self._next = end
        nbatch = len(batch)
        # A train riding a same-node path carries the same packets the
        # per-packet path would have: keep the intra-node stat honest —
        # one count per fragment, exactly like Fabric.transmit[_burst].
        intra = (fabric.intra_config is not None
                 and fabric.config_for(self.src, self.dst)
                 is fabric.intra_config)
        for i, elem in enumerate(batch):
            fabric.packets_delivered += elem.nfrags
            fabric.bytes_delivered += elem.total_wire
            if intra:
                fabric.intra_node_packets += elem.nfrags
            alloc = eng._resolve(elem.mem_id)
            if elem.kind == "put":
                if i + 1 < nbatch and _dead_in_batch(batch, i):
                    # Dead store: a later element of this same batch
                    # rewrites every byte — elide the memcpy (the
                    # watermark below still rolls).
                    pass
                elif elem.frags is None:
                    mem.nic_write(alloc, elem.base_disp, elem.wire)
                else:
                    for frag in elem.frags:
                        apply_put_fragment(mem, alloc, elem.base_disp, frag,
                                           elem.swap)
            else:
                np_elem, acc_op, acc_scale = elem.acc_args  # type: ignore
                for frag in elem.frags:
                    apply_accumulate(mem, alloc, elem.base_disp, frag,
                                     elem.swap, np_elem, acc_op, acc_scale,
                                     mem.space.np_byteorder)
            # applied-watermark roll (mirror of RmaEngine._op_applied;
            # train ops never register an _InboundOp, never sw-ack, and
            # only form untraced, so the rest of _op_applied is moot)
            seq = elem.seq
            if seq == tpeer.applied_upto + 1:
                tpeer.applied_upto = seq
                extra = tpeer.applied_extra
                while tpeer.applied_upto + 1 in extra:
                    extra.discard(tpeer.applied_upto + 1)
                    tpeer.applied_upto += 1
            else:
                tpeer.applied_extra.add(seq)
        eng._drain_gated(tpeer)
        eng._answer_flushes(tpeer)
        return self._next >= n
