"""Per-rank MPI endpoint: wire protocol and tag matching.

One :class:`MpiEndpoint` exists per rank.  It owns the ``p2p.*`` packet
handlers and the matching engine, and exposes the primitive
``isend``/``irecv`` that :class:`~repro.mpi.comm.Comm` builds on.

Two transfer protocols, as in real MPI libraries:

- **eager** (payload ≤ ``eager_threshold``): the data rides the first
  packet.  If it arrives before the matching receive is posted it sits
  in the unexpected-message queue and the receiver pays an extra copy
  when it finally matches.
- **rendezvous** (larger): the sender ships a ready-to-send (RTS)
  envelope; the receiver answers clear-to-send (CTS) once the receive
  is posted; only then does the payload move — straight into the posted
  buffer, no unexpected copy, at the price of a round trip.

Matching is FIFO over two lists per context, as in real MPI
libraries: *posted* receives waiting for a message, and *unexpected*
messages waiting for a receive.  An arriving envelope takes the oldest
posted receive whose (source, tag) it satisfies (``ANY_SOURCE`` and
``ANY_TAG`` match anything); a new receive takes the oldest matching
unexpected message.  That preserves MPI's non-overtaking rule — on an
*ordered* fabric.  On an unordered fabric two same-tag messages may
arrive swapped, which is faithful to why MPI implementations add
sequence numbers; we keep the raw behaviour visible because the RMA
ordering-attribute benches rely on it.

A receive is driven by plain callbacks, not a process: the post is one
urgent call (matching runs there, at post time), a later delivery that
matches hops once through the urgent queue, the receive charge is one
scheduled call, and completion succeeds the request's event.

Host cost per message is constant.  A payload is sized (pickled) once:
``isend`` takes an optional byte count, so a collective that forwards
one object through many sends sizes it once and passes the count on,
and the rendezvous table keeps the size its RTS announced.  The wire
bytes are always the exact pickled length.  Point-to-point requests
never carry failures as values: a received object is returned as is,
even when it holds an :class:`~repro.rma.target_mem.RmaError`.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.machine.config import MachineTimings
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request, Status
from repro.network.nic import Nic
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["MpiEndpoint", "Message", "payload_nbytes"]

#: Messages larger than this use the rendezvous protocol (bytes).
DEFAULT_EAGER_THRESHOLD = 16384

_msg_ids = itertools.count(1)


def payload_nbytes(obj: Any) -> int:
    """Wire size estimate for an arbitrary Python payload."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if obj is None:
        return 0
    if isinstance(obj, (int, float, bool)):
        return 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


@dataclass(frozen=True)
class Message:
    """A matchable envelope (eager payload or rendezvous RTS)."""

    context: Tuple
    src: int
    tag: int
    data: Any
    nbytes: int
    arrived_at: float
    rdv_id: int = 0  # nonzero: RTS of a rendezvous transfer


def _accepts(src: int, tag: int, msg: Message) -> bool:
    """Whether a receive for (``src``, ``tag``) matches ``msg`` (same
    context assumed)."""
    return ((src == ANY_SOURCE or src == msg.src)
            and (tag == ANY_TAG or tag == msg.tag))


class MpiEndpoint:
    """The per-rank messaging engine."""

    def __init__(
        self,
        sim: "Simulator",
        rank: int,
        nic: Nic,
        timings: MachineTimings,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
    ) -> None:
        self.sim = sim
        self.rank = rank
        self.nic = nic
        self.timings = timings
        self.eager_threshold = eager_threshold
        #: context -> posted receives, oldest first: (req, src, tag, posted_at)
        self._posted: Dict[Tuple, List[Tuple[Request, int, int, float]]] = {}
        #: context -> unexpected envelopes, oldest first
        self._unexpected: Dict[Tuple, List[Message]] = {}
        #: sender side: rendezvous payloads awaiting CTS
        self._rdv_out: Dict[int, Tuple[Any, int, Any]] = {}  # id -> (data, nbytes, req_ev)
        #: receiver side: matched receives awaiting their rendezvous payload
        self._rdv_in: Dict[int, Tuple[Request, Message]] = {}
        nic.register_handler("p2p.msg", self._on_message)
        nic.register_handler("p2p.rts", self._on_rts)
        nic.register_handler("p2p.cts", self._on_cts)
        nic.register_handler("p2p.data", self._on_data)
        # stats
        self.sends = 0
        self.recvs = 0
        self.eager_sends = 0
        self.rdv_sends = 0
        self.unexpected_matches = 0

    # -- receive-side packet handlers -------------------------------------
    def _on_message(self, packet: Packet) -> None:
        p = packet.payload
        self._arrive(
            Message(
                context=p["context"],
                src=packet.src,
                tag=p["tag"],
                data=p["data"],
                nbytes=packet.data_bytes,
                arrived_at=self.sim.now,
            )
        )

    def _on_rts(self, packet: Packet) -> None:
        p = packet.payload
        self._arrive(
            Message(
                context=p["context"],
                src=packet.src,
                tag=p["tag"],
                data=None,
                nbytes=p["nbytes"],
                arrived_at=self.sim.now,
                rdv_id=p["rdv_id"],
            )
        )

    def _on_cts(self, packet: Packet) -> None:
        rdv_id = packet.payload["rdv_id"]
        data, nbytes, req_ev = self._rdv_out.pop(rdv_id)
        pkt = Packet(
            src=self.rank,
            dst=packet.src,
            kind="p2p.data",
            payload={"rdv_id": rdv_id, "data": data},
            data_bytes=nbytes,
        )
        self.nic.send(pkt)
        # the send request completes when the payload has left
        pkt.ev_injected.add_callback(lambda ev: req_ev.succeed(ev.value))

    def _on_data(self, packet: Packet) -> None:
        waiter = self._rdv_in.pop(packet.payload["rdv_id"], None)
        if waiter is None:
            raise RuntimeError(
                f"rank {self.rank}: rendezvous payload without a waiter"
            )
        req, msg = waiter
        self.sim.schedule_urgent_call(
            self._charge, req, msg, packet.payload["data"], 0.0)

    # -- matching -----------------------------------------------------------
    def _arrive(self, msg: Message) -> None:
        """Hand ``msg`` to the oldest matching posted receive, else queue
        it as unexpected."""
        posted = self._posted.get(msg.context)
        if posted:
            for i, (req, src, tag, posted_at) in enumerate(posted):
                if _accepts(src, tag, msg):
                    del posted[i]
                    if not posted:
                        del self._posted[msg.context]
                    self.sim.schedule_urgent_call(
                        self._matched, req, msg, posted_at)
                    return
        self._unexpected.setdefault(msg.context, []).append(msg)

    def _post(self, req: Request, src: int, tag: int, context: Tuple) -> None:
        """Match a new receive against the unexpected messages, else
        post it."""
        posted_at = self.sim.now
        queue = self._unexpected.get(context)
        if queue:
            for i, msg in enumerate(queue):
                if _accepts(src, tag, msg):
                    del queue[i]
                    if not queue:
                        del self._unexpected[context]
                    self._matched(req, msg, posted_at)
                    return
        self._posted.setdefault(context, []).append(
            (req, src, tag, posted_at))

    def _matched(self, req: Request, msg: Message, posted_at: float) -> None:
        if msg.rdv_id:
            # rendezvous: answer CTS; the payload lands directly in our
            # (posted) buffer
            self._rdv_in[msg.rdv_id] = (req, msg)
            self.nic.send(Packet(
                src=self.rank, dst=msg.src, kind="p2p.cts",
                payload={"rdv_id": msg.rdv_id},
            ))
            return
        copy_cost = 0.0
        if msg.arrived_at < posted_at:
            # eager + unexpected: it sat in the queue; pay the copy out
            # of the unexpected buffer
            self.unexpected_matches += 1
            copy_cost = msg.nbytes * self.timings.mem_copy_per_byte
        self._charge(req, msg, msg.data, copy_cost)

    def _charge(self, req: Request, msg: Message, data: Any,
                copy_cost: float) -> None:
        self.sim.schedule_call(
            self.nic.config.overhead_recv
            + msg.nbytes * self.timings.mem_copy_per_byte
            + copy_cost,
            self._complete, req, msg, data,
        )

    def _complete(self, req: Request, msg: Message, data: Any) -> None:
        req.status = Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
        self.recvs += 1
        req.event.succeed(data)

    # ------------------------------------------------------------------
    def isend(
        self, data: Any, dst: int, tag: int, context: Tuple,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, Request]:
        """Start a nonblocking send; returns a :class:`Request`.

        ``nbytes`` is the payload's wire size if the caller already
        knows it (a collective forwarding a received object passes the
        received :attr:`Status.nbytes`); otherwise it is measured with
        :func:`payload_nbytes`.

        Charges the sender's call + injection overhead before returning,
        which is why this is a generator.
        """
        if nbytes is None:
            nbytes = payload_nbytes(data)
        yield self.sim.timeout(
            self.timings.call_overhead + self.nic.config.overhead_send
        )
        self.sends += 1
        if nbytes <= self.eager_threshold:
            self.eager_sends += 1
            pkt = Packet(
                src=self.rank,
                dst=dst,
                kind="p2p.msg",
                payload={"context": context, "tag": tag, "data": data},
                data_bytes=nbytes,
            )
            self.nic.send(pkt)
            return Request(self.sim, event=pkt.ev_injected, kind="isend",
                           carries_errors=False)
        # rendezvous
        self.rdv_sends += 1
        rdv_id = next(_msg_ids)
        req_ev = self.sim.event()
        self._rdv_out[rdv_id] = (data, nbytes, req_ev)
        self.nic.send(Packet(
            src=self.rank,
            dst=dst,
            kind="p2p.rts",
            payload={"context": context, "tag": tag, "nbytes": nbytes,
                     "rdv_id": rdv_id},
        ))
        return Request(self.sim, event=req_ev, kind="isend-rdv",
                       carries_errors=False)

    def send(
        self, data: Any, dst: int, tag: int, context: Tuple,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, None]:
        """Blocking send (complete when the payload left this rank)."""
        req = yield from self.isend(data, dst, tag, context, nbytes)
        yield from req.wait()

    def irecv(self, src: int, tag: int, context: Tuple) -> Request:
        """Post a nonblocking receive; returns a :class:`Request` whose
        value is the received object."""
        req = Request(self.sim, kind="irecv", carries_errors=False)
        self.sim.schedule_urgent_call(self._post, req, src, tag, context)
        return req

    def recv(
        self, src: int, tag: int, context: Tuple
    ) -> Generator[Any, Any, Any]:
        """Blocking receive; returns the received object."""
        req = self.irecv(src, tag, context)
        data = yield from req.wait()
        return data

    def recv_status(
        self, src: int, tag: int, context: Tuple
    ) -> Generator[Any, Any, Tuple[Any, Status]]:
        """Blocking receive returning ``(data, Status)``."""
        req = self.irecv(src, tag, context)
        data = yield from req.wait()
        assert req.status is not None
        return data, req.status
