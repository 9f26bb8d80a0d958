"""The place-policy arbiter, written once for every host.

§3.2 arbitration — grant or deny the move lock, commit the placement
at the PLACE fence, roll back, release at END, break a dead node's
blocks, settle everything at drain — is one sans-IO state machine,
:class:`Arbiter`.  It owns the real
:class:`~repro.core.locking.LockManager`, the lockable records and the
authoritative placement of the objects it arbitrates, the open
:class:`~repro.core.moveblock.MoveBlock`\\ s and the transfer table.  It
never sends: every transition journals to a *sink* (any callable
``sink(kind, data)`` taking WAL record kinds) and returns the
settlement notices to send as ``(node, kind, transfer)`` *effects*.

Two hosts run it:

* the supervisor in *central* mode is home for every object, with
  :meth:`ArbitrationWal.append <repro.runtime.live.wal.ArbitrationWal.append>`
  as its sink and transfer-id band 0 (ids 1, 2, 3, ...);
* a worker in *home* mode arbitrates only its slices, in band
  ``node_id * TRANSFER_BAND``; its sink forwards PLACE commits to the
  supervisor as the ``PLACE_NOTICE`` ownership mirror.  A demoted
  supervisor in home mode is an arbiter that owns nothing, so every
  move request it sees is answered ``not_home``.

:class:`ArbiterHost` is the thin asyncio shell both hosts share: span,
call the arbiter, reply, dispatch the effects through
:func:`~repro.runtime.live.transport.deliver_notice`.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.errors import PolicyError
from repro.runtime.live import wal as wal_module
from repro.runtime.live.transport import deliver_notice
from repro.runtime.live.wal import Transfer
from repro.runtime.live.wire import (
    END_REQUEST,
    EVICT,
    MOVE_REQUEST,
    PLACE,
    RESTORE,
    ROLLBACK,
    Envelope,
)

#: A settlement notice to send: ``(node, EVICT | RESTORE, transfer)``.
Effect = Tuple[int, str, Transfer]
#: ``sink(kind, data)``: where the arbiter journals its transitions.
Sink = Callable[[str, Dict[str, Any]], Any]

#: Envelope kinds an arbiter host serves through :class:`ArbiterHost`.
ARBITRATION_KINDS = frozenset((MOVE_REQUEST, PLACE, ROLLBACK, END_REQUEST))


class LiveObject:
    """A mobile object as a live worker hosts it.

    Duck-types the slots of
    :class:`~repro.runtime.objects.DistributedObject` that the lock
    manager and move-block machinery touch (``object_id``, ``name``,
    ``lock_holder``) and adds the transferable state: an opaque payload
    plus a version counter bumped by every invocation — the invariant
    checker uses versions to prove no invocation was applied to a
    stale duplicate.  The arbiter uses bare instances as its lockable
    records (lock state only: the hosted object may live anywhere).
    """

    __slots__ = ("object_id", "name", "payload", "version", "lock_holder")

    def __init__(self, object_id: int, payload: Any = None, version: int = 0):
        self.object_id = object_id
        self.name = f"obj-{object_id}"
        self.payload = payload
        self.version = version
        self.lock_holder = None

    def state(self) -> Dict[str, Any]:
        """Picklable transfer form."""
        return {
            "object_id": self.object_id,
            "payload": self.payload,
            "version": self.version,
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "LiveObject":
        return LiveObject(
            state["object_id"], state["payload"], state["version"]
        )

    def __repr__(self) -> str:
        return f"<LiveObject {self.name} v{self.version}>"


class DownSet:
    """``health`` adapter for ``LockManager.break_crashed``."""

    def __init__(self, down=()):
        self.down: Set[int] = set(down)

    def is_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is in the down set."""
        return node_id in self.down


def orphan_verdict(object_id: int, holder: int, hosted: Dict[int, int]) -> str:
    """Settle an in-transit copy whose transfer table is lost.

    The copy is evicted if its object is hosted somewhere, otherwise
    restored at ``holder``, which ``hosted`` then records, so a second
    orphaned copy of the same object is evicted.
    """
    if object_id in hosted:
        return EVICT
    hosted[object_id] = holder
    return RESTORE


class Arbiter:
    """Sans-IO §3.2 arbitration over the objects it owns."""

    def __init__(self, clock, lease_duration: float, sink: Sink, band: int = 0):
        self.locks = LockManager(clock=clock, lease_duration=lease_duration)
        #: object id -> lockable record, for the objects arbitrated here.
        self.records: Dict[int, LiveObject] = {}
        #: object id -> hosting node.  Authoritative for owned objects;
        #: a host may keep a mirror of others here.
        self.placement: Dict[int, int] = {}
        self.blocks: Dict[int, MoveBlock] = {}
        self.transfers: Dict[int, Transfer] = {}
        self.band = band
        self._seq = itertools.count(1)
        self.sink = sink
        self.grants = 0
        self.denials = 0

    def adopt(self, placement: Dict[int, int]) -> None:
        """Become the arbiter of these objects, at these placements."""
        for object_id, node in placement.items():
            self.placement[object_id] = node
            if object_id not in self.records:
                self.records[object_id] = LiveObject(object_id)

    def load(self, state: wal_module.WalState) -> None:
        """Resume from a replayed log: its fences are the ids it holds."""
        self.placement.update(state.placement)
        self.transfers.update(state.transfers)
        self._seq = itertools.count(max(state.max_transfer_id - self.band, 0) + 1)
        self.locks.import_lease_state(
            {
                "blocks": [
                    {
                        "block_id": block_id,
                        "client_node": desc["client_node"],
                        "object_ids": [desc["object_id"]],
                    }
                    for block_id, desc in state.blocks.items()
                ],
                "broken": state.broken_blocks,
            },
            self.records,
        )
        for block in self.locks.held_blocks():
            self.blocks[block.block_id] = block

    # -- the transitions ------------------------------------------------------

    def deny(self, object_id: int) -> Dict[str, Any]:
        """The "locked" answer: invoke the object where it is."""
        self.denials += 1
        return {"granted": False, "location": self.placement.get(object_id)}

    def decide(
        self,
        object_id: int,
        mover: int,
        trace: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, Any]:
        """Grant ``mover`` the lock on the object, or answer "locked".

        A grant to a mover that does not host the object opens a
        transfer, fenced by a fresh id from this arbiter's band.
        """
        record = self.records.get(object_id)
        if record is None:
            # Not ours: the mover's home map is stale or still warming up.
            return {
                "granted": False,
                "location": self.placement.get(object_id),
                "not_home": True,
            }
        if self.locks.is_locked(record):
            return self.deny(object_id)
        block = MoveBlock(client_node=mover, target=record)
        try:
            self.locks.lock(record, block)
        except PolicyError:
            # e.g. a broken (crash-suspected) mover retrying.
            return self.deny(object_id)
        self.grants += 1
        self.blocks[block.block_id] = block
        source = self.placement[object_id]
        transfer_id = None
        if source != mover:
            transfer_id = self.band + next(self._seq)
            self.transfers[transfer_id] = Transfer(
                transfer_id,
                object_id,
                source,
                mover,
                block.block_id,
                trace=trace,
            )
        # Journal, *then* reply: if the host dies between the two,
        # recovery revives the grant and the mover's timeout aborts it.
        self.sink(
            wal_module.GRANT,
            {
                "block_id": block.block_id,
                "object_id": object_id,
                "mover": mover,
                "source": source,
                "transfer_id": transfer_id,
            },
        )
        return {
            "granted": True,
            "source": source,
            "block_id": block.block_id,
            "transfer_id": transfer_id,
        }

    def place(self, transfer_id: int, claimant: int) -> Tuple[bool, List[Effect]]:
        """The linearization point: commit the transfer or fence it out.

        Only the transfer's destination may commit it, only while it is
        pending and its block is open and unbroken.  The journal record
        *is* the commit.
        """
        transfer = self.transfers.get(transfer_id)
        block = self.blocks.get(transfer.block_id) if transfer else None
        if (
            block is None
            or transfer.state != "pending"
            or transfer.dst != claimant
            or self.locks.was_broken(block)
        ):
            return False, []
        self.sink(wal_module.PLACE, {"transfer_id": transfer_id})
        transfer.state = "placed"
        self.placement[transfer.object_id] = transfer.dst
        return True, [(transfer.src, EVICT, transfer)]

    def rollback(self, transfer_id: int) -> Tuple[bool, List[Effect]]:
        """Abort a pending transfer: the source's copy is restored."""
        transfer = self.transfers.get(transfer_id)
        if transfer is None or transfer.state != "pending":
            return False, []
        return True, self._restore(transfer, wal_module.ROLLBACK)

    def revert(self, transfer_id: int) -> List[Effect]:
        """Undo a commit that never reached its destination."""
        transfer = self.transfers[transfer_id]
        effects = self._restore(transfer, wal_module.REVERT)
        self.placement[transfer.object_id] = transfer.src
        return effects

    def _restore(self, transfer: Transfer, kind: str) -> List[Effect]:
        self.sink(kind, {"transfer_id": transfer.transfer_id})
        transfer.state = "rolled_back"
        return [(transfer.src, RESTORE, transfer)]

    def end(self, block_id: int) -> int:
        """Close a move-block; returns the number of locks released."""
        block = self.blocks.pop(block_id, None)
        if block is None:
            return 0
        self.sink(wal_module.END, {"block_id": block_id})
        return self.locks.release_block(block)

    def break_node(self, node: int) -> Tuple[int, List[Effect]]:
        """A node died: break its blocks and settle its transfers.

        Broken blocks leave the block table for good, so a zombie's
        late PLACE fails the fence.  A pending transfer *to* the dead
        node is rolled back (its source keeps the copy); one *from* it
        failed with the held-back copy, and placement never moved, so
        the respawn re-seeds the object.
        """
        broken = self.locks.break_crashed(DownSet((node,)))
        block_ids = sorted(
            block_id
            for block_id, block in self.blocks.items()
            if self.locks.was_broken(block)
        )
        for block_id in block_ids:
            del self.blocks[block_id]
        if block_ids:
            self.sink(wal_module.BREAK, {"node": node, "block_ids": block_ids})
        effects: List[Effect] = []
        for transfer in self.transfers.values():
            if transfer.state != "pending":
                continue
            if transfer.dst == node:
                effects += self._restore(transfer, wal_module.ROLLBACK)
            elif transfer.src == node:
                self.sink(
                    wal_module.FAILED, {"transfer_id": transfer.transfer_id}
                )
                transfer.state = "failed"
        return broken, effects

    def settle(self) -> Tuple[int, List[Effect]]:
        """Drain: roll back every pending transfer, close every block.

        Returns the number of locks still held (blocks whose END never
        arrived) and the notices to send.
        """
        effects: List[Effect] = []
        for transfer in self.transfers.values():
            if transfer.state == "pending":
                effects += self._restore(transfer, wal_module.ROLLBACK)
        leaked = sum(self.end(block_id) for block_id in list(self.blocks))
        return leaked, effects

    def verdicts(self) -> Dict[int, str]:
        """transfer id -> state, for drain-time reconciliation."""
        return {tid: t.state for tid, t in self.transfers.items()}


class ArbiterHost:
    """The serve code every arbiter host shares.

    A host provides ``arbiter``, ``transport``, ``clock``,
    ``telemetry``, ``node_id``, ``request_timeout``, ``notice_budget``
    and a ``_notices`` set; it routes every kind in
    :data:`ARBITRATION_KINDS` to :meth:`serve_arbitration`.  While
    ``_grants_frozen`` is set, every move request is denied.
    """

    _grants_frozen = False

    async def serve_arbitration(self, envelope: Envelope) -> None:
        """Serve one MOVE_REQUEST, PLACE, ROLLBACK or END_REQUEST."""
        kind = envelope.kind
        if kind == MOVE_REQUEST:
            await self._serve_move_request(envelope)
        elif kind == PLACE:
            await self._serve_place(envelope)
        elif kind == ROLLBACK:
            await self._serve_rollback(envelope)
        else:
            released = self.arbiter.end(envelope.payload["block_id"])
            await self.transport.reply(envelope, {"released": released})

    def _span(self, name: str, envelope: Envelope, **attrs):
        """A span joining the envelope's trace (None when tracing is off)."""
        if not self.telemetry.enabled:
            return None
        return self.telemetry.start_span(
            name, node=self.node_id, remote=envelope.trace, detached=True,
            **attrs,
        )

    def _mark(self, name: str, envelope: Envelope, **attrs) -> None:
        """An instantaneous span joining the envelope's trace."""
        span = self._span(name, envelope, **attrs)
        if span is not None:
            self.telemetry.end_span(span)

    async def _serve_move_request(self, envelope: Envelope) -> None:
        """§3.2 at the arbiter: grant the lock or answer "locked".

        The ``live.grant`` span joins the mover's migration trace (the
        MOVE_REQUEST envelope carries its ``live.move`` context), so one
        migration renders as a single cross-process span tree.
        """
        object_id = envelope.payload["object_id"]
        span = self._span("live.grant", envelope, object=object_id)
        if self._grants_frozen:
            reply = self.arbiter.deny(object_id)
        else:
            reply = self.arbiter.decide(object_id, envelope.src, envelope.trace)
        if span is not None:
            self.telemetry.end_span(span, granted=reply["granted"])
        await self.transport.reply(envelope, reply)

    async def _serve_place(self, envelope: Envelope) -> None:
        await self._serve_fenced(
            envelope,
            "live.place",
            lambda transfer_id: self.arbiter.place(transfer_id, envelope.src),
        )

    async def _serve_rollback(self, envelope: Envelope) -> None:
        await self._serve_fenced(envelope, "live.rollback", self.arbiter.rollback)

    async def _serve_fenced(self, envelope: Envelope, name: str, transition):
        """Run a PLACE or ROLLBACK transition, send its notices, reply."""
        transfer_id = envelope.payload["transfer_id"]
        span = self._span(name, envelope, transfer=transfer_id)
        ok, effects = transition(transfer_id)
        self._dispatch(effects)
        if span is not None:
            self.telemetry.end_span(span, ok=ok)
        await self.transport.reply(envelope, {"ok": ok})

    def _dispatch(self, effects: List[Effect]) -> None:
        for node, kind, transfer in effects:
            self._notify(node, kind, transfer)

    def _notify(self, node: int, kind: str, transfer: Transfer) -> None:
        """Fire-and-forget settlement notice to a transfer's source.

        Retried until delivered or ``notice_budget`` runs out (see
        :func:`~repro.runtime.live.transport.deliver_notice`).  A
        crashed source is the one acceptable drop: its respawn is
        re-seeded from the placement map anyway.
        """
        self._send_notice(
            node,
            kind,
            {
                "transfer_id": transfer.transfer_id,
                "object_id": transfer.object_id,
            },
            trace=transfer.trace,
        )

    def _send_notice(
        self,
        node: int,
        kind: str,
        payload: Dict[str, Any],
        trace: Optional[Tuple[int, int]] = None,
        budget: Optional[float] = None,
    ) -> None:
        task = asyncio.ensure_future(
            deliver_notice(
                self.transport,
                self.clock,
                node,
                kind,
                payload,
                timeout=self.request_timeout,
                budget=self.notice_budget if budget is None else budget,
                trace=trace,
            )
        )
        self._notices.add(task)
        task.add_done_callback(self._notices.discard)

    async def _await_notices(self, timeout: float) -> None:
        """Give the outstanding notices up to ``timeout`` seconds."""
        deadline = self.clock.deadline(timeout)
        while self._notices and not self.clock.expired(deadline):
            await asyncio.sleep(0.02)


__all__ = [
    "ARBITRATION_KINDS",
    "Arbiter",
    "ArbiterHost",
    "DownSet",
    "Effect",
    "LiveObject",
    "orphan_verdict",
]
