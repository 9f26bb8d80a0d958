"""Graceful degradation under live-transport conditions (satellite 3).

Two families of guarantees:

1. **False suspicion must be harmless.**  A phi-accrual detector fed
   wall-clock heartbeat intervals with delay spikes (GC pauses, loaded
   event loops) must not declare a live node down — and therefore the
   supervisor must not break a healthy in-flight migration's leases.
2. **True crash recovery must hold the lock invariants** from
   ``tests/test_core_lock_races.py``, now on a wall clock: after
   ``break_crashed`` the dead mover's block is barred forever, its
   late ``PLACE`` is fenced out, and fresh movers proceed.
"""

import asyncio

import pytest

from repro.core.locking import LockManager
from repro.core.moveblock import MoveBlock
from repro.errors import PolicyError
from repro.runtime.clock import WallClock
from repro.runtime.failure import HeartbeatHistory
from repro.runtime.live.node import LiveNodeWorker, LiveObject
from repro.runtime.live.supervisor import (
    NodeSupervisor,
    SupervisorConfig,
    Transfer,
)
from repro.runtime.live.transport import (
    AsyncioTransport,
    FaultyTransport,
    unix_supported,
)
from repro.runtime.live.wire import (
    EVICT,
    HOME_ASSIGN,
    HOME_MAP,
    INVENTORY,
    MOVE_REQUEST,
    OBJECT_TRANSFER,
    RESTORE,
    SUPERVISOR,
    Envelope,
)


class TestPhiUnderDelaySpikes:
    """The detector's verdict on realistic wall-clock interval traces."""

    def feed(self, history, intervals, start=0.0):
        now = start
        history.ensure(1, now)
        for gap in intervals:
            now += gap
            history.record(1, now)
        return now

    def test_steady_heartbeats_keep_phi_low(self):
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        now = self.feed(history, [0.1] * 50)
        assert history.phi(1, now + 0.1) < 8.0
        assert not history.is_down(1, now + 0.1)

    def test_delay_spike_does_not_trigger_false_suspicion(self):
        """A 3x delay spike (loaded loop, GC pause) stays below phi=8.

        This is the property that keeps the supervisor from aborting a
        healthy in-flight migration: the mover is slow, not dead.
        """
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        now = self.feed(history, [0.1] * 30)
        # The spike: next heartbeat takes 0.3s instead of 0.1s.
        assert not history.is_down(1, now + 0.3)
        assert history.phi(1, now + 0.3) < 8.0
        # After the spike lands, confidence recovers immediately.
        history.record(1, now + 0.3)
        assert not history.is_down(1, now + 0.4)

    def test_true_silence_is_eventually_suspected(self):
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        now = self.feed(history, [0.1] * 30)
        assert history.is_down(1, now + 5.0), "real death must be detected"

    def test_jittery_trace_with_spikes_never_crosses_threshold(self):
        history = HeartbeatHistory(interval=0.1, phi_threshold=8.0)
        trace = ([0.08, 0.12, 0.1, 0.11, 0.09] * 6) + [0.25, 0.1, 0.3, 0.1]
        now = self.feed(history, trace)
        for probe in (0.05, 0.15, 0.25):
            assert not history.is_down(1, now + probe), (
                f"false suspicion at +{probe}s over a jittery live trace"
            )


class TestFalseSuspicionSparesHealthyMigration:
    """break_crashed with a healthy verdict must not touch live blocks."""

    class Health:
        def __init__(self, down=()):
            self.down = set(down)

        def is_down(self, node_id):
            return node_id in self.down

    def test_no_suspicion_no_breakage(self):
        locks = LockManager(clock=WallClock(), lease_duration=60.0)
        obj = LiveObject(7)
        block = MoveBlock(client_node=1, target=obj)
        locks.lock(obj, block)
        assert locks.break_crashed(self.Health(down=())) == 0
        assert locks.is_locked(obj), "healthy mover keeps its lock"
        assert not locks.was_broken(block)
        locks.check_invariant()

    def test_suspicion_of_another_node_spares_the_mover(self):
        locks = LockManager(clock=WallClock(), lease_duration=60.0)
        obj = LiveObject(7)
        block = MoveBlock(client_node=1, target=obj)
        locks.lock(obj, block)
        assert locks.break_crashed(self.Health(down={3})) == 0
        assert locks.is_locked(obj)
        locks.check_invariant()


class RecordingTransport:
    """Stub transport capturing replies/notices; no sockets involved."""

    def __init__(self):
        self.replies = []
        self.requests = []

    async def reply(self, envelope, payload=None):
        self.replies.append((envelope, payload))

    async def request(self, dst, kind, payload=None, timeout=None):
        self.requests.append((dst, kind, payload))
        return Envelope("reply", dst, -1, (dst, 1), {"ok": True})


class TestRestartLeaseRecovery:
    """Supervisor crash recovery against the real LockManager."""

    def make_supervisor(self):
        config = SupervisorConfig(num_nodes=3, num_objects=8)
        supervisor = NodeSupervisor(config)
        supervisor.transport = RecordingTransport()
        return supervisor

    def grant(self, supervisor, mover, object_id):
        """Drive _serve_move_request and return the granted payload."""
        envelope = Envelope(
            "move.request", mover, -1, (mover, 1), {"object_id": object_id}
        )
        asyncio.run(supervisor._serve_move_request(envelope))
        _, payload = supervisor.transport.replies[-1]
        return payload

    def test_break_crashed_recovers_lease_and_bars_block(self):
        supervisor = self.make_supervisor()
        grant = self.grant(supervisor, mover=2, object_id=0)
        assert grant["granted"]
        block = supervisor.blocks[grant["block_id"]]
        record = supervisor.records[0]
        assert supervisor.locks.is_locked(record)

        # Node 2 crashes: the monitor's recovery path, minus sockets.
        supervisor.health.down.add(2)
        broken = supervisor.locks.break_crashed(supervisor.health)
        assert broken == 1
        assert not supervisor.locks.is_locked(record)
        assert supervisor.locks.was_broken(block)
        supervisor.locks.check_invariant()

        # The same-tick renewal race from test_core_lock_races: the
        # dead mover's block can never re-acquire.
        with pytest.raises(PolicyError):
            supervisor.locks.lock(record, block)

        # A fresh mover proceeds immediately — degradation, not outage.
        fresh = self.grant(supervisor, mover=3, object_id=0)
        assert fresh["granted"]

    def test_zombie_place_is_fenced_after_break(self):
        """A crash-suspected mover's late PLACE must not commit."""
        supervisor = self.make_supervisor()
        grant = self.grant(supervisor, mover=2, object_id=0)
        transfer_id = grant["transfer_id"]
        assert transfer_id is not None
        source = grant["source"]

        supervisor.health.down.add(2)
        supervisor.locks.break_crashed(supervisor.health)

        # The zombie's PLACE arrives after the break.
        envelope = Envelope(
            "place", 2, -1, (2, 99), {"transfer_id": transfer_id}
        )
        asyncio.run(supervisor._serve_place(envelope))
        _, payload = supervisor.transport.replies[-1]
        assert payload == {"ok": False}, "fence must reject the zombie"
        assert supervisor.placement[0] == source, "placement unmoved"

    def test_crashed_destination_rolls_back_pending_transfer(self):
        supervisor = self.make_supervisor()
        grant = self.grant(supervisor, mover=2, object_id=0)
        transfer = supervisor.transfers[grant["transfer_id"]]
        assert transfer.state == "pending"

        # Mirror _restart_inner's transfer settlement for a dead dst.
        supervisor.health.down.add(2)
        supervisor.locks.break_crashed(supervisor.health)
        for t in supervisor.transfers.values():
            if t.state == "pending" and t.dst == 2:
                t.state = "rolled_back"

        assert transfer.state == "rolled_back"
        assert supervisor.placement[0] == transfer.src
        supervisor.locks.check_invariant()


class TestTransferFence:
    def test_place_requires_pending_state_and_matching_dst(self):
        supervisor = TestRestartLeaseRecovery().make_supervisor()
        # Object 2 is seeded at node 3 (round-robin), so mover 2's
        # grant creates a real transfer.
        grant = TestRestartLeaseRecovery().grant(
            supervisor, mover=2, object_id=2
        )
        transfer_id = grant["transfer_id"]
        assert transfer_id is not None

        # Wrong claimant: node 3 cannot commit node 2's transfer.
        envelope = Envelope(
            "place", 3, -1, (3, 1), {"transfer_id": transfer_id}
        )
        asyncio.run(supervisor._serve_place(envelope))
        _, payload = supervisor.transport.replies[-1]
        assert payload == {"ok": False}

        # Rightful claimant commits exactly once.
        envelope = Envelope(
            "place", 2, -1, (2, 2), {"transfer_id": transfer_id}
        )
        asyncio.run(supervisor._serve_place(envelope))
        _, payload = supervisor.transport.replies[-1]
        assert payload == {"ok": True}
        assert supervisor.placement[2] == 2

        # Replayed commit after a rollback attempt: both fenced.
        envelope = Envelope(
            "rollback", 2, -1, (2, 3), {"transfer_id": transfer_id}
        )
        asyncio.run(supervisor._serve_rollback(envelope))
        _, payload = supervisor.transport.replies[-1]
        assert payload == {"ok": False}, "rollback after commit is void"


class _DropFirstEvict(FaultyTransport):
    """Data-plane filter that loses the first EVICT notice it sees."""

    def plan(self, envelope):
        if envelope.kind == EVICT and not self.injected_drops:
            self.injected_drops += 1
            return []
        return super().plan(envelope)


class TestHomeSettlementNotices:
    """A home-granted transfer's lost EVICT must be re-sent.

    Three in-process workers under home arbitration: node 0 is home for
    the only slice, node 1 moves object 0 away from node 2.  The home's
    first EVICT after the PLACE commit is dropped on the wire; the
    source must still release its held-back copy, and the supervisor's
    hosted-exactly-once audit must pass on the workers' inventories.
    """

    PLACEMENT = {0: 2, 1: 0, 2: 1}

    async def scenario(self, tmp_path):
        nodes = (SUPERVISOR, 0, 1, 2)
        if unix_supported():
            peers = {
                n: ("unix", str(tmp_path / f"n{n + 1}.sock")) for n in nodes
            }
        else:  # pragma: no cover - platform without Unix sockets
            peers = {n: ("tcp", "127.0.0.1", 42100 + n) for n in nodes}
        workers = {
            n: LiveNodeWorker(
                n,
                peers[n],
                peers,
                [
                    LiveObject(oid).state()
                    for oid, where in self.PLACEMENT.items()
                    if where == n
                ],
                request_timeout=0.5,
                arbitration="home",
                num_slices=1,
            )
            for n in (0, 1, 2)
        }
        home = workers[0]
        dropper = _DropFirstEvict(home.transport)
        control = AsyncioTransport(SUPERVISOR, peers[SUPERVISOR], peers)

        async def acknowledge(envelope):  # PLACE_NOTICE mirrors
            await control.reply(envelope, {"ok": True})

        control.handler = acknowledge
        await control.start()
        for worker in workers.values():
            worker.transport.handler = worker.handle
            await worker.transport.start()
        try:
            await control.request(
                0, HOME_ASSIGN, {"slices": [0], "placement": self.PLACEMENT}
            )
            for n in (0, 1, 2):
                await control.request(
                    n, HOME_MAP, {"map": {0: 0}, "num_slices": 1}
                )
            await workers[1]._move_block(0, invokes=2)
            assert workers[1].stats.migrations == 1
            assert dropper.injected_drops == 1
            # Let the settlement notices run their course.
            for _ in range(100):
                if not home._notices:
                    break
                await asyncio.sleep(0.05)
            inventories = {}
            for n in (0, 1, 2):
                reply = await control.request(n, INVENTORY, timeout=2.0)
                inventories[n] = reply.payload
            return workers, inventories
        finally:
            for worker in workers.values():
                await worker.transport.close()
            await control.close()

    def test_lost_evict_is_retried_until_the_copy_is_released(
        self, tmp_path
    ):
        workers, inventories = asyncio.run(
            asyncio.wait_for(self.scenario(tmp_path), 30.0)
        )
        assert workers[2].in_transit == {}, "held-back copy leaked"
        assert inventories[2]["in_transit"] == []
        audit = NodeSupervisor(
            SupervisorConfig(
                num_nodes=3, num_objects=3, socket_dir=str(tmp_path)
            )
        )
        audit.placement = dict(workers[0].home_placement)
        assert audit.placement[0] == 1
        assert audit._audit(inventories) == []


class _DropRestores(FaultyTransport):
    """Data-plane filter that loses every RESTORE notice it sees."""

    def plan(self, envelope):
        if envelope.kind == RESTORE:
            self.injected_drops += 1
            return []
        return super().plan(envelope)


class TestDrainReconcilesHomeGrantedTransfers:
    """Drain must settle a home-granted transfer whose notices are lost.

    Three in-process workers (nodes 1..3) under home arbitration: node
    1 is home for the only slice.  Node 2 is granted object 0 (hosted
    at node 3) and pulls it, so node 3 holds the held-back copy, but
    node 2 never sends PLACE.  At drain the home rolls the transfer
    back, and every RESTORE it sends is dropped on the wire.  The
    supervisor's SETTLE, reconciliation and audit must still leave
    object 0 hosted exactly once, at node 3.
    """

    PLACEMENT = {0: 3, 1: 1, 2: 2}

    async def scenario(self, tmp_path):
        nodes = (SUPERVISOR, 1, 2, 3)
        if unix_supported():
            peers = {
                n: ("unix", str(tmp_path / f"n{n + 1}.sock")) for n in nodes
            }
        else:  # pragma: no cover - platform without Unix sockets
            peers = {n: ("tcp", "127.0.0.1", 42200 + n) for n in nodes}
        workers = {
            n: LiveNodeWorker(
                n,
                peers[n],
                peers,
                [
                    LiveObject(oid).state()
                    for oid, where in self.PLACEMENT.items()
                    if where == n
                ],
                request_timeout=0.5,
                arbitration="home",
                num_slices=1,
                notice_budget=0.5,
            )
            for n in (1, 2, 3)
        }
        dropper = _DropRestores(workers[1].transport)
        control = AsyncioTransport(SUPERVISOR, peers[SUPERVISOR], peers)

        async def acknowledge(envelope):  # PLACE_NOTICE mirrors
            await control.reply(envelope, {"ok": True})

        control.handler = acknowledge
        await control.start()
        for worker in workers.values():
            worker.transport.handler = worker.handle
            await worker.transport.start()
        supervisor = NodeSupervisor(
            SupervisorConfig(
                num_nodes=3,
                num_objects=3,
                socket_dir=str(tmp_path),
                arbitration="home",
                request_timeout=0.5,
                drain_timeout=2.0,
            )
        )
        supervisor.transport = control
        try:
            await control.request(
                1, HOME_ASSIGN, {"slices": [0], "placement": self.PLACEMENT}
            )
            for n in (1, 2, 3):
                await control.request(
                    n, HOME_MAP, {"map": {0: 1}, "num_slices": 1}
                )
            mover = workers[2].transport
            grant = await mover.request(1, MOVE_REQUEST, {"object_id": 0})
            assert grant.payload["granted"] and grant.payload["source"] == 3
            transfer_id = grant.payload["transfer_id"]
            await mover.request(
                3,
                OBJECT_TRANSFER,
                {"object_id": 0, "transfer_id": transfer_id},
            )
            assert transfer_id in workers[3].in_transit
            # Drain: SETTLE at every home, then reconcile and audit.
            leaked, violations = await supervisor._settle_homes()
            assert dropper.injected_drops >= 1
            inventories = await supervisor._inventories()
            for _ in range(3):
                if not await supervisor._reconcile_in_transit(inventories):
                    break
                inventories = await supervisor._inventories()
            return violations + supervisor._audit(inventories)
        finally:
            for worker in workers.values():
                await worker.transport.close()
            await control.close()

    def test_lost_restore_is_settled_by_reconciliation(self, tmp_path):
        violations = asyncio.run(
            asyncio.wait_for(self.scenario(tmp_path), 30.0)
        )
        assert violations == []
