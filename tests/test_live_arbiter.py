"""The sans-IO place-policy arbiter, driven without sockets or a loop.

The :class:`~repro.runtime.live.arbiter.Arbiter` is a pure core: each
transition journals to an in-memory sink and returns the notices to
send as effects.  The unit cases pin grant and deny, the PLACE fence,
break-on-crash and drain settle; the hypothesis property drives random
operation sequences through a band-0 (central) and a banded (home)
arbiter and checks, after every step, that replaying the sink through
:class:`~repro.runtime.live.wal.WalState` reproduces the arbiter's
state, that the lock invariant holds, and that no transfer settles
twice.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.clock import WallClock
from repro.runtime.live import wal as wal_module
from repro.runtime.live.arbiter import Arbiter, orphan_verdict
from repro.runtime.live.wal import TRANSFER_BAND, WalRecord, WalState
from repro.runtime.live.wire import EVICT, RESTORE

WORKERS = (1, 2, 3)
NUM_OBJECTS = 6
#: Object ``oid`` starts at worker ``1 + oid % 3``.
PLACEMENT = {oid: WORKERS[oid % len(WORKERS)] for oid in range(NUM_OBJECTS)}
HOME_BAND = 2 * TRANSFER_BAND


class Journal:
    """In-memory sink: numbered records, as the WAL would hold them."""

    def __init__(self):
        self.records = [
            WalRecord(
                seq=1,
                kind=wal_module.INIT,
                data={
                    "num_objects": NUM_OBJECTS,
                    "workers": list(WORKERS),
                    "placement": {str(o): n for o, n in PLACEMENT.items()},
                },
            )
        ]

    def __call__(self, kind, data):
        self.records.append(
            WalRecord(seq=len(self.records) + 1, kind=kind, data=dict(data))
        )

    def kinds(self):
        return [record.kind for record in self.records[1:]]

    def replay(self) -> WalState:
        state = WalState()
        for record in self.records:
            state.apply(record)
        return state


def make_arbiter(band=0):
    journal = Journal()
    arbiter = Arbiter(WallClock(), 60.0, journal, band=band)
    arbiter.adopt(PLACEMENT)
    return arbiter, journal


class TestGrantAndDeny:
    def test_grant_opens_a_transfer_from_the_band(self):
        arbiter, journal = make_arbiter()
        reply = arbiter.decide(0, mover=2)
        assert reply["granted"] and reply["source"] == 1
        assert reply["transfer_id"] == 1
        assert journal.kinds() == [wal_module.GRANT]
        banded, _ = make_arbiter(band=HOME_BAND)
        assert banded.decide(0, mover=2)["transfer_id"] == HOME_BAND + 1

    def test_resident_mover_needs_no_transfer(self):
        arbiter, _ = make_arbiter()
        reply = arbiter.decide(0, mover=1)
        assert reply["granted"] and reply["transfer_id"] is None
        assert arbiter.transfers == {}

    def test_locked_object_is_denied_with_its_location(self):
        arbiter, journal = make_arbiter()
        arbiter.decide(0, mover=2)
        assert arbiter.decide(0, mover=3) == {"granted": False, "location": 1}
        assert (arbiter.grants, arbiter.denials) == (1, 1)
        assert journal.kinds() == [wal_module.GRANT]

    def test_an_arbiter_that_owns_nothing_answers_not_home(self):
        arbiter = Arbiter(WallClock(), 60.0, Journal())
        arbiter.placement.update(PLACEMENT)
        reply = arbiter.decide(0, mover=2)
        assert reply == {"granted": False, "location": 1, "not_home": True}

    def test_end_releases_the_lock_once(self):
        arbiter, journal = make_arbiter()
        block_id = arbiter.decide(0, mover=2)["block_id"]
        assert arbiter.end(block_id) == 1
        assert arbiter.end(block_id) == 0
        assert journal.kinds() == [wal_module.GRANT, wal_module.END]
        assert arbiter.decide(0, mover=3)["granted"]


class TestPlaceFence:
    def grant(self, arbiter, object_id=0, mover=2):
        return arbiter.decide(object_id, mover)["transfer_id"]

    def test_only_the_destination_commits(self):
        arbiter, _ = make_arbiter()
        tid = self.grant(arbiter)
        assert arbiter.place(tid, claimant=3) == (False, [])
        ok, effects = arbiter.place(tid, claimant=2)
        assert ok and effects == [(1, EVICT, arbiter.transfers[tid])]
        assert arbiter.placement[0] == 2

    def test_double_commit_and_rollback_after_commit_are_void(self):
        arbiter, journal = make_arbiter()
        tid = self.grant(arbiter)
        assert arbiter.place(tid, claimant=2)[0]
        assert arbiter.place(tid, claimant=2) == (False, [])
        assert arbiter.rollback(tid) == (False, [])
        assert journal.kinds() == [wal_module.GRANT, wal_module.PLACE]

    def test_rollback_restores_the_source_and_fences_place(self):
        arbiter, _ = make_arbiter()
        tid = self.grant(arbiter)
        ok, effects = arbiter.rollback(tid)
        assert ok and effects == [(1, RESTORE, arbiter.transfers[tid])]
        assert arbiter.place(tid, claimant=2) == (False, [])
        assert arbiter.placement[0] == 1

    def test_broken_block_fences_the_zombie_place(self):
        arbiter, _ = make_arbiter()
        tid = self.grant(arbiter)
        arbiter.break_node(2)
        assert arbiter.place(tid, claimant=2) == (False, [])
        assert arbiter.placement[0] == 1

    def test_unknown_transfer_is_fenced(self):
        arbiter, _ = make_arbiter()
        assert arbiter.place(99, claimant=2) == (False, [])
        assert arbiter.rollback(99) == (False, [])


class TestBreak:
    def test_dead_destination_rolls_back_and_restores_the_source(self):
        arbiter, journal = make_arbiter()
        grant = arbiter.decide(0, mover=2)
        broken, effects = arbiter.break_node(2)
        transfer = arbiter.transfers[grant["transfer_id"]]
        assert broken == 1
        assert effects == [(1, RESTORE, transfer)]
        assert transfer.state == "rolled_back"
        assert grant["block_id"] not in arbiter.blocks
        assert journal.kinds() == [
            wal_module.GRANT,
            wal_module.BREAK,
            wal_module.ROLLBACK,
        ]
        assert journal.records[2].data == {
            "node": 2,
            "block_ids": [grant["block_id"]],
        }
        arbiter.locks.check_invariant()

    def test_dead_source_fails_the_transfer_and_spares_the_mover(self):
        arbiter, journal = make_arbiter()
        grant = arbiter.decide(0, mover=2)
        broken, effects = arbiter.break_node(1)
        transfer = arbiter.transfers[grant["transfer_id"]]
        assert (broken, effects) == (0, [])
        assert transfer.state == "failed"
        assert grant["block_id"] in arbiter.blocks
        assert journal.kinds() == [wal_module.GRANT, wal_module.FAILED]

    def test_breaking_twice_journals_each_block_once(self):
        arbiter, journal = make_arbiter()
        arbiter.decide(0, mover=2)
        arbiter.break_node(2)
        assert arbiter.break_node(2) == (0, [])
        assert journal.kinds().count(wal_module.BREAK) == 1


class TestDrainSettle:
    def test_settle_rolls_back_pending_and_closes_open_blocks(self):
        arbiter, journal = make_arbiter()
        pending = arbiter.decide(0, mover=2)
        placed = arbiter.decide(1, mover=3)
        arbiter.place(placed["transfer_id"], claimant=3)
        leaked, effects = arbiter.settle()
        assert leaked == 2
        assert effects == [
            (1, RESTORE, arbiter.transfers[pending["transfer_id"]])
        ]
        assert arbiter.blocks == {}
        assert arbiter.verdicts() == {
            pending["transfer_id"]: "rolled_back",
            placed["transfer_id"]: "placed",
        }
        state = journal.replay()
        assert state.blocks == {} and state.in_doubt() == []
        arbiter.locks.check_invariant()


class TestReplayedArbiter:
    def test_load_resumes_fences_and_ids(self):
        arbiter, journal = make_arbiter(band=HOME_BAND)
        open_grant = arbiter.decide(0, mover=2)
        arbiter.decide(1, mover=3)
        resumed = Arbiter(WallClock(), 60.0, Journal(), band=HOME_BAND)
        resumed.adopt(PLACEMENT)
        resumed.load(journal.replay())
        assert set(resumed.blocks) == set(arbiter.blocks)
        assert resumed.decide(0, mover=3)["granted"] is False
        assert resumed.place(open_grant["transfer_id"], claimant=2)[0]
        assert resumed.decide(2, mover=1)["transfer_id"] == HOME_BAND + 3


def test_orphan_verdict_restores_one_copy_and_evicts_the_rest():
    hosted = {0: 1}
    assert orphan_verdict(0, 2, hosted) == EVICT
    assert orphan_verdict(5, 2, hosted) == RESTORE
    assert hosted[5] == 2
    assert orphan_verdict(5, 3, hosted) == EVICT


# -- the property: random operation sequences ---------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("decide"),
            st.integers(0, NUM_OBJECTS - 1),
            st.sampled_from(WORKERS),
        ),
        st.tuples(
            st.just("place"), st.integers(0, 20), st.sampled_from(WORKERS)
        ),
        st.tuples(st.just("rollback"), st.integers(0, 20)),
        st.tuples(st.just("end"), st.integers(0, 20)),
        st.tuples(st.just("break"), st.sampled_from(WORKERS)),
        st.tuples(st.just("settle")),
    ),
    max_size=40,
)


def _pick(table, index):
    keys = sorted(table)
    return keys[index % len(keys)] if keys else -1


def _step(arbiter, op):
    kind = op[0]
    if kind == "decide":
        arbiter.decide(op[1], op[2])
        return []
    if kind == "place":
        return arbiter.place(_pick(arbiter.transfers, op[1]), op[2])[1]
    if kind == "rollback":
        return arbiter.rollback(_pick(arbiter.transfers, op[1]))[1]
    if kind == "end":
        arbiter.end(_pick(arbiter.blocks, op[1]))
        return []
    if kind == "break":
        return arbiter.break_node(op[1])[1]
    return arbiter.settle()[1]


class TestArbiterMatchesItsJournal:
    @pytest.mark.parametrize("band", [0, HOME_BAND])
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_replayed_sink_reproduces_the_arbiter(self, band, ops):
        arbiter, journal = make_arbiter(band=band)
        notices = Counter()
        for op in ops:
            for _node, _kind, transfer in _step(arbiter, op):
                notices[transfer.transfer_id] += 1
            arbiter.locks.check_invariant()
            state = journal.replay()
            assert state.placement == arbiter.placement
            assert {
                tid: t.state for tid, t in state.transfers.items()
            } == arbiter.verdicts()
            assert set(state.blocks) == set(arbiter.blocks)
            for block_id, desc in state.blocks.items():
                block = arbiter.blocks[block_id]
                assert desc["client_node"] == block.client_node
        assert all(count == 1 for count in notices.values())
        settled = Counter(
            record.data["transfer_id"]
            for record in journal.records
            if record.kind
            in (wal_module.PLACE, wal_module.ROLLBACK, wal_module.FAILED)
        )
        assert all(count == 1 for count in settled.values())
        for tid in arbiter.transfers:
            assert tid // TRANSFER_BAND == band // TRANSFER_BAND
