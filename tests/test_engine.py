import pytest

from ndpsync.cli import RunConfig, run_once
from ndpsync.engine import WAKE_ALL, Coordinator
from ndpsync.errors import ProtocolError
from ndpsync.messages import LOCAL, Message, Opcode
from ndpsync.sim import Simulation
from ndpsync.topology import SCHEMES, SystemConfig
from ndpsync.verifier import verify_trace
from ndpsync.workloads import WORKLOAD_NAMES, make_workload
from script_workload import Script


def run_script(steps, units=2, cores=3, scheme="syncron", **cfg_kw):
    cfg = SystemConfig(num_units=units, cores_per_unit=cores, scheme=scheme, **cfg_kw)
    sim = Simulation(cfg, Script(cfg, steps), trace=True)
    stats = sim.run()
    return stats, sim


# -- two-unit lock walkthrough ---------------------------------------------------


def replay_two_unit_contention(scheme):
    # 2 units x 2 clients, everyone grabs the same unit-0 lock at t=0
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme=scheme)
    wl = make_workload(cfg, "lock", seed=0, params={"iterations": 1, "interval": 0})
    sim = Simulation(cfg, wl, trace=True)
    stats = sim.run()
    return stats, sim


def test_two_unit_lock_grant_order_and_message_counts():
    stats, sim = replay_two_unit_contention("syncron")
    order = [(r.unit, r.local) for r in sim.trace if r.kind == "cs_enter"]
    # master's unit first (closest requests), then the remote unit in fifo order
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the remote unit aggregates: one global acquire, one global release
    assert stats.by_opcode["lock_acquire_global"] == 1
    assert stats.by_opcode["lock_release_global"] == 1
    assert stats.by_opcode["lock_grant_global"] == 1
    assert stats.by_opcode["lock_acquire_local"] == 4
    assert stats.by_opcode["lock_grant_local"] == 4
    assert stats.by_opcode["lock_release_local"] == 4
    assert verify_trace(sim.trace, sim.workload.expected_ops()) == []


def test_two_unit_contention_same_pattern_under_hier_plus_state_traffic():
    s_stats, _ = replay_two_unit_contention("syncron")
    h_stats, h_sim = replay_two_unit_contention("hier")
    keys = {k for k in s_stats.by_opcode} | {k for k in h_stats.by_opcode}
    assert {k: h_stats.by_opcode.get(k, 0) for k in keys} == \
           {k: s_stats.by_opcode.get(k, 0) for k in keys}
    # software servers pay cache/memory traffic for every state update
    assert h_stats.energy_cache_fj > 0
    assert h_stats.mem_sync_var > 0
    assert s_stats.energy_cache_fj == 0
    assert s_stats.mem_sync_var == 0
    assert verify_trace(h_sim.trace, h_sim.workload.expected_ops()) == []


def test_flat_pays_more_inter_unit_traffic_on_remote_lock():
    # every client hammers a unit-0 lock; under flat, remote cores cross per request
    def one(scheme):
        cfg = SystemConfig(num_units=4, cores_per_unit=16, scheme=scheme)
        wl = make_workload(cfg, "lock", seed=0, params={"iterations": 10})
        return Simulation(cfg, wl).run()

    flat, syn = one("flat"), one("syncron")
    assert flat.bytes_inter > syn.bytes_inter
    assert flat.messages_inter > syn.messages_inter


# -- overflow paths ------------------------------------------------------------


def test_non_master_divert_emits_overflow_acquire():
    # ST size 1 at the non-master engine: unit-1 holds lock A when B arrives
    A, B = 64, 128  # both mastered by unit 0, distinct counter slots
    steps = {
        2: [("lock_acquire", A), ("compute", 10_000), ("lock_release", A)],
        3: [("compute", 500), ("lock_acquire", B), ("lock_release", B)],
    }
    stats, sim = run_script(steps, st_entries=1)
    assert stats.by_opcode["lock_acquire_overflow"] == 1
    assert stats.by_opcode["lock_grant_overflow"] == 1
    assert stats.by_opcode["lock_release_overflow"] == 1
    assert stats.by_opcode["decrease_indexing_counter"] == 1
    assert stats.sync_overflowed > 0
    assert stats.counters_end_total == 0
    assert verify_trace(sim.trace) == []


def test_master_full_table_services_via_memory():
    # one unit, ST size 1, two overlapping locks: the second lives in memory
    A, B = 64, 128
    steps = {
        0: [("lock_acquire", A), ("compute", 10_000), ("lock_release", A)],
        1: [("compute", 500), ("lock_acquire", B), ("lock_release", B)],
    }
    stats, sim = run_script(steps, units=1, st_entries=1)
    assert stats.sync_overflowed > 0
    assert stats.mem_sync_var >= 2  # at least read + write per memory service
    assert stats.counters_end_total == 0
    assert stats.overflow_fraction > 0
    assert verify_trace(sim.trace) == []


def test_entry_migrates_to_memory_when_overflow_request_arrives():
    # unit-0 core holds A (table entry at the master); unit-1's full table
    # diverts its request for A, forcing the master entry into memory
    A, B = 64, 128
    steps = {
        0: [("lock_acquire", A), ("compute", 40_000), ("lock_release", A)],
        2: [("compute", 100), ("lock_acquire", B), ("compute", 40_000), ("lock_release", B)],
        3: [("compute", 2_000), ("lock_acquire", A), ("lock_release", A)],
    }
    stats, sim = run_script(steps, st_entries=1)
    assert stats.by_opcode["lock_acquire_overflow"] == 1
    assert stats.by_opcode["lock_grant_overflow"] == 1
    assert stats.mem_sync_var > 0  # record reads/writes at the master
    assert stats.counters_end_total == 0
    order = [(r.unit, r.local) for r in sim.trace if r.kind == "cs_enter" and r.addr == A]
    assert order == [(0, 0), (1, 1)]
    assert verify_trace(sim.trace) == []


def test_decrease_at_zero_counter_rejected():
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 1)
    with pytest.raises(ProtocolError):
        coord.handle(Message(64, Opcode.DECREASE_INDEXING_COUNTER, 0, 0))


# -- lock protocol edges ----------------------------------------------------------


def test_release_by_non_owner_rejected():
    cfg = SystemConfig(num_units=1, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    out = coord.handle(Message(64, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    assert any(m.opcode is Opcode.LOCK_GRANT_LOCAL for _, m in out.sends)
    with pytest.raises(ProtocolError):
        coord.handle(Message(64, Opcode.LOCK_RELEASE_LOCAL, 1, 0))


def test_release_global_by_non_owner_rejected():
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    coord.handle(Message(64, Opcode.LOCK_ACQUIRE_GLOBAL, 1, 0))
    with pytest.raises(ProtocolError):
        coord.handle(Message(64, Opcode.LOCK_RELEASE_GLOBAL, 1, 0))
        coord.handle(Message(64, Opcode.LOCK_RELEASE_GLOBAL, 1, 0))


def sent(out, op):
    return [(dst, m) for dst, m in out.sends if m.opcode is op]


def test_non_master_lock_asks_once_and_grant_goes_to_lowest_local_core():
    # unit 1 is not A's master: its request for the unit is out while A has no owner
    A = 64
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 1)
    assert not coord.is_master_for(A)
    outs = [coord.handle(Message(A, Opcode.LOCK_ACQUIRE_LOCAL, core, 0)) for core in (1, 0)]
    asks = [x for out in outs for x in sent(out, Opcode.LOCK_ACQUIRE_GLOBAL)]
    assert asks == [(("coord", 0), Message(A, Opcode.LOCK_ACQUIRE_GLOBAL, 1, 0))]
    out = coord.handle(Message(A, Opcode.LOCK_GRANT_GLOBAL, 0, 0))
    assert out.sends == [(("core", 1, 0), Message(A, Opcode.LOCK_GRANT_LOCAL, 0, 0))]
    with pytest.raises(ProtocolError, match="unsolicited lock grant"):
        coord.handle(Message(A, Opcode.LOCK_GRANT_GLOBAL, 0, 0))
    with pytest.raises(ProtocolError, match="unsolicited lock grant"):
        coord.handle(Message(128, Opcode.LOCK_GRANT_GLOBAL, 0, 0))


def test_non_master_condvar_announces_while_its_entry_exists():
    # the waiters' lock L lives on their unit 1, the condvar CV on unit 0
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    CV, L = 64, cfg.unit_mem_bytes + 64
    coord = Coordinator(cfg, 1)
    assert coord.is_master_for(L) and not coord.is_master_for(CV)
    announce = Message(CV, Opcode.COND_WAIT_GLOBAL, 1, L)
    waits = []
    for core in (0, 1):
        coord.handle(Message(L, Opcode.LOCK_ACQUIRE_LOCAL, core, 0))
        waits += sent(coord.handle(Message(CV, Opcode.COND_WAIT_LOCAL, core, L)),
                      Opcode.COND_WAIT_GLOBAL)
    assert waits == [(("coord", 0), announce)]
    # one wake: core 0 resumes, core 1 still waits, so the unit announces again
    first = coord.handle(Message(CV, Opcode.COND_GRANT_GLOBAL, 0, 1))
    assert first.internal == [Message(L, Opcode.LOCK_ACQUIRE_LOCAL, 0, CV)]
    assert sent(first, Opcode.COND_WAIT_GLOBAL) == [(("coord", 0), announce)]
    # the last wake frees the entry
    last = coord.handle(Message(CV, Opcode.COND_GRANT_GLOBAL, 0, 1))
    assert last.internal == [Message(L, Opcode.LOCK_ACQUIRE_LOCAL, 1, CV)]
    assert last.sends == [] and last.table_events == [("st_release", CV)]
    assert CV not in coord.meta
    # core 0 re-acquires L, waits again, and the fresh entry is announced afresh
    coord.handle(first.internal[0])
    coord.handle(last.internal[0])
    again = coord.handle(Message(CV, Opcode.COND_WAIT_LOCAL, 0, L))
    assert sent(again, Opcode.COND_GRANT_LOCAL) == [
        (("core", 1, 1), Message(CV, Opcode.COND_GRANT_LOCAL, 1, L))]
    assert sent(again, Opcode.COND_WAIT_GLOBAL) == [(("coord", 0), announce)]


# -- one primitive per variable -------------------------------------------------------


def non_master_with(entry):
    """Unit 1 of a 2x3 syncron system, non-master for 0x40 and 0x80, where
    core (1, 0) has a lock request out on 0x40 ("lock") or, having held lock
    0x80, is parked in a wait on condvar 0x40 ("condvar")."""
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 1)
    if entry == "lock":
        coord.handle(Message(0x40, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    else:
        coord.handle(Message(0x80, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
        coord.handle(Message(0x80, Opcode.LOCK_GRANT_GLOBAL, 0, 0))
        coord.handle(Message(0x40, Opcode.COND_WAIT_LOCAL, 0, 0x80))
    assert coord.meta[0x40].primitive == entry and coord.meta[0x40].locals == 1
    return coord


@pytest.mark.parametrize("entry, grant, used_as", [
    ("condvar", Opcode.LOCK_GRANT_GLOBAL, "lock"),
    ("lock", Opcode.SEM_GRANT_GLOBAL, "semaphore"),
    ("lock", Opcode.BARRIER_DEPART_GLOBAL, "barrier"),
    ("lock", Opcode.COND_GRANT_GLOBAL, "condvar"),
], ids=["lock-grant-to-condvar", "sem-grant-to-lock", "barrier-depart-to-lock",
        "cond-grant-to-lock"])
def test_global_grant_for_another_primitive_rejected(entry, grant, used_as):
    # the parked core must not be woken by a grant meant for another primitive
    coord = non_master_with(entry)
    with pytest.raises(ProtocolError,
                       match=f"^variable 0x40 used as {used_as} but live as {entry}$"):
        coord.handle(Message(0x40, grant, 0, 1))
    assert coord.meta[0x40].locals == 1 and coord.meta[0x40].owner is None


def test_request_for_another_primitive_rejected_before_any_change():
    # at the master: a local request, and an overflow request that would
    # otherwise first move the lock's entry into memory
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    coord.handle(Message(0x40, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    with pytest.raises(ProtocolError, match="^variable 0x40 used as semaphore but live as lock$"):
        coord.handle(Message(0x40, Opcode.SEM_WAIT_LOCAL, 1, 1))
    with pytest.raises(ProtocolError, match="^variable 0x40 used as barrier but live as lock$"):
        coord.handle(Message(0x40, Opcode.BARRIER_WAIT_OVERFLOW, 1 << 2 | 0, 4))
    assert not coord.meta[0x40].in_memory
    assert coord.table.occupied_count == 1 and coord.counters.total() == 0


@pytest.mark.parametrize("scheme", ["syncron", "hier"])
def test_release_with_parked_waiter_rejected(scheme):
    # a table- or server-backed variable is not freed while a core waits on it:
    # the owner's release hands it to the parked core, whose release frees it
    cfg = SystemConfig(num_units=1, cores_per_unit=3, scheme=scheme)
    coord = Coordinator(cfg, 0)
    coord.handle(Message(64, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    coord.handle(Message(64, Opcode.LOCK_ACQUIRE_LOCAL, 1, 0))
    out = coord.handle(Message(64, Opcode.LOCK_RELEASE_LOCAL, 0, 0))
    assert out.sends == [(("core", 0, 1), Message(64, Opcode.LOCK_GRANT_LOCAL, 1, 0))]
    assert out.table_events == [] and coord.meta[64].owner == (LOCAL, 1)
    if scheme == "syncron":
        assert coord.table.occupied_count == 1
    out = coord.handle(Message(64, Opcode.LOCK_RELEASE_LOCAL, 1, 0))
    assert out.sends == [] and coord.meta == {}
    if scheme == "syncron":
        assert out.table_events == [("st_release", 64)] and coord.table.occupied_count == 0


def test_grant_goes_local_first_then_ascending_units():
    cfg = SystemConfig(num_units=4, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    addr = 64
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_GLOBAL, 3, 0))  # owner
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_GLOBAL, 2, 0))
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_LOCAL, 1, 0))
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_GLOBAL, 1, 0))
    grants = []
    out = coord.handle(Message(addr, Opcode.LOCK_RELEASE_GLOBAL, 3, 0))
    grants += out.sends
    # local waiter wins over both queued units
    assert grants[-1][0] == ("core", 0, 1)
    assert grants[-1][1].opcode is Opcode.LOCK_GRANT_LOCAL
    out = coord.handle(Message(addr, Opcode.LOCK_RELEASE_LOCAL, 1, 0))
    assert out.sends[-1][0] == ("coord", 1)  # then ascending unit ids
    out = coord.handle(Message(addr, Opcode.LOCK_RELEASE_GLOBAL, 1, 0))
    assert out.sends[-1][0] == ("coord", 2)
    coord.handle(Message(addr, Opcode.LOCK_RELEASE_GLOBAL, 2, 0))
    assert coord.meta.get(addr) is None  # fully quiesced
    assert coord.table.occupied_count == 0


def test_master_serves_remote_units_lowest_first_overflow_before_aggregate():
    # syncron 4x3 (packed id = unit << 2 | local): a unit-0 core holds a unit-0
    # lock; units 1 and 3 wait as aggregates, a core each of units 1 and 2
    # waits through the overflow path, which moves the lock into memory
    cfg = SystemConfig(num_units=4, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    addr = 64
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_GLOBAL, 3, 0))
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_OVERFLOW, 2 << 2 | 0, 0))
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_GLOBAL, 1, 0))
    coord.handle(Message(addr, Opcode.LOCK_ACQUIRE_OVERFLOW, 1 << 2 | 1, 0))
    assert coord.meta[addr].in_memory

    releases = [
        Message(addr, Opcode.LOCK_RELEASE_LOCAL, 0, 0),
        Message(addr, Opcode.LOCK_RELEASE_OVERFLOW, 1 << 2 | 1, 0),
        Message(addr, Opcode.LOCK_RELEASE_GLOBAL, 1, 0),
        Message(addr, Opcode.LOCK_RELEASE_OVERFLOW, 2 << 2 | 0, 0),
        Message(addr, Opcode.LOCK_RELEASE_GLOBAL, 3, 0),
    ]
    sends = [[(dst, m.opcode, m.core_id) for dst, m in coord.handle(msg).sends]
             for msg in releases]
    assert sends == [
        [(("coord", 1), Opcode.LOCK_GRANT_OVERFLOW, 1 << 2 | 1)],  # unit 1's second core
        [(("coord", 1), Opcode.LOCK_GRANT_GLOBAL, 0)],             # then unit 1's aggregate
        [(("coord", 2), Opcode.LOCK_GRANT_OVERFLOW, 2 << 2 | 0)],
        [(("coord", 3), Opcode.LOCK_GRANT_GLOBAL, 0)],
        [(("coord", 1), Opcode.DECREASE_INDEXING_COUNTER, 0),
         (("coord", 2), Opcode.DECREASE_INDEXING_COUNTER, 0)],
    ]
    assert coord.meta == {}
    assert coord.counters.total() == 0


def test_semaphore_master_serves_local_first_then_lowest_unit_overflow_before_aggregate():
    # the semaphore counterpart of the lock test above, with no initial
    # resources: one waiter each, then one post at a time from a unit-0 core
    cfg = SystemConfig(num_units=4, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    addr = 64
    coord.handle(Message(addr, Opcode.SEM_WAIT_LOCAL, 0, 0))
    coord.handle(Message(addr, Opcode.SEM_WAIT_GLOBAL, 3, 1))
    coord.handle(Message(addr, Opcode.SEM_WAIT_OVERFLOW, 2 << 2 | 0, 0))
    coord.handle(Message(addr, Opcode.SEM_WAIT_GLOBAL, 1, 1))
    coord.handle(Message(addr, Opcode.SEM_WAIT_OVERFLOW, 1 << 2 | 1, 0))
    assert coord.meta[addr].in_memory

    post = Message(addr, Opcode.SEM_POST_LOCAL, 1, 0)
    sends = [[(dst, m.opcode, m.core_id, m.info) for dst, m in coord.handle(post).sends]
             for _ in range(5)]
    assert sends == [
        [(("core", 0, 0), Opcode.SEM_GRANT_LOCAL, 0, 0)],             # the local waiter
        [(("coord", 1), Opcode.SEM_GRANT_OVERFLOW, 1 << 2 | 1, 0)],   # unit 1's overflow core
        [(("coord", 1), Opcode.SEM_GRANT_GLOBAL, 0, 1)],              # then unit 1's aggregate
        [(("coord", 2), Opcode.SEM_GRANT_OVERFLOW, 2 << 2 | 0, 0)],
        [(("coord", 3), Opcode.SEM_GRANT_GLOBAL, 0, 1),
         (("coord", 1), Opcode.DECREASE_INDEXING_COUNTER, 0, 0),
         (("coord", 2), Opcode.DECREASE_INDEXING_COUNTER, 0, 0)],
    ]
    assert coord.meta == {}
    assert coord.counters.total() == 0


def test_condvar_master_wakes_local_first_then_lowest_unit_overflow_before_aggregate():
    # the condvar counterpart: each waiter names lock 128, also mastered by
    # unit 0; one signal at a time from a unit-0 core
    cfg = SystemConfig(num_units=4, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    cv, lock = 64, 128
    coord.handle(Message(lock, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    coord.handle(Message(cv, Opcode.COND_WAIT_LOCAL, 0, lock))
    coord.handle(Message(cv, Opcode.COND_WAIT_GLOBAL, 3, lock))
    coord.handle(Message(cv, Opcode.COND_WAIT_OVERFLOW, 2 << 2 | 0, lock))
    coord.handle(Message(cv, Opcode.COND_WAIT_GLOBAL, 1, lock))
    coord.handle(Message(cv, Opcode.COND_WAIT_OVERFLOW, 1 << 2 | 1, lock))
    assert coord.meta[cv].in_memory

    signal = Message(cv, Opcode.COND_SIGNAL_LOCAL, 1, 0)
    outs = [coord.handle(signal) for _ in range(5)]
    # the local waiter resumes by re-acquiring its lock at this coordinator
    assert outs[0].internal == [Message(lock, Opcode.LOCK_ACQUIRE_LOCAL, 0, cv)]
    assert all(out.internal == [] for out in outs[1:])
    sends = [[(dst, m.opcode, m.core_id, m.info) for dst, m in out.sends] for out in outs]
    assert sends == [
        [],
        [(("coord", 1), Opcode.COND_GRANT_OVERFLOW, 1 << 2 | 1, lock)],  # unit 1's overflow core
        [(("coord", 1), Opcode.COND_GRANT_GLOBAL, 0, 1)],                # then unit 1's aggregate
        [(("coord", 2), Opcode.COND_GRANT_OVERFLOW, 2 << 2 | 0, lock)],
        [(("coord", 3), Opcode.COND_GRANT_GLOBAL, 0, 1),
         (("coord", 1), Opcode.DECREASE_INDEXING_COUNTER, 0, 0),
         (("coord", 2), Opcode.DECREASE_INDEXING_COUNTER, 0, 0)],
    ]
    assert coord.meta == {}
    assert coord.counters.total() == 0


def test_overflow_wakes_reach_the_redirected_core():
    # unit 1, non-master with a full one-entry table, redirects core (1, 1)'s
    # semaphore and barrier waits; the master's overflow grants come back to
    # unit 1, which wakes the core and counts its enrolment down
    cfg = SystemConfig(num_units=2, cores_per_unit=3, st_entries=1)
    coord = Coordinator(cfg, 1)
    S, B, CV, L, packed = 0x40, 0x80, 0xC0, 0x100, 1 << 2 | 1
    coord.handle(Message(0x140, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))  # fills the table
    for msg in (Message(S, Opcode.SEM_WAIT_LOCAL, 1, 0),
                Message(B, Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS, 1, 4)):
        assert coord.handle(msg).overflowed
    assert coord.enrolled == {S: 1, B: 1}
    cases = [
        (Message(S, Opcode.SEM_GRANT_OVERFLOW, packed, 0),
         Message(S, Opcode.SEM_GRANT_LOCAL, 1, 0)),
        (Message(B, Opcode.BARRIER_DEPARTURE_OVERFLOW, packed, 0),
         Message(B, Opcode.BARRIER_DEPART_LOCAL, 1, 0)),
    ]
    for wake, grant in cases:
        assert coord.handle(wake).sends == [(("core", 1, 1), grant)]
    assert coord.enrolled == {S: 0, B: 0}
    # a condvar wake resumes the waiter by re-acquiring its lock here
    out = coord.handle(Message(CV, Opcode.COND_GRANT_OVERFLOW, packed, L))
    assert out.sends == [] and out.internal == [Message(L, Opcode.LOCK_ACQUIRE_LOCAL, 1, CV)]


def test_master_sends_barrier_departures_to_overflow_waiters():
    # syncron 2x3: core (1, 0) arrives through the overflow path, core (0, 0)
    # completes the two-core barrier at its master
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    B = 0x40
    coord.handle(Message(B, Opcode.BARRIER_WAIT_OVERFLOW, 1 << 2 | 0, 2))
    out = coord.handle(Message(B, Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS, 0, 2))
    assert out.sends == [
        (("coord", 1), Message(B, Opcode.BARRIER_DEPARTURE_OVERFLOW, 1 << 2 | 0, 0)),
        (("core", 0, 0), Message(B, Opcode.BARRIER_DEPART_LOCAL, 0, 0)),
        (("coord", 1), Message(B, Opcode.DECREASE_INDEXING_COUNTER, 0, 0)),
    ]
    assert coord.meta == {} and coord.counters.total() == 0


def test_condvar_broadcast_at_the_master_wakes_every_level():
    # a local waiter, a unit-1 overflow waiter and unit 1's aggregate all wake
    # on one broadcast; a broadcast with nothing parked does nothing
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    CV, L = 0x40, 0x80
    coord.handle(Message(L, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    coord.handle(Message(CV, Opcode.COND_WAIT_LOCAL, 0, L))
    coord.handle(Message(CV, Opcode.COND_WAIT_OVERFLOW, 1 << 2 | 1, L))
    coord.handle(Message(CV, Opcode.COND_WAIT_GLOBAL, 1, L))
    out = coord.handle(Message(CV, Opcode.COND_BROAD_LOCAL, 1, 0))
    assert out.internal == [Message(L, Opcode.LOCK_ACQUIRE_LOCAL, 0, CV)]
    assert out.sends == [
        (("coord", 1), Message(CV, Opcode.COND_GRANT_OVERFLOW, 1 << 2 | 1, L)),
        (("coord", 1), Message(CV, Opcode.COND_GRANT_GLOBAL, 0, WAKE_ALL)),
        (("coord", 1), Message(CV, Opcode.DECREASE_INDEXING_COUNTER, 0, 0)),
    ]
    assert CV not in coord.meta and coord.counters.total() == 0
    idle = coord.handle(Message(CV, Opcode.COND_BROAD_LOCAL, 1, 0))
    assert (idle.sends, idle.internal, idle.mem_ops) == ([], [], [])
    assert CV not in coord.meta


def test_condvar_wait_naming_another_lock_rejected():
    cfg = SystemConfig(num_units=1, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    CV, L1, L2 = 0x40, 0x80, 0xC0
    for core, lock in ((0, L1), (1, L2)):
        coord.handle(Message(lock, Opcode.LOCK_ACQUIRE_LOCAL, core, 0))
    coord.handle(Message(CV, Opcode.COND_WAIT_LOCAL, 0, L1))
    with pytest.raises(ProtocolError,
                       match="^condvar associated with lock 0x80, wait names 0xc0$"):
        coord.handle(Message(CV, Opcode.COND_WAIT_LOCAL, 1, L2))


@pytest.mark.parametrize("scheme, core_id", [
    ("flat", 2),      # packed {unit 0, core 2}: the core slot no client uses
    ("flat", 3),      # packed {unit 0, core 3}: no such core
    ("syncron", 2),
    ("hier", 2),      # the unit's server core
])
def test_request_from_non_client_core_id_rejected(scheme, core_id):
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme=scheme)
    for op in (Opcode.LOCK_ACQUIRE_LOCAL, Opcode.SEM_POST_LOCAL,
               Opcode.COND_SIGNAL_LOCAL, Opcode.COND_BROAD_LOCAL):
        coord = Coordinator(cfg, 0)
        with pytest.raises(ProtocolError, match="names no client"):
            coord.handle(Message(64, op, core_id, 0))
        assert coord.meta == {}


# -- barriers ------------------------------------------------------------------


def test_two_level_barrier_message_economy():
    # 60 participants on 4x15 clients: the master aggregates its own unit
    # internally, each remote engine sends one announce and gets one depart
    cfg = SystemConfig(num_units=4, cores_per_unit=16)
    wl = make_workload(cfg, "barrier", seed=0, params={"iterations": 2})
    sim = Simulation(cfg, wl, trace=True)
    stats = sim.run()
    assert stats.by_opcode["barrier_wait_global"] == 2 * 3
    assert stats.by_opcode["barrier_depart_global"] == 2 * 3
    assert stats.by_opcode["barrier_wait_local_across_units"] == 2 * 60
    assert stats.by_opcode["barrier_depart_local"] == 2 * 60
    assert verify_trace(sim.trace, sim.workload.expected_ops()) == []


def test_one_level_barrier_forwards_every_wait():
    # 20 participants of 60: no unit can know its local quota, so every
    # arrival reaches the master individually (15 direct + 5 forwarded)
    cfg = SystemConfig(num_units=4, cores_per_unit=16)
    wl = make_workload(cfg, "barrier", seed=0,
                       params={"iterations": 2, "participants": 20})
    sim = Simulation(cfg, wl, trace=True)
    stats = sim.run()
    assert stats.by_opcode["barrier_wait_global"] == 2 * 5
    assert stats.by_opcode["barrier_wait_local_across_units"] == 2 * 20
    assert stats.by_opcode["barrier_depart_local"] == 2 * 20
    assert verify_trace(sim.trace, sim.workload.expected_ops()) == []


def test_barrier_double_arrival_rejected():
    cfg = SystemConfig(num_units=1, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    msg = Message(64, Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT, 0, 2)
    coord.handle(msg)
    with pytest.raises(ProtocolError):
        coord.handle(msg)


def test_barrier_target_mismatch_rejected():
    cfg = SystemConfig(num_units=1, cores_per_unit=4)
    coord = Coordinator(cfg, 0)
    coord.handle(Message(64, Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT, 0, 2))
    with pytest.raises(ProtocolError):
        coord.handle(Message(64, Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT, 1, 3))


# -- semaphores ------------------------------------------------------------------


def test_semaphore_grants_local_first_and_bounded():
    # 2 units, resources=1: unit-0 waiters drain before unit-1's
    S = 64
    steps = {
        0: [("sem_wait", S, 1)],
        1: [("compute", 100), ("sem_wait", S, 1)],
        2: [("compute", 200), ("sem_wait", S, 1)],
        3: [("compute", 3_000), ("sem_post", S),
            ("compute", 3_000), ("sem_post", S),
            ("compute", 3_000), ("sem_post", S)],
    }
    stats, sim = run_script(steps)
    grants = [(r.unit, r.local) for r in sim.trace if r.kind == "sem_acquire"]
    assert grants == [(0, 0), (0, 1), (1, 0)]
    assert stats.ops["sem_wait"] == 3 and stats.ops["sem_post"] == 3
    assert verify_trace(sim.trace) == []


def test_semaphore_initial_resources_mismatch_rejected():
    cfg = SystemConfig(num_units=1, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    coord.handle(Message(64, Opcode.SEM_WAIT_LOCAL, 0, 2))
    with pytest.raises(ProtocolError):
        coord.handle(Message(64, Opcode.SEM_WAIT_LOCAL, 1, 3))


def test_semaphore_grant_beyond_parked_waiters_rejected():
    # a master grants a unit at most its demand, one per parked local waiter
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    coord = Coordinator(cfg, 1)
    assert not coord.is_master_for(64)
    coord.handle(Message(64, Opcode.SEM_WAIT_LOCAL, 0, 0))
    with pytest.raises(ProtocolError, match="exceeds the 1 parked waiters"):
        coord.handle(Message(64, Opcode.SEM_GRANT_GLOBAL, 0, 2))


def test_semaphore_alternating_producer_consumer_across_units():
    # consumers on both units with zero initial resources; posts arrive from
    # unit 1 and never let in-flight grants exceed what was posted
    S = 64
    steps = {
        0: [("sem_wait", S, 0), ("compute", 50), ("sem_wait", S, 0)],
        2: [("compute", 100), ("sem_wait", S, 0), ("compute", 50), ("sem_wait", S, 0)],
        3: [("compute", 2_000), ("sem_post", S), ("compute", 8_000), ("sem_post", S),
            ("compute", 8_000), ("sem_post", S), ("compute", 8_000), ("sem_post", S)],
    }
    stats, sim = run_script(steps)
    assert stats.ops["sem_wait"] == 4 and stats.ops["sem_post"] == 4
    assert verify_trace(sim.trace) == []


# -- condition variables ------------------------------------------------------------


def test_condvar_broadcast_wakes_all_serialized_by_lock():
    CV, L = 64, 128
    waiter = [("lock_acquire", L), ("cond_wait", CV, L), ("lock_release", L)]
    steps = {i: list(waiter) for i in range(4)}
    steps[4] = [("compute", 30_000), ("lock_acquire", L),
                ("cond_broadcast", CV), ("lock_release", L)]
    stats, sim = run_script(steps, units=2, cores=4)
    wakes = [(r.unit, r.local) for r in sim.trace if r.kind == "cond_wake"]
    assert len(wakes) == 4 and len(set(wakes)) == 4
    assert stats.ops["cond_wait"] == 4
    assert stats.ops["cond_broadcast"] == 1
    assert verify_trace(sim.trace) == []  # includes pairwise-disjoint sections


def test_condvar_signal_wakes_one_at_a_time():
    CV, L = 64, 128
    waiter = [("lock_acquire", L), ("cond_wait", CV, L), ("lock_release", L)]
    steps = {0: list(waiter), 2: list(waiter)}
    steps[3] = [("compute", 30_000), ("lock_acquire", L), ("cond_signal", CV),
                ("lock_release", L), ("compute", 30_000), ("lock_acquire", L),
                ("cond_signal", CV), ("lock_release", L)]
    stats, sim = run_script(steps)
    wakes = [r for r in sim.trace if r.kind == "cond_wake"]
    assert len(wakes) == 2
    assert wakes[0].t < wakes[1].t
    assert stats.ops["cond_signal"] == 2
    assert verify_trace(sim.trace) == []


def test_lost_signal_returns_without_wake():
    # a signal with no parked waiter is absorbed
    CV = 64
    steps = {0: [("cond_signal", CV)]}
    stats, sim = run_script(steps, units=1)
    assert stats.ops["cond_signal"] == 1
    assert [r for r in sim.trace if r.kind == "cond_wake"] == []


def test_cond_wait_requires_lock_address():
    cfg = SystemConfig(num_units=1, cores_per_unit=3)
    coord = Coordinator(cfg, 0)
    with pytest.raises(ProtocolError):
        coord.handle(Message(64, Opcode.COND_WAIT_LOCAL, 0, 0))


def test_lost_signal_on_the_memory_path_reads_the_record_and_writes_nothing():
    # the one table entry holds L, so the master looks for CV's record in memory
    cfg = SystemConfig(num_units=1, cores_per_unit=3, st_entries=1)
    coord = Coordinator(cfg, 0)
    CV, L = 0x40, 0x80
    coord.handle(Message(L, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    out = coord.handle(Message(CV, Opcode.COND_SIGNAL_LOCAL, 1, 0))
    assert out.overflowed and out.mem_ops == [("read", CV)]
    assert (out.sends, out.table_events) == ([], []) and list(coord.meta) == [L]
    assert coord.counters.total() == 0


# -- error branches no workload reaches -----------------------------------------------


def coordinator(unit, scheme="syncron", **cfg_kw):
    """Unit `unit` of a 2x3 system; 0x40 is mastered by unit 0, and core
    (1, 1)'s packed id is 1 << 2 | 1."""
    return Coordinator(SystemConfig(num_units=2, cores_per_unit=3, scheme=scheme, **cfg_kw), unit)


def test_overflow_request_off_the_memory_path_rejected():
    overflow = Message(0x40, Opcode.LOCK_ACQUIRE_OVERFLOW, 1 << 2 | 1, 0)
    with pytest.raises(ProtocolError,
                       match="^LOCK_ACQUIRE_OVERFLOW delivered to a non-master coordinator$"):
        coordinator(1).handle(overflow)
    # a server has no table to overflow, even at the variable's master
    with pytest.raises(ProtocolError, match="^LOCK_ACQUIRE_OVERFLOW delivered to a coordinator "
                                            "with no memory path$"):
        coordinator(0, scheme="hier").handle(overflow)


def test_core_bound_grant_rejected_at_a_coordinator():
    with pytest.raises(ProtocolError, match="^opcode LOCK_GRANT_LOCAL not valid at a coordinator$"):
        coordinator(0).handle(Message(0x40, Opcode.LOCK_GRANT_LOCAL, 0, 0))


def test_overflow_grant_for_another_units_core_rejected():
    with pytest.raises(ProtocolError,
                       match="^SEM_GRANT_OVERFLOW routed to unit 1 for core of unit 0$"):
        coordinator(1).handle(Message(0x40, Opcode.SEM_GRANT_OVERFLOW, 0 << 2 | 1, 0))


def test_lock_release_for_unknown_variable_on_the_memory_path_rejected():
    coord = coordinator(0, st_entries=1)
    coord.handle(Message(0x80, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))  # fills the table
    with pytest.raises(ProtocolError, match="^lock release for unknown variable 0x40$"):
        coord.handle(Message(0x40, Opcode.LOCK_RELEASE_LOCAL, 1, 0))
    assert list(coord.meta) == [0x80] and coord.counters.total() == 0


@pytest.mark.parametrize("grant, error", [
    (Message(0x40, Opcode.BARRIER_DEPART_GLOBAL, 0, 0),
     "barrier departure for unknown variable 0x40"),
    (Message(0x40, Opcode.SEM_GRANT_GLOBAL, 0, 1), "semaphore grant for unknown variable 0x40"),
    (Message(0x40, Opcode.COND_GRANT_GLOBAL, 0, 1), "condvar wake for 0x40 with no parked waiter"),
    (Message(0x40, Opcode.COND_GRANT_OVERFLOW, 1 << 2 | 1, 0),
     "condvar 0x40 woken without an associated lock"),
], ids=["barrier-depart", "sem-grant", "cond-grant", "cond-grant-overflow"])
def test_grant_with_nothing_to_wake_rejected(grant, error):
    coord = coordinator(1)
    with pytest.raises(ProtocolError, match=f"^{error}$"):
        coord.handle(grant)
    assert coord.meta == {}


# -- liveness: a variable's state lives exactly while it is busy ------------------------


def busy(meta):
    """A waiter at any level, an owner, a barrier arrival, or a semaphore
    count off its declared value (0 while undeclared)."""
    return bool(meta.owner is not None or meta.locals or meta.remote_agg or meta.remote_ovf
                or meta.arrivals or meta.sem_demand
                or meta.sem_count != (meta.sem_declared or 0))


@pytest.mark.parametrize("units, st_entries", [(2, 1), (2, 64), (4, 1)])
def test_every_live_variable_is_busy_and_every_entry_is_live(monkeypatch, units, st_entries):
    handle = Coordinator.handle

    def checked(coord, msg):
        out = handle(coord, msg)
        idle = [hex(addr) for addr, meta in coord.meta.items() if not busy(meta)]
        assert not idle, (coord.unit, msg, idle)
        if coord.table is not None:
            in_table = sum(not meta.in_memory for meta in coord.meta.values())
            assert coord.table.occupied_count == in_table, (coord.unit, msg)
        return out

    monkeypatch.setattr(Coordinator, "handle", checked)
    for scheme in SCHEMES:
        for workload in WORKLOAD_NAMES:
            if workload == "condvar" and (units, st_entries) == (4, 1):
                continue  # the known condvar overload at a one-entry table deadlocks
            _, sim = run_once(RunConfig(scheme=scheme, workload=workload, units=units,
                                        cores_per_unit=4, st_entries=st_entries, seed=3))
            left = {u: c.coordinator.meta for u, c in sim.coords.items() if c.coordinator.meta}
            assert not left, (scheme, workload, left)
