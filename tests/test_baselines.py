from heapq import heappop

import pytest

from ndpsync.baselines import SERVER_CACHE_LINES, ServerCache
from ndpsync.errors import ProtocolError
from ndpsync.sim import _GRANT_KIND, Simulation
from ndpsync.topology import SystemConfig
from ndpsync.workloads import make_workload
from script_workload import Script


# -- server cache ------------------------------------------------------------------


def test_cache_capacity_default():
    assert SERVER_CACHE_LINES == 256


def test_cache_hit_miss_accounting():
    c = ServerCache(lines=4)
    assert not c.access(1)
    assert not c.access(2)
    assert c.access(1)
    assert c.hits == 1 and c.misses == 2


def test_cache_lru_eviction_order():
    c = ServerCache(lines=2)
    c.access(1)
    c.access(2)
    c.access(1)      # 1 becomes most recent
    c.access(3)      # evicts 2
    assert c.access(1)
    assert not c.access(2)  # was evicted
    assert c.hits == 2


def test_cache_never_exceeds_capacity():
    c = ServerCache(lines=8)
    for line in range(100):
        c.access(line)
    hot = [c.access(line) for line in range(92, 100)]
    assert all(hot)  # the last 8 lines are resident


# -- ideal oracle ------------------------------------------------------------------


def oracle_with_log():
    """A step issuer for the oracle of a 2x4 ideal system (clients 0-2 of each
    unit), and its wake log. issue(core, kind, addr, *fields) issues one step
    through Simulation._issue, which builds its request and delivers its
    grants, and returns True when the core keeps running; each grant queued
    for another core is logged as (core, the step kind it completes, its
    address)."""
    cfg = SystemConfig(num_units=2, cores_per_unit=4, scheme="ideal")
    sim = Simulation(cfg, Script(cfg))
    wakes = []

    def issue(core, kind, addr, *fields):
        running = sim._issue(sim._at[core], (kind, addr, *fields), sim.now)
        while sim._heap:
            *_, node, (grant, _) = heappop(sim._heap)
            wakes.append((node, _GRANT_KIND[grant.opcode], grant.addr))
        return running

    return issue, wakes


def assert_owns(issue, owner, other, lock):
    """`owner` holds `lock`: a non-owner's release raises, the owner's frees it."""
    with pytest.raises(ProtocolError, match="released by non-owner"):
        issue(other, "lock_release", lock)
    assert issue(owner, "lock_release", lock)


def test_ideal_lock_hands_off_lowest_core_id_first():
    # the engines' grant order, not arrival order: c queues before b, b goes first
    issue, wakes = oracle_with_log()
    a, b, c = ("core", 0, 0), ("core", 0, 1), ("core", 1, 0)
    assert issue(a, "lock_acquire", 64)
    assert not issue(c, "lock_acquire", 64)
    assert not issue(b, "lock_acquire", 64)
    issue(a, "lock_release", 64)
    assert wakes == [(b, "lock_acquire", 64)]
    assert_owns(issue, b, a, 64)
    assert wakes == [(b, "lock_acquire", 64), (c, "lock_acquire", 64)]
    assert_owns(issue, c, b, 64)


def test_ideal_lock_release_by_non_owner_rejected():
    issue, _ = oracle_with_log()
    issue(("core", 0, 0), "lock_acquire", 64)
    with pytest.raises(ProtocolError, match=r"lock 0x40 released by non-owner \('core', 0, 1\)$"):
        issue(("core", 0, 1), "lock_release", 64)
    with pytest.raises(ProtocolError):
        issue(("core", 0, 1), "lock_release", 999)


def test_ideal_barrier_last_arrival_proceeds():
    issue, wakes = oracle_with_log()
    cores = [("core", 0, i) for i in range(3)]
    assert not issue(cores[0], "barrier_wait", 64, 3, False)
    assert not issue(cores[1], "barrier_wait", 64, 3, False)
    assert issue(cores[2], "barrier_wait", 64, 3, False)
    assert wakes == [(cores[0], "barrier_wait", 64), (cores[1], "barrier_wait", 64)]
    # a second episode starts fresh
    assert not issue(cores[0], "barrier_wait", 64, 3, False)


def test_ideal_barrier_participant_mismatch_rejected():
    issue, _ = oracle_with_log()
    issue(("core", 0, 0), "barrier_wait", 64, 3, False)
    with pytest.raises(ProtocolError, match="participant count mismatch"):
        issue(("core", 0, 1), "barrier_wait", 64, 4, False)


def test_ideal_semaphore_counts_and_parks():
    issue, wakes = oracle_with_log()
    a, b, c = ("core", 0, 0), ("core", 0, 1), ("core", 1, 0)
    assert issue(a, "sem_wait", 64, 2)
    assert issue(b, "sem_wait", 64, 2)
    assert not issue(c, "sem_wait", 64, 2)  # resources exhausted
    issue(a, "sem_post", 64)
    assert wakes == [(c, "sem_wait", 64)]
    with pytest.raises(ProtocolError, match="re-declared"):
        issue(a, "sem_wait", 64, 3)


def test_ideal_cond_wait_releases_lock_and_signal_reacquires():
    issue, wakes = oracle_with_log()
    w, s = ("core", 0, 0), ("core", 0, 1)
    assert issue(w, "lock_acquire", 128)
    issue(w, "cond_wait", 64, 128)            # parks w, frees the lock
    assert issue(s, "lock_acquire", 128)      # signaler takes it
    issue(s, "cond_signal", 64)               # w must wait for the lock
    assert wakes == []
    issue(s, "lock_release", 128)             # handoff wakes w holding the lock
    assert wakes == [(w, "cond_wait", 64)]
    assert_owns(issue, w, s, 128)


def test_ideal_cond_signal_on_free_lock_wakes_immediately():
    issue, wakes = oracle_with_log()
    w, s = ("core", 0, 0), ("core", 0, 1)
    issue(w, "lock_acquire", 128)
    issue(w, "cond_wait", 64, 128)
    issue(s, "cond_signal", 64)
    assert wakes == [(w, "cond_wait", 64)]
    assert_owns(issue, w, s, 128)


def test_ideal_lost_signal_is_absorbed():
    issue, wakes = oracle_with_log()
    s = ("core", 0, 0)
    issue(s, "cond_signal", 64)
    issue(s, "cond_broadcast", 64)
    assert wakes == []


def test_ideal_broadcast_wakes_all():
    issue, wakes = oracle_with_log()
    cores = [("core", 0, i) for i in range(3)]
    for core in cores:
        issue(core, "lock_acquire", 128)
        if core is cores[0]:
            issue(core, "cond_wait", 64, 128)
    # cores[1] holds the lock now, cores[2] queues on it
    issue(cores[1], "cond_wait", 64, 128)     # lock hands to cores[2]
    issue(cores[2], "lock_release", 128)
    wakes.clear()
    issue(cores[2], "cond_broadcast", 64)
    assert wakes == [(cores[0], "cond_wait", 64)]  # first waiter got the free lock
    assert_owns(issue, cores[0], cores[1], 128)
    # second resumed on handoff
    assert wakes == [(cores[0], "cond_wait", 64), (cores[1], "cond_wait", 64)]
    assert_owns(issue, cores[1], cores[2], 128)


# -- ideal scheme end-to-end ----------------------------------------------------


def test_ideal_scheme_costs_nothing_on_the_wire():
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme="ideal")
    wl = make_workload(cfg, "lock", seed=0, params={"iterations": 5})
    stats = Simulation(cfg, wl).run()
    assert stats.messages_intra == 0 and stats.messages_inter == 0
    assert stats.energy_network_fj == 0
    assert stats.mem_sync_var == 0
    assert stats.by_opcode == {}
    assert stats.ops["lock_acquire"] == 20
    assert stats.completed_ops == 20


def test_ideal_runs_past_the_six_bit_core_id_field():
    # 8 units x 16 cores: packed ids reach 126, which no wire message could carry
    cfg = SystemConfig(num_units=8, cores_per_unit=16, scheme="ideal")
    stats = Simulation(cfg, make_workload(cfg, "lock", seed=3, params={"iterations": 2})).run()
    assert stats.by_opcode == {}
    assert stats.ops["lock_acquire"] == stats.completed_ops == 8 * 15 * 2


STRUCTURES = ("stack", "queue", "array_map", "hash_table", "linked_list")


@pytest.mark.parametrize("units", [2, 4])
@pytest.mark.parametrize("workload", STRUCTURES)
def test_ideal_is_a_lower_bound_on_every_scheme(workload, units):
    def run(scheme):
        cfg = SystemConfig(num_units=units, cores_per_unit=4, scheme=scheme)
        return Simulation(cfg, make_workload(cfg, workload, seed=3)).run()

    ideal = run("ideal")
    assert ideal.by_opcode == {} and ideal.mem_sync_var == 0  # its synchronization is free
    slower = {scheme: run(scheme).time_ps for scheme in ("syncron", "flat", "central", "hier")}
    assert all(t >= ideal.time_ps for t in slower.values()), (ideal.time_ps, slower)
