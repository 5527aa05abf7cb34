import pytest

from ndpsync.baselines import SERVER_CACHE_LINES, IdealOracle, ServerCache
from ndpsync.engine import Coordinator
from ndpsync.errors import ProtocolError
from ndpsync.sim import _GRANT_KIND, Simulation
from ndpsync.topology import SystemConfig
from ndpsync.workloads import make_workload


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
    """The oracle of a 2x4 ideal system (clients 0-2 of each unit), logging each
    wake as (core, the step kind its grant completes, the grant's address)."""
    cfg = SystemConfig(num_units=2, cores_per_unit=4, scheme="ideal")
    wakes = []
    return IdealOracle(Coordinator(cfg, 0), lambda core, grant: wakes.append(
        (core, _GRANT_KIND[grant.opcode], grant.addr))), wakes


def assert_owns(o, owner, other, lock):
    """`owner` holds `lock`: a non-owner's release raises, the owner's frees it."""
    with pytest.raises(ProtocolError, match="released by non-owner"):
        o.lock_release(other, lock)
    assert o.lock_release(owner, lock)


def test_ideal_lock_hands_off_lowest_core_id_first():
    # the engines' grant order, not arrival order: c queues before b, b goes first
    o, wakes = oracle_with_log()
    a, b, c = ("core", 0, 0), ("core", 0, 1), ("core", 1, 0)
    assert o.lock_acquire(a, 64)
    assert not o.lock_acquire(c, 64)
    assert not o.lock_acquire(b, 64)
    o.lock_release(a, 64)
    assert wakes == [(b, "lock_acquire", 64)]
    assert_owns(o, b, a, 64)
    assert wakes == [(b, "lock_acquire", 64), (c, "lock_acquire", 64)]
    assert_owns(o, c, b, 64)


def test_ideal_lock_release_by_non_owner_rejected():
    o, _ = oracle_with_log()
    o.lock_acquire(("core", 0, 0), 64)
    with pytest.raises(ProtocolError, match=r"lock 0x40 released by non-owner \('core', 0, 1\)$"):
        o.lock_release(("core", 0, 1), 64)
    with pytest.raises(ProtocolError):
        o.lock_release(("core", 0, 1), 999)


def test_ideal_barrier_last_arrival_proceeds():
    o, wakes = oracle_with_log()
    cores = [("core", 0, i) for i in range(3)]
    assert not o.barrier_wait(cores[0], 64, 3)
    assert not o.barrier_wait(cores[1], 64, 3)
    assert o.barrier_wait(cores[2], 64, 3)
    assert wakes == [(cores[0], "barrier_wait", 64), (cores[1], "barrier_wait", 64)]
    # a second episode starts fresh
    assert not o.barrier_wait(cores[0], 64, 3)


def test_ideal_barrier_participant_mismatch_rejected():
    o, _ = oracle_with_log()
    o.barrier_wait(("core", 0, 0), 64, 3)
    with pytest.raises(ProtocolError, match="participant count mismatch"):
        o.barrier_wait(("core", 0, 1), 64, 4)


def test_ideal_semaphore_counts_and_parks():
    o, wakes = oracle_with_log()
    a, b, c = ("core", 0, 0), ("core", 0, 1), ("core", 1, 0)
    assert o.sem_wait(a, 64, 2)
    assert o.sem_wait(b, 64, 2)
    assert not o.sem_wait(c, 64, 2)  # resources exhausted
    o.sem_post(a, 64)
    assert wakes == [(c, "sem_wait", 64)]
    with pytest.raises(ProtocolError, match="re-declared"):
        o.sem_wait(a, 64, 3)


def test_ideal_cond_wait_releases_lock_and_signal_reacquires():
    o, wakes = oracle_with_log()
    w, s = ("core", 0, 0), ("core", 0, 1)
    assert o.lock_acquire(w, 128)
    o.cond_wait(w, 64, 128)          # parks w, frees the lock
    assert o.lock_acquire(s, 128)    # signaler takes it
    o.cond_signal(s, 64)             # w must wait for the lock
    assert wakes == []
    o.lock_release(s, 128)           # handoff wakes w holding the lock
    assert wakes == [(w, "cond_wait", 64)]
    assert_owns(o, w, s, 128)


def test_ideal_cond_signal_on_free_lock_wakes_immediately():
    o, wakes = oracle_with_log()
    w, s = ("core", 0, 0), ("core", 0, 1)
    o.lock_acquire(w, 128)
    o.cond_wait(w, 64, 128)
    o.cond_signal(s, 64)
    assert wakes == [(w, "cond_wait", 64)]
    assert_owns(o, w, s, 128)


def test_ideal_lost_signal_is_absorbed():
    o, wakes = oracle_with_log()
    s = ("core", 0, 0)
    o.cond_signal(s, 64)
    o.cond_broadcast(s, 64)
    assert wakes == []


def test_ideal_broadcast_wakes_all():
    o, wakes = oracle_with_log()
    cores = [("core", 0, i) for i in range(3)]
    for core in cores:
        o.lock_acquire(core, 128)
        if core is cores[0]:
            o.cond_wait(core, 64, 128)
    # cores[1] holds the lock now, cores[2] queues on it
    o.cond_wait(cores[1], 64, 128)   # lock hands to cores[2]
    o.lock_release(cores[2], 128)
    wakes.clear()
    o.cond_broadcast(cores[2], 64)
    assert wakes == [(cores[0], "cond_wait", 64)]  # first waiter got the free lock
    assert_owns(o, cores[0], cores[1], 128)
    # second resumed on handoff
    assert wakes == [(cores[0], "cond_wait", 64), (cores[1], "cond_wait", 64)]
    assert_owns(o, cores[1], cores[2], 128)


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
