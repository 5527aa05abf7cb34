import pytest

from ndpsync.baselines import SERVER_CACHE_LINES, IdealOracle, ServerCache
from ndpsync.errors import ProtocolError
from ndpsync.sim import Simulation
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
    wakes = []
    return IdealOracle(lambda core, kind, addr, lock: wakes.append((core, kind, addr, lock))), wakes


def test_ideal_lock_fifo_handoff():
    o, wakes = oracle_with_log()
    a, b, c = ("core", 0, 0), ("core", 0, 1), ("core", 1, 0)
    assert o.lock_acquire(a, 64)
    assert not o.lock_acquire(b, 64)
    assert not o.lock_acquire(c, 64)
    o.lock_release(a, 64)
    o.lock_release(b, 64)
    o.lock_release(c, 64)
    assert wakes == [(b, "lock", 64, 0), (c, "lock", 64, 0)]


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
    assert wakes == [(cores[0], "barrier", 64, 0), (cores[1], "barrier", 64, 0)]
    # a second episode starts fresh
    assert not o.barrier_wait(cores[0], 64, 3)


def test_ideal_barrier_participant_mismatch_rejected():
    o, _ = oracle_with_log()
    o.barrier_wait(("core", 0, 0), 64, 3)
    with pytest.raises(ProtocolError):
        o.barrier_wait(("core", 0, 1), 64, 4)


def test_ideal_semaphore_counts_and_parks():
    o, wakes = oracle_with_log()
    a, b, c = ("core", 0, 0), ("core", 0, 1), ("core", 1, 0)
    assert o.sem_wait(a, 64, 2)
    assert o.sem_wait(b, 64, 2)
    assert not o.sem_wait(c, 64, 2)  # resources exhausted
    o.sem_post(a, 64)
    assert wakes == [(c, "sem", 64, 0)]
    with pytest.raises(ProtocolError):
        o.sem_wait(a, 64, 3)  # re-declaration


def test_ideal_cond_wait_releases_lock_and_signal_reacquires():
    o, wakes = oracle_with_log()
    w, s = ("core", 0, 0), ("core", 0, 1)
    assert o.lock_acquire(w, 128)
    o.cond_wait(w, 64, 128)          # parks w, frees the lock
    assert o.lock_acquire(s, 128)    # signaler takes it
    o.cond_signal(s, 64)             # w must wait for the lock
    assert wakes == []
    o.lock_release(s, 128)           # handoff wakes w holding the lock
    assert wakes == [(w, "cond", 64, 128)]
    o.lock_release(w, 128)


def test_ideal_cond_signal_on_free_lock_wakes_immediately():
    o, wakes = oracle_with_log()
    w, s = ("core", 0, 0), ("core", 0, 1)
    o.lock_acquire(w, 128)
    o.cond_wait(w, 64, 128)
    o.cond_signal(s, 64)
    assert wakes == [(w, "cond", 64, 128)]
    o.lock_release(w, 128)


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
    assert (cores[0], "cond", 64, 128) in wakes  # first waiter got the free lock
    o.lock_release(cores[0], 128)
    assert (cores[1], "cond", 64, 128) in wakes  # second resumed on handoff
    o.lock_release(cores[1], 128)


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
