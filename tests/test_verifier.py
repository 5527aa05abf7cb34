from ndpsync.sim import Simulation, TraceRecord
from ndpsync.topology import SystemConfig
from ndpsync.verifier import (check_barriers, check_condvars,
                              check_mutual_exclusion, check_semaphores,
                              check_termination, verify_trace)
from ndpsync.workloads import make_workload


def rec(t, kind, unit, local, addr, info=0):
    return TraceRecord(t, kind, unit, local, addr, info)


# -- mutual exclusion ------------------------------------------------------------


def test_serialized_sections_pass():
    trace = [
        rec(0, "cs_enter", 0, 0, 64), rec(10, "cs_exit", 0, 0, 64),
        rec(10, "cs_enter", 0, 1, 64), rec(20, "cs_exit", 0, 1, 64),
    ]
    assert check_mutual_exclusion(trace) == []


def test_overlapping_sections_fail_naming_both_actors():
    trace = [
        rec(0, "cs_enter", 0, 0, 64),
        rec(5, "cs_enter", 1, 3, 64),
        rec(10, "cs_exit", 0, 0, 64),
    ]
    violations = check_mutual_exclusion(trace)
    assert violations
    assert "(0, 0)" in violations[0] and "(1, 3)" in violations[0]


def test_exit_without_holding_fails():
    violations = check_mutual_exclusion([rec(0, "cs_exit", 0, 0, 64)])
    assert violations and "without holding" in violations[0]


def test_unreleased_lock_fails():
    violations = check_mutual_exclusion([rec(0, "cs_enter", 0, 0, 64)])
    assert violations and "never exited" in violations[0]


def test_distinct_locks_do_not_interact():
    trace = [
        rec(0, "cs_enter", 0, 0, 64), rec(1, "cs_enter", 0, 1, 128),
        rec(2, "cs_exit", 0, 0, 64), rec(3, "cs_exit", 0, 1, 128),
    ]
    assert check_mutual_exclusion(trace) == []


# -- barriers ------------------------------------------------------------------


def barrier_trace(depart_early=False):
    t_depart = 5 if depart_early else 20
    return [
        rec(0, "barrier_arrive", 0, 0, 64),
        rec(10, "barrier_arrive", 0, 1, 64),
        rec(t_depart, "barrier_depart", 0, 0, 64),
        rec(20, "barrier_depart", 0, 1, 64),
    ]


def test_barrier_episode_passes():
    assert check_barriers(barrier_trace()) == []


def test_barrier_early_departure_fails():
    violations = check_barriers(barrier_trace(depart_early=True))
    assert violations and "precedes last arrival" in violations[0]


def test_barrier_unbalanced_counts_fail():
    trace = barrier_trace()[:-1]  # one departure missing
    assert check_barriers(trace)


def test_barrier_same_instant_is_legal():
    trace = [
        rec(5, "barrier_arrive", 0, 0, 64), rec(5, "barrier_arrive", 0, 1, 64),
        rec(5, "barrier_depart", 0, 0, 64), rec(5, "barrier_depart", 0, 1, 64),
    ]
    assert check_barriers(trace) == []


# -- semaphores ------------------------------------------------------------------


def test_semaphore_within_bound_passes():
    trace = [
        rec(0, "sem_acquire", 0, 0, 64, 2),
        rec(1, "sem_acquire", 0, 1, 64, 2),
        rec(2, "sem_release", 1, 0, 64),
        rec(3, "sem_acquire", 1, 1, 64, 2),
    ]
    assert check_semaphores(trace) == []


def test_semaphore_overgrant_fails():
    trace = [
        rec(0, "sem_acquire", 0, 0, 64, 1),
        rec(1, "sem_acquire", 0, 1, 64, 1),  # second grant, one resource, no post
    ]
    violations = check_semaphores(trace)
    assert violations and "exceeds initial resources" in violations[0]


# -- condition variables -------------------------------------------------------


def cond_trace():
    return [
        rec(0, "cs_enter", 0, 0, 128),
        rec(5, "cs_exit", 0, 0, 128),
        rec(5, "cond_sleep", 0, 0, 64, 128),
        rec(20, "cs_enter", 0, 0, 128),
        rec(20, "cond_wake", 0, 0, 64, 128),
        rec(25, "cs_exit", 0, 0, 128),
    ]


def test_cond_sleep_wake_with_reacquire_passes():
    assert check_condvars(cond_trace()) == []


def test_cond_wake_without_sleep_fails():
    violations = check_condvars([rec(0, "cond_wake", 0, 0, 64, 0)])
    assert violations and "without a pending sleep" in violations[0]


def test_cond_wake_before_its_sleep_fails():
    trace = [rec(20, "cond_sleep", 0, 0, 64, 128),
             rec(10, "cs_enter", 0, 0, 128), rec(10, "cond_wake", 0, 0, 64, 128)]
    violations = check_condvars(trace)
    assert len(violations) == 1 and "woke at 10 ps before sleeping at 20 ps" in violations[0]


def test_cond_wake_without_lock_reacquire_fails():
    trace = cond_trace()
    del trace[3]  # drop the re-entry record
    violations = check_condvars(trace)
    assert violations and "without re-acquiring" in violations[0]


def test_cond_sleep_never_woken_fails():
    trace = cond_trace()[:3]
    violations = check_condvars(trace)
    assert violations and "never woken" in violations[0]


# -- termination ------------------------------------------------------------------


def test_unbalanced_enters_fail():
    violations = check_termination([rec(0, "cs_enter", 0, 0, 64)])
    assert violations and "unbalanced lock sections" in violations[0]


def test_expected_op_totals_checked():
    trace = [
        rec(0, "cs_enter", 0, 0, 64), rec(1, "cs_exit", 0, 0, 64),
    ]
    assert check_termination(trace, {"lock_acquire": 1, "lock_release": 1}) == []
    violations = check_termination(trace, {"lock_acquire": 2, "lock_release": 2})
    assert violations and "lock_acquire" in violations[0]


# -- end to end ------------------------------------------------------------------


def test_full_run_trace_passes_all_monitors():
    cfg = SystemConfig(num_units=2, cores_per_unit=4)
    wl = make_workload(cfg, "stack", seed=3)
    sim = Simulation(cfg, wl, trace=True)
    sim.run()
    assert verify_trace(sim.trace, sim.workload.expected_ops()) == []


def test_verify_trace_aggregates_all_monitors():
    trace = [
        rec(0, "cs_enter", 0, 0, 64),
        rec(5, "cs_enter", 0, 1, 64),
        rec(6, "sem_acquire", 0, 0, 256, 0),
        rec(7, "cond_wake", 1, 1, 300, 0),
    ]
    violations = verify_trace(trace)
    text = "\n".join(violations)
    assert "was inside" in text          # mutual exclusion
    assert "exceeds initial" in text     # semaphore bound
    assert "pending sleep" in text       # condvar
    assert "unbalanced" in text          # termination
