import pytest

from ndpsync.errors import ConfigError
from ndpsync.sim import Simulation
from ndpsync.topology import SCHEMES, SystemConfig, master_se_of
from ndpsync.workloads import WORKLOAD_NAMES, make_workload

SMALL = dict(num_units=2, cores_per_unit=4)


def run(scheme, name, seed=0, params=None, **cfg_kw):
    cfg = SystemConfig(scheme=scheme, **{**SMALL, **cfg_kw})
    wl = make_workload(cfg, name, seed=seed, params=params or {})
    sim = Simulation(cfg, wl)
    sim.run()
    return sim


def test_workload_registry_contents():
    assert set(WORKLOAD_NAMES) == {
        "lock", "barrier", "semaphore", "condvar",
        "stack", "queue", "array_map", "hash_table", "linked_list",
    }


def test_unknown_workload_rejected():
    cfg = SystemConfig(**SMALL)
    with pytest.raises(ConfigError):
        make_workload(cfg, "no_such_workload", seed=0)


def test_programs_cover_every_client_once():
    cfg = SystemConfig(**SMALL)
    wl = make_workload(cfg, "lock", seed=0)
    programs = wl.programs()
    assert sorted(programs) == sorted(cfg.clients())
    with pytest.raises(AssertionError):
        wl.programs()  # generator-backed, single use only


def test_same_seed_same_digest():
    a = run("syncron", "queue", seed=7)
    b = run("syncron", "queue", seed=7)
    assert a.workload.digest() == b.workload.digest()
    assert a.stats.completed_ops == b.stats.completed_ops


def test_digest_varies_with_seed():
    digests = {run("syncron", "linked_list", seed=s).workload.digest()
               for s in range(4)}
    assert len(digests) > 1


@pytest.mark.parametrize("name", ["stack", "queue", "hash_table", "condvar"])
def test_digest_agrees_across_schemes(name):
    digests = {run(scheme, name, seed=1).workload.digest() for scheme in SCHEMES}
    assert len(digests) == 1


def test_lock_params_flow_through():
    sim = run("syncron", "lock", params={"iterations": 3})
    # 6 clients x 3 iterations
    assert sim.stats.completed_ops == 18
    # compute inside each critical section lengthens the serialized run
    held = run("syncron", "lock", params={"iterations": 3, "cs_instr": 100})
    assert held.stats.completed_ops == 18
    assert held.stats.time_ps > sim.stats.time_ps


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_expected_ops_match_recorded_ops(name):
    sim = run("syncron", name, seed=2)
    expected = sim.workload.expected_ops()
    if expected is None:  # op totals depend on the seed for this workload
        return
    for op, count in expected.items():
        assert sim.stats.ops.get(op, 0) == count, (name, op)


def test_barrier_participant_validation():
    cfg = SystemConfig(**SMALL)
    with pytest.raises(ConfigError):
        make_workload(cfg, "barrier", seed=0, params={"participants": 0})
    with pytest.raises(ConfigError):
        make_workload(cfg, "barrier", seed=0,
                      params={"participants": cfg.total_clients + 1})


def test_condvar_needs_a_signal_for_every_wake():
    cfg = SystemConfig(num_units=1, cores_per_unit=3)  # one waiter, one signaler
    make_workload(cfg, "condvar", params={"iterations": 10, "signal_cap": 10})
    with pytest.raises(ConfigError, match="1 signalers x signal_cap 9 < 1 waiters x iterations 10"):
        make_workload(cfg, "condvar", params={"iterations": 10, "signal_cap": 9})
    # with no iterations, a waiter with no signaler has nothing to wait for
    make_workload(SystemConfig(num_units=1, cores_per_unit=2), "condvar", params={"iterations": 0})


def test_partial_barrier_subset_only_waits():
    sim = run("syncron", "barrier", seed=0,
              params={"participants": 3, "iterations": 2})
    assert sim.stats.ops.get("barrier_wait", 0) == 6


def test_linked_list_completes_every_client_op():
    sim = run("syncron", "linked_list", seed=0, params={"nodes": 8})
    assert sim.stats.completed_ops == 6 * 10  # clients x ops_per_core default


def test_sync_addresses_stay_inside_owner_unit():
    cfg = SystemConfig(num_units=4, cores_per_unit=4)
    wl = make_workload(cfg, "lock", seed=0)
    assert master_se_of(cfg, wl.lock) == 0


# workloads whose every run reaches its highest line
TOP_REACHED = {"lock", "barrier", "semaphore", "condvar", "stack", "queue"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_top_offset_bounds_every_address_a_run_touches(name):
    cfg = SystemConfig(**SMALL)
    sim = Simulation(cfg, make_workload(cfg, name, seed=1), trace=True)
    sim.run()
    reached = max(r.addr % cfg.unit_mem_bytes for r in sim.trace)
    top = type(sim.workload).top_offset(cfg, {})
    assert reached == top if name in TOP_REACHED else reached <= top


def test_make_workload_rejects_lines_past_the_unit():
    cfg = SystemConfig(num_units=2, cores_per_unit=4, unit_mem_bytes=65 * 1024 * 1024)
    make_workload(cfg, "array_map", seed=0, params={"slots": 2 * 16384})
    with pytest.raises(ConfigError, match="past its"):
        make_workload(cfg, "array_map", seed=0, params={"slots": 2 * 16384 + 1})
