import heapq
import random

import pytest

import ndpsync.sim as sim_module
from ndpsync.baselines import IdealOracle
from ndpsync.errors import ConfigError, ProtocolError, SimulationDeadlock
from ndpsync.messages import Message, Opcode
from ndpsync.sim import (COMPUTE, CORE_CYCLE_PS, DRAM_PS, MEM, MSG, SE_SERVICE_PS, SERVICE,
                         EnergyModel, LatencyModel, Network, Simulation, Stats)
from ndpsync.topology import SystemConfig
from ndpsync.verifier import verify_trace
from ndpsync.workloads import make_workload
from script_workload import Script


def tiny_sim(scheme="syncron", units=1, cores=2, steps=None, **kw):
    cfg = SystemConfig(num_units=units, cores_per_unit=cores, scheme=scheme)
    return Simulation(cfg, Script(cfg, steps), **kw)


# -- event queue ------------------------------------------------------------------


def push(sim, t, rank, node, payload):
    """Queue one event for `node` the way the runtime does, keyed by that node."""
    sim._push(t, rank, sim._at[node].key, node, payload)


def test_tie_break_lower_source_first():
    sim = tiny_sim(cores=3)  # client cores 0 and 1
    # two events at t=5 for cores 1 and 0, pushed in reverse order
    push(sim, 5, COMPUTE, ("core", 0, 1), "b")
    push(sim, 5, COMPUTE, ("core", 0, 0), "a")
    first = heapq.heappop(sim._heap)
    second = heapq.heappop(sim._heap)
    assert first[5] == "a" and second[5] == "b"


def test_message_rank_beats_compute_at_same_instant():
    sim = tiny_sim()
    push(sim, 5, COMPUTE, ("core", 0, 0), "compute")
    push(sim, 5, MSG, ("core", 0, 0), "msg")
    assert heapq.heappop(sim._heap)[5] == "msg"


def test_monotone_pop_over_random_inserts():
    sim = tiny_sim(cores=3)  # client cores 0 and 1
    rng = random.Random(11)
    expect = []
    for i in range(3000):
        t = rng.randrange(0, 10_000)
        local = rng.randrange(2)
        rank = rng.choice((MSG, COMPUTE, MEM, SERVICE))
        push(sim, t, rank, ("core", 0, local), i)
        expect.append((t, rank, local, i + 1))  # seq counts from 1
    popped = [heapq.heappop(sim._heap)[:4] for _ in range(3000)]
    assert popped == sorted(expect)
    assert all(a <= b for a, b in zip(popped, popped[1:]))


# -- latency model ------------------------------------------------------------------


def test_transfer_latency_same_unit_18b():
    lat = LatencyModel.create()
    # 1 hop + 1 arbiter cycle at 2.5 GHz = 800 ps
    assert lat.transfer_latency_ps(True, 18) == 800
    assert lat.transfer_latency_ps(True, 64) == 800


def test_transfer_latency_cross_unit_64b():
    lat = LatencyModel.create()
    # 40 ns line + 8 ns fixed + both endpoints' 800 ps segments
    assert lat.transfer_latency_ps(False, 64) == 49_600
    assert lat.transfer_latency_ps(False, 18) == 49_600  # one line minimum
    assert lat.transfer_latency_ps(False, 65) == 89_600  # second line


def test_transfer_latency_rejects_nonpositive_bytes():
    lat = LatencyModel.create()
    with pytest.raises(ValueError):
        lat.transfer_latency_ps(True, 0)
    with pytest.raises(ValueError):
        lat.transfer_latency_ps(False, -3)


def test_memory_latency_per_technology():
    assert DRAM_PS["hbm"] == (24_000, 14_000)
    assert DRAM_PS["hmc"] == (51_000, 36_000)
    assert DRAM_PS["ddr4"] == (55_000, 34_000)
    hbm = LatencyModel.create("hbm")
    ddr4 = LatencyModel.create("ddr4")
    assert hbm.mem_read_ps < ddr4.mem_read_ps
    # determinism: same tech and op give the same number every time
    assert hbm.mem_read_ps == LatencyModel.create("hbm").mem_read_ps


def test_memory_latency_override_respected():
    lat = LatencyModel.create("hbm")
    lat.mem_read_ps = 99_000
    net = Network(SystemConfig(num_units=1, cores_per_unit=4), lat, Stats())
    # 18B command segment, the overridden DRAM read, 64B line segment
    assert net.memory_access(0, 0, write=False, t=0) == 800 + 99_000 + 800


def test_unknown_memory_tech_rejected():
    with pytest.raises(ConfigError):
        LatencyModel.create("sram")
    with pytest.raises(ConfigError):
        LatencyModel.create("hbm", link_latency_ns=0)


def test_link_latency_override():
    lat = LatencyModel.create("hbm", link_latency_ns=500)
    assert lat.inter_line_ps == 500_000
    assert lat.transfer_latency_ps(False, 64) == 2 * 800 + 500_000 + 8_000


# -- energy model ------------------------------------------------------------------


def test_energy_arithmetic():
    en = EnergyModel()
    assert en.intra_fj(18) == 144 * 400          # 57.6 pJ
    assert en.memory_fj(64) == 512 * 7_000       # 3.584 nJ
    assert en.inter_fj(64) == 512 * 4_000
    assert en.l1_hit_fj == 23_000
    assert en.l1_miss_fj == 47_000


# -- network ------------------------------------------------------------------


def make_network(units=2):
    cfg = SystemConfig(num_units=units, cores_per_unit=4)
    stats = Stats()
    return Network(cfg, LatencyModel.create(), stats), stats


def test_send_message_same_unit_idle():
    net, stats = make_network()
    arrival = net.send_message(("core", 0, 0), ("coord", 0), 1000)
    assert arrival == 1800
    assert stats.messages_intra == 1 and stats.messages_inter == 0
    assert stats.bytes_intra == 18 and stats.bytes_inter == 0
    assert stats.energy_network_fj == EnergyModel().intra_fj(18)


def test_send_message_cross_unit_idle():
    net, stats = make_network()
    arrival = net.send_message(("core", 0, 0), ("coord", 1), 0)
    # src segment + line + fixed + dst segment
    assert arrival == 800 + 40_000 + 8_000 + 800
    assert stats.messages_inter == 1
    assert stats.bytes_intra == 2 * 18 and stats.bytes_inter == 18
    en = EnergyModel()
    assert stats.energy_network_fj == 2 * en.intra_fj(18) + en.inter_fj(18)


def test_idle_send_takes_the_closed_form_transfer_latency():
    cfg = SystemConfig(num_units=2, cores_per_unit=4)
    for lat in (LatencyModel.create(), LatencyModel.create("hbm", link_latency_ns=500)):
        for dst, same_unit in ((("coord", 0), True), (("coord", 1), False)):
            net = Network(cfg, lat, Stats())
            sent = 3_000
            arrival = net.send_message(("core", 0, 0), dst, sent)
            assert arrival - sent == lat.transfer_latency_ps(same_unit, 18)  # one message


def test_link_is_fifo_per_direction():
    net, _ = make_network()
    a = net.send_message(("core", 0, 0), ("coord", 1), 0)
    b = net.send_message(("core", 0, 1), ("coord", 1), 0)
    # second message finds the 0->1 link occupied for one 40 ns line
    assert b >= a + 40_000 - 800  # minus the src segment overlap tolerance
    assert b > a


def test_queueing_grows_with_utilization_and_saturates():
    net, stats = make_network()
    assert net._cross_xbar(0, 18, 0) == 800  # an idle crossbar adds no wait
    for _ in range(699):
        net._cross_xbar(0, 18, 0)
    assert len(net._window[0]) == 700
    # the crossing starts after busy * segment // (2 * free) of the window
    wait = net._cross_xbar(0, 18, 0) - 800
    assert wait == 560_000 * 800 // (2 * 440_000)
    assert wait > 0
    before = stats.saturation_events
    for _ in range(599):  # push utilization past the window
        net._cross_xbar(0, 18, 0)
    assert net._cross_xbar(0, 18, 0) - 800 == 10 * 800  # clamped at the cap
    assert stats.saturation_events > before


def test_queue_window_slides():
    net, _ = make_network()
    for _ in range(700):
        net._cross_xbar(0, 18, 0)
    assert net._cross_xbar(0, 18, 0) - 800 == 560_000 * 800 // (2 * 440_000)
    # a window later the history has drained
    assert net._cross_xbar(0, 18, 2_000_000) - 800 == 2_000_000
    assert list(net._window[0]) == [2_000_000]


def test_pairwise_delivery_is_in_order():
    net, stats = make_network()
    # 1300 segments that started just inside the window: the first send finds
    # the crossbar saturated and waits the cap
    net._window[0].extend([-999_500] * 1300)
    first = net.send_message(("coord", 0), ("core", 0, 1), 0)
    assert first == 10 * 800 + 800
    # by t=1000 those segments have left the window, so the second send finds
    # it nearly idle and would overtake the first without the pair clamp
    assert net._cross_xbar(0, 18, 1000) == 1000 + 800
    second = net.send_message(("coord", 0), ("core", 0, 1), 1000)
    assert second == first


def test_memory_access_local_read_and_write():
    net, stats = make_network()
    assert net.memory_access(0, 0, write=False, t=0) == 25_600
    assert net.memory_access(1, 1, write=True, t=0) == 14_800
    assert stats.mem_local == 2 and stats.mem_remote == 0 and stats.mem_sync_var == 0
    assert stats.energy_memory_fj == 2 * EnergyModel().memory_fj(64)


def test_memory_access_remote_read_crosses_twice():
    net, stats = make_network()
    done = net.memory_access(0, 1, write=False, t=0)
    # 18B command over, DRAM read, 64B line back
    over = 800 + 40_000 + 8_000 + 800
    back = 800 + 40_000 + 8_000 + 800
    assert done == over + 24_000 + back
    assert stats.mem_remote == 1


def test_memory_access_sync_var_bucket():
    net, stats = make_network()
    net.memory_access(0, 0, write=False, t=0, sync_var=True)
    assert stats.mem_sync_var == 1 and stats.mem_local == 0


# -- runtime ------------------------------------------------------------------


def test_empty_workload_total_time_zero():
    sim = tiny_sim(units=2, cores=3, steps={})
    stats = sim.run()
    assert stats.time_ps == 0
    assert stats.completed_ops == 4  # every client ran its (empty) program


def test_compute_advances_core_cycles():
    sim = tiny_sim(steps={0: [("compute", 100)]})
    stats = sim.run()
    assert stats.time_ps == 100 * CORE_CYCLE_PS


def test_single_core_100_op_microbench_completes():
    cfg = SystemConfig(num_units=1, cores_per_unit=2)
    wl = make_workload(cfg, "lock", seed=0, params={"iterations": 100})
    stats = Simulation(cfg, wl).run()
    assert stats.ops["lock_acquire"] == 100
    assert stats.ops["lock_release"] == 100
    assert stats.completed_ops == 100
    assert stats.time_ps > 0


def test_lock_roundtrip_timing_is_exact():
    # acquire: 18B to the engine (800), service (12 ns), grant back (800)
    sim = tiny_sim(steps={0: [("lock_acquire", 64), ("lock_release", 64)]})
    stats = sim.run()
    assert stats.time_ps == 800 + SE_SERVICE_PS + 800 + 800 + SE_SERVICE_PS
    assert stats.ops == {**stats.ops, "lock_acquire": 1, "lock_release": 1}


def test_deadlock_detector_names_blocked_cores():
    # three clients queue on one lock and the first grant is lost; the fourth
    # client finishes, so only the three waiters are reported
    lock = [("lock_acquire", 64), ("lock_release", 64)]
    sim = tiny_sim(units=2, cores=3, steps={0: lock, 1: lock, 2: lock, 3: [("compute", 5)]})
    dropped = []

    def drop(msg, src, dst):
        if msg.opcode is Opcode.LOCK_GRANT_LOCAL and not dropped:
            dropped.append(dst)
            return True
        return False

    sim.drop_filter = drop
    with pytest.raises(SimulationDeadlock) as err:
        sim.run()
    assert dropped == [("core", 0, 0)]
    waiters = [("core", 0, 0), ("core", 0, 1), ("core", 1, 0)]
    assert err.value.blocked == [(node, ("lock", 64)) for node in waiters]
    assert str(err.value) == (
        "event queue drained with 3 cores incomplete: ('core', 0, 0):('lock', 64), "
        "('core', 0, 1):('lock', 64), ('core', 1, 0):('lock', 64)")


def test_grant_to_a_core_not_waiting_for_it_is_a_protocol_error():
    sim = tiny_sim()
    grant = Message(128, Opcode.LOCK_GRANT_LOCAL, 0)
    with pytest.raises(ProtocolError) as err:
        sim._on_msg(("core", 0, 0), (grant, ("coord", 0)), 0)
    assert str(err.value) == "LOCK_GRANT_LOCAL(0x80) does not match pending None at ('core', 0, 0)"


def test_inbox_pressure_is_reported():
    cfg = SystemConfig(num_units=1, cores_per_unit=16, inbox_depth=2)
    steps = {i: [("lock_acquire", 64), ("lock_release", 64)] for i in range(15)}
    stats = Simulation(cfg, Script(cfg, steps)).run()
    assert stats.max_inbox_depth > 2
    assert stats.inbox_pressure_events > 0


def test_table_occupancy_is_integrated_exactly():
    # core 0's lock takes an entry at 800 (its request arrives); core 1's
    # request waits in the inbox and takes a second entry at 12_800, when
    # the first service ends; the releases free them at 24_800 and 36_800,
    # and the run ends with the last service at 48_800
    cfg = SystemConfig(num_units=1, cores_per_unit=3, st_entries=4)
    steps = {0: [("lock_acquire", 64), ("lock_release", 64)],
             1: [("compute", 5), ("lock_acquire", 128), ("lock_release", 128)]}
    sim = Simulation(cfg, Script(cfg, steps), trace=True)
    stats = sim.run()
    assert [(r.t, r.kind) for r in sim.trace if r.kind.startswith("st_")] == [
        (800, "st_reserve"), (12_800, "st_reserve"), (24_800, "st_release"),
        (36_800, "st_release")]
    assert stats.time_ps == 48_800
    area = 1 * (12_800 - 800) + 2 * (24_800 - 12_800) + 1 * (36_800 - 24_800)
    assert stats.st_avg_occupancy == [area / (48_800 * 4)]
    assert stats.st_max_occupancy == [2 / 4]


def test_stats_dict_shape():
    sim = tiny_sim(steps={0: [("lock_acquire", 64), ("lock_release", 64)]})
    d = sim.run().to_dict()
    for key in ("time_ps", "time_ns", "ops", "workload", "messages", "bytes",
                "mem_accesses", "energy_fj", "sync_table", "network"):
        assert key in d, key
    assert d["energy_fj"]["total"] == (d["energy_fj"]["network"]
                                       + d["energy_fj"]["memory"]
                                       + d["energy_fj"]["cache"])
    assert d["sync_table"]["requests"] >= d["sync_table"]["overflowed"]
    for occ in d["sync_table"]["avg_occupancy"] + d["sync_table"]["max_occupancy"]:
        assert 0.0 <= occ <= 1.0


# -- message hot path ------------------------------------------------------------


SCHEMES = ("syncron", "flat", "central", "hier", "ideal")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_untraced_run_never_encodes(scheme, monkeypatch):
    def refuse(msg):
        raise AssertionError(f"encode called without tracing: {msg}")

    monkeypatch.setattr(sim_module, "encode", refuse)
    # st_entries=1 also drives the overflow path and table reserve/release events
    for workload in ("condvar", "hash_table"):
        cfg = SystemConfig(num_units=2, cores_per_unit=4, scheme=scheme, st_entries=1)
        sim = Simulation(cfg, make_workload(cfg, workload, seed=3))
        stats = sim.run()
        assert stats.completed_ops > 0
        assert sim.trace == [] and sim.wire_log == bytearray()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", ("lock", "condvar"))
def test_by_opcode_counts_every_message(scheme, workload):
    cfg = SystemConfig(num_units=2, cores_per_unit=4, scheme=scheme)
    stats = Simulation(cfg, make_workload(cfg, workload, seed=3)).run()
    assert sum(stats.by_opcode.values()) == stats.messages_intra + stats.messages_inter
    assert all(n > 0 for n in stats.by_opcode.values())


@pytest.mark.parametrize("locals_", [(0,), (0, 1, 2)], ids=["missing", "extra"])
def test_programs_must_cover_exactly_the_clients(locals_):
    cfg = SystemConfig(num_units=1, cores_per_unit=3)  # clients 0 and 1
    wl = Script(cfg)
    wl.programs = lambda: {("core", 0, i): iter(()) for i in locals_}
    with pytest.raises(ProtocolError, match="do not cover exactly"):
        Simulation(cfg, wl)


def test_widest_packed_core_id_encodes():
    # 4 units x 16 clients: the overflow path packs ids up to 63
    cfg = SystemConfig(num_units=4, cores_per_unit=16, clients_per_unit=16, st_entries=1)
    sim = Simulation(cfg, make_workload(cfg, "hash_table", seed=3,
                                        params={"ops_per_core": 2}), trace=True)
    stats = sim.run()
    assert stats.sync_overflowed > 0
    assert len(sim.wire_log) == 18 * (stats.messages_intra + stats.messages_inter)


# -- one step vocabulary ---------------------------------------------------------


def test_requests_stats_and_oracle_name_the_same_step_kinds():
    oracle = {name for name, fn in vars(IdealOracle).items()
              if callable(fn) and not name.startswith("_")}
    assert list(Stats().ops) == list(sim_module._REQUEST)
    assert set(sim_module._REQUEST) == oracle and len(oracle) == 8


def test_unknown_step_kind_rejected():
    sim = tiny_sim(steps={0: [("lock_upgrade", 64)]})
    with pytest.raises(ProtocolError, match="^unknown workload step 'lock_upgrade'$"):
        sim.run()


def every_step_kind(cfg):
    """Client steps on 2x3 that use all eight step kinds: condvar CV and
    semaphore S on unit 0, the condvar's lock L and barrier B on unit 1.
    Clients 0-2 wait on CV; client 3, holding L, signals one of them and
    later broadcasts to the other two; then all four meet at B and take S."""
    CV, S = 0x10_000, 0x10_040
    L, B = cfg.unit_mem_bytes + 0x10_000, cfg.unit_mem_bytes + 0x10_040
    tail = [("barrier_wait", B, 4, False), ("sem_wait", S, 1), ("sem_post", S)]
    waiter = [("lock_acquire", L), ("cond_wait", CV, L), ("lock_release", L)] + tail

    def wake(kind):
        return [("compute", 20_000), ("lock_acquire", L), (kind, CV), ("lock_release", L)]

    return {0: waiter, 1: list(waiter), 2: list(waiter),
            3: wake("cond_signal") + wake("cond_broadcast") + tail}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_step_kind_counts_alike_under_every_scheme(scheme):
    # a cond wait counts its lock's release at issue and itself at the wake
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme=scheme)
    sim = Simulation(cfg, Script(cfg, every_step_kind(cfg)), trace=True)
    assert sim.run().ops == {"lock_acquire": 5, "lock_release": 8, "barrier_wait": 4,
                             "sem_wait": 4, "sem_post": 4, "cond_wait": 3,
                             "cond_signal": 1, "cond_broadcast": 1}
    assert verify_trace(sim.trace) == []


def test_flat_condvar_master_releases_and_reacquires_the_lock_at_its_master():
    # CV's master, unit 0, releases each waiter's lock L at L's master, unit 1,
    # and re-acquires it there for each woken waiter
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme="flat")
    sim = Simulation(cfg, Script(cfg, every_step_kind(cfg)), trace=True)
    sim.run()
    L = cfg.unit_mem_bytes + 0x10_000
    forwarded = [Opcode(r.info).name for r in sim.trace
                 if r.kind == "msg_send" and r.local == -1 and r.unit == 0 and r.addr == L]
    assert forwarded == ["LOCK_RELEASE_LOCAL"] * 3 + ["LOCK_ACQUIRE_LOCAL"] * 3


# -- scheme axes -----------------------------------------------------------------

# per scheme on 2 units x 3 cores: coordinator units, whether they are software
# servers, whether wire ids pack {unit, core}, and the unit whose coordinator
# receives core (0, 0)'s requests for a lock homed on unit 1
AXES = {
    "syncron": ({0, 1}, False, False, 0),
    "flat": ({0, 1}, False, True, 1),
    "central": ({0}, True, True, 0),
    "hier": ({0, 1}, True, False, 0),
    "ideal": (set(), None, False, None),
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_simulation_follows_scheme_axes(scheme):
    units, server, packed, receiver = AXES[scheme]
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme=scheme)
    lock = cfg.unit_mem_bytes + 0x10_000
    sim = Simulation(cfg, Script(cfg, {0: [("lock_acquire", lock), ("lock_release", lock)]}))
    assert set(sim.coords) == units
    assert (sim.oracle is not None) == (scheme == "ideal")
    for crt in sim.coords.values():
        assert (crt.coordinator.table is None, crt.cache is not None) == (server, server)
    for crt in sim.cores:
        _, unit, local = crt.node
        assert crt.wire_id == (unit << 2 | local if packed else local)
    sent = []

    def record(msg, src, dst):
        if src[0] == "core":
            sent.append((msg.opcode, dst))
        return False

    sim.drop_filter = record
    sim.run()
    assert sent == ([] if receiver is None else
                    [(Opcode.LOCK_ACQUIRE_LOCAL, ("coord", receiver)),
                     (Opcode.LOCK_RELEASE_LOCAL, ("coord", receiver))])


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "ideal"])
def test_sync_address_outside_memory_rejected(scheme):
    cfg = SystemConfig(num_units=2, cores_per_unit=3, scheme=scheme)
    lock = 2 * cfg.unit_mem_bytes + 64
    sim = Simulation(cfg, Script(cfg, {0: [("lock_acquire", lock), ("lock_release", lock)]}))
    with pytest.raises(ConfigError, match="outside system memory"):
        sim.run()


# -- network invariants ------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_traffic_keeps_pair_order_and_link_fifo(seed):
    """Per-pair arrivals never decrease and each link's free time never
    decreases, in call order. Each episode heats one unit's crossbar, then
    sends from that unit while the burst leaves the window: a send that
    still pays the queueing cap is followed by ones that no longer do."""
    rng = random.Random(seed)
    net, _ = make_network(units=4)
    nodes = [("core", u, l) for u in range(4) for l in range(3)] + [("coord", u) for u in range(4)]
    last_arrival = {}
    link_free = [row[:] for row in net._link_free]
    t = 0
    for _ in range(150):
        unit = rng.randrange(4)
        for _ in range(rng.randrange(1500)):
            net._cross_xbar(unit, 18, t)
        local = [n for n in nodes if n[1] == unit]
        pairs = [(src, dst) for src, dst in
                 ((rng.choice(local), rng.choice(nodes)) for _ in range(3)) if src != dst]
        t += net._window_ps - rng.randrange(20_000)
        for _ in range(40):
            t += rng.randrange(2000)
            if not pairs or rng.random() < 0.2:  # memory traffic, dated ahead
                net.memory_access(rng.randrange(4), rng.randrange(4), rng.random() < 0.5,
                                  t + rng.randrange(100_000), sync_var=rng.random() < 0.3)
            else:
                pair = rng.choice(pairs)
                arrival = net.send_message(*pair, t)
                assert arrival >= last_arrival.get(pair, 0), pair
                last_arrival[pair] = arrival
            for s in range(4):
                for d in range(4):
                    assert net._link_free[s][d] >= link_free[s][d], (s, d)
            link_free = [row[:] for row in net._link_free]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", ("hash_table", "linked_list"))
def test_energy_is_traffic_times_rates(scheme, workload):
    cfg = SystemConfig(num_units=4, cores_per_unit=4, scheme=scheme)
    sim = Simulation(cfg, make_workload(cfg, workload, seed=3))
    s = sim.run()
    en = sim.en
    assert s.bytes_intra > 0 and s.mem_local + s.mem_remote + s.mem_sync_var > 0
    assert s.energy_network_fj == (s.bytes_intra * 8 * en.intra_fj_per_bit
                                   + s.bytes_inter * 8 * en.inter_fj_per_bit)
    assert s.energy_memory_fj == (s.mem_local + s.mem_remote + s.mem_sync_var) * en.memory_fj(64)
