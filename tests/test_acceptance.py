"""Acceptance gate.

Twelve pinned criteria covering wire-format exactness, protocol replay,
safety under every scheme/workload/size combination, cross-scheme result
equivalence, contention and latency-sensitivity trends, overflow handling,
occupancy accounting, energy ordering, byte-level determinism, and the
cost-model arithmetic. Each test prints exactly one PASS/FAIL line.
"""

import random
import struct
import time
from contextlib import contextmanager

import pytest

from ndpsync import cli
from ndpsync.messages import Message, Opcode, decode, encode
from ndpsync.sim import EnergyModel, LatencyModel
from ndpsync.topology import SCHEMES
from ndpsync.verifier import verify_trace
from ndpsync.workloads import WORKLOAD_NAMES

STRUCTURES = ("stack", "queue", "array_map", "hash_table", "linked_list")


@contextmanager
def report(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:02d} {name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: PASS", flush=True)


def run(scheme, workload, units=4, cores_per_unit=16, seed=0, st_entries=64,
        index_counters=256, link_latency_ns=None, params=None, trace=False):
    rc = cli.RunConfig(scheme=scheme, workload=workload, units=units,
                       cores_per_unit=cores_per_unit, seed=seed,
                       st_entries=st_entries, index_counters=index_counters,
                       link_latency_ns=link_latency_ns,
                       workload_params=params or {})
    return cli.run_once(rc, trace=trace)


@pytest.fixture(scope="module")
def lock_runs():
    """Full-size lock microbenchmark, shared by criteria 5 and 10."""
    return {scheme: run(scheme, "lock")[0]
            for scheme in ("syncron", "hier", "central", "ideal")}


def test_criterion_01_codec_exactness(capsys):
    with report(capsys, 1, "codec exactness"):
        zero = encode(Message(0, Opcode(0), 0, 0))
        assert zero == bytes(18)
        top = ((1 << 64) - 1, 37, 63, (1 << 64) - 1)
        assert encode(Message(top[0], Opcode(37), top[2], top[3])) == \
            struct.pack("<QBBQ", *top)

        rng = random.Random(0xACCE)
        start = time.perf_counter()
        for _ in range(100_000):
            msg = Message(rng.getrandbits(64), Opcode(rng.randrange(38)),
                          rng.randrange(64), rng.getrandbits(64))
            raw = encode(msg)
            assert struct.unpack("<QBBQ", raw) == \
                (msg.addr, int(msg.opcode), msg.core_id, msg.info)
            assert decode(raw) == msg
        assert time.perf_counter() - start < 1.0


def test_criterion_02_two_unit_lock_replay(capsys):
    with report(capsys, 2, "two-unit lock replay"):
        stats, sim = run("syncron", "lock", units=2, cores_per_unit=3,
                         params={"iterations": 1, "interval": 0}, trace=True)
        grants = [(r.unit, r.local) for r in sim.trace if r.kind == "cs_enter"]
        assert grants == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # unit 1 aggregates: one global acquire and one global release total
        assert stats.by_opcode["lock_acquire_global"] == 1
        assert stats.by_opcode["lock_release_global"] == 1
        assert stats.by_opcode["lock_grant_global"] == 1
        assert stats.by_opcode["lock_acquire_local"] == 4
        assert stats.by_opcode["lock_grant_local"] == 4


def test_criterion_03_safety_suite(capsys):
    with report(capsys, 3, "safety suite"):
        start = time.perf_counter()
        runs = 0
        for scheme in SCHEMES:
            for workload in WORKLOAD_NAMES:
                for units in (1, 2, 4):
                    for seed in (0, 1, 2):
                        stats, sim = run(scheme, workload, units=units,
                                         cores_per_unit=4, seed=seed,
                                         trace=True)
                        violations = verify_trace(sim.trace,
                                                  sim.workload.expected_ops())
                        assert not violations, (scheme, workload, units, seed,
                                                violations[:3])
                        runs += 1
        assert runs == 405 >= 150
        assert time.perf_counter() - start < 300.0


def test_criterion_04_scheme_equivalence(capsys):
    with report(capsys, 4, "scheme equivalence"):
        for structure in STRUCTURES:
            digests = {run(scheme, structure, units=2, cores_per_unit=4,
                           seed=1)[0].digest for scheme in SCHEMES}
            assert len(digests) == 1, structure


def test_criterion_05_high_contention_trend(capsys, lock_runs):
    with report(capsys, 5, "high-contention trend"):
        thr = {s: lock_runs[s].throughput_ops_per_s
               for s in ("syncron", "hier", "central")}
        assert thr["syncron"] > thr["hier"] > thr["central"]
        assert 1.5 <= thr["syncron"] / thr["central"] <= 6.0
        assert 1.1 <= thr["syncron"] / thr["hier"] <= 2.5


def test_criterion_06_link_latency_sensitivity(capsys):
    with report(capsys, 6, "link-latency sensitivity"):
        latencies = (40.0, 100.0, 200.0, 500.0)

        def slowdown(scheme, ns):
            ideal = run("ideal", "queue", link_latency_ns=ns)[0]
            other = run(scheme, "queue", link_latency_ns=ns)[0]
            return ideal.throughput_ops_per_s / other.throughput_ops_per_s

        central = [slowdown("central", ns) for ns in latencies]
        assert all(b > a for a, b in zip(central, central[1:]))
        assert central[-1] > slowdown("syncron", 500.0)
        assert central[-1] > slowdown("hier", 500.0)


def test_criterion_07_flat_vs_hierarchical(capsys):
    with report(capsys, 7, "flat vs hierarchical"):
        s_far = run("syncron", "queue", link_latency_ns=500.0)[0]
        f_far = run("flat", "queue", link_latency_ns=500.0)[0]
        assert s_far.throughput_ops_per_s / f_far.throughput_ops_per_s >= 1.5

        s_near = run("syncron", "hash_table", link_latency_ns=40.0)[0]
        f_near = run("flat", "hash_table", link_latency_ns=40.0)[0]
        ratio = s_near.throughput_ops_per_s / f_near.throughput_ops_per_s
        assert abs(ratio - 1.0) <= 0.15


def test_criterion_08_overflow_gracefulness(capsys):
    with report(capsys, 8, "overflow gracefulness"):
        params = {"gap": 150, "nodes": 64, "ops_per_core": 12}
        results = {}
        for st in (4, 8, 16, 64):
            stats, sim = run("syncron", "linked_list", cores_per_unit=4,
                             seed=2, st_entries=st, index_counters=4096,
                             params=params, trace=True)
            assert verify_trace(sim.trace) == [], st
            assert stats.counters_end_total == 0, st
            results[st] = stats
        fractions = [results[st].overflow_fraction for st in (4, 8, 16, 64)]
        assert fractions[0] > 0.0
        assert all(a > b for a, b in zip(fractions, fractions[1:]))
        ratio = (results[4].throughput_ops_per_s
                 / results[64].throughput_ops_per_s)
        assert ratio >= 0.75


def test_criterion_09_occupancy_accounting(capsys):
    with report(capsys, 9, "occupancy accounting"):
        single = run("syncron", "lock", st_entries=64)[0]
        involved = [m for m in single.st_max_occupancy if m > 0]
        assert involved and all(m == 1 / 64 for m in involved)

        listy = run("syncron", "linked_list")[0]
        assert max(listy.st_max_occupancy) > max(listy.st_avg_occupancy)
        for seq in (listy.st_max_occupancy, listy.st_avg_occupancy):
            assert all(0.0 <= v <= 1.0 for v in seq)


def test_criterion_10_energy_and_traffic_ordering(capsys, lock_runs):
    with report(capsys, 10, "energy and traffic ordering"):
        e = {s: lock_runs[s].energy_network_fj
             for s in ("central", "hier", "syncron", "ideal")}
        assert e["central"] > e["hier"] > e["syncron"] > e["ideal"] == 0
        assert lock_runs["syncron"].mem_sync_var == 0
        assert lock_runs["syncron"].overflow_fraction == 0.0
        assert lock_runs["hier"].mem_sync_var > 0
        assert lock_runs["central"].mem_sync_var > 0


def test_criterion_11_byte_identical_reruns(capsys, tmp_path):
    with report(capsys, 11, "byte-identical reruns"):
        argv = ["--units", "2", "--cores-per-unit", "4", "--workload",
                "hash_table", "--seed", "5", "--trace"]
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            assert cli.main(argv + ["--out", str(d)]) == 0
        for name in ("stats.json", "stats.csv", "trace.jsonl", "trace.bin"):
            a, b = (d / name for d in dirs)
            assert a.read_bytes() == b.read_bytes(), name


def test_criterion_12_unit_arithmetic(capsys):
    with report(capsys, 12, "unit arithmetic"):
        lat = LatencyModel()
        assert lat.transfer_latency_ps(True, 18) == 800
        assert lat.transfer_latency_ps(False, 64) == 49_600
        assert lat.transfer_latency_ps(False, 65) == 89_600
        with pytest.raises(ValueError):
            lat.transfer_latency_ps(True, 0)

        expected = {"hbm": (24_000, 14_000), "hmc": (51_000, 36_000),
                    "ddr4": (55_000, 34_000)}
        for tech, (read_ps, write_ps) in expected.items():
            model = LatencyModel.create(tech)
            assert model.mem_read_ps == read_ps
            assert model.mem_write_ps == write_ps

        en = EnergyModel()
        assert en.intra_fj(18) == 57_600        # 57.6 pJ
        assert en.inter_fj(18) == 576_000
        assert en.memory_fj(64) == 3_584_000    # 3.584 nJ
        assert en.l1_hit_fj == 23_000
        assert en.l1_miss_fj == 47_000
