"""The benchmark's own checks, on small batches that take a second or two.

    PYTHONPATH=src python3 -m pytest -q perfbench/checks.py

The file name keeps them out of the repository's default `pytest` collection.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import batches  # noqa: E402  (puts the ndpsync sources on sys.path)
import layers  # noqa: E402
import run as bench  # noqa: E402
import suite  # noqa: E402
from ndpsync import sim, workloads  # noqa: E402
from ndpsync.messages import Opcode  # noqa: E402

SMALL = [{"scheme": scheme, "workload": "lock", "units": 2, "cores_per_unit": 4,
          "st_entries": 64, "seed": 3, "traced": False, "flags": ()}
         for scheme in ("syncron", "flat", "hier")]


def _benchmark_json():
    with open(os.path.join(suite.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _drop_flat_lock_grants(monkeypatch):
    """The flat run loses every lock grant sent to a core, so it deadlocks."""
    init = sim.Simulation.__init__

    def init_dropping(self, cfg, *args, **kwargs):
        init(self, cfg, *args, **kwargs)
        if cfg.scheme == "flat":
            self.drop_filter = lambda msg, src, dst: msg.opcode is Opcode.LOCK_GRANT_LOCAL

    monkeypatch.setattr(sim.Simulation, "__init__", init_dropping)


def test_failed_run_is_counted_and_the_batch_goes_on(monkeypatch, tmp_path):
    _drop_flat_lock_grants(monkeypatch)
    plain = batches.run_batch(SMALL, str(tmp_path))
    plain["peak_rss_mib"] = batches.peak_rss_mib()
    recorder = layers.Recorder()
    with layers.installed(recorder):
        traced = batches.run_batch(SMALL, str(tmp_path))
    traced["layers"] = layers.layer_metrics(recorder)

    for done in (plain, traced):
        assert done["runs"] == 3
        assert [(f["index"], f["reason"].split(":")[0]) for f in done["failed"]] == \
            [(1, "SimulationDeadlock")]
        assert done["messages"] > 0  # the runs after the failed one still ran
    assert plain["fingerprint"] == traced["fingerprint"]

    spec = _benchmark_json()
    e2e = bench.result([plain], bench.end_to_end_metrics([plain], [0.1]))
    assert (e2e["correct"], e2e["attempted"], e2e["failed"]) == (False, 3, 1)
    assert [(name, m["unit"]) for name, m in e2e["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = bench.result([traced], bench.per_layer_metrics([plain], [traced]))
    assert [(name, m["unit"]) for name, m in layer["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert sorted(suite.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_digest_disagreement_fails_the_whole_group(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.LockMicro, "digest", lambda self: self.cfg.scheme)
    done = batches.run_batch(SMALL, str(tmp_path))
    assert [f["index"] for f in done["failed"]] == [0, 1, 2]
    assert all("digest differs" in f["reason"] for f in done["failed"])


def test_leftover_counters_and_missing_ops_fail_a_run():
    lock = SMALL[0]
    total = batches.declared_total(lock)
    assert total == 6 * 50  # 3 client cores per unit x 2 units x 50 iterations
    stats = {"sync_table": {"counters_end_total": 0},
             "workload": {"completed_ops": total}}
    assert batches.check_stats(lock, stats) is None
    stats["workload"]["completed_ops"] = total - 1
    assert f"short of declared {total}" in batches.check_stats(lock, stats)
    stats["sync_table"]["counters_end_total"] = 1
    assert "counters_end_total is 1" in batches.check_stats(lock, stats)


def test_spans_leave_outputs_and_entry_points_unchanged(tmp_path):
    before = batches.run_batch(SMALL, str(tmp_path))
    main = batches.cli.main
    with layers.installed(layers.Recorder()):
        traced = batches.run_batch(SMALL, str(tmp_path))
    assert batches.cli.main is main
    assert (before["failed"], before["fingerprint"]) == ([], traced["fingerprint"])


def test_exits_non_zero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(suite.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hot_sync",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
