"""The benchmark's set-up path still builds every run it times.

perfbench/setup_probe.py builds each run's RunConfig, SystemConfig, workload
and Simulation through ndpsync.cli without running them; a change to those
entry points that breaks the probe must fail here, not first in a benchmark run.
"""

import importlib.util
import os

import pytest

from ndpsync import cli

SUITE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "suite.py")


def load_suite():
    spec = importlib.util.spec_from_file_location("perfbench_suite", SUITE)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


@pytest.mark.parametrize("name", ("hot_sync", "overflow_ds", "verified_small"))
def test_benchmark_runs_build_as_the_setup_probe_builds_them(name):
    suite = load_suite()
    runs = suite.runs(name, 7)
    assert runs
    for run in runs:
        rc = suite.run_config(run)
        cfg = rc.system_config()
        workload = cli.make_workload(cfg, rc.workload, rc.seed, rc.workload_params)
        sim = cli.Simulation(cfg, workload, latency=rc.latency_model(), trace=run["traced"])
        assert len(sim.cores) == cfg.total_clients
