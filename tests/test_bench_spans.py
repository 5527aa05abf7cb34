"""The benchmark's span targets still name real entry points.

perfbench/layers.py patches ndpsync functions and methods looked up by name;
a rename in src/ must fail here, not first in a benchmark run.
"""

import importlib.util
import os

from ndpsync import baselines, cli, engine, sim
from ndpsync.topology import SystemConfig
from ndpsync.workloads import make_workload

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_spans_install_and_restore():
    layers = load_layers()
    originals = (cli.main, sim.Simulation.run, engine.Coordinator.handle,
                 baselines.IdealOracle.lock_acquire)
    with layers.installed(layers.Recorder()):
        assert engine.Coordinator.handle is not originals[2]
    assert (cli.main, sim.Simulation.run, engine.Coordinator.handle,
            baselines.IdealOracle.lock_acquire) == originals


def test_oracle_span_counts_every_ideal_step():
    # the runtime serves each ideal step through an IdealOracle method, which
    # the benchmark's baselines.IdealOracle span counts, and each through handle
    layers = load_layers()
    cfg = SystemConfig(num_units=2, cores_per_unit=4, scheme="ideal")
    with layers.installed(layers.Recorder()) as recorder:
        stats = sim.Simulation(cfg, make_workload(cfg, "lock", seed=3,
                                                  params={"iterations": 3})).run()
    steps = stats.ops["lock_acquire"] + stats.ops["lock_release"]
    assert steps == 2 * 6 * 3
    assert recorder.calls["baselines.IdealOracle"] == steps
    assert recorder.calls["engine.Coordinator.handle"] == steps
