"""The benchmark's span targets still name real entry points.

perfbench/layers.py patches ndpsync functions and methods looked up by name;
a rename in src/ must fail here, not first in a benchmark run.
"""

import importlib.util
import os

from ndpsync import baselines, cli, engine, sim

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def test_benchmark_spans_install_and_restore():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    originals = (cli.main, sim.Simulation.run, engine.Coordinator.handle,
                 baselines.IdealOracle.lock_acquire)
    with layers.installed(layers.Recorder()):
        assert engine.Coordinator.handle is not originals[2]
    assert (cli.main, sim.Simulation.run, engine.Coordinator.handle,
            baselines.IdealOracle.lock_acquire) == originals
