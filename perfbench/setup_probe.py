"""Time one workload's set-up in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing ``ndpsync.cli`` plus building every run's workload and
``Simulation`` without running it. Prints the seconds it took.
"""

import sys
import time

import suite


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    runs = suite.runs(name, seed)
    sys.path.insert(0, suite.SRC)
    start = time.perf_counter()
    from ndpsync import cli
    for run in runs:
        rc = suite.run_config(run)
        cfg = rc.system_config()
        workload = cli.make_workload(cfg, rc.workload, rc.seed, rc.workload_params)
        cli.Simulation(cfg, workload, latency=rc.latency_model(),
                       trace=run["traced"])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
