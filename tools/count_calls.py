"""Count the Python-level calls of one benchmark workload's runs.

    python3 tools/count_calls.py --workload hot_sync --seed 7

Profiles, with the standard library's cProfile, ``ndpsync.cli.run_once`` for
each run of the workload in ``perfbench/suite.py`` order, plus
``verifier.verify_trace`` for the runs the benchmark verifies, and prints the
total number of calls, built-ins included. The count does not depend on host
load or on the process's memory layout, so two commits compare with one
invocation each.
"""

import argparse
import cProfile
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import suite  # noqa: E402

sys.path.insert(0, suite.SRC)

from ndpsync import cli  # noqa: E402
from ndpsync.verifier import verify_trace  # noqa: E402


def total_calls(profile):
    """Calls `profile` recorded, summed over its entries, one per code object or
    built-in. (pstats keys entries by file, line and name and keeps one per key,
    so every dataclass's generated `<string>:2:__init__` but one would be lost.)"""
    return sum(entry.callcount for entry in profile.getstats())


def count_calls(workload, seed):
    """Total calls over the workload's runs at `seed`."""
    profile = cProfile.Profile()
    for run in suite.runs(workload, seed):
        _, sim = profile.runcall(cli.run_once, suite.run_config(run), trace=run["traced"])
        if "--verify" in run["flags"]:
            profile.runcall(verify_trace, sim.trace, sim.workload.expected_ops())
    return total_calls(profile)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(f"{args.workload} seed {args.seed}: {count_calls(args.workload, args.seed):,} calls")


if __name__ == "__main__":
    main()
