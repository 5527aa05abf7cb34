"""Count the Python-level calls of each benchmark workload's runs.

    python3 tools/count_calls.py --seed 7
    python3 tools/count_calls.py --workload hot_sync --seed 7

Without ``--workload`` it counts every workload of ``perfbench/suite.py`` in
order, one line each. Profiles, with the standard library's cProfile,
``ndpsync.cli.run_once`` for each run of the workload in ``perfbench/suite.py``
order, plus
``verifier.verify_trace`` for the runs the benchmark verifies, and prints the
total number of calls, built-ins included, the simulated messages of those runs
(``messages_intra + messages_inter``) and the calls per message. The count does
not depend on host load or on the process's memory layout, so two commits
compare with one invocation each.
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
    """(total calls, simulated messages) over the workload's runs at `seed`; the
    messages are summed outside the profiler, so they add no calls."""
    profile = cProfile.Profile()
    messages = 0
    for run in suite.runs(workload, seed):
        stats, sim = profile.runcall(cli.run_once, suite.run_config(run), trace=run["traced"])
        messages += stats.messages_intra + stats.messages_inter
        if "--verify" in run["flags"]:
            profile.runcall(verify_trace, sim.trace, sim.workload.expected_ops())
    return total_calls(profile), messages


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS),
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for workload in [args.workload] if args.workload else suite.WORKLOADS:
        calls, messages = count_calls(workload, args.seed)
        print(f"{workload} seed {args.seed}: {calls:,} calls, {messages:,} messages, "
              f"{calls / messages:.1f} calls per message")


if __name__ == "__main__":
    main()
