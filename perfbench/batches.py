"""Run one workload's batch of ``ndpsync.cli.main`` calls in this process.

    python3 perfbench/batches.py --workload NAME --seed N --work DIR [--spans]

Each run is one call with its own output directory. A run that raises,
returns non-zero or fails a check below is counted as failed and the batch
goes on. The last line of standard output is one JSON object with the batch's
figures; ``--spans`` adds the per-layer span totals.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from collections import defaultdict

import suite

sys.path.insert(0, suite.SRC)

from ndpsync import cli, workloads  # noqa: E402

OUTPUTS = ("stats.json", "stats.csv", "trace.jsonl", "trace.bin")


def declared_total(run):
    """The workload's declared operation total, or None if it declares none."""
    rc = suite.run_config(run)
    expected = workloads.make_workload(rc.system_config(), rc.workload,
                                       rc.seed).expected_ops()
    return max(expected.values()) if expected else None


def check_stats(run, stats):
    """Why a run's statistics are wrong, or None if they pass."""
    if stats["sync_table"]["counters_end_total"] != 0:
        return f"counters_end_total is {stats['sync_table']['counters_end_total']}"
    want = declared_total(run)
    done = stats["workload"]["completed_ops"]
    if want is not None and done < want:
        return f"completed_ops {done} short of declared {want}"
    return None


def _call(argv, quiet):
    """One ``cli.main`` call: (seconds, error or None)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(quiet):
            code = cli.main(argv)
        error = None if code == 0 else f"cli.main returned {code}"
    except Exception as exc:  # a crashing run costs only itself
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def run_batch(runs, work_dir):
    """Run ``runs`` in order under ``work_dir``; returns the batch's figures."""
    fingerprint = hashlib.sha256()
    run_s = []
    errors = {}
    digests = defaultdict(dict)
    model = dict.fromkeys(("messages_intra", "messages_inter", "mem_sync_var",
                           "saturation_events", "max_inbox_depth",
                           "sync_requests", "sync_overflowed"), 0)
    occupancy = 0.0
    with open(os.devnull, "w") as quiet:
        for index, run in enumerate(runs):
            out = os.path.join(work_dir, f"run_{index:03d}")
            seconds, error = _call(suite.argv(run, out), quiet)
            run_s.append(seconds)
            for name in OUTPUTS:
                path = os.path.join(out, name)
                if os.path.exists(path):
                    with open(path, "rb") as f:
                        fingerprint.update(f.read())
            stats_path = os.path.join(out, "stats.json")
            if error is None and not os.path.exists(stats_path):
                error = "stats.json missing"
            if error is None:
                with open(stats_path) as f:
                    stats = json.load(f)["stats"]
                error = check_stats(run, stats)
                group = (run["workload"], run["units"], run["seed"])
                digests[group][index] = stats["workload"]["digest"]
                model["messages_intra"] += stats["messages"]["intra"]
                model["messages_inter"] += stats["messages"]["inter"]
                model["mem_sync_var"] += stats["mem_accesses"]["sync_var"]
                model["saturation_events"] += stats["network"]["saturation_events"]
                model["max_inbox_depth"] = max(model["max_inbox_depth"],
                                               stats["network"]["max_inbox_depth"])
                model["sync_requests"] += stats["sync_table"]["requests"]
                model["sync_overflowed"] += stats["sync_table"]["overflowed"]
                occupancy = max([occupancy, *stats["sync_table"]["max_occupancy"]])
            if error is not None:
                errors[index] = error
            shutil.rmtree(out, ignore_errors=True)
    for group, by_run in digests.items():
        if len(set(by_run.values())) > 1:
            for index in by_run:
                errors.setdefault(index, f"digest differs across schemes for {group}")
    requests = model.pop("sync_requests")
    overflowed = model.pop("sync_overflowed")
    model["overflow_fraction"] = overflowed / requests if requests else 0.0
    model["st_max_occupancy"] = occupancy
    return {
        "runs": len(runs),
        "failed": [{"index": i, "run": f"{runs[i]['scheme']}/{runs[i]['workload']}"
                    f"/units={runs[i]['units']}", "reason": errors[i]}
                   for i in sorted(errors)],
        "run_s": run_s,
        "messages": model["messages_intra"] + model["messages_inter"],
        "fingerprint": fingerprint.hexdigest(),
        "model": dict(model),
    }


def peak_rss_mib():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for run outputs")
    parser.add_argument("--spans", action="store_true",
                        help="record per-layer spans (the traced pass)")
    args = parser.parse_args()
    runs = suite.runs(args.workload, args.seed)
    os.makedirs(args.work, exist_ok=True)
    if args.spans:
        import layers
        recorder = layers.Recorder()
        with layers.installed(recorder):
            result = run_batch(runs, args.work)
        result["layers"] = layers.layer_metrics(recorder)
    else:
        result = run_batch(runs, args.work)
    result["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
