"""ndpsync benchmark: batches of CLI runs, timed on the host.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. ``--trace 0`` prints the end-to-end
metrics, measured with no spans installed; ``--trace 1`` prints the per-layer
metrics of a traced pass. Each batch runs in a fresh interpreter, one after
the other (never two at once), and batches repeat until ``--seconds`` have
passed. The last line of standard output is the result as one JSON object.
README.md says what each figure means and how it combines the batches.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import suite

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(suite.ROOT, ".perfbench_work")
# Probes are spread between the batches, so their median spans the whole run.
SETUP_PROBES_PER_BATCH = 5
MIN_BATCHES = 3
# A whole invocation must end within 180 s; no batch may outlast this.
LIMIT_S = 170
STARTED = time.monotonic()

END_TO_END_UNITS = {"sweep_s": "s", "host_us_per_msg": "us", "setup_s": "s",
                    "peak_rss_mib": "MiB"}
MODEL_UNITS = {"messages_intra": "count", "messages_inter": "count",
               "mem_sync_var": "count", "saturation_events": "count",
               "max_inbox_depth": "count", "overflow_fraction": "ratio",
               "st_max_occupancy": "ratio"}
NOTE = ("host times only; the simulated model is unvalidated, as the "
        "repository holds no reference results")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child(script, *args):
    """Run ``perfbench/<script>`` in a fresh interpreter; its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              cwd=suite.ROOT, capture_output=True, text=True,
                              timeout=max(1.0, LIMIT_S - (time.monotonic() - STARTED)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {' '.join(args)} ran past {LIMIT_S} s "
                         f"after the benchmark started") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return lines[-1]


def batch(workload, seed, index, spans=False):
    work = os.path.join(WORK, f"batch_{index:03d}")
    args = ["--workload", workload, "--seed", str(seed), "--work", work]
    return json.loads(child("batches.py", *args, *(["--spans"] if spans else [])))


def batches_for(seconds, minimum, make):
    """Call ``make(i)`` until ``seconds`` have passed and ``minimum`` calls are done."""
    out, start = [], time.perf_counter()
    while len(out) < minimum or time.perf_counter() - start < seconds:
        out.append(make(len(out)))
    return out


def end_to_end(workload, seed, seconds):
    """Untraced batches, each after a few set-up probes, for ``seconds``."""
    rounds = batches_for(seconds, MIN_BATCHES, lambda i: (
        [float(child("setup_probe.py", workload, str(seed)))
         for _ in range(SETUP_PROBES_PER_BATCH)],
        batch(workload, seed, i)))
    # the fastest probe of each round is its least disturbed one
    setup = [min(probes) for probes, _ in rounds]
    done = [b for _, b in rounds]
    return done, end_to_end_metrics(done, setup)


def fastest_sweep_s(done):
    """Batch time with each run at its fastest over the batches ``done``.

    Load from outside this benchmark comes and goes within seconds and only
    ever adds time, so each run's fastest repeat is its least disturbed one.
    """
    return sum(min(times) for times in zip(*(b["run_s"] for b in done)))


def end_to_end_metrics(done, setup):
    """Figures over the untraced batches ``done`` and set-up times ``setup``."""
    sweep_s = fastest_sweep_s(done)
    values = {
        "sweep_s": sweep_s,
        # a batch whose every run failed has no messages; correct is false then
        "host_us_per_msg": sweep_s * 1e6 / max(done[0]["messages"], 1),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(b["peak_rss_mib"] for b in done),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(workload, seed, seconds):
    """Alternate untraced and traced batches until ``seconds`` have passed."""
    pairs = batches_for(seconds, 1, lambda i: (
        batch(workload, seed, 2 * i), batch(workload, seed, 2 * i + 1, spans=True)))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    return plain + traced, per_layer_metrics(plain, traced)


def per_layer_metrics(plain, traced):
    """Medians of the traced batches' spans, the model counts, trace overhead."""
    metrics = {name: (statistics.median(t["layers"][name][0] for t in traced), unit)
               for name, (_value, unit) in traced[0]["layers"].items()}
    model = traced[0]["model"]
    for name, unit in MODEL_UNITS.items():
        metrics[f"model.{name}"] = (model[name], unit)
    metrics["trace_overhead"] = (fastest_sweep_s(traced) / fastest_sweep_s(plain), "ratio")
    return metrics


def context(seed):
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(suite.ROOT, ".git")):
        proc = subprocess.run(["git", "-C", suite.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "seed": seed, "note": NOTE}


def result(done, metrics):
    """The final JSON object; correct when no run failed and outputs repeat."""
    attempted = sum(b["runs"] for b in done)
    failed = sum(len(b["failed"]) for b in done)
    repeatable = len({b["fingerprint"] for b in done}) == 1
    return {"correct": failed == 0 and repeatable, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(suite.SRC, "ndpsync", "cli.py")):
        print(f"error: no ndpsync sources under {suite.SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    print(json.dumps({"context": context(args.seed)}, sort_keys=True))
    measure = per_layer if args.trace else end_to_end
    try:
        done, metrics = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    out = result(done, metrics)
    for index, run, reason in sorted({(f["index"], f["run"], f["reason"])
                                      for b in done for f in b["failed"]}):
        print(f"failed run {index} {run}: {reason}", file=sys.stderr)
    print(f"{args.workload}: {len(done)} batches, fingerprint {done[0]['fingerprint']}")
    lines = {"runs": (out["attempted"], "count"), "failed_runs": (out["failed"], "count"),
             **metrics}
    for name, (value, unit) in lines.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
