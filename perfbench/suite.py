"""The benchmark's workloads: each one is a fixed, ordered batch of CLI runs.

Imports nothing but the standard library's ``os``, so the set-up probe can
load it before its clock starts. README.md explains why each workload exists.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Each workload: schemes x simulator workloads x unit counts, in this order.
WORKLOADS = {
    "hot_sync": {
        "schemes": ("syncron", "flat", "hier", "central"),
        "workloads": ("lock", "barrier", "semaphore", "condvar"),
        "units": (4,),
        "cores_per_unit": 16,
        "st_entries": 64,
        "flags": (),
    },
    "overflow_ds": {
        "schemes": ("syncron", "flat", "hier", "ideal"),
        "workloads": ("stack", "queue", "array_map", "hash_table", "linked_list"),
        "units": (4,),
        "cores_per_unit": 16,
        "st_entries": 4,
        "flags": (),
    },
    "verified_small": {
        "schemes": ("syncron", "flat", "central", "hier", "ideal"),
        "workloads": ("lock", "barrier", "semaphore", "condvar", "stack",
                      "queue", "array_map", "hash_table", "linked_list"),
        "units": (1, 2, 4),
        "cores_per_unit": 4,
        "st_entries": 64,
        "flags": ("--trace", "--verify"),
    },
}


def runs(name, seed):
    """The workload's runs in order, as dicts of run parameters."""
    spec = WORKLOADS[name]
    return [
        {"scheme": scheme, "workload": workload, "units": units,
         "cores_per_unit": spec["cores_per_unit"],
         "st_entries": spec["st_entries"], "seed": seed,
         "traced": "--trace" in spec["flags"] or "--verify" in spec["flags"],
         "flags": spec["flags"]}
        for scheme in spec["schemes"]
        for workload in spec["workloads"]
        for units in spec["units"]
    ]


def run_config(run):
    """The ``ndpsync.cli.RunConfig`` of one run (``SRC`` must be importable)."""
    from ndpsync.cli import RunConfig
    return RunConfig(scheme=run["scheme"], workload=run["workload"],
                     units=run["units"], cores_per_unit=run["cores_per_unit"],
                     st_entries=run["st_entries"], seed=run["seed"])


def argv(run, out_dir):
    """The ``ndpsync`` command line for one run."""
    return ["--scheme", run["scheme"], "--workload", run["workload"],
            "--units", str(run["units"]),
            "--cores-per-unit", str(run["cores_per_unit"]),
            "--st-entries", str(run["st_entries"]),
            "--seed", str(run["seed"]), "--out", out_dir, *run["flags"]]
