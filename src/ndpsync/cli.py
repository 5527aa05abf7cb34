"""Command-line front end: single runs, parameter sweeps, trace export.

Outputs (all under --out, default current directory):
  stats.json   schema_version, the resolved configuration(s), full statistics
  stats.csv    one flattened row per run, stable column order
  trace.jsonl  one JSON object per trace record      (with --trace),
               streamed in fixed-size chunks of records
  trace.bin    concatenated 18-byte wire messages    (with --trace)

Identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import itertools
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .sim import DRAM_PS, LatencyModel, Simulation, Stats, write_trace_jsonl
from .topology import MIB, SCHEMES, SystemConfig
from .verifier import verify_trace
from .workloads import WORKLOAD_NAMES, check_workload, make_workload

SCHEMA_VERSION = 1

# stats.csv columns after "run", each with its dotted key in stats_payload()
_CSV_SOURCE = {
    "scheme": "config.scheme",
    "workload": "config.workload",
    "units": "config.units",
    "cores_per_unit": "config.cores_per_unit",
    "st_entries": "config.st_entries",
    "link_latency_ns": "config.link_latency_ns",  # csv writes None as ""
    "memory": "config.memory",
    "seed": "config.seed",
    "time_ns": "stats.time_ns",
    "completed_ops": "stats.workload.completed_ops",
    "throughput_ops_per_s": "stats.workload.throughput_ops_per_s",
    "messages_intra": "stats.messages.intra",
    "messages_inter": "stats.messages.inter",
    "bytes_intra": "stats.bytes.intra",
    "bytes_inter": "stats.bytes.inter",
    "mem_local": "stats.mem_accesses.local",
    "mem_remote": "stats.mem_accesses.remote",
    "mem_sync_var": "stats.mem_accesses.sync_var",
    "energy_network_fj": "stats.energy_fj.network",
    "energy_memory_fj": "stats.energy_fj.memory",
    "energy_cache_fj": "stats.energy_fj.cache",
    "energy_total_fj": "stats.energy_fj.total",
    "overflow_fraction": "stats.sync_table.overflow_fraction",
    "st_max_occupancy": "stats.sync_table.max_occupancy",  # per unit; the row keeps the max
    "counters_end_total": "stats.sync_table.counters_end_total",
    "saturation_events": "stats.network.saturation_events",
    "max_inbox_depth": "stats.network.max_inbox_depth",
    "digest": "stats.workload.digest",
}
CSV_COLUMNS = ("run", *_CSV_SOURCE)

# run knobs, each a RunConfig field set by its own flag and by --sweep:
# key -> (value parser, argparse choices), in --help order
_KNOBS = {
    "scheme": (str, SCHEMES),
    "workload": (str, WORKLOAD_NAMES),
    "units": (int, None),
    "cores_per_unit": (int, None),
    "st_entries": (int, None),
    "link_latency_ns": (float, None),
    "memory": (str, tuple(DRAM_PS)),
    "seed": (int, None),
}

# config file keys by section: key -> (RunConfig field, cast); every other
# [workload] key is an integer workload parameter, which check_workload vets
_INI_KEYS = {
    "system": {**{key: (key, int) for key in ("units", "cores_per_unit", "clients_per_unit",
                                              "st_entries", "index_counters", "inbox_depth",
                                              "unit_mem_mib")},
               "scheme": ("scheme", str.strip), "memory": ("memory", str.strip)},
    "latency": {"link_latency_ns": ("link_latency_ns", float)},
    "workload": {"name": ("workload", str.strip)},
    "run": {"seed": ("seed", int)},
}


@dataclasses.dataclass
class RunConfig:
    """One resolved simulation run: system shape, cost knobs, workload, seed."""

    scheme: str = "syncron"
    workload: str = "lock"
    units: int = 4
    cores_per_unit: int = 16
    clients_per_unit: int | None = None
    st_entries: int = 64
    index_counters: int = 256
    inbox_depth: int = 16
    unit_mem_mib: int = 1024
    memory: str = "hbm"
    link_latency_ns: float | None = None
    seed: int = 0
    workload_params: dict = dataclasses.field(default_factory=dict)

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            num_units=self.units,
            cores_per_unit=self.cores_per_unit,
            clients_per_unit=self.clients_per_unit,
            st_entries=self.st_entries,
            index_counters=self.index_counters,
            unit_mem_bytes=self.unit_mem_mib * MIB,
            scheme=self.scheme,
            inbox_depth=self.inbox_depth,
        )

    def latency_model(self) -> LatencyModel:
        return LatencyModel.create(self.memory, self.link_latency_ns)

    def replace(self, **kw) -> "RunConfig":
        kw.setdefault("workload_params", dict(self.workload_params))
        return dataclasses.replace(self, **kw)


def run_once(rc: RunConfig, trace: bool = False):
    """Build and run one simulation; returns (stats, simulation)."""
    cfg = rc.system_config()
    workload = make_workload(cfg, rc.workload, rc.seed, rc.workload_params)
    sim = Simulation(cfg, workload, latency=rc.latency_model(), trace=trace)
    stats = sim.run()
    return stats, sim


def stats_payload(rc: RunConfig, stats: Stats) -> dict:
    return {"config": dataclasses.asdict(rc), "stats": stats.to_dict()}


def _flatten(d: dict, prefix: str = "") -> dict:
    """Nested dict to one level, keys joined with dots."""
    flat = {}
    for key, value in d.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def csv_row(index: int, payload: dict) -> dict:
    """The stats.csv row of run `index` from its stats_payload()."""
    flat = _flatten(payload)
    row = {"run": index}
    row.update((col, flat[key]) for col, key in _CSV_SOURCE.items())
    row["st_max_occupancy"] = max(row["st_max_occupancy"], default=0.0)
    return row


# -- configuration file -----------------------------------------------------------

def load_config_file(path: str) -> RunConfig:
    """The RunConfig an INI file describes; an unknown section or key, a
    malformed file or a bad value raises ConfigError."""
    parser = configparser.ConfigParser()
    rc = RunConfig()
    try:
        if not parser.read(path):
            raise ConfigError("file not found")
        # configparser copies [DEFAULT] keys into every section: allow none
        sections = ([parser.default_section] if parser.defaults() else []) + parser.sections()
        for name in sections:
            keys = _INI_KEYS.get(name)
            if keys is None:
                raise ConfigError(f"unknown section [{name}]; expected one of {sorted(_INI_KEYS)}")
            for key, value in parser.items(name):
                if key in keys:
                    field, cast = keys[key]
                    setattr(rc, field, cast(value))
                elif name == "workload":
                    rc.workload_params[key] = int(value)
                else:
                    raise ConfigError(f"unknown key {key!r} in [{name}]; "
                                      f"expected one of {sorted(keys)}")
    except (configparser.Error, ValueError) as exc:  # ConfigError too: it adds the path
        raise ConfigError(f"config file {path}: {exc}") from exc
    return rc


# -- argument handling ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ndpsync",
        description="Deterministic simulator for hierarchical hardware synchronization "
                    "in near-data-processing systems.")
    p.add_argument("--config", metavar="FILE", help="INI file with [system]/[latency]/[workload]/[run] sections")
    for key, (cast, choices) in _KNOBS.items():
        p.add_argument("--" + key.replace("_", "-"), type=cast, choices=choices)
    p.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    p.add_argument("--trace", action="store_true", help="write trace.jsonl and trace.bin")
    p.add_argument("--sweep", action="append", default=[], metavar="KEY=V1,V2,...",
                   help="sweep a parameter; repeatable, sweeps combine as a cartesian product")
    p.add_argument("--verify", action="store_true",
                   help="run safety monitors on the trace; non-zero exit on violations")
    return p


def parse_sweeps(specs: list[str]) -> list[tuple[str, list]]:
    sweeps = []
    for spec in specs:
        key, eq, values = spec.partition("=")
        key = key.strip().replace("-", "_")
        if not eq or key not in _KNOBS:
            raise ConfigError(f"bad sweep {spec!r}; expected KEY=V1,V2 with KEY in "
                              f"{sorted(_KNOBS)}")
        cast = _KNOBS[key][0]
        try:
            parsed = [cast(v.strip()) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep value in {spec!r}: {exc}") from exc
        if not parsed:
            raise ConfigError(f"sweep {spec!r} lists no values")
        if any(k == key for k, _ in sweeps):
            raise ConfigError(f"sweep key {key!r} given twice; list its values in one --sweep")
        sweeps.append((key, parsed))
    return sweeps


def expand_runs(base: RunConfig, sweeps: list[tuple[str, list]]) -> list[RunConfig]:
    if not sweeps:
        return [base]
    keys = [k for k, _ in sweeps]
    combos = itertools.product(*(vals for _, vals in sweeps))
    return [base.replace(**dict(zip(keys, combo))) for combo in combos]


# -- output writers --------------------------------------------------------------

def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _write_trace(out: Path, suffix: str, sim: Simulation) -> None:
    with open(out / f"trace{suffix}.jsonl", "wb") as f:
        write_trace_jsonl(sim.trace, f)
    (out / f"trace{suffix}.bin").write_bytes(sim.wire_log)


# -- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = load_config_file(args.config) if args.config else RunConfig()
        for key in _KNOBS:
            value = getattr(args, key)
            if value is not None:
                setattr(base, key, value)
        runs = expand_runs(base, parse_sweeps(args.sweep))
        for rc in runs:  # a bad run anywhere in a sweep fails before any run
            check_workload(rc.system_config(), rc.workload, rc.workload_params)
            rc.latency_model()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    want_trace = args.trace or args.verify

    payloads, rows, failures = [], [], 0
    for index, rc in enumerate(runs):
        try:
            stats, sim = run_once(rc, trace=want_trace)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payloads.append(stats_payload(rc, stats))
        rows.append(csv_row(index, payloads[-1]))
        print(f"[{index}] {rc.scheme:8s} {rc.workload:12s} units={rc.units} "
              f"st={rc.st_entries} time={stats.time_ps / 1000.0:.1f} ns "
              f"ops={stats.completed_ops} "
              f"thr={stats.throughput_ops_per_s:.4g} ops/s "
              f"ovf={stats.overflow_fraction:.4f}")
        if args.trace:
            _write_trace(out, "" if len(runs) == 1 else f"_{index:03d}", sim)
        if args.verify:
            violations = verify_trace(sim.trace, sim.workload.expected_ops())
            for v in violations:
                print(f"[{index}] violation: {v}", file=sys.stderr)
            if violations:
                failures += 1
            else:
                print(f"[{index}] verification passed ({len(sim.trace)} trace records)")

    if len(runs) == 1:
        _write_json(out / "stats.json", {"schema_version": SCHEMA_VERSION, **payloads[0]})
    else:
        _write_json(out / "stats.json",
                    {"schema_version": SCHEMA_VERSION, "runs": payloads})
    _write_csv(out / "stats.csv", rows)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
