import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import ndpsync
from ndpsync import cli
from ndpsync.engine import WAKE_ALL
from ndpsync.errors import ConfigError
from ndpsync.sim import _JSONL_CHUNK, TraceRecord
from ndpsync.topology import SCHEMES

SMALL = ["--units", "2", "--cores-per-unit", "4"]


def read(path):
    return path.read_bytes()


# -- run configs -----------------------------------------------------------------


def test_replace_returns_independent_copy():
    base = cli.RunConfig(workload_params={"iterations": 2})
    other = base.replace(scheme="flat", seed=9)
    assert (other.scheme, other.seed) == ("flat", 9)
    assert (base.scheme, base.seed) == ("syncron", 0)
    other.workload_params["iterations"] = 99
    assert base.workload_params["iterations"] == 2


def test_expand_runs_is_a_cartesian_product():
    base = cli.RunConfig()
    runs = cli.expand_runs(base, [("st_entries", [4, 8]), ("seed", [0, 1, 2])])
    assert [(r.st_entries, r.seed) for r in runs] == [
        (4, 0), (4, 1), (4, 2), (8, 0), (8, 1), (8, 2)]


@pytest.mark.parametrize("spec", ["st_entries", "bogus=1,2", "units=", "units=a,b"])
def test_bad_sweep_specs_rejected(spec):
    with pytest.raises(ConfigError):
        cli.parse_sweeps([spec])


def test_sweep_accepts_dashed_key():
    assert cli.parse_sweeps(["st-entries=4,8"]) == [("st_entries", [4, 8])]


# -- config files ----------------------------------------------------------------


CONFIG_INI = """\
[system]
units = 2
cores_per_unit = 4
st_entries = 16
scheme = hier
memory = ddr4

[latency]
link_latency_ns = 100.0

[workload]
name = stack
ops_per_core = 5

[run]
seed = 3
"""


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_INI)
    rc = cli.load_config_file(str(path))
    assert rc.units == 2 and rc.cores_per_unit == 4 and rc.st_entries == 16
    assert rc.scheme == "hier" and rc.memory == "ddr4"
    assert rc.link_latency_ns == 100.0
    assert rc.workload == "stack" and rc.workload_params == {"ops_per_core": 5}
    assert rc.seed == 3


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError):
        cli.load_config_file("/no/such/file.ini")


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_INI)
    out = tmp_path / "out"
    rv = cli.main(["--config", str(path), "--scheme", "syncron",
                   "--seed", "5", "--out", str(out)])
    assert rv == 0
    payload = json.loads((out / "stats.json").read_text())
    assert payload["config"]["scheme"] == "syncron"
    assert payload["config"]["seed"] == 5
    assert payload["config"]["units"] == 2  # file value survives


# -- outputs ---------------------------------------------------------------------


def test_single_run_outputs(tmp_path):
    out = tmp_path / "out"
    rv = cli.main(SMALL + ["--workload", "queue", "--trace", "--out", str(out)])
    assert rv == 0
    payload = json.loads((out / "stats.json").read_text())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["stats"]["workload"]["completed_ops"] > 0
    csv_lines = (out / "stats.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(csv_lines) == 2
    trace_lines = (out / "trace.jsonl").read_text().splitlines()
    assert trace_lines and all(json.loads(line) for line in trace_lines)
    blob = read(out / "trace.bin")
    assert blob and len(blob) % 18 == 0


def test_identical_invocations_are_byte_identical(tmp_path):
    argv = SMALL + ["--workload", "queue", "--seed", "4", "--trace"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    for name in ("stats.json", "stats.csv", "trace.jsonl", "trace.bin"):
        assert read(out_a / name) == read(out_b / name), name


TRACE_KINDS = {"msg_send", "msg_recv", "cs_enter", "cs_exit", "cond_sleep", "cond_wake",
               "sem_acquire", "sem_release", "barrier_arrive", "barrier_depart", "mem_op",
               "st_reserve", "st_release"}


def reference_jsonl(trace) -> bytes:
    return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in trace).encode()


def test_trace_jsonl_is_the_reference_encoding_of_every_kind(tmp_path, monkeypatch):
    sims = []
    real_run_once = cli.run_once

    def keep(rc, trace=False):
        sims.append(real_run_once(rc, trace))
        return sims[-1]

    monkeypatch.setattr(cli, "run_once", keep)
    out = tmp_path / "out"
    rv = cli.main(SMALL + ["--trace", "--sweep", "workload=stack,barrier,semaphore,condvar",
                           "--out", str(out)])
    assert rv == 0 and len(sims) == 4
    kinds = set()
    for index, (_, sim) in enumerate(sims):
        assert read(out / f"trace_{index:03d}.jsonl") == reference_jsonl(sim.trace)
        kinds.update(r.kind for r in sim.trace)
    assert kinds == TRACE_KINDS
    for kind in kinds:  # written unescaped, so no kind may need escaping
        assert json.dumps(kind) == f'"{kind}"'


def test_trace_jsonl_edge_records_and_empty_trace(tmp_path):
    records = [TraceRecord(0, "msg_send", 3, -1, 0, WAKE_ALL),
               TraceRecord(2**50, "cond_wake", 0, 15, 2**40 + 64, 1)]
    sim = SimpleNamespace(trace=records, wire_log=bytearray(b"x" * 18))
    cli._write_trace(tmp_path, "", sim)
    assert read(tmp_path / "trace.jsonl") == reference_jsonl(records)
    assert read(tmp_path / "trace.bin") == b"x" * 18
    cli._write_trace(tmp_path, "_empty", SimpleNamespace(trace=[], wire_log=bytearray()))
    assert read(tmp_path / "trace_empty.jsonl") == b""
    assert read(tmp_path / "trace_empty.bin") == b""


def synthetic_trace(n):
    kinds = sorted(TRACE_KINDS)
    return [TraceRecord(i * 1_000, kinds[i % len(kinds)], i % 4, i % 17 - 1, 64 * (i % 512), i % 3)
            for i in range(n)]


@pytest.mark.parametrize("n", [_JSONL_CHUNK, 2 * _JSONL_CHUNK + 1])
def test_trace_jsonl_chunk_boundaries(tmp_path, n):
    records = synthetic_trace(n)
    cli._write_trace(tmp_path, "", SimpleNamespace(trace=records, wire_log=bytearray()))
    assert read(tmp_path / "trace.jsonl") == reference_jsonl(records)


def test_trace_jsonl_writer_never_holds_the_whole_text(tmp_path):
    # 100k records make about 9 MiB of text; the writer holds one chunk of it
    sim = SimpleNamespace(trace=synthetic_trace(100_000), wire_log=bytearray())
    tracemalloc.start()
    try:
        cli._write_trace(tmp_path, "", sim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.jsonl").stat().st_size > 8 * 2**20
    assert peak < 2 * 2**20


def test_sweep_outputs_one_row_per_run(tmp_path):
    out = tmp_path / "out"
    rv = cli.main(SMALL + ["--workload", "lock",
                           "--sweep", "st_entries=4,64",
                           "--sweep", "seed=0,1", "--out", str(out)])
    assert rv == 0
    payload = json.loads((out / "stats.json").read_text())
    assert len(payload["runs"]) == 4
    csv_lines = (out / "stats.csv").read_text().splitlines()
    assert len(csv_lines) == 5
    assert [line.split(",")[0] for line in csv_lines[1:]] == ["0", "1", "2", "3"]


def test_sweep_traces_get_numbered_files(tmp_path):
    out = tmp_path / "out"
    rv = cli.main(SMALL + ["--workload", "stack", "--trace",
                           "--sweep", "seed=0,1", "--out", str(out)])
    assert rv == 0
    assert (out / "trace_000.jsonl").exists() and (out / "trace_001.bin").exists()


# -- exit codes ------------------------------------------------------------------


def test_bad_configuration_exits_2(tmp_path):
    rv = cli.main(["--units", "0", "--out", str(tmp_path)])
    assert rv == 2


def test_bad_sweep_exits_2(tmp_path):
    rv = cli.main(["--sweep", "bogus=1", "--out", str(tmp_path)])
    assert rv == 2


@pytest.mark.parametrize("second", ["seed=2", "st-entries=8"], ids=["same", "dashed"])
def test_sweep_key_given_twice_exits_2_before_any_run(tmp_path, capsys, second):
    # one run at the last value would silently drop the first sweep's values
    first = "seed=1" if second == "seed=2" else "st_entries=4"
    rv = cli.main(SMALL + ["--sweep", first, "--sweep", second, "--out", str(tmp_path)])
    assert rv == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sweep key ") and "given twice" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("body, fragment", [
    ("units = 1\n", "no section headers"),
    ("[run]\nseed = 1\nseed = 2\n", "already exists"),
    ("[system]\nst_entrys = 1\n", "unknown key 'st_entrys' in [system]"),
    ("[bogus]\nx = 1\n", "unknown section [bogus]"),
    ("[DEFAULT]\nseed = 1\n", "unknown section [DEFAULT]"),
    ("[workload]\nname = lock\niteration = 3\n", "'lock' takes no parameter iteration"),
    ("[workload]\nname = lock\nparticipants = 2\n", "'lock' takes no parameter participants"),
    ("[system]\nmemory = sram\n", "unknown memory technology 'sram'"),
], ids=["no-section-header", "duplicate-key", "unknown-key", "unknown-section",
        "default-key", "unknown-workload-param", "client-param-of-other-workload",
        "unknown-memory"])
def test_bad_config_file_exits_2_before_first_run(tmp_path, capsys, body, fragment):
    ini = tmp_path / "bad.ini"
    ini.write_text(body)
    out = tmp_path / "out"
    rv = cli.main(["--units", "1", "--cores-per-unit", "2", "--config", str(ini),
                   "--out", str(out)])
    assert rv == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not out.exists()


def test_unusable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    rv = cli.main(["--units", "1", "--cores-per-unit", "2", "--out", str(out)])
    assert rv == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "not a directory\n"


def test_verify_clean_run_exits_0(tmp_path):
    out = tmp_path / "out"
    rv = cli.main(SMALL + ["--workload", "stack", "--verify", "--out", str(out)])
    assert rv == 0


def test_verify_overflow_run_still_passes_monitors(tmp_path):
    out = tmp_path / "out"
    rv = cli.main(["--st-entries", "8", "--workload", "linked_list",
                   "--verify", "--out", str(out)])
    assert rv == 0
    payload = json.loads((out / "stats.json").read_text())
    assert payload["stats"]["sync_table"]["overflow_fraction"] > 0.0


def test_verify_reports_violations_with_exit_1(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "verify_trace",
                        lambda trace, expected=None: ["planted violation"])
    out = tmp_path / "out"
    rv = cli.main(SMALL + ["--workload", "stack", "--verify", "--out", str(out)])
    assert rv == 1


@pytest.mark.parametrize("argv", [
    ["--scheme", "flat", "--units", "8"],
    ["--scheme", "central", "--units", "5"],
    ["--units", "8", "--st-entries", "1", "--workload", "hash_table"],
], ids=["flat-8-units", "central-5-units", "syncron-8x16-overflow"])
def test_core_id_overflow_exits_2_before_running(tmp_path, argv, capsys):
    rv = cli.main(argv + ["--out", str(tmp_path)])
    assert rv == 2
    assert "6-bit" in capsys.readouterr().err
    assert not (tmp_path / "stats.json").exists()


@pytest.mark.parametrize("argv, fragment", [
    (["--scheme", "flat", "--cores-per-unit", "4", "--sweep", "units=1,32"], "6-bit"),
    (["--units", "1", "--cores-per-unit", "4", "--sweep", "workload=lock,bogus"],
     "unknown workload 'bogus'"),
    (["--units", "1", "--cores-per-unit", "4", "--sweep", "link_latency_ns=5,-1"],
     "link_latency_ns must be positive"),
], ids=["core-id-width", "workload", "link-latency"])
def test_bad_shape_later_in_sweep_exits_2_before_first_run(tmp_path, capsys, argv, fragment):
    rv = cli.main(argv + ["--out", str(tmp_path)])
    assert rv == 2
    out, err = capsys.readouterr()
    assert "[0]" not in out and fragment in err
    assert not any(tmp_path.iterdir())


def test_unit_memory_below_data_region_exits_2_before_first_run(tmp_path, capsys):
    # workload data lines start 64 MiB into each unit
    ini = tmp_path / "small.ini"
    ini.write_text("[system]\nunits = 2\ncores_per_unit = 4\nunit_mem_mib = 64\n")
    out = tmp_path / "out"
    rv = cli.main(["--config", str(ini), "--sweep", "workload=lock,hash_table",
                   "--out", str(out)])
    assert rv == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout and "data region" in err
    assert not out.exists()


@pytest.mark.parametrize("workload, param", [
    ("hash_table", "buckets = 4000"),
    ("array_map", "slots = 2000000"),
])
def test_workload_past_unit_memory_exits_2_before_first_run(tmp_path, capsys, workload, param):
    # data lines of the last buckets (slots) lie past a 65 MiB unit
    ini = tmp_path / "small.ini"
    ini.write_text("[system]\nunits = 2\ncores_per_unit = 4\nunit_mem_mib = 65\n"
                   f"[workload]\nname = {workload}\n{param}\n")
    out = tmp_path / "out"
    rv = cli.main(["--config", str(ini), "--sweep", "seed=0,1", "--out", str(out)])
    assert rv == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout and f"workload {workload!r}" in err and "past its" in err
    assert not out.exists()


@pytest.mark.parametrize("workload, key, value", [
    ("hash_table", "buckets", 0),
    ("hash_table", "buckets", -3),
    ("linked_list", "nodes", 0),
    ("array_map", "slots", 0),
    ("stack", "ops_per_core", -1),
])
def test_empty_or_negative_workload_size_exits_2_before_first_run(tmp_path, capsys, workload,
                                                                   key, value):
    ini = tmp_path / "sizes.ini"
    ini.write_text("[system]\nunits = 2\ncores_per_unit = 4\n"
                   f"[workload]\nname = {workload}\n{key} = {value}\n")
    out = tmp_path / "out"
    rv = cli.main(["--config", str(ini), "--out", str(out)])
    assert rv == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout
    assert f"workload {workload!r} needs {key} >= " in err and f"got {value}" in err
    assert not out.exists()


def test_barrier_participants_out_of_range_later_in_sweep_exits_2_before_first_run(
        tmp_path, capsys):
    # 8 participants fit 4 units of 3 clients, not 1 unit
    ini = tmp_path / "barrier.ini"
    ini.write_text("[system]\ncores_per_unit = 4\n[workload]\nname = barrier\n"
                   "participants = 8\n")
    out = tmp_path / "out"
    rv = cli.main(["--config", str(ini), "--sweep", "units=4,1", "--out", str(out)])
    assert rv == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout
    assert "workload 'barrier' needs participants in 1..3, got 8" in err
    assert not (out / "stats.json").exists()


def test_workload_filling_unit_memory_runs(tmp_path):
    # 3072 buckets over 2 units end exactly at 65 MiB; 3073 reach one line past
    ini = tmp_path / "edge.ini"
    body = "[system]\nunits = 2\ncores_per_unit = 4\nunit_mem_mib = 65\n[workload]\nname = hash_table\n"
    ini.write_text(body + "buckets = 3072\n")
    assert cli.main(["--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    ini.write_text(body + "buckets = 3073\n")
    assert cli.main(["--config", str(ini), "--out", str(tmp_path / "b")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "1e-6"])
@pytest.mark.parametrize("route", ["flag", "sweep", "ini"])
def test_unusable_link_latency_exits_2_before_first_run(tmp_path, capsys, value, route):
    # 1e-6 ns rounds to a 0 ps link
    argv = SMALL + {"flag": ["--link-latency-ns", value],
                    "sweep": ["--sweep", f"link_latency_ns=5,{value}"], "ini": []}[route]
    if route == "ini":
        ini = tmp_path / "latency.ini"
        ini.write_text(f"[latency]\nlink_latency_ns = {value}\n")
        argv += ["--config", str(ini)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout and "Traceback" not in err
    assert err.startswith("error: link_latency_ns must be positive, finite")
    assert not out.exists()


# each shape at the smallest value whose message fields the 18-byte format cannot hold
WIRE_OVERFLOW = {
    "unit-id": ("[system]\nscheme = hier\nunits = 65\ncores_per_unit = 2\n", "core id 64"),
    "address": ("[system]\nunits = 2\ncores_per_unit = 4\nunit_mem_mib = 17592186044416\n",
                "need addresses past 64 bits"),
    "sem-initial": ("[system]\nunits = 4\ncores_per_unit = 4\n"
                    "[workload]\nname = semaphore\nsem_initial = 4294967296\n",
                    "needs sem_initial < 2**32, got 4294967296"),
}


@pytest.mark.parametrize("case", WIRE_OVERFLOW)
def test_message_field_overflow_exits_2_before_first_run(tmp_path, capsys, case):
    body, fragment = WIRE_OVERFLOW[case]
    ini = tmp_path / "wide.ini"
    ini.write_text(body)
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout and "Traceback" not in err
    assert err.startswith("error: ") and fragment in err
    assert not out.exists()


def test_sem_initial_bound_holds_for_every_scheme_of_a_sweep(tmp_path, capsys):
    ini = tmp_path / "sem.ini"
    ini.write_text(WIRE_OVERFLOW["sem-initial"][0])
    rv = cli.main(["--config", str(ini), "--sweep", "scheme=ideal,syncron",
                   "--out", str(tmp_path / "out")])
    assert rv == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout and "needs sem_initial < 2**32" in err


@pytest.mark.parametrize("body", [
    "[system]\nscheme = hier\nunits = 64\ncores_per_unit = 2\n[workload]\niterations = 2\n",
    "[system]\nunits = 2\ncores_per_unit = 4\nunit_mem_mib = 8796093022208\n",
    "[system]\nunits = 4\ncores_per_unit = 4\n"
    "[workload]\nname = semaphore\nsem_initial = 4294967295\n",
], ids=["unit-id-63", "addresses-to-2**64", "sem-initial-2**32-1"])
def test_widest_message_fields_run_traced(tmp_path, body):
    ini = tmp_path / "edge.ini"
    ini.write_text(body)
    assert cli.main(["--config", str(ini), "--verify", "--out", str(tmp_path)]) == 0


# a condvar run needs a signal for every wake; one client is a waiter with no signaler
CONDVAR_SHORT = {
    "one-client-flag": (["--workload", "condvar", "--units", "1", "--cores-per-unit", "2"], ""),
    "one-client-later-in-sweep": (["--workload", "condvar", "--units", "1",
                                   "--sweep", "cores_per_unit=3,2"], ""),
    "signal-cap-0-ini": ([], "[system]\nunits = 2\ncores_per_unit = 4\n"
                             "[workload]\nname = condvar\nsignal_cap = 0\n"),
}


@pytest.mark.parametrize("case", CONDVAR_SHORT)
def test_condvar_run_short_of_signals_exits_2_before_first_run(tmp_path, capsys, case):
    argv, body = CONDVAR_SHORT[case]
    if body:
        ini = tmp_path / "condvar.ini"
        ini.write_text(body)
        argv = ["--config", str(ini)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--scheme", "ideal", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert "[0]" not in stdout and "Traceback" not in err
    assert err.startswith("error: workload 'condvar' can never finish: ")
    assert not out.exists()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_two_client_condvar_runs_verified(tmp_path, scheme):
    # one waiter, one signaler: the smallest condvar run that can finish
    assert cli.main(["--workload", "condvar", "--units", "1", "--cores-per-unit", "3",
                     "--scheme", scheme, "--verify", "--out", str(tmp_path)]) == 0


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    src = str(Path(ndpsync.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ndpsync.cli", *SMALL,
         "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stats.json").exists()
    # the package still exports the CLI's library entry points
    assert (ndpsync.RunConfig, ndpsync.run_once) == (cli.RunConfig, cli.run_once)
    with pytest.raises(AttributeError):
        ndpsync.no_such_name


def test_every_exported_name_resolves():
    namespace = {}
    exec("from ndpsync import *", namespace)  # resolves the lazy RunConfig and run_once too
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(ndpsync.__all__)
    assert len(set(ndpsync.__all__)) == len(ndpsync.__all__)
    assert namespace["run_once"] is cli.run_once
