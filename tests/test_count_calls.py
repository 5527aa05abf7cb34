"""tools/count_calls.py counts every call once, also when code objects share a label,
and counts every workload in order when none is named."""

import cProfile
import importlib.util
import os
from dataclasses import dataclass

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "count_calls.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("count_calls", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@dataclass
class First:
    a: int = 0


@dataclass
class Second:
    b: int = 0


def construct(n, m):
    for _ in range(n):
        First()
    for _ in range(m):
        Second()


def test_dataclass_constructors_sharing_a_label_are_each_counted():
    # both generated __init__s are labelled <string>:2:__init__
    total_calls = load_tool().total_calls

    def profiled(n, m):
        profile = cProfile.Profile()
        profile.runcall(construct, n, m)
        return total_calls(profile)

    assert profiled(7, 19) - profiled(0, 0) == 7 + 19


SMALL = [{"scheme": scheme, "workload": "lock", "units": 2, "cores_per_unit": 4,
          "st_entries": 4, "seed": 3, "traced": traced, "flags": flags}
         for scheme, traced, flags in (("syncron", False, ()),
                                       ("flat", True, ("--trace", "--verify")))]


def test_messages_are_the_runs_unprofiled_total(monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool.suite, "runs", lambda workload, seed: SMALL)
    calls, messages = tool.count_calls("hot_sync", 7)
    expected = 0
    for run in SMALL:
        stats, _ = tool.cli.run_once(tool.suite.run_config(run), trace=run["traced"])
        expected += stats.messages_intra + stats.messages_inter
    assert messages == expected > 0
    assert calls > messages


def test_no_workload_counts_each_in_suite_order(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool.suite, "WORKLOADS", {"second": {}, "first": {}})
    monkeypatch.setattr(tool.suite, "runs", lambda workload, seed: SMALL[:1])
    monkeypatch.setattr(tool.sys, "argv", ["count_calls.py", "--seed", "7"])
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["second", "first"]
    assert len({line.split(": ", 1)[1] for line in lines}) == 1  # the same runs, the same count
