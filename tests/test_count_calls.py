"""tools/count_calls.py counts every call once, also when code objects share a label."""

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
