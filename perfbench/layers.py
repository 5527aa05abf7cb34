"""Spans around the public entry points of each ``ndpsync`` module.

``installed()`` wraps the entry points for the duration of a ``with`` block
and restores them afterwards. Spans are aggregated in memory per name (calls,
total seconds, self seconds) rather than kept one by one: a traced batch
makes close to a million calls, and the per-layer metrics need only the sums.
A span's self time is its duration minus the spans it directly encloses.
"""

import contextlib
import time
from collections import defaultdict

from ndpsync import baselines, cli, engine, sim, sync_table, workloads

_IDEAL_METHODS = ("lock_acquire", "lock_release", "barrier_wait", "sem_wait",
                  "sem_post", "cond_wait", "cond_signal", "cond_broadcast")


class Recorder:
    """Per-name span totals plus a few result counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [name, seconds covered by direct children]

    def wrap(self, name, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(result, args)`` sees each result.

        A call made from inside a span of the same name is not a new span
        (IdealOracle methods call one another), so time is not counted twice.
        """
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(result, args)
            return result

        return spanned


class _TimedProgram:
    """A workload program whose every ``next()`` is a ``workloads.step`` span."""

    __slots__ = ("_next",)

    def __init__(self, recorder, gen):
        self._next = recorder.wrap("workloads.step", gen.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


@contextlib.contextmanager
def installed(recorder):
    """Wrap every layer's entry points with spans of ``recorder``."""
    counts = recorder.counts

    def count_overflowed(out, _args):
        counts["handle.overflowed"] += bool(out.overflowed)

    def count_hit(hit, _args):
        counts["cache.hits"] += bool(hit)

    def count_records(_violations, args):
        counts["verifier.records"] += len(args[0])

    programs = workloads.Workload.programs

    def timed_programs(self):
        return {core: _TimedProgram(recorder, gen)
                for core, gen in programs(self).items()}

    patches = [
        (cli, "main", recorder.wrap("cli.main", cli.main)),
        (cli, "run_once", recorder.wrap("cli.run_once", cli.run_once)),
        (cli, "verify_trace",
         recorder.wrap("verifier.verify_trace", cli.verify_trace, count_records)),
        (cli, "make_workload",
         recorder.wrap("workloads.make_workload", cli.make_workload)),
        (sim, "encode", recorder.wrap("messages.encode", sim.encode)),
        (sim.Simulation, "__init__",
         recorder.wrap("sim.Simulation.init", sim.Simulation.__init__)),
        (sim.Simulation, "run", recorder.wrap("sim.run", sim.Simulation.run)),
        (sim.Network, "send_message",
         recorder.wrap("sim.Network.send_message", sim.Network.send_message)),
        (sim.Network, "memory_access",
         recorder.wrap("sim.Network.memory_access", sim.Network.memory_access)),
        (engine.Coordinator, "handle",
         recorder.wrap("engine.Coordinator.handle", engine.Coordinator.handle,
                       count_overflowed)),
        (sync_table.SynchronizationTable, "reserve",
         recorder.wrap("sync_table.SynchronizationTable.reserve",
                       sync_table.SynchronizationTable.reserve)),
        (baselines.ServerCache, "access",
         recorder.wrap("baselines.ServerCache.access",
                       baselines.ServerCache.access, count_hit)),
        (workloads.Workload, "programs", timed_programs),
    ] + [
        (baselines.IdealOracle, method,
         recorder.wrap("baselines.IdealOracle",
                       getattr(baselines.IdealOracle, method)))
        for method in _IDEAL_METHODS
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(recorder):
    """The traced pass's per-layer figures (see README.md for what each moves)."""
    calls, total, own, counts = (recorder.calls, recorder.total_s,
                                 recorder.self_s, recorder.counts)
    handled = calls["engine.Coordinator.handle"]
    cache = calls["baselines.ServerCache.access"]
    return {
        "cli.main.self_s": (own["cli.main"], "s"),
        "sim.Simulation.init_s": (total["sim.Simulation.init"], "s"),
        "workloads.make_workload_s": (total["workloads.make_workload"], "s"),
        "sim.run.self_s": (own["sim.run"], "s"),
        "sim.Network.send_message.calls": (calls["sim.Network.send_message"], "count"),
        "sim.Network.send_message.s": (total["sim.Network.send_message"], "s"),
        "sim.Network.memory_access.calls": (calls["sim.Network.memory_access"], "count"),
        "sim.Network.memory_access.s": (total["sim.Network.memory_access"], "s"),
        "engine.Coordinator.handle.calls": (handled, "count"),
        "engine.Coordinator.handle.s": (total["engine.Coordinator.handle"], "s"),
        "engine.overflowed_share": (
            counts["handle.overflowed"] / handled if handled else 0.0, "ratio"),
        "sync_table.SynchronizationTable.reserve.calls": (
            calls["sync_table.SynchronizationTable.reserve"], "count"),
        "baselines.ServerCache.access.calls": (cache, "count"),
        "baselines.ServerCache.hit_ratio": (
            counts["cache.hits"] / cache if cache else 0.0, "ratio"),
        "baselines.IdealOracle.calls": (calls["baselines.IdealOracle"], "count"),
        "baselines.IdealOracle.s": (total["baselines.IdealOracle"], "s"),
        "workloads.step.calls": (calls["workloads.step"], "count"),
        "workloads.step.s": (total["workloads.step"], "s"),
        "messages.encode.calls": (calls["messages.encode"], "count"),
        "messages.encode.s": (total["messages.encode"], "s"),
        "verifier.verify_trace.s": (total["verifier.verify_trace"], "s"),
        "verifier.records": (counts["verifier.records"], "count"),
    }
