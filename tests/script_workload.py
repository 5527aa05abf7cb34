"""Shared test workload: fixed per-client step lists, for driving the runtime directly."""

from ndpsync.workloads import Workload


class Script(Workload):
    """Client index -> list of steps; every client finishes with one completed op."""

    name = "script"

    def __init__(self, cfg, steps=None):
        super().__init__(cfg, seed=0)
        self.steps = steps or {}

    def _program(self, idx):
        for step in self.steps.get(idx, ()):
            yield step
        self.completed_ops += 1

    def digest(self):
        return "script"
