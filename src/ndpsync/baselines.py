"""Comparison-point building blocks.

ServerCache models the private L1 through which each coordinator whose
service point is a software server (topology.SCHEME_AXES) reads and updates
variable state: 256 lines of 64 bytes, LRU replacement. Misses fetch the
line from the variable's home unit; the runtime charges those costs.

IdealOracle is the service point of the zero-cost bound, the "ideal" scheme,
which has no route: one engine.Coordinator that masters every address and
keeps its state as a server does, with no table and no L1. It serves each
request Message that Simulation._issue builds at once, with no wire or service
time, and returns the grants for the runtime to deliver. It holds no primitive
semantics of its own: ideal grants what the engines grant, in their order.
"""

from __future__ import annotations

from collections import OrderedDict

from .messages import Message

SERVER_CACHE_LINES = 256


class ServerCache:
    """LRU set of cached line ids; access() returns True on hit."""

    def __init__(self, lines: int = SERVER_CACHE_LINES):
        self.lines = lines
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        if line in self._lru:
            self._lru.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[line] = None
        if len(self._lru) > self.lines:
            self._lru.popitem(last=False)
        return False


class IdealOracle:
    """Serves each synchronization request at once through ideal's one Coordinator.

    Simulation._issue builds a step's request Message as for any scheme and
    passes it to the method named after the step's kind. Every method is one
    `_serve`, bound under the eight step names so that each step is one call
    of its kind.
    """

    def __init__(self, coordinator):
        self._coord = coordinator

    def _serve(self, msg: Message) -> list:
        """The (core node, grant Message) sends of `msg` and of the condvar
        resumes it sets off, each served at once; the runtime delivers them."""
        handle = self._coord.handle
        out = handle(msg)
        sends = out.sends
        for resume in out.internal:  # a condvar waiter's lock re-acquisition
            sends += handle(resume).sends
        return sends

    lock_acquire = lock_release = barrier_wait = sem_wait = _serve
    sem_post = cond_wait = cond_signal = cond_broadcast = _serve
