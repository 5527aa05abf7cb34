"""Comparison-point building blocks.

ServerCache models the private L1 through which each coordinator whose
service point is a software server (topology.SCHEME_AXES) reads and updates
variable state: 256 lines of 64 bytes, LRU replacement. Misses fetch the
line from the variable's home unit; the runtime charges those costs.

IdealOracle is the service point of the zero-cost bound, the "ideal" scheme,
which has no route: one engine.Coordinator that masters every address and
keeps its state as a server does, with no table and no L1, called at each
step with no message, wire or service time. It holds no primitive semantics
of its own: ideal grants what the engines grant, in their order.
"""

from __future__ import annotations

from collections import OrderedDict

from .messages import ACQUIRES, ACTION, Message, Opcode

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


def _step(opcode: Opcode):
    """The IdealOracle method that serves one step kind, sent as `opcode`."""
    blocks = ACTION[opcode] in ACQUIRES

    def step(self, core: tuple, addr: int, info: int = 0) -> bool:
        handle = self._coord.handle
        out = handle(Message(addr, opcode, self._ids[core], info))
        sends = out.sends
        for resume in out.internal:  # a condvar waiter's lock re-acquisition, served at once
            sends += handle(resume).sends
        granted = not blocks
        for node, grant in sends:
            if node == core:
                granted = True
            else:
                self._wake(node, grant)
        return granted

    return step


class IdealOracle:
    """Serves each workload step at once through ideal's one Coordinator.

    Each public method is one workload step kind, called as
    method(core, addr, info) with the step's core node ("core", unit, local),
    address and info word, and returns True when the core keeps running: the
    step does not block, or the coordinator grants it at once. Every other
    grant the step sets free reaches its core through the wake callback,
    wake(core, msg), as the grant Message the coordinator sent it.
    """

    def __init__(self, coordinator, wake):
        self._coord = coordinator
        self._wake = wake
        self._ids = {node: core_id for core_id, node in coordinator.clients.items()}

    lock_acquire = _step(Opcode.LOCK_ACQUIRE_LOCAL)
    lock_release = _step(Opcode.LOCK_RELEASE_LOCAL)
    barrier_wait = _step(Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS)
    sem_wait = _step(Opcode.SEM_WAIT_LOCAL)
    sem_post = _step(Opcode.SEM_POST_LOCAL)
    cond_wait = _step(Opcode.COND_WAIT_LOCAL)
    cond_signal = _step(Opcode.COND_SIGNAL_LOCAL)
    cond_broadcast = _step(Opcode.COND_BROAD_LOCAL)
