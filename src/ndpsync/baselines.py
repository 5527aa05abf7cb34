"""Comparison-point building blocks.

ServerCache models the private L1 through which each coordinator whose
service point is a software server (topology.SCHEME_AXES) reads and updates
variable state: 256 lines of 64 bytes, LRU replacement. Misses fetch the
line from the variable's home unit; the runtime charges those costs.

IdealOracle is the zero-cost upper bound (the "ideal" scheme, which has no
route): requests resolve instantly with no messages, no server occupancy
and no energy, but the logical semantics (FIFO lock handoff, barrier
episodes, semaphore counting, condvar sleep/wake with lock re-acquisition)
are preserved so that workload digests still match the real schemes.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from .errors import ProtocolError

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


class _Lock:
    __slots__ = ("owner", "waiters")

    def __init__(self):
        self.owner: tuple | None = None
        self.waiters: deque = deque()  # (core, condvar it resumes or 0)


class _Sem:
    __slots__ = ("count", "declared", "waiters")

    def __init__(self):
        self.count = 0
        self.declared: int | None = None
        self.waiters: deque = deque()


class IdealOracle:
    """Instant synchronization resolution with real blocking semantics.

    Each public method is one workload step kind, called as
    method(core, addr, info) with the step's core node ("core", unit, local),
    address and info word, and returns True when the core keeps running.
    A core that does not parks and is released later through the wake
    callback, wake(core, kind, addr), where kind is the step kind the wake
    completes and addr that step's address.
    """

    def __init__(self, wake):
        self._wake = wake
        self._locks: dict[int, _Lock] = {}
        self._barriers: dict[int, tuple[int, list]] = {}
        self._sems: dict[int, _Sem] = {}
        self._conds: dict[int, deque] = {}

    # -- locks --------------------------------------------------------------

    def lock_acquire(self, core: tuple, addr: int, info: int = 0) -> bool:
        """`info` names the condvar a woken waiter resumes; 0 for a plain acquire."""
        lock = self._locks.setdefault(addr, _Lock())
        if lock.owner is None:
            lock.owner = core
            return True
        lock.waiters.append((core, info))
        return False

    def lock_release(self, core: tuple, addr: int, info: int = 0) -> bool:
        lock = self._locks.get(addr)
        if lock is None or lock.owner != core:
            raise ProtocolError(f"lock {addr:#x} released by non-owner {core}")
        if lock.waiters:
            nxt, cv = lock.waiters.popleft()
            lock.owner = nxt
            self._wake(nxt, "cond_wait" if cv else "lock_acquire", cv or addr)
        else:
            lock.owner = None
            del self._locks[addr]
        return True

    # -- barriers ------------------------------------------------------------

    def barrier_wait(self, core: tuple, addr: int, participants: int) -> bool:
        target, arrived = self._barriers.setdefault(addr, (participants, []))
        if target != participants:
            raise ProtocolError(f"barrier {addr:#x} participant count mismatch")
        arrived.append(core)
        if len(arrived) < target:
            return False
        del self._barriers[addr]
        for other in arrived[:-1]:
            self._wake(other, "barrier_wait", addr)
        return True  # the last arrival proceeds directly

    # -- semaphores ------------------------------------------------------------

    def sem_wait(self, core: tuple, addr: int, initial: int) -> bool:
        sem = self._sems.setdefault(addr, _Sem())
        if sem.declared is None:
            sem.declared = initial
            sem.count += initial
        elif sem.declared != initial:
            raise ProtocolError(f"semaphore {addr:#x} initial resources re-declared")
        if sem.count > 0:
            sem.count -= 1
            return True
        sem.waiters.append(core)
        return False

    def sem_post(self, core: tuple, addr: int, info: int = 0) -> bool:
        sem = self._sems.setdefault(addr, _Sem())
        sem.count += 1
        while sem.count > 0 and sem.waiters:
            sem.count -= 1
            self._wake(sem.waiters.popleft(), "sem_wait", addr)
        return True

    # -- condition variables ------------------------------------------------------

    def cond_wait(self, core: tuple, cv: int, lock_addr: int) -> bool:
        self.lock_release(core, lock_addr)
        self._conds.setdefault(cv, deque()).append((core, lock_addr))
        return False

    def cond_signal(self, core: tuple, cv: int, info: int = 0) -> bool:
        waiters = self._conds.get(cv)
        if not waiters:
            return True  # lost signal
        waiter, lock_addr = waiters.popleft()
        if not waiters:
            del self._conds[cv]
        if self.lock_acquire(waiter, lock_addr, cv):
            self._wake(waiter, "cond_wait", cv)
        return True

    def cond_broadcast(self, core: tuple, cv: int, info: int = 0) -> bool:
        for waiter, lock_addr in self._conds.pop(cv, ()):
            if self.lock_acquire(waiter, lock_addr, cv):
                self._wake(waiter, "cond_wait", cv)
        return True
