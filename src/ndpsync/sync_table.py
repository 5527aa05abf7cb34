"""Per-engine synchronization table occupancy and indexing counters.

The synchronization table bounds how many variables an engine services in
hardware at once; SynchronizationTable allocates its entries and counts
occupancy. The live coordination state of each variable is kept by the
coordinator (engine.VarMeta), not in the table. The indexing counters (one
bank per engine, indexed by the low 8 address bits by default) mark
variables that are currently serviced via memory instead; aliasing between
addresses that share a counter index is allowed and affects performance
only.
"""

from __future__ import annotations

from .errors import ProtocolError


class TableFull(Exception):
    """Reservation failed: every entry is occupied."""


class SynchronizationTable:
    """Fixed-capacity allocator of table entries, at most one per address.

    In the modelled hardware each entry holds the variable's address, a
    global waiting list (one bit per unit), a local waiting list (one bit
    per core of the engine's unit) and a 64-bit info word: the lock owner
    (all-ones when free, a local core id, or a unit id flagged in the top
    bit), the barrier arrival count, the semaphore count or the condition
    variable's lock address. The simulator keeps that state per variable in
    the coordinator; the table decides only whether an entry is free.
    """

    def __init__(self, entries: int):
        assert entries >= 1
        self.capacity = entries
        self._live: set[int] = set()

    @property
    def occupied_count(self) -> int:
        return len(self._live)

    def full(self) -> bool:
        return len(self._live) == self.capacity

    def reserve(self, addr: int) -> None:
        """Claim an entry for addr.

        Raises TableFull when no entry is free and ProtocolError if addr
        already has one (at most one occupied entry per address).
        """
        if addr in self._live:
            raise ProtocolError(f"duplicate table entry for addr {addr:#x}")
        if len(self._live) == self.capacity:
            raise TableFull(f"no free entry for addr {addr:#x}")
        self._live.add(addr)

    def release(self, addr: int) -> None:
        """Free addr's entry."""
        if addr not in self._live:
            raise ProtocolError(f"release of absent table entry for addr {addr:#x}")
        self._live.remove(addr)


class IndexingCounters:
    """Aliased per-index counts of variables currently serviced via memory."""

    def __init__(self, size: int):
        self.size = size
        self.counts = [0] * size

    def index_of(self, addr: int) -> int:
        return addr % self.size

    def get(self, addr: int) -> int:
        return self.counts[self.index_of(addr)]

    def increment(self, addr: int) -> None:
        self.counts[self.index_of(addr)] += 1

    def decrement(self, addr: int) -> None:
        idx = self.index_of(addr)
        if self.counts[idx] == 0:
            raise ProtocolError(f"indexing counter underflow at index {idx} (addr {addr:#x})")
        self.counts[idx] -= 1

    def total(self) -> int:
        return sum(self.counts)
