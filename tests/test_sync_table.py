import random

import pytest

from ndpsync.errors import ProtocolError
from ndpsync.sync_table import IndexingCounters, SynchronizationTable, TableFull


def test_full_table_raises():
    t = SynchronizationTable(2)
    t.reserve(1)
    t.reserve(2)
    assert t.full()
    with pytest.raises(TableFull):
        t.reserve(3)


def test_duplicate_reservation_rejected():
    t = SynchronizationTable(2)
    t.reserve(1)
    with pytest.raises(ProtocolError):
        t.reserve(1)


def test_release_of_absent_entry_rejected():
    t = SynchronizationTable(1)
    with pytest.raises(ProtocolError):
        t.release(12)


def test_lookup_random_churn():
    rng = random.Random(31)
    t = SynchronizationTable(8)
    live = set()
    for _ in range(4000):
        if live and (t.full() or rng.random() < 0.5):
            addr = rng.choice(sorted(live))
            with pytest.raises(ProtocolError):
                t.reserve(addr)  # the table still holds addr
            t.release(addr)
            live.remove(addr)
        else:
            addr = rng.randrange(1, 10_000)
            if addr in live:
                continue
            t.reserve(addr)
            live.add(addr)
        assert t.occupied_count == len(live)
        assert t.full() == (len(live) == t.capacity)
    assert t.occupied_count == len(live)


def test_counters_alias_low_bits():
    c = IndexingCounters(size=256)
    assert c.index_of(0x1234) == 0x34
    c.increment(0x1234)
    c.increment(0x341234)  # same low 8 bits, same counter
    assert c.get(0x99934) == 2
    assert c.total() == 2
    c.decrement(0x1234)
    c.decrement(0x55534)
    assert c.total() == 0


def test_counter_underflow_rejected():
    c = IndexingCounters(size=16)
    with pytest.raises(ProtocolError):
        c.decrement(5)
    c.increment(5)
    c.decrement(5)
    with pytest.raises(ProtocolError):
        c.decrement(5)
