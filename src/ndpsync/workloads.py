"""Workloads: per-core programs driving the synchronization schemes.

A program is a generator yielding steps:

    ("compute", n)                     burn n instructions
    ("mem", addr, write)               one 64-byte data access
    ("lock_acquire", addr)             blocking
    ("lock_release", addr)
    ("barrier_wait", addr, n, within)  blocking, n participants; within: all in one unit
    ("sem_wait", addr, initial)        blocking
    ("sem_post", addr)
    ("cond_wait", cv, lock)            blocking; releases and re-acquires lock
    ("cond_signal", cv)
    ("cond_broadcast", cv)

The eight synchronization kinds are those of sim._REQUEST, Stats.ops and
the names IdealOracle binds its one method under, and name a blocked core's pending request and the
grant that ends it, a coordinator's grant message under every scheme, ideal
included; a step's third field, when it has one, is the info word its
request carries.

Shared workload state is mutated inside critical sections, so the final
state is a function of the set of executed operations, not their
interleaving. digest() hashes that state in a canonical order and must be
identical for every scheme given the same configuration and seed.
"""

from __future__ import annotations

import hashlib
import json
import random

from .errors import ConfigError
from .topology import LINE_BYTES, SystemConfig

_SYNC_REGION = 0x10_000      # per-unit offset for synchronization variables
_DATA_REGION = 0x4_000_000   # per-unit offset for data

# parameters that size a structure (an empty one has no key, node or slot to pick)
_SIZE_PARAMS = ("buckets", "nodes", "slots")


def _canon_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """Base: addressing helpers and the program/digest contract.

    Each integer parameter in `defaults` becomes an attribute of the same
    name, taken from `params` when given there.
    """

    name = "base"
    defaults: dict[str, int] = {}
    client_params: tuple[str, ...] = ()  # parameters that count clients: 1..total_clients
    ops_param: str | None = None  # parameter counting each client's lock acquire/release pairs

    def __init__(self, cfg: SystemConfig, seed: int, params: dict | None = None):
        self.cfg = cfg
        self.seed = seed
        self.params = dict(params or {})
        # setattr, not vars(self).update: a materialised __dict__ slows every
        # later attribute read in the generators
        for key, value in self._resolve(self.params).items():
            setattr(self, key, value)
        self.completed_ops = 0
        self._spawned = False

    @classmethod
    def _resolve(cls, params: dict) -> dict[str, int]:
        return {key: int(params.get(key, default)) for key, default in cls.defaults.items()}

    @classmethod
    def top_offset(cls, cfg: SystemConfig, params: dict) -> int:
        """Byte offset, within its unit, of the highest line the workload
        uses, from the configuration alone. Default: sync slot 0."""
        return _SYNC_REGION

    # one generator per client core, keyed by its node; single use per instance
    def programs(self) -> dict[tuple, object]:
        assert not self._spawned, "workload instances drive exactly one run"
        self._spawned = True
        return {node: self._program(idx) for idx, node in enumerate(self.cfg.clients())}

    def _program(self, idx: int):
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def expected_ops(self) -> dict | None:
        """Declared operation totals for the termination monitor, if static:
        with an ops_param, every client takes and releases a lock that often."""
        if self.ops_param is None:
            return None
        n = self.cfg.total_clients * getattr(self, self.ops_param)
        return {"lock_acquire": n, "lock_release": n}

    # -- addressing -----------------------------------------------------------

    def _sync_addr(self, unit: int, slot: int) -> int:
        return unit * self.cfg.unit_mem_bytes + _SYNC_REGION + slot * LINE_BYTES

    def _data_addr(self, unit: int, slot: int) -> int:
        return unit * self.cfg.unit_mem_bytes + _DATA_REGION + slot * LINE_BYTES

    def _striped_addr(self, i: int, first: int = 0) -> int:
        """Data line of element i, striped over the units from data slot `first`."""
        units = self.cfg.num_units
        return self._data_addr(i % units, first + i // units)

    def _rng(self, idx: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + idx)


class LockMicro(Workload):
    """Every client repeatedly acquires one lock after local compute."""

    name = "lock"
    defaults = {"iterations": 50, "interval": 200, "cs_instr": 0}
    ops_param = "iterations"

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.lock = self._sync_addr(0, 0)
        self.grants: list[int] = [0] * cfg.total_clients

    def _program(self, idx):
        for _ in range(self.iterations):
            yield ("compute", self.interval)
            yield ("lock_acquire", self.lock)
            if self.cs_instr:
                yield ("compute", self.cs_instr)
            self.grants[idx] += 1
            yield ("lock_release", self.lock)
            self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "grants": self.grants})


class BarrierMicro(Workload):
    """Clients meet at one barrier, iterations times.

    With participants < total clients only the first `participants` client
    indices take part (the rest finish immediately), which exercises the
    one-level protocol where per-unit aggregation is impossible.
    """

    name = "barrier"
    defaults = {"iterations": 20, "interval": 200}
    client_params = ("participants",)

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.participants = int(self.params.get("participants", cfg.total_clients))
        self.bar = self._sync_addr(0, 0)
        self.rounds: list[int] = [0] * cfg.total_clients

    def _program(self, idx):
        if idx >= self.participants:
            return
        within = self.cfg.num_units == 1
        rng = self._rng(idx)
        for _ in range(self.iterations):
            yield ("compute", self.interval + rng.randrange(self.interval + 1))
            yield ("barrier_wait", self.bar, self.participants, within)
            self.rounds[idx] += 1
            self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "rounds": self.rounds})

    def expected_ops(self):
        return {"barrier_wait": self.participants * self.iterations}


class SemaphoreMicro(Workload):
    """First half of the clients consume resources, second half produce."""

    name = "semaphore"
    defaults = {"iterations": 30, "interval": 200, "sem_initial": 2}

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.sem = self._sync_addr(0, 0)
        self.n_consumers = cfg.total_clients // 2
        self.consumed: list[int] = [0] * cfg.total_clients

    def _program(self, idx):
        if idx < self.n_consumers:
            for _ in range(self.iterations):
                yield ("compute", self.interval)
                yield ("sem_wait", self.sem, self.sem_initial)
                self.consumed[idx] += 1
                self.completed_ops += 1
        else:
            posts = self.iterations if idx - self.n_consumers < self.n_consumers else 0
            for _ in range(posts):
                yield ("compute", self.interval)
                yield ("sem_post", self.sem)
                self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "consumed": self.consumed})


class CondvarMicro(Workload):
    """Half the clients park on one condition variable, half signal until
    every waiter has been woken its full number of iterations."""

    name = "condvar"
    defaults = {"iterations": 10, "interval": 200, "signal_cap": 100_000}

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.lock = self._sync_addr(0, 0)
        self.cv = self._sync_addr(0, 1)
        self.n_waiters = max(1, cfg.total_clients // 2)
        self.wakes: list[int] = [0] * cfg.total_clients
        self._woken_total = 0

    @classmethod
    def top_offset(cls, cfg, params):
        return _SYNC_REGION + LINE_BYTES  # the condition variable, sync slot 1

    def _program(self, idx):
        if idx < self.n_waiters:
            for _ in range(self.iterations):
                yield ("compute", self.interval)
                yield ("lock_acquire", self.lock)
                yield ("cond_wait", self.cv, self.lock)
                yield ("lock_release", self.lock)
                self.wakes[idx] += 1
                self._woken_total += 1
                self.completed_ops += 1
        else:
            target = self.n_waiters * self.iterations
            guard = 0
            while self._woken_total < target and guard < self.signal_cap:
                yield ("compute", self.interval)
                yield ("cond_signal", self.cv)
                guard += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "wakes": self.wakes})


class StackPush(Workload):
    """One coarse lock protects a global stack; every client pushes."""

    name = "stack"
    defaults = {"ops_per_core": 20, "gap": 150}
    ops_param = "ops_per_core"

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.lock = self._sync_addr(0, 0)
        self.head_addr = self._data_addr(0, 0)
        self.items: list[list[int]] = []

    @classmethod
    def top_offset(cls, cfg, params):
        last = cfg.total_clients * cls._resolve(params)["ops_per_core"] - 1
        return _DATA_REGION + (1 + last // cfg.num_units) * LINE_BYTES  # _striped_addr(last, 1)

    def _program(self, idx):
        for k in range(self.ops_per_core):
            yield ("compute", self.gap)
            yield ("lock_acquire", self.lock)
            slot = len(self.items)
            yield ("mem", self._striped_addr(slot, 1), True)
            yield ("mem", self.head_addr, True)
            self.items.append([idx, k])
            yield ("lock_release", self.lock)
            self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "size": len(self.items),
                              "items": sorted(self.items)})


class QueuePop(Workload):
    """Clients drain a pre-filled queue under a head lock."""

    name = "queue"
    defaults = {"ops_per_core": 20, "gap": 150}
    ops_param = "ops_per_core"

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.head_lock = self._sync_addr(0, 0)
        self.head_ptr_addr = self._data_addr(0, 0)
        self.head = 0

    @classmethod
    def top_offset(cls, cfg, params):
        last = cfg.total_clients * cls._resolve(params)["ops_per_core"] - 1
        return _DATA_REGION + (1 + last // cfg.num_units) * LINE_BYTES  # _striped_addr(last, 1)

    def _program(self, idx):
        for _ in range(self.ops_per_core):
            yield ("compute", self.gap)
            yield ("lock_acquire", self.head_lock)
            i = self.head
            yield ("mem", self._striped_addr(i, 1), False)
            yield ("mem", self.head_ptr_addr, True)
            self.head += 1
            yield ("lock_release", self.head_lock)
            self.completed_ops += 1

    def digest(self):
        total = self.cfg.total_clients * self.ops_per_core
        return _canon_digest({"workload": self.name, "head": self.head,
                              "remaining": list(range(self.head, total + 8))})


class ArrayMap(Workload):
    """Fixed-size map under one coarse lock; long critical sections."""

    name = "array_map"
    defaults = {"ops_per_core": 20, "gap": 150, "cs_accesses": 10, "slots": 64}
    ops_param = "ops_per_core"

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.lock = self._sync_addr(0, 0)
        self.cells = [0] * self.slots

    @classmethod
    def top_offset(cls, cfg, params):
        last = cls._resolve(params)["slots"] - 1
        return _DATA_REGION + (last // cfg.num_units) * LINE_BYTES  # _striped_addr(last)

    def _program(self, idx):
        rng = self._rng(idx)
        for _ in range(self.ops_per_core):
            yield ("compute", self.gap)
            key = rng.randrange(self.slots)
            yield ("lock_acquire", self.lock)
            for j in range(self.cs_accesses):
                yield ("mem", self._striped_addr((key + j) % self.slots), j == 0)
            self.cells[key] += 1
            yield ("lock_release", self.lock)
            self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "cells": self.cells})


class HashTable(Workload):
    """Per-bucket locks spread across the units; fine-grained inserts."""

    name = "hash_table"
    defaults = {"ops_per_core": 20, "gap": 150, "buckets": 64}
    ops_param = "ops_per_core"

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.chains: list[list[int]] = [[] for _ in range(self.buckets)]
        units = cfg.num_units
        self.bucket_locks = [self._sync_addr(b % units, 0x200 + b // units)
                             for b in range(self.buckets)]
        # bucket b's data line at depth d: bucket_data[b] + (d % 8) * LINE_BYTES
        self.bucket_data = [self._data_addr(b % units, 0x1000 + (b // units) * 8)
                            for b in range(self.buckets)]

    @classmethod
    def top_offset(cls, cfg, params):
        # the last bucket's deepest data line lies above every bucket lock
        last = cls._resolve(params)["buckets"] - 1
        return _DATA_REGION + (0x1000 + (last // cfg.num_units) * 8 + 7) * LINE_BYTES

    def _program(self, idx):
        rng = self._rng(idx)
        for _ in range(self.ops_per_core):
            yield ("compute", self.gap)
            key = rng.randrange(1_000_000)
            b = key % self.buckets
            yield ("lock_acquire", self.bucket_locks[b])
            yield ("mem", self.bucket_data[b], False)
            depth = len(self.chains[b])
            yield ("mem", self.bucket_data[b] + (1 + depth) % 8 * LINE_BYTES, True)
            self.chains[b].append(key)
            yield ("lock_release", self.bucket_locks[b])
            self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name,
                              "chains": [sorted(c) for c in self.chains]})


class LinkedList(Workload):
    """Hand-over-hand traversal: many simultaneously live node locks.

    Node lines are 64 bytes apart, so their lock addresses alias the
    256-entry indexing counters every 4 nodes; with a small table this
    drives the overflow path hard.
    """

    name = "linked_list"
    defaults = {"ops_per_core": 10, "gap": 150, "nodes": 32}

    def __init__(self, cfg, seed, params=None):
        super().__init__(cfg, seed, params)
        self.visits = [0] * self.nodes
        self.node_addrs = [self._sync_addr(min(i * cfg.num_units // self.nodes, cfg.num_units - 1),
                                           0x400 + i) for i in range(self.nodes)]

    @classmethod
    def top_offset(cls, cfg, params):
        return _SYNC_REGION + (0x400 + cls._resolve(params)["nodes"] - 1) * LINE_BYTES

    def _program(self, idx):
        rng = self._rng(idx)
        addrs = self.node_addrs
        for _ in range(self.ops_per_core):
            yield ("compute", self.gap)
            depth = rng.randrange(self.nodes)
            yield ("lock_acquire", addrs[0])
            yield ("mem", addrs[0], False)
            self.visits[0] += 1
            for i in range(1, depth + 1):
                yield ("lock_acquire", addrs[i])
                yield ("mem", addrs[i], False)
                self.visits[i] += 1
                yield ("lock_release", addrs[i - 1])
            yield ("lock_release", addrs[depth])
            self.completed_ops += 1

    def digest(self):
        return _canon_digest({"workload": self.name, "visits": self.visits})


_REGISTRY = {w.name: w for w in (LockMicro, BarrierMicro, SemaphoreMicro, CondvarMicro,
                                 StackPush, QueuePop, ArrayMap, HashTable, LinkedList)}
WORKLOAD_NAMES = tuple(_REGISTRY)


def check_workload(cfg: SystemConfig, name: str, params: dict | None = None) -> None:
    """Reject an unknown workload, a parameter it does not take, a negative,
    empty or out-of-range parameter, or units too small to hold the data
    region every unit carries or the workload's highest line, and a condvar
    run whose signalers cannot wake every waiter. O(1): builds nothing."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(f"unknown workload {name!r}; choose from {sorted(_REGISTRY)}")
    params = params or {}
    unknown = params.keys() - cls.defaults.keys() - set(cls.client_params)
    if unknown:
        raise ConfigError(f"workload {name!r} takes no parameter {', '.join(sorted(unknown))}; "
                          f"it takes {', '.join(sorted([*cls.defaults, *cls.client_params]))}")
    values = cls._resolve(params)
    for key, value in values.items():
        low = 1 if key in _SIZE_PARAMS else 0
        if value < low:
            raise ConfigError(f"workload {name!r} needs {key} >= {low}, got {value}")
        if key == "sem_initial" and value >> 32:  # sem_wait_global carries it in 32 bits
            raise ConfigError(f"workload {name!r} needs sem_initial < 2**32, got {value}")
    if cls is CondvarMicro and values["iterations"]:  # every wake takes a signal of its own
        waiters = max(1, cfg.total_clients // 2)
        if (cfg.total_clients - waiters) * values["signal_cap"] < waiters * values["iterations"]:
            raise ConfigError(f"workload 'condvar' can never finish: {cfg.total_clients - waiters} "
                              f"signalers x signal_cap {values['signal_cap']} < {waiters} waiters "
                              f"x iterations {values['iterations']}")
    for key in cls.client_params:
        if key in params and not 0 < int(params[key]) <= cfg.total_clients:
            raise ConfigError(f"workload {name!r} needs {key} in 1..{cfg.total_clients}, got {params[key]}")
    if cfg.unit_mem_bytes <= _DATA_REGION:
        raise ConfigError(f"unit memory of {cfg.unit_mem_bytes:#x} bytes ends before the "
                          f"workload data region at {_DATA_REGION:#x} (64 MiB)")
    end = cls.top_offset(cfg, params) + LINE_BYTES
    if end > cfg.unit_mem_bytes:
        raise ConfigError(f"workload {name!r} with these parameters reaches {end:#x} bytes "
                          f"into a unit, past its {cfg.unit_mem_bytes:#x} bytes of memory")


def make_workload(cfg: SystemConfig, name: str, seed: int = 0,
                  params: dict | None = None) -> Workload:
    check_workload(cfg, name, params)
    return _REGISTRY[name](cfg, seed, params)
