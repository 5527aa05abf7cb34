"""Coordinator state machines for every synchronization primitive.

A Coordinator is one synchronization service point (topology.SCHEME_AXES):
an engine, with a fixed-capacity table and a memory fallback path, or a
software server, with an unbounded cache-modelled dict. All schemes share
the protocol logic below; they differ in route (who receives core
requests), service point, and message cost, which the runtime charges.

Local routing: cores talk only to their own unit's coordinator;
coordinators exchange *_global messages with the master of a variable and
aggregate their local waiters so that one global message covers a whole
unit. The master grants to its own local waiters first, then to units in
ascending id order. Direct routing: every core sends to the master, which
knows it by its packed {unit, core} id.

Table overflow (engines): when a variable cannot live in the table, the
master services it via a memory-resident record; non-master engines
redirect requests with *_overflow opcodes carrying a packed {unit, core}
id and track the episode in their indexing counters until the master
broadcasts decrease_indexing_counter at quiescence.

One handler serves each primitive action at every level. An opcode's
primitive, action and level come from messages.py, the one module that reads
opcode names. The level only says who asks, named by the message's core id:
a client core by the id on its own requests (LOCAL), a unit's aggregate by
the unit (GLOBAL), or another unit's core by its packed {unit, core} id
(OVERFLOW). Each level waits in its own mask, and grants go
back by the same level. A variable's one VarMeta (an entry, a server's state,
or a record: `in_memory`) is looked up once per message, checked against the
primitive the opcode acts on, and passed along.

One liveness rule: a VarMeta lives exactly while its variable is busy (a
waiter at any level, an owner, a barrier arrival, or a semaphore count off its
declared value, 0 while undeclared). Handlers never drop it; the end of
_handle_inner retires an idle one, freeing its entry or ending its episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError
from .messages import (ACQUIRE, ACQUIRES, ACTION, BARRIER, BROADCAST, CONDVAR, GLOBAL, GRANT,
                       LEVEL, LOCAL, LOCK, OVERFLOW, POST, PRIMITIVE, RELEASE, SEMAPHORE,
                       SIGNAL, SYNC_REQUESTS, WAIT, Message, Opcode, core_id_bits, pack_core,
                       unpack_core)
from .sync_table import IndexingCounters, SynchronizationTable
from .topology import SystemConfig, master_se_of

# info value on a cond grant that wakes every parked waiter of a unit
WAKE_ALL = (1 << 64) - 1

_LOCK_GRANT = (Opcode.LOCK_GRANT_LOCAL, Opcode.LOCK_GRANT_GLOBAL, Opcode.LOCK_GRANT_OVERFLOW)
# requests whose core id must name a client of the receiving coordinator
_CLIENT_REQUESTS = frozenset(op for op in SYNC_REQUESTS if LEVEL[op] == LOCAL)
# another unit's requests, redirected to the master's memory path
_OVERFLOW_REQUESTS = frozenset(op for op in Opcode if LEVEL[op] == OVERFLOW
                               and PRIMITIVE[op] is not None and ACTION[op] != GRANT)
_OVERFLOW_ACQUIRES = frozenset(op for op in _OVERFLOW_REQUESTS if ACTION[op] in ACQUIRES)
# a client request as a non-master redirects it: the same primitive and action
# at the OVERFLOW level (both barrier local waits become BARRIER_WAIT_OVERFLOW)
_REDIRECTED = {op: form for op in _CLIENT_REQUESTS for form in _OVERFLOW_REQUESTS
               if (PRIMITIVE[form], ACTION[form]) == (PRIMITIVE[op], ACTION[op])}

# condvar signals and broadcasts: with nothing parked anywhere they are lost
_SIGNALS = frozenset(op for op in Opcode if ACTION[op] in (SIGNAL, BROADCAST))
_UNLOCKS = frozenset(op for op in Opcode if PRIMITIVE[op] == LOCK and ACTION[op] == RELEASE)


def _low_bit(mask: int) -> int:
    assert mask
    return (mask & -mask).bit_length() - 1


def _bits(mask: int):
    while mask:
        b = _low_bit(mask)
        yield b
        mask &= mask - 1


@dataclass(slots=True)
class VarMeta:
    """Live coordination state for one variable at one coordinator.

    Waiters are bits keyed by the core id of their request, one mask per
    level: `locals` by a client's own id, `remote_agg` by unit, `remote_ovf`
    by packed {unit, core} id. Ascending bits order cores by (unit, local).
    """

    primitive: str
    in_memory: bool = False         # an engine's overflow record, not a table entry
    locals: int = 0                 # waiting cores that send here
    remote_agg: int = 0             # units waiting as aggregates (master only)
    remote_ovf: int = 0             # overflow waiters of other units (master only)
    ovf_units: int = 0              # units owed a decrease_indexing_counter at quiescence
    owner: tuple | None = None      # (level, core id) of the lock holder's request
    # barrier
    arrivals: int = 0
    target: int = 0
    # semaphore
    sem_count: int = 0
    sem_declared: int | None = None
    sem_demand: dict = field(default_factory=dict)  # unit -> outstanding remote waiters
    # condition variable
    cond_lock: int = 0


class Output:
    """Everything one handled message produced; the runtime charges costs."""

    __slots__ = ("sends", "internal", "mem_ops", "touches", "table_events", "overflowed")

    def __init__(self):
        self.sends = []         # (dst node, Message)
        self.internal = []      # self-injected requests (condvar resume)
        self.mem_ops = []       # ("read"|"write", addr) on the record line
        self.touches = []       # variable lines a server accessed
        self.table_events = []  # ("st_reserve"|"st_release", addr)
        self.overflowed = False


class Coordinator:
    def __init__(self, cfg: SystemConfig, unit: int):
        self.cfg = cfg
        self.unit = unit
        self.server = cfg.server
        # direct: cores of every unit send here, each request to its variable's master
        self.direct = cfg.route == "direct"
        self.table = None if self.server else SynchronizationTable(cfg.st_entries)
        self.counters = None if self.server else IndexingCounters(cfg.index_counters)
        self.meta: dict[int, VarMeta] = {}
        self.enrolled: dict[int, int] = {}      # addr -> outstanding redirected acquires
        self.cond_resume: dict[int, int] = {}   # core id -> condvar being resumed
        self.core_bits = core_id_bits(cfg.cores_per_unit)
        # the cores whose requests come here, by the core id those requests carry
        self.clients = {cfg.wire_core_id(node[1], node[2]): node
                        for node in cfg.clients() if self.direct or node[1] == unit}

    # -- identity and sending --------------------------------------------------

    def is_master_for(self, addr: int) -> bool:
        return master_se_of(self.cfg, addr) == self.unit

    def _client(self, core_id: int) -> None:
        """Reject a core id that names no client core sending here. Callers
        test membership in `clients` first, so a valid request pays no call."""
        if core_id not in self.clients:
            raise ProtocolError(f"core id {core_id} names no client of coordinator {self.unit}")

    def _send(self, out: Output, level: int, who: int, addr: int, op: Opcode,
              info: int = 0) -> None:
        """Send `op` back to a requester of `level` named by core id `who`."""
        if level == LOCAL:
            node = self.clients[who]
            out.sends.append((node, Message(addr, op, node[2], info)))
        elif level == GLOBAL:
            out.sends.append((("coord", who), Message(addr, op, self.unit, info)))
        else:
            out.sends.append((("coord", who >> self.core_bits), Message(addr, op, who, info)))

    def _to_unit(self, out: Output, unit: int, addr: int, op: Opcode, core_id: int,
                 info: int = 0) -> None:
        out.sends.append((("coord", unit), Message(addr, op, core_id, info)))

    def _to_master(self, out: Output, addr: int, op: Opcode, info: int = 0) -> None:
        """A *_global request for `addr`'s master, sent on behalf of this unit."""
        self._to_unit(out, master_se_of(self.cfg, addr), addr, op, self.unit, info)

    # -- entry / record management -------------------------------------------

    def _get_or_reserve(self, addr: int, meta: VarMeta | None, primitive: str, out: Output):
        """`meta`, or a fresh one of `primitive` when None; True when fresh."""
        if meta is not None:
            return meta, False
        if not self.server:
            assert addr not in self.enrolled, "reserve while enrolled in an overflow episode"
            self.table.reserve(addr)
            out.table_events.append(("st_reserve", addr))
        meta = self.meta[addr] = VarMeta(primitive)
        return meta, True

    def _retire(self, addr: int, meta: VarMeta, out: Output) -> None:
        """Drop an idle variable's state: free its table entry or end its memory episode."""
        if meta.in_memory:
            self.counters.decrement(addr)
            for u in _bits(meta.ovf_units):
                self._to_unit(out, u, addr, Opcode.DECREASE_INDEXING_COUNTER, 0)
        elif not self.server:
            self.table.release(addr)
            out.table_events.append(("st_release", addr))
        del self.meta[addr]

    # -- waiter order --------------------------------------------------------------

    def _enqueue(self, meta: VarMeta, level: int, who: int) -> None:
        if level == LOCAL:
            meta.locals |= 1 << who
        elif level == GLOBAL:
            meta.remote_agg |= 1 << who
        else:
            meta.remote_ovf |= 1 << who

    def _pop_local(self, meta: VarMeta) -> int:
        """Remove and return the lowest waiting core id."""
        core_id = _low_bit(meta.locals)
        meta.locals &= meta.locals - 1
        return core_id

    def _pop_remote(self, meta: VarMeta, agg_unit: int | None) -> int | None:
        """The master's remote grant order: lowest unit first, and within a
        unit its overflow cores, lowest first, before its aggregate.

        `agg_unit` is the lowest unit waiting as an aggregate, or None.
        Returns the packed id of the overflow waiter that goes next, removed
        from `remote_ovf`, or None when `agg_unit` goes next or none waits.
        """
        ovf = meta.remote_ovf
        if ovf:
            packed = _low_bit(ovf)
            if agg_unit is None or packed >> self.core_bits <= agg_unit:
                meta.remote_ovf = ovf & (ovf - 1)
                return packed
        return None

    def _pop_waiter(self, meta: VarMeta) -> tuple | None:
        """Remove and return the next waiter as (level, core id), local cores
        first, then in `_pop_remote`'s order; None when none waits."""
        if meta.locals:
            return LOCAL, self._pop_local(meta)
        agg = _low_bit(meta.remote_agg) if meta.remote_agg else None
        packed = self._pop_remote(meta, agg) if meta.remote_ovf else None
        if packed is not None:
            return OVERFLOW, packed
        if agg is None:
            return None
        meta.remote_agg &= meta.remote_agg - 1
        return GLOBAL, agg

    # -- top-level dispatch ---------------------------------------------------

    def handle(self, msg: Message) -> Output:
        """Serve one message. Its core id names the requester at every level."""
        out = Output()
        _ROUTE[msg.opcode](self, msg, out)
        return out

    def _cond_wait_request(self, msg: Message, out: Output) -> None:
        # release the named lock on the caller's behalf before parking
        lock = msg.info
        if self.direct and master_se_of(self.cfg, lock) != self.unit:
            # the lock lives at another master: release it there, ahead of the
            # re-acquisition that _start_resume sends it on a wake
            self._to_unit(out, master_se_of(self.cfg, lock), lock, Opcode.LOCK_RELEASE_LOCAL,
                          msg.core_id)
        else:
            self._handle_inner(msg._replace(addr=lock, opcode=Opcode.LOCK_RELEASE_LOCAL, info=0),
                               out)
        self._handle_inner(msg, out)

    def _lock_acquire_request(self, msg: Message, out: Output) -> None:
        if msg.info:
            # lock re-acquisition for a condvar waiter: the grant must wake
            # the condvar wait, not a plain acquire
            self.cond_resume[msg.core_id] = msg.info
        self._handle_inner(msg, out)

    def _handle_inner(self, msg: Message, out: Output) -> None:
        addr = msg.addr
        op = msg.opcode
        if op in _CLIENT_REQUESTS and msg.core_id not in self.clients:
            self._client(msg.core_id)
        # the variable's one lookup: its live state must be of the opcode's primitive
        meta = self.meta.get(addr)
        if meta is not None and meta.primitive != PRIMITIVE[op]:
            raise ProtocolError(
                f"variable {addr:#x} used as {PRIMITIVE[op]} but live as {meta.primitive}")

        if op in _OVERFLOW_REQUESTS:
            if self.server or not self.is_master_for(addr):
                where = ("a coordinator with no memory path" if self.server
                         else "a non-master coordinator")
                raise ProtocolError(f"{op.name} delivered to {where}")
            meta = self._memory_path(msg, meta, out)
        elif meta is not None and meta.in_memory:
            self._memory_path(msg, meta, out)
        elif (meta is None and not self.server and op in SYNC_REQUESTS
              and (self.table.full() or self.counters.get(addr) > 0)):
            if not self.is_master_for(addr):
                self._redirect(msg, out)
                return
            meta = self._memory_path(msg, None, out)
        else:
            _HANDLER[op](self, msg, meta, out)
            if self.server:
                # the lock line released by a cond wait is recorded by its own
                # inner dispatch, so one touch per dispatched message suffices
                out.touches.append(addr)
            if meta is None:
                meta = self.meta.get(addr)

        # the one liveness rule: a variable's state lives exactly while it is busy
        if meta is not None and not (meta.owner is not None or meta.locals or meta.remote_agg
                                     or meta.remote_ovf or meta.arrivals or meta.sem_demand
                                     or meta.sem_count != (meta.sem_declared or 0)):
            self._retire(addr, meta, out)

    def _not_served(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        raise ProtocolError(f"opcode {msg.opcode.name} not valid at a coordinator")

    # -- overflow path ---------------------------------------------------------

    def _redirect(self, msg: Message, out: Output) -> None:
        """Non-master with no table room: forward to the master via memory."""
        out.overflowed = True
        _, unit, local = self.clients[msg.core_id]
        form = _REDIRECTED[msg.opcode]
        if form in _OVERFLOW_ACQUIRES:
            if msg.addr not in self.enrolled:
                self.enrolled[msg.addr] = 0
                self.counters.increment(msg.addr)
            self.enrolled[msg.addr] += 1
        self._to_unit(out, master_se_of(self.cfg, msg.addr), msg.addr, form,
                      pack_core(unit, local, self.core_bits), msg.info)

    def _on_decrease(self, msg: Message, out: Output) -> None:
        addr = msg.addr
        n = self.enrolled.get(addr)
        if n is None:
            raise ProtocolError(f"decrease_indexing_counter for unenrolled variable {addr:#x}")
        if n > 0:
            # crossed with a fresh redirect: the new episode's decrease balances it
            return
        del self.enrolled[addr]
        self.counters.decrement(addr)

    def _deliver_overflow_wake(self, msg: Message, out: Output) -> None:
        addr = msg.addr
        unit, local = unpack_core(msg.core_id, self.core_bits)
        if unit != self.unit:
            raise ProtocolError(f"{msg.opcode.name} routed to unit {self.unit} for core of unit {unit}")
        # only a non-master redirects, and its cores send their local index
        if local not in self.clients:
            self._client(local)
        n = self.enrolled.get(addr)
        if n:
            self.enrolled[addr] = n - 1
        op = msg.opcode
        if op is Opcode.LOCK_GRANT_OVERFLOW:
            self._grant_lock(out, LOCAL, local, addr)
        elif op is Opcode.SEM_GRANT_OVERFLOW:
            self._send(out, LOCAL, local, addr, Opcode.SEM_GRANT_LOCAL)
        elif op is Opcode.BARRIER_DEPARTURE_OVERFLOW:
            self._send(out, LOCAL, local, addr, Opcode.BARRIER_DEPART_LOCAL)
        else:
            self._start_resume(local, addr, msg.info, out)

    def _memory_path(self, msg: Message, meta: VarMeta | None, out: Output) -> VarMeta | None:
        """Master services the variable, `meta` if live, from its local memory.
        Returns its record, or None for a lost signal, which writes nothing."""
        addr = msg.addr
        op = msg.opcode
        out.overflowed = True
        out.mem_ops.append(("read", addr))
        if meta is None:
            if op in _SIGNALS:
                return None  # lost signal: nothing parked anywhere
            if op in _UNLOCKS:
                raise ProtocolError(f"lock release for unknown variable {addr:#x}")
            meta = self.meta[addr] = VarMeta(PRIMITIVE[op], in_memory=True)
            self.counters.increment(addr)
        elif not meta.in_memory:
            # migrate a live entry to memory: a remote engine overflowed first
            self.table.release(addr)
            out.table_events.append(("st_release", addr))
            meta.in_memory = True
            self.counters.increment(addr)
        if op in _OVERFLOW_ACQUIRES:
            # the redirecting unit enrolled in the episode: it is owed a decrease
            meta.ovf_units |= 1 << (msg.core_id >> self.core_bits)

        _HANDLER[op](self, msg, meta, out)
        out.mem_ops.append(("write", addr))
        return meta

    # -- locks -------------------------------------------------------------------

    def _grant_lock(self, out: Output, level: int, who: int, addr: int) -> None:
        if level != LOCAL:
            self._send(out, level, who, addr, _LOCK_GRANT[level])
            return
        # a local grant, the most frequent send, skips _send's level dispatch
        node = self.clients[who]
        tag = self.cond_resume.pop(who, None)
        if tag is None:
            out.sends.append((node, Message(addr, Opcode.LOCK_GRANT_LOCAL, node[2], 0)))
        else:
            # waking a condvar waiter: the grant carries the condvar, lock in info
            out.sends.append((node, Message(tag, Opcode.COND_GRANT_LOCAL, node[2], addr)))

    def _lock_acquire(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        level = LEVEL[msg.opcode]
        who = msg.core_id
        meta, fresh = self._get_or_reserve(addr, meta, LOCK, out)
        if level == LOCAL and not self.is_master_for(addr):
            # a non-master queues its cores and asks the master once for the unit
            meta.locals |= 1 << who
            if fresh:
                self._to_master(out, addr, Opcode.LOCK_ACQUIRE_GLOBAL)
        elif meta.owner is None:
            assert not meta.locals and not meta.remote_agg and not meta.remote_ovf
            meta.owner = (level, who)
            self._grant_lock(out, level, who, addr)
        else:
            self._enqueue(meta, level, who)

    def _lock_release(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        level = LEVEL[msg.opcode]
        who = msg.core_id
        if meta is None or meta.owner != (level, who):
            node = (self.clients[who] if level == LOCAL else ("unit", who) if level == GLOBAL
                    else ("core", *unpack_core(who, self.core_bits)))
            raise ProtocolError(f"lock {addr:#x} released by non-owner {node}")
        if level == LOCAL and not meta.locals and not self.is_master_for(addr):
            # one aggregated release covers every local handoff
            self._to_master(out, addr, Opcode.LOCK_RELEASE_GLOBAL)
        self._lock_next(addr, meta, out)

    def _lock_grant_global(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        # the unit's request is out exactly while its entry has no owner
        if meta is None or meta.owner is not None:
            raise ProtocolError(f"unsolicited lock grant for {addr:#x}")
        assert meta.locals, "token granted with no local waiters"
        self._lock_next(addr, meta, out)

    def _lock_next(self, addr: int, meta: VarMeta, out: Output) -> None:
        """Hand the lock to the next waiter, if one waits; a non-master has
        local waiters only. With none, the lock is left without an owner."""
        meta.owner = waiter = self._pop_waiter(meta)
        if waiter is not None:
            self._grant_lock(out, waiter[0], waiter[1], addr)

    # -- barriers ------------------------------------------------------------------

    def _barrier_wait(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        level = LEVEL[msg.opcode]
        who = msg.core_id
        info = msg.info
        meta, _ = self._get_or_reserve(addr, meta, BARRIER, out)
        self._barrier_target(meta, info)
        if level == LOCAL:
            if meta.locals >> who & 1:
                raise ProtocolError(f"core {self.clients[who]} arrived twice at barrier {addr:#x}")
            meta.locals |= 1 << who
            # a direct route or a one-unit barrier counts every arrival here
            single_point = self.direct or msg.opcode is Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT
            if not single_point and not self.is_master_for(addr):
                # partial participation forwards each arrival; a whole unit
                # announces once all of it has arrived
                if info != self.cfg.total_clients or \
                        meta.locals.bit_count() == self.cfg.clients_per_unit:
                    self._to_master(out, addr, Opcode.BARRIER_WAIT_GLOBAL, info)
                return
            meta.arrivals += 1
        else:
            self._enqueue(meta, level, who)
            if level == GLOBAL and info == self.cfg.total_clients:
                meta.arrivals += self.cfg.clients_per_unit  # a whole unit arrived at once
            else:
                meta.arrivals += 1
        if meta.arrivals != meta.target:
            return
        for u in _bits(meta.remote_agg):
            self._send(out, GLOBAL, u, addr, Opcode.BARRIER_DEPART_GLOBAL)
        meta.remote_agg = 0
        for packed in _bits(meta.remote_ovf):
            self._send(out, OVERFLOW, packed, addr, Opcode.BARRIER_DEPARTURE_OVERFLOW)
        meta.remote_ovf = 0
        self._barrier_depart_locals(addr, meta, out)
        meta.arrivals = 0

    def _barrier_depart_global(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        if meta is None:
            raise ProtocolError(f"barrier departure for unknown variable {addr:#x}")
        self._barrier_depart_locals(addr, meta, out)

    def _barrier_target(self, meta: VarMeta, info: int) -> None:
        if meta.target == 0:
            meta.target = info
        elif meta.target != info:
            raise ProtocolError(f"barrier participant count mismatch: {meta.target} vs {info}")

    def _barrier_depart_locals(self, addr: int, meta: VarMeta, out: Output) -> None:
        for core_id in _bits(meta.locals):
            self._send(out, LOCAL, core_id, addr, Opcode.BARRIER_DEPART_LOCAL)
        meta.locals = 0

    # -- semaphores -----------------------------------------------------------------

    def _sem_declare(self, meta: VarMeta, initial: int) -> None:
        if meta.sem_declared is None:
            meta.sem_declared = initial
            meta.sem_count += initial
        elif meta.sem_declared != initial:
            raise ProtocolError(
                f"semaphore initial resources re-declared: {meta.sem_declared} vs {initial}")

    def _sem_wait(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        level = LEVEL[msg.opcode]
        who = msg.core_id
        meta, _ = self._get_or_reserve(addr, meta, SEMAPHORE, out)
        if level == LOCAL and not self.is_master_for(addr):
            meta.locals |= 1 << who
            self._to_master(out, addr, Opcode.SEM_WAIT_GLOBAL, (msg.info << 32) | 1)
            return
        if level == GLOBAL:
            # a unit's waiters: its initial resources high, how many wait low
            self._sem_declare(meta, msg.info >> 32)
            meta.sem_demand[who] = meta.sem_demand.get(who, 0) + (msg.info & 0xFFFFFFFF)
        else:
            self._sem_declare(meta, msg.info)
            self._enqueue(meta, level, who)
        self._sem_drain(addr, meta, out)

    def _sem_post(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        level = LEVEL[msg.opcode]
        if level == LOCAL and not self.is_master_for(addr):
            self._to_master(out, addr, Opcode.SEM_POST_GLOBAL, 1)
            return
        meta, _ = self._get_or_reserve(addr, meta, SEMAPHORE, out)
        meta.sem_count += msg.info if level == GLOBAL else 1
        self._sem_drain(addr, meta, out)

    def _sem_grant_global(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        if meta is None:
            raise ProtocolError(f"semaphore grant for unknown variable {addr:#x}")
        # the master grants a unit at most its demand, one per parked waiter
        if msg.info > meta.locals.bit_count():
            raise ProtocolError(f"semaphore grant of {msg.info} for {addr:#x} exceeds "
                                f"the {meta.locals.bit_count()} parked waiters")
        for _ in range(msg.info):
            self._send(out, LOCAL, self._pop_local(meta), addr, Opcode.SEM_GRANT_LOCAL)

    def _sem_drain(self, addr: int, meta: VarMeta, out: Output) -> None:
        """Master: spend the count on waiters, locals first, then in
        `_pop_remote`'s order; an aggregate takes as much as it asked for."""
        while meta.sem_count > 0 and meta.locals:
            meta.sem_count -= 1
            self._send(out, LOCAL, self._pop_local(meta), addr, Opcode.SEM_GRANT_LOCAL)
        while meta.sem_count > 0 and (meta.remote_ovf or meta.sem_demand):
            agg = min(meta.sem_demand, default=None)
            packed = self._pop_remote(meta, agg)
            if packed is not None:
                meta.sem_count -= 1
                self._send(out, OVERFLOW, packed, addr, Opcode.SEM_GRANT_OVERFLOW)
            else:
                batch = min(meta.sem_count, meta.sem_demand[agg])
                meta.sem_count -= batch
                if meta.sem_demand[agg] == batch:
                    del meta.sem_demand[agg]
                else:
                    meta.sem_demand[agg] -= batch
                self._send(out, GLOBAL, agg, addr, Opcode.SEM_GRANT_GLOBAL, batch)

    # -- condition variables -----------------------------------------------------------

    def _cond_wait(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        level = LEVEL[msg.opcode]
        meta, fresh = self._get_or_reserve(addr, meta, CONDVAR, out)
        self._cond_lock_set(meta, msg.info)
        self._enqueue(meta, level, msg.core_id)
        # a non-master's wait is announced exactly while its entry exists
        if level == LOCAL and fresh and not self.is_master_for(addr):
            self._to_master(out, addr, Opcode.COND_WAIT_GLOBAL, msg.info)

    def _cond_signal(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        """Wake the next waiter; with none parked the signal is lost."""
        addr = msg.addr
        if LEVEL[msg.opcode] == LOCAL and not self.is_master_for(addr):
            self._to_master(out, addr, Opcode.COND_SIGNAL_GLOBAL)
            return
        waiter = None if meta is None else self._pop_waiter(meta)
        if waiter is None:
            return
        level, who = waiter
        if level == LOCAL:
            self._start_resume(who, addr, meta.cond_lock, out)
        elif level == GLOBAL:
            self._send(out, GLOBAL, who, addr, Opcode.COND_GRANT_GLOBAL, 1)
        else:
            self._send(out, OVERFLOW, who, addr, Opcode.COND_GRANT_OVERFLOW, meta.cond_lock)

    def _cond_broadcast(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        """Wake every waiter: local cores, then overflow cores, then units."""
        addr = msg.addr
        if LEVEL[msg.opcode] == LOCAL and not self.is_master_for(addr):
            self._to_master(out, addr, Opcode.COND_BROAD_GLOBAL)
            return
        if meta is None:
            return
        while meta.locals:
            self._start_resume(self._pop_local(meta), addr, meta.cond_lock, out)
        for packed in _bits(meta.remote_ovf):
            self._send(out, OVERFLOW, packed, addr, Opcode.COND_GRANT_OVERFLOW, meta.cond_lock)
        meta.remote_ovf = 0
        for u in _bits(meta.remote_agg):
            self._send(out, GLOBAL, u, addr, Opcode.COND_GRANT_GLOBAL, WAKE_ALL)
        meta.remote_agg = 0

    def _cond_grant_global(self, msg: Message, meta: VarMeta | None, out: Output) -> None:
        addr = msg.addr
        if meta is None or not meta.locals:
            raise ProtocolError(f"condvar wake for {addr:#x} with no parked waiter")
        wakes = meta.locals.bit_count() if msg.info == WAKE_ALL else 1
        for _ in range(wakes):
            self._start_resume(self._pop_local(meta), addr, meta.cond_lock, out)
        if meta.locals:
            # still parked waiters: announce again
            self._to_master(out, addr, Opcode.COND_WAIT_GLOBAL, meta.cond_lock)

    def _cond_lock_set(self, meta: VarMeta, lock_addr: int) -> None:
        if meta.cond_lock == 0:
            meta.cond_lock = lock_addr
        elif meta.cond_lock != lock_addr:
            raise ProtocolError(
                f"condvar associated with lock {meta.cond_lock:#x}, wait names {lock_addr:#x}")

    def _start_resume(self, core_id: int, cv_addr: int, lock_addr: int, out: Output) -> None:
        """Wake one waiter: re-acquire its lock, then deliver the cond grant."""
        if lock_addr == 0:
            raise ProtocolError(f"condvar {cv_addr:#x} woken without an associated lock")
        if self.direct and master_se_of(self.cfg, lock_addr) != self.unit:
            # the lock lives at another master: re-acquire over the wire
            self._to_unit(out, master_se_of(self.cfg, lock_addr), lock_addr,
                          Opcode.LOCK_ACQUIRE_LOCAL, core_id, cv_addr)
        else:
            out.internal.append(Message(lock_addr, Opcode.LOCK_ACQUIRE_LOCAL, core_id, cv_addr))


# handle()'s entry point for each opcode. Overflow grants wake the redirected
# core, the counter decrease updates the indexing counters, and two local
# requests need set-up before _handle_inner: a cond wait releases its lock, and
# a lock acquire may resume a condvar waiter. _handle_inner serves the rest,
# overflow requests included. This table and _HANDLER are each indexed once per
# message, in place of chains of `op is Opcode.X` tests (an EnumType.__getattr__ each).
_ROUTE = {op: Coordinator._deliver_overflow_wake if ACTION[op] == GRANT and LEVEL[op] == OVERFLOW
          else Coordinator._handle_inner for op in Opcode}
_ROUTE.update({Opcode.DECREASE_INDEXING_COUNTER: Coordinator._on_decrease,
               Opcode.COND_WAIT_LOCAL: Coordinator._cond_wait_request,
               Opcode.LOCK_ACQUIRE_LOCAL: Coordinator._lock_acquire_request})

# the state-machine step for each opcode, called with (msg, VarMeta or None, out):
# one per primitive and action, whatever the level; a grant comes to a
# coordinator's state machine only as the master's answer to its unit's
# GLOBAL request, and a coordinator serves no core-bound one
_ACTIONS = {
    (LOCK, ACQUIRE): Coordinator._lock_acquire,
    (LOCK, RELEASE): Coordinator._lock_release,
    (LOCK, GRANT): Coordinator._lock_grant_global,
    (BARRIER, WAIT): Coordinator._barrier_wait,
    (BARRIER, GRANT): Coordinator._barrier_depart_global,
    (SEMAPHORE, WAIT): Coordinator._sem_wait,
    (SEMAPHORE, POST): Coordinator._sem_post,
    (SEMAPHORE, GRANT): Coordinator._sem_grant_global,
    (CONDVAR, WAIT): Coordinator._cond_wait,
    (CONDVAR, SIGNAL): Coordinator._cond_signal,
    (CONDVAR, BROADCAST): Coordinator._cond_broadcast,
    (CONDVAR, GRANT): Coordinator._cond_grant_global,
}
_HANDLER = {op: _ACTIONS.get((PRIMITIVE[op], ACTION[op]), Coordinator._not_served)
            if ACTION[op] != GRANT or LEVEL[op] == GLOBAL else Coordinator._not_served
            for op in Opcode}
