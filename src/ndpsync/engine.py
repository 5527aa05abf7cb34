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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError
from .messages import (_CLASS, SYNC_REQUESTS, Message, OpClass, Opcode, core_id_bits,
                       pack_core, unpack_core)
from .sync_table import IndexingCounters, SynchronizationTable
from .topology import SystemConfig, master_se_of

# info value on a cond grant that wakes every parked waiter of a unit
WAKE_ALL = (1 << 64) - 1

LOCK = "lock"
BARRIER = "barrier"
SEMAPHORE = "semaphore"
CONDVAR = "condvar"

# the primitive each opcode acts on, by its name's first word; None for the
# counter decrease, which acts on no variable's state
_PRIMITIVE = {op: {"LOCK": LOCK, "BARRIER": BARRIER, "SEM": SEMAPHORE, "COND": CONDVAR}
              .get(op.name.partition("_")[0]) for op in Opcode}

_OVERFLOW_FORM = {
    Opcode.LOCK_ACQUIRE_LOCAL: Opcode.LOCK_ACQUIRE_OVERFLOW,
    Opcode.LOCK_RELEASE_LOCAL: Opcode.LOCK_RELEASE_OVERFLOW,
    Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT: Opcode.BARRIER_WAIT_OVERFLOW,
    Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS: Opcode.BARRIER_WAIT_OVERFLOW,
    Opcode.SEM_WAIT_LOCAL: Opcode.SEM_WAIT_OVERFLOW,
    Opcode.SEM_POST_LOCAL: Opcode.SEM_POST_OVERFLOW,
    Opcode.COND_WAIT_LOCAL: Opcode.COND_WAIT_OVERFLOW,
    Opcode.COND_SIGNAL_LOCAL: Opcode.COND_SIGNAL_OVERFLOW,
    Opcode.COND_BROAD_LOCAL: Opcode.COND_BROAD_OVERFLOW,
}

# condvar signals and broadcasts: with nothing parked anywhere they are lost
_COND_SIGNALS = frozenset(op for op in Opcode if _PRIMITIVE[op] == CONDVAR
                          and _CLASS[op] in (OpClass.RELEASE, OpClass.OVERFLOW_RELEASE))
_LOCK_RELEASES = frozenset((Opcode.LOCK_RELEASE_LOCAL, Opcode.LOCK_RELEASE_GLOBAL,
                            Opcode.LOCK_RELEASE_OVERFLOW))


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

    Waiting cores are bits keyed by a core id: `locals` by the id on the
    cores' own requests, `remote_ovf` by the packed {unit, core} id of an
    overflow message. Either way ascending bits order cores by (unit, local).
    """

    primitive: str
    backing: str  # "entry" | "record" | "server"
    locals: int = 0                 # waiting cores that send here
    remote_agg: int = 0             # units waiting as aggregates (master only)
    remote_ovf: int = 0             # overflow waiters of other units (master only)
    ovf_units: int = 0              # units owed a decrease_indexing_counter at quiescence
    owner: tuple | None = None      # ("core", unit, local) | ("unit", u)
    pending_global: bool = False    # non-master: upward announce outstanding
    # barrier
    arrivals: int = 0
    target: int = 0
    # semaphore
    sem_count: int = 0
    sem_declared: int | None = None
    sem_demand: dict = field(default_factory=dict)  # unit -> outstanding remote waiters
    sem_credit: int = 0             # non-master: grants received, not yet consumed
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

    def _client(self, core_id: int):
        """Node of the client core that sends `core_id` here."""
        node = self.clients.get(core_id)
        if node is None:
            raise ProtocolError(f"core id {core_id} names no client of coordinator {self.unit}")
        return node

    def _to_core(self, out: Output, core_id: int, addr: int, op: Opcode, info: int = 0) -> None:
        node = self.clients[core_id]
        out.sends.append((node, Message(addr, op, node[2], info)))

    def _to_unit(self, out: Output, unit: int, addr: int, op: Opcode, core_id: int,
                 info: int = 0) -> None:
        out.sends.append((("coord", unit), Message(addr, op, core_id, info)))

    def _to_master(self, out: Output, addr: int, op: Opcode, info: int = 0) -> None:
        """A *_global request for `addr`'s master, sent on behalf of this unit."""
        self._to_unit(out, master_se_of(self.cfg, addr), addr, op, self.unit, info)

    # -- entry / record management -------------------------------------------

    def _get_or_reserve(self, addr: int, primitive: str, out: Output):
        meta = self.meta.get(addr)
        if meta is not None:
            if meta.primitive != primitive:
                raise ProtocolError(
                    f"variable {addr:#x} used as {primitive} but live as {meta.primitive}")
            return meta, False
        if self.server:
            meta = VarMeta(primitive=primitive, backing="server")
        else:
            assert addr not in self.enrolled, "reserve while enrolled in an overflow episode"
            self.table.reserve(addr)
            out.table_events.append(("st_reserve", addr))
            meta = VarMeta(primitive=primitive, backing="entry")
        self.meta[addr] = meta
        return meta, True

    def _release_var(self, addr: int, meta: VarMeta, out: Output) -> None:
        if meta.backing != "record" and (meta.locals or meta.remote_agg or meta.sem_demand):
            raise ProtocolError(f"release of variable {addr:#x} with waiters pending")
        if meta.backing == "entry":
            self.table.release(addr)
            out.table_events.append(("st_release", addr))
            del self.meta[addr]
        elif meta.backing == "server":
            del self.meta[addr]
        # record-backed state is dropped by the memory-path epilogue once quiescent

    def _release_if_quiesced(self, addr: int, meta: VarMeta, out: Output) -> None:
        if self._quiesced(meta):
            self._release_var(addr, meta, out)

    # -- waiter order --------------------------------------------------------------

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

    # -- top-level dispatch ---------------------------------------------------

    def handle(self, msg: Message, src) -> Output:
        out = Output()
        _ROUTE[msg.opcode](self, msg, src, out)
        return out

    def _overflow_request(self, msg: Message, src, out: Output) -> None:
        if self.server or not self.is_master_for(msg.addr):
            raise ProtocolError(f"{msg.opcode.name} delivered to a non-master coordinator")
        out.overflowed = True
        self._memory_path(msg, src, out)

    def _cond_wait_request(self, msg: Message, src, out: Output) -> None:
        # release the named lock on the caller's behalf before parking
        rel = msg._replace(addr=msg.info, opcode=Opcode.LOCK_RELEASE_LOCAL, info=0)
        self._handle_inner(rel, src, out)
        self._handle_inner(msg, src, out)

    def _lock_acquire_request(self, msg: Message, src, out: Output) -> None:
        if msg.info:
            # lock re-acquisition for a condvar waiter: the grant must wake
            # the condvar wait, not a plain acquire
            self._client(msg.core_id)
            self.cond_resume[msg.core_id] = msg.info
        self._handle_inner(msg, src, out)

    def _handle_inner(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta.get(addr)

        if meta is not None and meta.backing == "record":
            out.overflowed = True
            self._memory_path(msg, src, out)
            return

        if (meta is None and not self.server
                and msg.opcode in SYNC_REQUESTS
                and (self.table.full() or self.counters.get(addr) > 0)):
            out.overflowed = True
            if self.is_master_for(addr):
                self._memory_path(msg, src, out)
            else:
                self._redirect(msg, out)
            return

        _HANDLER[msg.opcode](self, msg, src, out)
        if self.server:
            # the lock line released by a cond wait is recorded by its own
            # inner dispatch, so one touch per dispatched message suffices
            out.touches.append(addr)

    def _not_served(self, msg: Message, src, out: Output) -> None:
        raise ProtocolError(f"opcode {msg.opcode.name} not valid at a coordinator")

    # -- overflow path ---------------------------------------------------------

    def _redirect(self, msg: Message, out: Output) -> None:
        """Non-master with no table room: forward to the master via memory."""
        _, unit, local = self._client(msg.core_id)
        if _CLASS[msg.opcode] is OpClass.ACQUIRE:
            if msg.addr not in self.enrolled:
                self.enrolled[msg.addr] = 0
                self.counters.increment(msg.addr)
            self.enrolled[msg.addr] += 1
        self._to_unit(out, master_se_of(self.cfg, msg.addr), msg.addr, _OVERFLOW_FORM[msg.opcode],
                      pack_core(unit, local, self.core_bits), msg.info)

    def _on_decrease(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        n = self.enrolled.get(addr)
        if n is None:
            raise ProtocolError(f"decrease_indexing_counter for unenrolled variable {addr:#x}")
        if n > 0:
            # crossed with a fresh redirect: the new episode's decrease balances it
            return
        del self.enrolled[addr]
        self.counters.decrement(addr)

    def _deliver_overflow_wake(self, msg: Message, src, out: Output) -> None:
        unit, local = unpack_core(msg.core_id, self.core_bits)
        if unit != self.unit:
            raise ProtocolError(f"{msg.opcode.name} routed to unit {self.unit} for core of unit {unit}")
        # only a non-master redirects, and its cores send their local index
        self._client(local)
        n = self.enrolled.get(msg.addr)
        if n is not None and n > 0:
            self.enrolled[msg.addr] = n - 1
        op = msg.opcode
        if op is Opcode.LOCK_GRANT_OVERFLOW:
            self._grant_lock_to_core(msg.addr, local, out)
        elif op is Opcode.SEM_GRANT_OVERFLOW:
            self._to_core(out, local, msg.addr, Opcode.SEM_GRANT_LOCAL)
        elif op is Opcode.BARRIER_DEPARTURE_OVERFLOW:
            self._to_core(out, local, msg.addr, Opcode.BARRIER_DEPART_LOCAL)
        elif op is Opcode.COND_GRANT_OVERFLOW:
            self._start_resume(local, msg.addr, msg.info, out)
        else:  # pragma: no cover
            raise ProtocolError(f"unexpected overflow wake {op.name}")

    def _memory_path(self, msg: Message, src, out: Output) -> None:
        """Master services the variable from its local memory."""
        addr = msg.addr
        op = msg.opcode
        meta = self.meta.get(addr)
        out.mem_ops.append(("read", addr))
        if meta is None:
            if op in _COND_SIGNALS:
                return  # lost signal: nothing parked anywhere
            if op in _LOCK_RELEASES:
                raise ProtocolError(f"lock release for unknown variable {addr:#x}")
            meta = VarMeta(primitive=_PRIMITIVE[op], backing="record")
            self.meta[addr] = meta
            self.counters.increment(addr)
        elif meta.backing == "entry":
            # migrate a live entry to memory: a remote engine overflowed first
            self.table.release(addr)
            out.table_events.append(("st_release", addr))
            meta.backing = "record"
            self.counters.increment(addr)

        _HANDLER[op](self, msg, src, out)

        meta = self.meta.get(addr)
        assert meta is not None and meta.backing == "record"
        if self._quiesced(meta):
            self.counters.decrement(addr)
            for u in _bits(meta.ovf_units):
                self._to_unit(out, u, addr, Opcode.DECREASE_INDEXING_COUNTER, 0)
            del self.meta[addr]
        out.mem_ops.append(("write", addr))

    def _quiesced(self, meta: VarMeta) -> bool:
        if meta.locals or meta.remote_agg or meta.sem_demand or meta.owner is not None:
            return False
        if meta.remote_ovf or meta.arrivals or meta.sem_credit:
            return False
        if meta.primitive == SEMAPHORE:
            if meta.sem_declared is None:
                return meta.sem_count == 0
            return meta.sem_count == meta.sem_declared
        return True

    # -- locks -------------------------------------------------------------------

    def _grant_lock_to_core(self, addr: int, core_id: int, out: Output) -> None:
        tag = self.cond_resume.pop(core_id, None)
        if tag is None:
            self._to_core(out, core_id, addr, Opcode.LOCK_GRANT_LOCAL)
        else:
            # waking a condvar waiter: the grant carries the condvar, lock in info
            self._to_core(out, core_id, tag, Opcode.COND_GRANT_LOCAL, addr)

    def _lock_acquire_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        core_id = msg.core_id
        node = self._client(core_id)
        meta, fresh = self._get_or_reserve(addr, LOCK, out)
        if self.is_master_for(addr):
            if meta.owner is None:
                assert not meta.locals and not meta.remote_agg and not meta.remote_ovf
                meta.owner = node
                self._grant_lock_to_core(addr, core_id, out)
            else:
                meta.locals |= 1 << core_id
        else:
            meta.locals |= 1 << core_id
            if fresh:
                meta.pending_global = True
                self._to_master(out, addr, Opcode.LOCK_ACQUIRE_GLOBAL)
            else:
                assert meta.pending_global or meta.owner is not None

    def _lock_acquire_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        s = src[1]
        meta, _ = self._get_or_reserve(addr, LOCK, out)
        if meta.owner is None:
            assert not meta.locals and not meta.remote_agg
            meta.owner = ("unit", s)
            self._to_unit(out, s, addr, Opcode.LOCK_GRANT_GLOBAL, self.unit)
        else:
            meta.remote_agg |= 1 << s

    def _lock_acquire_overflow(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        unit, local = unpack_core(msg.core_id, self.core_bits)
        meta = self.meta[addr]
        meta.ovf_units |= 1 << unit
        if meta.owner is None:
            meta.owner = ("core", unit, local)
            self._to_unit(out, unit, addr, Opcode.LOCK_GRANT_OVERFLOW, msg.core_id)
        else:
            meta.remote_ovf |= 1 << msg.core_id

    def _lock_release_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        node = self._client(msg.core_id)
        meta = self.meta.get(addr)
        if meta is None or meta.owner != node:
            raise ProtocolError(f"lock {addr:#x} released by non-owner core {node}")
        if self.is_master_for(addr):
            self._lock_next(addr, meta, out)
        else:
            meta.owner = None
            if meta.locals:
                self._grant_next_local(addr, meta, out)
            else:
                # one aggregated release covers every local handoff
                self._to_master(out, addr, Opcode.LOCK_RELEASE_GLOBAL)
                self._release_var(addr, meta, out)

    def _lock_release_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        s = src[1]
        meta = self.meta.get(addr)
        if meta is None or meta.owner != ("unit", s):
            raise ProtocolError(f"lock {addr:#x} released by non-owner unit {s}")
        self._lock_next(addr, meta, out)

    def _lock_release_overflow(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        node = ("core", *unpack_core(msg.core_id, self.core_bits))
        meta = self.meta.get(addr)
        if meta is None or meta.owner != node:
            raise ProtocolError(f"lock {addr:#x} released by non-owner overflow core {node}")
        self._lock_next(addr, meta, out)

    def _lock_grant_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta.get(addr)
        if meta is None or not meta.pending_global:
            raise ProtocolError(f"unsolicited lock grant for {addr:#x}")
        meta.pending_global = False
        assert meta.locals, "token granted with no local waiters"
        self._grant_next_local(addr, meta, out)

    def _grant_next_local(self, addr: int, meta: VarMeta, out: Output) -> None:
        core_id = self._pop_local(meta)
        meta.owner = self.clients[core_id]
        self._grant_lock_to_core(addr, core_id, out)

    def _lock_next(self, addr: int, meta: VarMeta, out: Output) -> None:
        """Master: hand the lock to the next waiter, locals first."""
        meta.owner = None
        if meta.locals:
            self._grant_next_local(addr, meta, out)
            return
        agg = _low_bit(meta.remote_agg) if meta.remote_agg else None
        packed = self._pop_remote(meta, agg)
        if packed is not None:
            unit, local = unpack_core(packed, self.core_bits)
            meta.owner = ("core", unit, local)
            self._to_unit(out, unit, addr, Opcode.LOCK_GRANT_OVERFLOW, packed)
        elif agg is not None:
            meta.remote_agg &= ~(1 << agg)
            meta.owner = ("unit", agg)
            self._to_unit(out, agg, addr, Opcode.LOCK_GRANT_GLOBAL, self.unit)
        else:
            self._release_var(addr, meta, out)

    # -- barriers ------------------------------------------------------------------

    def _barrier_depart_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta.get(addr)
        if meta is None:
            raise ProtocolError(f"barrier departure for unknown variable {addr:#x}")
        self._barrier_depart_locals(addr, meta, out)
        self._release_var(addr, meta, out)

    def _barrier_wait_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        s = src[1]
        meta, _ = self._get_or_reserve(addr, BARRIER, out)
        self._barrier_target(meta, msg.info)
        meta.remote_agg |= 1 << s
        if msg.info == self.cfg.total_clients:
            meta.arrivals += self.cfg.clients_per_unit  # a whole unit arrived at once
        else:
            meta.arrivals += 1
        self._barrier_check(addr, meta, out)

    def _barrier_wait_overflow(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta[addr]
        self._barrier_target(meta, msg.info)
        meta.ovf_units |= 1 << (msg.core_id >> self.core_bits)
        meta.remote_ovf |= 1 << msg.core_id
        meta.arrivals += 1
        self._barrier_check(addr, meta, out)

    def _barrier_wait_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        core_id = msg.core_id
        node = self._client(core_id)
        meta, _ = self._get_or_reserve(addr, BARRIER, out)
        self._barrier_target(meta, msg.info)
        if meta.locals >> core_id & 1:
            raise ProtocolError(f"core {node} arrived twice at barrier {addr:#x}")
        meta.locals |= 1 << core_id

        single_point = self.direct or msg.opcode is Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT
        if single_point:
            meta.arrivals += 1
            if meta.arrivals == meta.target:
                self._barrier_depart_locals(addr, meta, out)
                meta.arrivals = 0
                self._release_var(addr, meta, out)
            return

        if self.is_master_for(addr):
            meta.arrivals += 1
            self._barrier_check(addr, meta, out)
        elif msg.info != self.cfg.total_clients:
            # partial participation: forward each arrival, track it for departure
            self._to_master(out, addr, Opcode.BARRIER_WAIT_GLOBAL, msg.info)
        elif meta.locals.bit_count() == self.cfg.clients_per_unit:
            # two-level: announce once the whole unit has arrived
            self._to_master(out, addr, Opcode.BARRIER_WAIT_GLOBAL, msg.info)

    def _barrier_target(self, meta: VarMeta, info: int) -> None:
        if meta.target == 0:
            meta.target = info
        elif meta.target != info:
            raise ProtocolError(f"barrier participant count mismatch: {meta.target} vs {info}")

    def _barrier_depart_locals(self, addr: int, meta: VarMeta, out: Output) -> None:
        for core_id in _bits(meta.locals):
            self._to_core(out, core_id, addr, Opcode.BARRIER_DEPART_LOCAL)
        meta.locals = 0

    def _barrier_check(self, addr: int, meta: VarMeta, out: Output) -> None:
        if meta.arrivals != meta.target:
            return
        for u in _bits(meta.remote_agg):
            self._to_unit(out, u, addr, Opcode.BARRIER_DEPART_GLOBAL, self.unit)
        meta.remote_agg = 0
        for packed in _bits(meta.remote_ovf):
            self._to_unit(out, packed >> self.core_bits, addr,
                          Opcode.BARRIER_DEPARTURE_OVERFLOW, packed)
        meta.remote_ovf = 0
        self._barrier_depart_locals(addr, meta, out)
        meta.arrivals = 0
        self._release_var(addr, meta, out)

    # -- semaphores -----------------------------------------------------------------

    def _sem_declare(self, meta: VarMeta, initial: int) -> None:
        if meta.sem_declared is None:
            meta.sem_declared = initial
            meta.sem_count += initial
        elif meta.sem_declared != initial:
            raise ProtocolError(
                f"semaphore initial resources re-declared: {meta.sem_declared} vs {initial}")

    def _sem_wait_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        core_id = msg.core_id
        self._client(core_id)
        meta, _ = self._get_or_reserve(addr, SEMAPHORE, out)
        if self.is_master_for(addr):
            self._sem_declare(meta, msg.info)
            if meta.sem_count > 0:
                meta.sem_count -= 1
                self._to_core(out, core_id, addr, Opcode.SEM_GRANT_LOCAL)
            else:
                meta.locals |= 1 << core_id
            self._release_if_quiesced(addr, meta, out)
        elif meta.sem_credit > 0:
            meta.sem_credit -= 1
            self._to_core(out, core_id, addr, Opcode.SEM_GRANT_LOCAL)
        else:
            meta.locals |= 1 << core_id
            self._to_master(out, addr, Opcode.SEM_WAIT_GLOBAL, (msg.info << 32) | 1)

    def _sem_wait_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        s = src[1]
        meta, _ = self._get_or_reserve(addr, SEMAPHORE, out)
        self._sem_declare(meta, msg.info >> 32)
        meta.sem_demand[s] = meta.sem_demand.get(s, 0) + (msg.info & 0xFFFFFFFF)
        self._sem_drain(addr, meta, out)

    def _sem_wait_overflow(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        unit = msg.core_id >> self.core_bits
        meta = self.meta[addr]
        meta.ovf_units |= 1 << unit
        self._sem_declare(meta, msg.info)
        if meta.sem_count > 0:
            meta.sem_count -= 1
            self._to_unit(out, unit, addr, Opcode.SEM_GRANT_OVERFLOW, msg.core_id)
        else:
            meta.remote_ovf |= 1 << msg.core_id

    def _sem_post_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        if self.is_master_for(addr):
            meta, _ = self._get_or_reserve(addr, SEMAPHORE, out)
            meta.sem_count += 1
            self._sem_drain(addr, meta, out)
        else:
            self._to_master(out, addr, Opcode.SEM_POST_GLOBAL, 1)

    def _sem_post_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta, _ = self._get_or_reserve(addr, SEMAPHORE, out)
        meta.sem_count += msg.info
        self._sem_drain(addr, meta, out)

    def _sem_post_overflow(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta[addr]
        meta.sem_count += 1
        self._sem_drain(addr, meta, out)

    def _sem_grant_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta.get(addr)
        if meta is None:
            raise ProtocolError(f"semaphore grant for unknown variable {addr:#x}")
        meta.sem_credit += msg.info
        while meta.sem_credit > 0 and meta.locals:
            meta.sem_credit -= 1
            self._to_core(out, self._pop_local(meta), addr, Opcode.SEM_GRANT_LOCAL)
        if not meta.locals and meta.sem_credit == 0:
            self._release_var(addr, meta, out)

    def _sem_drain(self, addr: int, meta: VarMeta, out: Output) -> None:
        while meta.sem_count > 0 and meta.locals:
            meta.sem_count -= 1
            self._to_core(out, self._pop_local(meta), addr, Opcode.SEM_GRANT_LOCAL)
        while meta.sem_count > 0:
            agg = min(meta.sem_demand, default=None)
            packed = self._pop_remote(meta, agg)
            if packed is not None:
                meta.sem_count -= 1
                self._to_unit(out, packed >> self.core_bits, addr,
                              Opcode.SEM_GRANT_OVERFLOW, packed)
            elif agg is not None:
                batch = min(meta.sem_count, meta.sem_demand[agg])
                meta.sem_count -= batch
                if meta.sem_demand[agg] == batch:
                    del meta.sem_demand[agg]
                else:
                    meta.sem_demand[agg] -= batch
                self._to_unit(out, agg, addr, Opcode.SEM_GRANT_GLOBAL, self.unit, batch)
            else:
                break
        self._release_if_quiesced(addr, meta, out)

    # -- condition variables -----------------------------------------------------------

    def _cond_wait_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        core_id = msg.core_id
        self._client(core_id)
        meta, _ = self._get_or_reserve(addr, CONDVAR, out)
        self._cond_lock_set(meta, msg.info)
        meta.locals |= 1 << core_id
        if not self.is_master_for(addr) and not meta.pending_global:
            meta.pending_global = True
            self._to_master(out, addr, Opcode.COND_WAIT_GLOBAL, msg.info)

    def _cond_wait_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        s = src[1]
        meta, _ = self._get_or_reserve(addr, CONDVAR, out)
        self._cond_lock_set(meta, msg.info)
        meta.remote_agg |= 1 << s

    def _cond_wait_overflow(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta[addr]
        self._cond_lock_set(meta, msg.info)
        meta.ovf_units |= 1 << (msg.core_id >> self.core_bits)
        meta.remote_ovf |= 1 << msg.core_id

    def _cond_signal_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        if self.is_master_for(addr):
            self._cond_wake_one(addr, out)
        else:
            self._to_master(out, addr, Opcode.COND_SIGNAL_GLOBAL)

    def _cond_broad_local(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        if self.is_master_for(addr):
            self._cond_wake_all(addr, out)
        else:
            self._to_master(out, addr, Opcode.COND_BROAD_GLOBAL)

    def _cond_signal_forwarded(self, msg: Message, src, out: Output) -> None:
        self._cond_wake_one(msg.addr, out)

    def _cond_broad_forwarded(self, msg: Message, src, out: Output) -> None:
        self._cond_wake_all(msg.addr, out)

    def _cond_grant_global(self, msg: Message, src, out: Output) -> None:
        addr = msg.addr
        meta = self.meta.get(addr)
        if meta is None or not meta.locals:
            raise ProtocolError(f"condvar wake for {addr:#x} with no parked waiter")
        wakes = meta.locals.bit_count() if msg.info == WAKE_ALL else 1
        for _ in range(wakes):
            self._start_resume(self._pop_local(meta), addr, meta.cond_lock, out)
        if meta.locals:
            # still parked waiters: announce again
            self._to_master(out, addr, Opcode.COND_WAIT_GLOBAL, meta.cond_lock)
        else:
            self._release_var(addr, meta, out)

    def _cond_lock_set(self, meta: VarMeta, lock_addr: int) -> None:
        if meta.cond_lock == 0:
            meta.cond_lock = lock_addr
        elif meta.cond_lock != lock_addr:
            raise ProtocolError(
                f"condvar associated with lock {meta.cond_lock:#x}, wait names {lock_addr:#x}")

    def _cond_wake_one(self, addr: int, out: Output) -> None:
        meta = self.meta.get(addr)
        if meta is None:
            return  # lost signal
        if meta.locals:
            self._start_resume(self._pop_local(meta), addr, meta.cond_lock, out)
        else:
            agg = _low_bit(meta.remote_agg) if meta.remote_agg else None
            packed = self._pop_remote(meta, agg)
            if packed is not None:
                self._to_unit(out, packed >> self.core_bits, addr, Opcode.COND_GRANT_OVERFLOW,
                              packed, meta.cond_lock)
            elif agg is not None:
                meta.remote_agg &= ~(1 << agg)
                self._to_unit(out, agg, addr, Opcode.COND_GRANT_GLOBAL, self.unit, 1)
            else:
                return  # lost signal
        self._release_if_quiesced(addr, meta, out)

    def _cond_wake_all(self, addr: int, out: Output) -> None:
        meta = self.meta.get(addr)
        if meta is None:
            return
        while meta.locals:
            self._start_resume(self._pop_local(meta), addr, meta.cond_lock, out)
        for packed in _bits(meta.remote_ovf):
            self._to_unit(out, packed >> self.core_bits, addr, Opcode.COND_GRANT_OVERFLOW,
                          packed, meta.cond_lock)
        meta.remote_ovf = 0
        for u in _bits(meta.remote_agg):
            self._to_unit(out, u, addr, Opcode.COND_GRANT_GLOBAL, self.unit, WAKE_ALL)
        meta.remote_agg = 0
        self._release_if_quiesced(addr, meta, out)

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


def _route(op: Opcode):
    """handle()'s entry point for `op`.

    Overflow requests and wakes follow the memory path, the counter decrease
    updates the indexing counters, and two local requests need set-up before
    _handle_inner: a cond wait releases its lock, and a lock acquire may
    resume a condvar waiter.
    """
    if op is Opcode.DECREASE_INDEXING_COUNTER:
        return Coordinator._on_decrease
    if op is Opcode.COND_WAIT_LOCAL:
        return Coordinator._cond_wait_request
    if op is Opcode.LOCK_ACQUIRE_LOCAL:
        return Coordinator._lock_acquire_request
    cls = _CLASS[op]
    if cls in (OpClass.OVERFLOW_ACQUIRE, OpClass.OVERFLOW_RELEASE):
        return Coordinator._overflow_request
    if cls is OpClass.OVERFLOW_GRANT:
        return Coordinator._deliver_overflow_wake
    return Coordinator._handle_inner


# Both tables are indexed by opcode once per message. They replace chains of
# `op is Opcode.X` tests, each of which pays for an EnumType.__getattr__ call.
_ROUTE = {op: _route(op) for op in Opcode}

# the state-machine step for each opcode; a coordinator serves no core-bound one
_HANDLER = {op: Coordinator._not_served for op in Opcode}
_HANDLER.update({
    Opcode.LOCK_ACQUIRE_LOCAL: Coordinator._lock_acquire_local,
    Opcode.LOCK_ACQUIRE_GLOBAL: Coordinator._lock_acquire_global,
    Opcode.LOCK_ACQUIRE_OVERFLOW: Coordinator._lock_acquire_overflow,
    Opcode.LOCK_RELEASE_LOCAL: Coordinator._lock_release_local,
    Opcode.LOCK_RELEASE_GLOBAL: Coordinator._lock_release_global,
    Opcode.LOCK_RELEASE_OVERFLOW: Coordinator._lock_release_overflow,
    Opcode.LOCK_GRANT_GLOBAL: Coordinator._lock_grant_global,
    Opcode.BARRIER_WAIT_GLOBAL: Coordinator._barrier_wait_global,
    Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT: Coordinator._barrier_wait_local,
    Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS: Coordinator._barrier_wait_local,
    Opcode.BARRIER_DEPART_GLOBAL: Coordinator._barrier_depart_global,
    Opcode.BARRIER_WAIT_OVERFLOW: Coordinator._barrier_wait_overflow,
    Opcode.SEM_WAIT_LOCAL: Coordinator._sem_wait_local,
    Opcode.SEM_WAIT_GLOBAL: Coordinator._sem_wait_global,
    Opcode.SEM_WAIT_OVERFLOW: Coordinator._sem_wait_overflow,
    Opcode.SEM_POST_LOCAL: Coordinator._sem_post_local,
    Opcode.SEM_POST_GLOBAL: Coordinator._sem_post_global,
    Opcode.SEM_POST_OVERFLOW: Coordinator._sem_post_overflow,
    Opcode.SEM_GRANT_GLOBAL: Coordinator._sem_grant_global,
    Opcode.COND_WAIT_LOCAL: Coordinator._cond_wait_local,
    Opcode.COND_WAIT_GLOBAL: Coordinator._cond_wait_global,
    Opcode.COND_WAIT_OVERFLOW: Coordinator._cond_wait_overflow,
    Opcode.COND_SIGNAL_LOCAL: Coordinator._cond_signal_local,
    Opcode.COND_BROAD_LOCAL: Coordinator._cond_broad_local,
    Opcode.COND_SIGNAL_GLOBAL: Coordinator._cond_signal_forwarded,
    Opcode.COND_SIGNAL_OVERFLOW: Coordinator._cond_signal_forwarded,
    Opcode.COND_BROAD_GLOBAL: Coordinator._cond_broad_forwarded,
    Opcode.COND_BROAD_OVERFLOW: Coordinator._cond_broad_forwarded,
    Opcode.COND_GRANT_GLOBAL: Coordinator._cond_grant_global,
})
