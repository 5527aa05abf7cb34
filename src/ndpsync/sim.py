"""Discrete-event runtime with integer-picosecond timing.

Cost model (each fixed cost is one module constant; LatencyModel holds the
latencies a run chooses, EnergyModel the energies):
  cores        2.5 GHz in-order, 1 instruction per 400 ps cycle
  engines      1 GHz, 12 cycles (12 ns) of compute per serviced message
  crossbar     one 800 ps segment (1 hop + 1 arbiter cycle) per unit crossed,
               plus an M/D/1 queueing term from a sliding utilization window
  links        40 ns per 64-byte line (FIFO per directed link) + 8 ns fixed
  memory       per-technology activate+access latencies, 64-byte lines
  energy       integer femtojoules per bit moved and per cache access, each
               charged from a count of bytes, accesses, hits or misses

Network._cross is the one path across the system: the source unit's
crossbar, then, between units, the directed link and the destination unit's
crossbar. Every message and both legs of a memory access take it.

Simulation._start_service prices a coordinator's service in one loop over its
account (engine.Output.accesses): SE_SERVICE_PS, then, in order, an L1 hit, a
Network.memory_access, or the start or end of a table entry's life per access.

Delivery between any ordered pair of endpoints is in-order: arrival times
are clamped to be non-decreasing per (source, destination) pair, which the
overflow protocol relies on (a grant must not overtake the episode-closing
counter decrease).

The crossbar's sliding window is an approximation. Each unit's window holds
segment start times in append order, and some of those times lie in the
future: a crossing made for a later instant, such as a memory reply, is
appended when it is computed. Network._cross drops entries only while the
head has expired, so an expired entry behind a later-dated head still
counts as busy. A time-ordered window that drops every expired entry moved
time_ps by -1.04 % (syncron hash_table) to +0.72 % (hier hash_table) over
4 schemes x 5 workloads at 4x16 and seed 3, and changed no saturation count.
Adopting it is a declared result change, left for a change of its own.

Event ordering is total and deterministic: (time, kind rank, node key,
sequence number). The rank serves message arrivals before compute, memory
and service completions at the same instant. The node key belongs to the
core or coordinator the event happens at: the core's global index, or
1_000_000 plus the coordinator's unit. Among events of one rank at one
instant, the lower key goes first, so cores go before coordinators.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .baselines import IdealOracle
from .engine import Coordinator
from .errors import ConfigError, ProtocolError, SimulationDeadlock
from .messages import (ACQUIRES, ACTION, GRANT, LEVEL, LOCAL, MESSAGE_BYTES, PRIMITIVE,
                       Message, Opcode, encode)
from .topology import LINE_BYTES, SystemConfig, master_se_of

CORE_CYCLE_PS = 400
SE_SERVICE_PS = 12_000
L1_HIT_PS = 1_600

INTRA_SEGMENT_PS = 800
INTER_LINE_PS = 40_000
INTER_FIXED_PS = 8_000
QUEUE_WINDOW_PS = 1_000_000
QUEUE_CAP_PS = 10 * INTRA_SEGMENT_PS  # the longest crossbar queueing wait

DRAM_PS = {
    "hbm": (24_000, 14_000),
    "hmc": (51_000, 36_000),
    "ddr4": (55_000, 34_000),
}

# event ranks, in the order events of one instant are served
MSG, COMPUTE, MEM, SERVICE = range(4)
COORD_KEY_BASE = 1_000_000  # coordinator node keys sort after every core's

_OPCODE_NAMES = tuple(op.name.lower() for op in Opcode)

# Every synchronization step a workload yields, by the kind that Stats.ops
# counts, an IdealOracle method is named after and a blocked core waits on: the
# opcode of the request _issue builds under every scheme, and the trace records
# of its issue and grant. A step blocks exactly when its request's action is in
# ACQUIRES, and only those have a grant record, counted at the grant.
_REQUEST = {
    "lock_acquire": (Opcode.LOCK_ACQUIRE_LOCAL, None, "cs_enter"),
    "lock_release": (Opcode.LOCK_RELEASE_LOCAL, "cs_exit", None),
    "barrier_wait": (Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS, "barrier_arrive", "barrier_depart"),
    "sem_wait": (Opcode.SEM_WAIT_LOCAL, None, "sem_acquire"),
    "sem_post": (Opcode.SEM_POST_LOCAL, "sem_release", None),
    "cond_wait": (Opcode.COND_WAIT_LOCAL, "cond_sleep", "cond_wake"),
    "cond_signal": (Opcode.COND_SIGNAL_LOCAL, None, None),
    "cond_broadcast": (Opcode.COND_BROAD_LOCAL, None, None),
}
# the step kind that each core-bound grant completes: a primitive's local grant
# (a barrier's departure) ends its one blocking step
_GRANT_KIND = {op: kind for op in Opcode if ACTION[op] == GRANT and LEVEL[op] == LOCAL
               for kind, (req, _, _) in _REQUEST.items()
               if ACTION[req] in ACQUIRES and PRIMITIVE[req] == PRIMITIVE[op]}


@dataclass
class LatencyModel:
    """The latencies a run chooses, in integer picoseconds; every other
    latency is a module constant."""

    mem_read_ps: int = DRAM_PS["hbm"][0]
    mem_write_ps: int = DRAM_PS["hbm"][1]
    inter_line_ps: int = INTER_LINE_PS

    @classmethod
    def create(cls, memory: str = "hbm", link_latency_ns: float | None = None) -> "LatencyModel":
        if memory not in DRAM_PS:
            raise ConfigError(f"unknown memory technology {memory!r}; "
                              f"choose from {sorted(DRAM_PS)}")
        read_ps, write_ps = DRAM_PS[memory]
        model = cls(mem_read_ps=read_ps, mem_write_ps=write_ps)
        if link_latency_ns is not None:
            if not 0.5 < link_latency_ns * 1000 < math.inf:  # rounds to a finite 1 ps or more
                raise ConfigError("link_latency_ns must be positive, finite and at least 1 ps "
                                  f"once rounded; got {link_latency_ns}")
            model.inter_line_ps = round(link_latency_ns * 1000)
        return model

    def transfer_latency_ps(self, same_unit: bool, nbytes: int) -> int:
        """Idle-network latency of one transfer, endpoint to endpoint: the
        closed form of one Network._cross on idle links."""
        if nbytes <= 0:
            raise ValueError("transfer requires a positive byte count")
        if same_unit:
            return INTRA_SEGMENT_PS
        return (2 * INTRA_SEGMENT_PS
                + -(-nbytes // LINE_BYTES) * self.inter_line_ps + INTER_FIXED_PS)


@dataclass
class EnergyModel:
    """All energies in integer femtojoules."""

    intra_fj_per_bit: int = 400
    inter_fj_per_bit: int = 4_000
    mem_fj_per_bit: int = 7_000
    l1_hit_fj: int = 23_000
    l1_miss_fj: int = 47_000

    def intra_fj(self, nbytes: int) -> int:
        return nbytes * 8 * self.intra_fj_per_bit

    def inter_fj(self, nbytes: int) -> int:
        return nbytes * 8 * self.inter_fj_per_bit

    def memory_fj(self, nbytes: int = LINE_BYTES) -> int:
        return nbytes * 8 * self.mem_fj_per_bit


class Stats:
    """Run counters. Times in ps, energies in fJ, all integers."""

    def __init__(self) -> None:
        self.energy = EnergyModel()
        self.time_ps = 0
        self.ops = dict.fromkeys(_REQUEST, 0)
        self.messages_intra = 0
        self.messages_inter = 0
        self.bytes_intra = 0
        self.bytes_inter = 0
        self.by_opcode: dict[str, int] = {}
        self.mem_local = 0
        self.mem_remote = 0
        self.mem_sync_var = 0
        self.cache_hits = 0  # server cache hits and misses, summed at the end of a run
        self.cache_misses = 0
        self.sync_requests = 0
        self.sync_overflowed = 0
        self.st_avg_occupancy: list[float] = []
        self.st_max_occupancy: list[float] = []
        self.counters_end_total = 0
        self.saturation_events = 0
        self.max_inbox_depth = 0
        self.inbox_pressure_events = 0
        self.completed_ops = 0
        self.digest = ""

    @property
    def energy_network_fj(self) -> int:
        return self.energy.intra_fj(self.bytes_intra) + self.energy.inter_fj(self.bytes_inter)

    @property
    def energy_memory_fj(self) -> int:
        return (self.mem_local + self.mem_remote + self.mem_sync_var) * self.energy.memory_fj()

    @property
    def energy_cache_fj(self) -> int:
        """Each server touch reads its line (a hit or a miss), then writes it back (a hit)."""
        en = self.energy
        return (self.cache_hits * 2 * en.l1_hit_fj
                + self.cache_misses * (en.l1_miss_fj + en.l1_hit_fj))

    @property
    def overflow_fraction(self) -> float:
        return self.sync_overflowed / self.sync_requests if self.sync_requests else 0.0

    @property
    def throughput_ops_per_s(self) -> float:
        return self.completed_ops / (self.time_ps * 1e-12) if self.time_ps else 0.0

    def to_dict(self) -> dict:
        return {
            "time_ps": self.time_ps,
            "time_ns": self.time_ps / 1000.0,
            "ops": dict(self.ops),
            "workload": {
                "completed_ops": self.completed_ops,
                "throughput_ops_per_s": self.throughput_ops_per_s,
                "digest": self.digest,
            },
            "messages": {
                "intra": self.messages_intra,
                "inter": self.messages_inter,
                "by_opcode": {k: self.by_opcode[k] for k in sorted(self.by_opcode)},
            },
            "bytes": {"intra": self.bytes_intra, "inter": self.bytes_inter},
            "mem_accesses": {
                "local": self.mem_local,
                "remote": self.mem_remote,
                "sync_var": self.mem_sync_var,
            },
            "energy_fj": {
                "network": self.energy_network_fj,
                "memory": self.energy_memory_fj,
                "cache": self.energy_cache_fj,
                "total": (self.energy_network_fj + self.energy_memory_fj
                          + self.energy_cache_fj),
            },
            "sync_table": {
                "avg_occupancy": list(self.st_avg_occupancy),
                "max_occupancy": list(self.st_max_occupancy),
                "requests": self.sync_requests,
                "overflowed": self.sync_overflowed,
                "overflow_fraction": self.overflow_fraction,
                "counters_end_total": self.counters_end_total,
            },
            "network": {
                "saturation_events": self.saturation_events,
                "max_inbox_depth": self.max_inbox_depth,
                "inbox_pressure_events": self.inbox_pressure_events,
            },
        }


@dataclass(slots=True)
class TraceRecord:
    t: int
    kind: str
    unit: int
    local: int  # -1 for coordinator-originated records
    addr: int
    info: int = 0

    def to_json_dict(self) -> dict:
        return {"t": self.t, "kind": self.kind, "unit": self.unit,
                "local": self.local, "addr": self.addr, "info": self.info}


# One trace.jsonl line per record: the bytes of json.dumps(rec.to_json_dict(),
# sort_keys=True) and a newline. Kinds are plain identifiers, so "%s" needs no
# JSON escaping, and every line is ASCII.
_JSONL_LINE = '{"addr": %d, "info": %d, "kind": "%s", "local": %d, "t": %d, "unit": %d}\n'
_JSONL_CHUNK = 4096  # records formatted per write


def write_trace_jsonl(trace, f) -> None:
    """Write the trace.jsonl bytes of `trace` to the binary file `f`, one
    chunk of _JSONL_CHUNK records per write, so the whole text never exists
    at once. Writes nothing for no records."""
    line = _JSONL_LINE
    for i in range(0, len(trace), _JSONL_CHUNK):
        f.write("".join([line % (r.addr, r.info, r.kind, r.local, r.t, r.unit)
                         for r in trace[i:i + _JSONL_CHUNK]]).encode("ascii"))


class Network:
    """Crossbar + link contention and every data-movement cost."""

    def __init__(self, cfg: SystemConfig, lat: LatencyModel, stats: Stats):
        self.stats = stats
        self._window = [deque() for _ in range(cfg.num_units)]  # segment start times
        # _link_free[src][dst]: when the directed link src -> dst is next free
        self._link_free = [[0] * cfg.num_units for _ in range(cfg.num_units)]
        # _pair_last[src node][dst node]: the latest arrival from src at dst
        self._pair_last: defaultdict[tuple, dict] = defaultdict(dict)
        self._line_ps = lat.inter_line_ps
        self._read_ps = lat.mem_read_ps
        self._write_ps = lat.mem_write_ps

    def _cross(self, unit: int, nbytes: int, t: int, to: int) -> int:
        """Carry `nbytes` from `unit` to unit `to`, starting at `t`; returns the
        arrival. Each crossbar crossed is one segment after an M/D/1 wait from
        the utilization of its sliding window, where each entry is one segment
        busy. Between units, the FIFO directed link lies between the two."""
        stats = self.stats
        while True:
            win = self._window[unit]
            horizon = t - QUEUE_WINDOW_PS
            while win and win[0] <= horizon:
                win.popleft()
            if win:
                busy = len(win) * INTRA_SEGMENT_PS
                free = QUEUE_WINDOW_PS - busy
                if free > 0 and (wait := busy * INTRA_SEGMENT_PS // (2 * free)) <= QUEUE_CAP_PS:
                    t += wait
                else:
                    stats.saturation_events += 1
                    t += QUEUE_CAP_PS
            win.append(t)
            t += INTRA_SEGMENT_PS
            stats.bytes_intra += nbytes
            if unit == to:
                return t
            link_free = self._link_free[unit]
            if t < link_free[to]:
                t = link_free[to]
            t += -(-nbytes // LINE_BYTES) * self._line_ps
            link_free[to] = t
            t += INTER_FIXED_PS
            stats.bytes_inter += nbytes
            unit = to

    def send_message(self, src_node, dst_node, t: int) -> int:
        """Deliver one 18-byte message; returns the arrival time."""
        src_unit = src_node[1]
        dst_unit = dst_node[1]
        arrival = self._cross(src_unit, MESSAGE_BYTES, t, dst_unit)
        if dst_unit != src_unit:
            self.stats.messages_inter += 1
        else:
            self.stats.messages_intra += 1
        pair_last = self._pair_last[src_node]
        last = pair_last.get(dst_node, 0)
        if arrival < last:
            arrival = last
        pair_last[dst_node] = arrival
        return arrival

    def memory_access(self, req_unit: int, home_unit: int, write: bool, t: int,
                      sync_var: bool = False) -> int:
        """One 64-byte line access; returns the absolute completion time."""
        stats = self.stats
        if sync_var:
            stats.mem_sync_var += 1
        elif home_unit == req_unit:
            stats.mem_local += 1
        else:
            stats.mem_remote += 1
        if write:  # the request carries the line; posted: done once the array commits
            return self._cross(req_unit, LINE_BYTES, t, home_unit) + self._write_ps
        # an 18-byte command there, the line back once the array is read
        at = self._cross(req_unit, MESSAGE_BYTES, t, home_unit) + self._read_ps
        return self._cross(home_unit, LINE_BYTES, at, req_unit)


class _Core:
    __slots__ = ("gen", "blocked", "node", "key", "wire_id", "dst")

    def __init__(self, node, gen, key: int, wire_id: int, dst):
        self.gen = gen
        self.blocked = None  # pending step (kind, addr, info); None while running or finished
        self.node = node
        self.key = key
        self.wire_id = wire_id  # core id on this core's requests
        self.dst = dst  # coordinator node of all its requests; None: each variable's master


class _Coord:
    __slots__ = ("coordinator", "inbox", "busy", "node", "key", "entry_ps", "occ_max")

    def __init__(self, coordinator: Coordinator):
        self.coordinator = coordinator
        self.inbox = deque()
        self.busy = False
        self.node = ("coord", coordinator.unit)
        self.key = COORD_KEY_BASE + coordinator.unit
        self.entry_ps = 0  # sum of released entries' lifetimes, minus live entries' reserve times
        self.occ_max = 0  # the most entries held after a service


class Simulation:
    """Drives per-core programs against the configured scheme's coordinators."""

    def __init__(self, cfg: SystemConfig, workload, latency: LatencyModel | None = None,
                 trace: bool = False):
        self.cfg = cfg
        self.workload = workload
        self.stats = Stats()
        self.network = Network(cfg, latency or LatencyModel.create(), self.stats)
        self.trace_enabled = trace
        self.trace: list[TraceRecord] = []
        self.wire_log = bytearray()
        self.drop_filter = None  # test hook: (msg, src, dst) -> bool, True drops
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self._sent = [0] * len(_OPCODE_NAMES)  # messages sent, by opcode value

        programs = workload.programs()
        # a core's one coordinator: its unit's, or the one master's (ideal's is no
        # endpoint); under flat, each request goes to its variable's master
        per_address = cfg.route == "direct" and not cfg.one_master
        self.cores: list[_Core] = []  # in client (unit, local) order
        for node in cfg.clients():
            gen = programs.get(node)
            if gen is None:
                break
            _, u, l = node
            self.cores.append(_Core(node, gen, u * cfg.cores_per_unit + l, cfg.wire_core_id(u, l),
                                    None if per_address else ("coord", 0 if cfg.one_master else u)))
        clients = cfg.total_clients
        if len(self.cores) != clients or len(programs) != clients:
            raise ProtocolError("workload programs do not cover exactly the client cores")

        self.coords = {u: _Coord(Coordinator(cfg, u)) for u in cfg.coord_units}
        # ideal's one coordinator is no endpoint: it serves each step inside _issue
        self.oracle = IdealOracle(Coordinator(cfg, 0)) if cfg.route is None else None
        # every message endpoint by node tuple
        self._at = {crt.node: crt for crt in (*self.cores, *self.coords.values())}

    # -- plumbing ------------------------------------------------------------

    def _push(self, t: int, rank: int, key: int, node, payload) -> None:
        """Queue one event; the heap orders events by (t, rank, key, seq)."""
        self._seq += 1
        heappush(self._heap, (t, rank, key, self._seq, node, payload))

    def _send(self, src_node, dst_node, msg: Message, t: int) -> None:
        self._sent[msg.opcode] += 1
        if self.trace_enabled:
            self.wire_log += encode(msg)
            self.trace.append(TraceRecord(t, "msg_send", src_node[1],
                                          src_node[2] if src_node[0] == "core" else -1,
                                          msg.addr, int(msg.opcode)))
        if self.drop_filter is not None and self.drop_filter(msg, src_node, dst_node):
            return
        arrival = self.network.send_message(src_node, dst_node, t)
        self._seq += 1
        heappush(self._heap, (arrival, MSG, self._at[dst_node].key, self._seq, dst_node,
                              (msg, src_node)))

    # -- run loop ---------------------------------------------------------------

    def run(self) -> Stats:
        advance = self._advance
        on_msg = self._on_msg
        on_service_done = self._on_service_done
        heap = self._heap
        for crt in self.cores:
            advance(crt, 0)
        while heap:
            t, rank, _key, _seq, node, payload = heappop(heap)
            self.now = t
            if rank == MSG:
                on_msg(node, payload, t)
            elif rank == SERVICE:
                on_service_done(node, payload, t)
            else:  # COMPUTE or MEM: the core's next step
                advance(payload, t)
        # with the queue drained, every core that has not finished is blocked
        blocked = [(c.node, c.blocked) for c in self.cores if c.blocked is not None]
        if blocked:
            lines = ", ".join(f"{node}:{why}" for node, why in blocked)
            raise SimulationDeadlock(
                f"event queue drained with {len(blocked)} cores incomplete: {lines}",
                blocked=blocked)
        for crt in self.coords.values():
            assert not crt.inbox and not crt.busy, "coordinator inbox not drained"
        self._finalize()
        return self.stats

    def _finalize(self) -> None:
        self.stats.time_ps = self.now
        self.stats.by_opcode = {name: n for name, n in zip(_OPCODE_NAMES, self._sent) if n}
        end = self.now
        for crt in self.coords.values():  # built in ascending unit order
            table = crt.coordinator.table
            if table is None:  # a software server
                self.stats.cache_hits += crt.coordinator.cache.hits
                self.stats.cache_misses += crt.coordinator.cache.misses
                continue
            denom = end * table.capacity
            entry_ps = crt.entry_ps + end * table.occupied_count  # live entries end at `end`
            self.stats.st_avg_occupancy.append(entry_ps / denom if denom else 0.0)
            self.stats.st_max_occupancy.append(crt.occ_max / table.capacity)
            self.stats.counters_end_total += crt.coordinator.counters.total()
        self.stats.completed_ops = self.workload.completed_ops
        self.stats.digest = self.workload.digest()

    # -- cores ----------------------------------------------------------------------

    def _advance(self, crt: _Core, t: int) -> None:
        """Run the core until it blocks or finishes.

        A core advanced with a blocking request pending has just been
        granted it, by a grant message or, under ideal, by its own _issue.
        """
        _, unit, local = crt.node
        tracing = self.trace_enabled
        while True:
            b = crt.blocked
            if b is not None:
                crt.blocked = None
                kind = b[0]
                self.stats.ops[kind] += 1
                if tracing:
                    if kind == "cond_wait":  # the waiter wakes holding its lock again
                        self.trace.append(TraceRecord(t, "cs_enter", unit, local, b[2]))
                    self.trace.append(TraceRecord(t, _REQUEST[kind][2], unit, local, *b[1:]))
            try:
                step = next(crt.gen)
            except StopIteration:
                return
            op = step[0]
            if op == "compute":
                n = step[1]
                if n <= 0:
                    continue
                self._push(t + n * CORE_CYCLE_PS, COMPUTE, crt.key, crt.node, crt)
                return
            if op == "mem":
                _, addr, write = step
                home = addr // self.cfg.unit_mem_bytes
                if not 0 <= home < self.cfg.num_units:
                    master_se_of(self.cfg, addr)  # raises: the address is outside system memory
                done = self.network.memory_access(unit, home, write, t)
                if tracing:
                    self.trace.append(TraceRecord(t, "mem_op", unit, local, addr, int(write)))
                self._push(done, MEM, crt.key, crt.node, crt)
                return
            if not self._issue(crt, step, t):
                return

    def _issue(self, crt: _Core, step, t: int) -> bool:
        """Issue one synchronization step; True if the core keeps running.

        The one place a request is built, checked (its address, and a cond
        wait's lock, lie in system memory) and routed: to crt.dst, or under
        flat to its master. Ideal serves it at once instead, through the
        IdealOracle method of its kind; a grant to this core keeps it running,
        any other reaches its core at this instant, as a message from no source.
        A blocking step sets crt.blocked until its grant.
        """
        kind = step[0]
        try:
            opc, note, granted = _REQUEST[kind]
        except KeyError:
            raise ProtocolError(f"unknown workload step {kind!r}") from None
        addr = step[1]
        info = step[2] if len(step) > 2 else 0
        cfg = self.cfg
        home = addr // cfg.unit_mem_bytes
        if not 0 <= home < cfg.num_units or (
                kind == "cond_wait" and not 0 <= info // cfg.unit_mem_bytes < cfg.num_units):
            master_se_of(cfg, addr)  # raises: the address, or else
            master_se_of(cfg, info)  # the cond wait's lock, lies outside system memory
        if granted is None:
            self.stats.ops[kind] += 1
        else:  # a barrier's participant count is not traced
            crt.blocked = (kind, addr, 0 if kind == "barrier_wait" else info)
        if kind == "cond_wait":
            self.stats.ops["lock_release"] += 1  # the wait releases its lock
        if note is not None and self.trace_enabled:
            _, unit, local = crt.node
            if kind == "cond_wait":
                self.trace.append(TraceRecord(t, "cs_exit", unit, local, info))
                self.trace.append(TraceRecord(t, note, unit, local, addr, info))
            else:
                self.trace.append(TraceRecord(t, note, unit, local, addr))
        if kind == "barrier_wait" and step[3]:
            opc = Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT
        msg = Message(addr, opc, crt.wire_id, info)
        if self.oracle is None:  # flat is not one master: an address's home unit masters it
            self._send(crt.node, crt.dst or self.coords[home].node, msg, t)
            return granted is None
        running = granted is None
        for node, grant in getattr(self.oracle, kind)(msg):
            if node == crt.node:
                running = True
            else:
                self._push(t, MSG, self._at[node].key, node, (grant, None))
        return running

    # -- coordinators --------------------------------------------------------------------

    def _on_msg(self, node, payload, t: int) -> None:
        msg, src = payload
        if self.trace_enabled and src is not None:  # an ideal grant crossed no network
            self.trace.append(TraceRecord(t, "msg_recv", node[1],
                                          node[2] if node[0] == "core" else -1,
                                          msg.addr, int(msg.opcode)))
        if node[0] == "coord":
            self._intake(self.coords[node[1]], payload, t)
            return
        crt = self._at[node]
        b = crt.blocked
        if b is None or b[0] != _GRANT_KIND.get(msg.opcode) or b[1] != msg.addr:
            raise ProtocolError(f"{msg.opcode.name}({msg.addr:#x}) does not match pending {b} "
                                f"at {node}")
        self._advance(crt, t)

    def _intake(self, crt: _Coord, item, t: int) -> None:
        """Queue one (message, source node) at a coordinator, a network arrival
        or a condvar resume, and serve it at once if the coordinator is idle."""
        crt.inbox.append(item)
        depth = len(crt.inbox)
        if depth > self.stats.max_inbox_depth:
            self.stats.max_inbox_depth = depth
        if depth > self.cfg.inbox_depth:
            self.stats.inbox_pressure_events += 1
        if not crt.busy:
            self._start_service(crt, t)

    def _start_service(self, crt: _Coord, t: int) -> None:
        msg, src = crt.inbox.popleft()
        coord = crt.coordinator
        out = coord.handle(msg)
        if src[0] == "core":  # every opcode a core sends is a synchronization request
            self.stats.sync_requests += 1
            if out.overflowed:
                self.stats.sync_overflowed += 1
        # a line comes from its home unit, which is an engine record's master
        cursor = t + SE_SERVICE_PS
        for kind, addr in out.accesses:
            if kind == "l1":
                cursor += L1_HIT_PS
            elif kind == "read" or kind == "write":
                cursor = self.network.memory_access(coord.unit, addr // self.cfg.unit_mem_bytes,
                                                    kind == "write", cursor, sync_var=True)
            else:  # a table entry's life starts or ends at t
                if kind == "st_reserve":
                    crt.entry_ps -= t
                    if coord.table.occupied_count > crt.occ_max:  # the level after handle
                        crt.occ_max = coord.table.occupied_count
                else:
                    crt.entry_ps += t
                if self.trace_enabled:
                    self.trace.append(TraceRecord(t, kind, coord.unit, -1, addr))

        crt.busy = True
        self._seq += 1
        heappush(self._heap, (cursor, SERVICE, crt.key, self._seq, crt.node, out))

    def _on_service_done(self, node, out, t: int) -> None:
        crt = self.coords[node[1]]
        crt.busy = False
        for dst, m in out.sends:
            self._send(node, dst, m, t)
        for m in out.internal:  # condvar resumes: not traced as received
            self._intake(crt, (m, node), t)
        if crt.inbox and not crt.busy:
            self._start_service(crt, t)
