"""Discrete-event runtime with integer-picosecond timing.

Cost model (defaults mirror the simulated hardware):
  cores        2.5 GHz in-order, 1 instruction per 400 ps cycle
  engines      1 GHz, 12 cycles (12 ns) of compute per serviced message
  crossbar     one 800 ps segment (1 hop + 1 arbiter cycle) per unit crossed,
               plus an M/D/1 queueing term from a sliding utilization window
  links        40 ns per 64-byte line (FIFO per directed link) + 8 ns fixed
  memory       per-technology activate+access latencies, 64-byte lines
  energy       integer femtojoules per bit moved, per cache access

Delivery between any ordered pair of endpoints is in-order: arrival times
are clamped to be non-decreasing per (source, destination) pair, which the
overflow protocol relies on (a grant must not overtake the episode-closing
counter decrease).

Event ordering is total and deterministic: (time, kind rank, source id,
sequence number), with message arrivals served before compute, memory and
service completions at the same instant.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .baselines import IdealOracle, ServerCache
from .engine import Coordinator
from .errors import ConfigError, ProtocolError, SimulationDeadlock
from .messages import (MESSAGE_BYTES, Message, OpClass, Opcode,
                       classify_opcode, core_id_bits, encode, wire_core_id)
from .topology import CoreId, SystemConfig, global_core_id, master_se_of

CORE_CYCLE_PS = 400
SE_CYCLE_PS = 1_000
SE_SERVICE_PS = 12_000
L1_HIT_PS = 1_600

LINE_BYTES = 64
INTRA_SEGMENT_PS = 800
INTER_LINE_PS = 40_000
INTER_FIXED_PS = 8_000
QUEUE_WINDOW_PS = 1_000_000
QUEUE_CAP_FACTOR = 10

DRAM_PS = {
    "hbm": (24_000, 14_000),
    "hmc": (51_000, 36_000),
    "ddr4": (55_000, 34_000),
}

INTRA_FJ_PER_BIT = 400
INTER_FJ_PER_BIT = 4_000
MEM_FJ_PER_BIT = 7_000
L1_HIT_FJ = 23_000
L1_MISS_FJ = 47_000

_RANK = {"msg": 0, "compute": 1, "mem": 2, "service": 3}

# blocked-request kind that each core-bound grant or departure completes
_GRANT_KIND = {
    Opcode.LOCK_GRANT_LOCAL: "lock",
    Opcode.COND_GRANT_LOCAL: "cond",
    Opcode.SEM_GRANT_LOCAL: "sem",
    Opcode.BARRIER_DEPART_LOCAL: "barrier",
}


@dataclass
class LatencyModel:
    """All latencies in integer picoseconds."""

    mem_read_ps: int = DRAM_PS["hbm"][0]
    mem_write_ps: int = DRAM_PS["hbm"][1]
    inter_line_ps: int = INTER_LINE_PS
    inter_fixed_ps: int = INTER_FIXED_PS
    intra_segment_ps: int = INTRA_SEGMENT_PS
    l1_hit_ps: int = L1_HIT_PS
    queue_window_ps: int = QUEUE_WINDOW_PS
    queue_cap_factor: int = QUEUE_CAP_FACTOR

    @classmethod
    def create(cls, memory: str = "hbm", link_latency_ns: float | None = None) -> "LatencyModel":
        if memory not in DRAM_PS:
            raise ConfigError(f"unknown memory technology {memory!r}; "
                              f"choose from {sorted(DRAM_PS)}")
        read_ps, write_ps = DRAM_PS[memory]
        model = cls(mem_read_ps=read_ps, mem_write_ps=write_ps)
        if link_latency_ns is not None:
            if link_latency_ns <= 0:
                raise ConfigError("link_latency_ns must be positive")
            model.inter_line_ps = int(round(link_latency_ns * 1000))
        return model

    def lines(self, nbytes: int) -> int:
        return -(-nbytes // LINE_BYTES)

    def memory_latency_ps(self, write: bool) -> int:
        return self.mem_write_ps if write else self.mem_read_ps

    def transfer_latency_ps(self, same_unit: bool, nbytes: int) -> int:
        """Idle-network latency of one transfer, endpoint to endpoint."""
        if nbytes <= 0:
            raise ValueError("transfer requires a positive byte count")
        if same_unit:
            return self.intra_segment_ps
        return (2 * self.intra_segment_ps
                + self.lines(nbytes) * self.inter_line_ps + self.inter_fixed_ps)


@dataclass
class EnergyModel:
    """All energies in integer femtojoules."""

    intra_fj_per_bit: int = INTRA_FJ_PER_BIT
    inter_fj_per_bit: int = INTER_FJ_PER_BIT
    mem_fj_per_bit: int = MEM_FJ_PER_BIT
    l1_hit_fj: int = L1_HIT_FJ
    l1_miss_fj: int = L1_MISS_FJ

    def intra_fj(self, nbytes: int) -> int:
        return nbytes * 8 * self.intra_fj_per_bit

    def inter_fj(self, nbytes: int) -> int:
        return nbytes * 8 * self.inter_fj_per_bit

    def memory_fj(self, nbytes: int = LINE_BYTES) -> int:
        return nbytes * 8 * self.mem_fj_per_bit

    def cache_fj(self, hit: bool) -> int:
        return self.l1_hit_fj if hit else self.l1_miss_fj


class Stats:
    """Run counters. Times in ps, energies in fJ, all integers."""

    def __init__(self) -> None:
        self.time_ps = 0
        self.ops = {k: 0 for k in ("lock_acquire", "lock_release", "barrier_wait",
                                   "sem_wait", "sem_post", "cond_wait",
                                   "cond_signal", "cond_broadcast")}
        self.messages_intra = 0
        self.messages_inter = 0
        self.bytes_intra = 0
        self.bytes_inter = 0
        self.by_opcode: dict[str, int] = {}
        self.mem_local = 0
        self.mem_remote = 0
        self.mem_sync_var = 0
        self.energy_network_fj = 0
        self.energy_memory_fj = 0
        self.energy_cache_fj = 0
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


@dataclass
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


class Network:
    """Crossbar + link contention and every data-movement cost."""

    def __init__(self, cfg: SystemConfig, lat: LatencyModel, en: EnergyModel, stats: Stats):
        self.cfg = cfg
        self.lat = lat
        self.en = en
        self.stats = stats
        self._window = [deque() for _ in range(cfg.num_units)]  # (start, busy)
        self._busy = [0] * cfg.num_units
        self._link_free: dict[tuple[int, int], int] = {}
        self._pair_last: dict[tuple, int] = {}

    def _queue_delay_ps(self, unit: int, t: int) -> int:
        """M/D/1 waiting time from utilization over a sliding window."""
        win = self._window[unit]
        horizon = t - self.lat.queue_window_ps
        while win and win[0][0] <= horizon:
            self._busy[unit] -= win.popleft()[1]
        busy = self._busy[unit]
        if busy == 0:
            return 0
        seg = self.lat.intra_segment_ps
        free = self.lat.queue_window_ps - busy
        cap = self.lat.queue_cap_factor * seg
        if free <= 0:
            self.stats.saturation_events += 1
            return cap
        wait = busy * seg // (2 * free)
        if wait > cap:
            self.stats.saturation_events += 1
            return cap
        return wait

    def _cross_xbar(self, unit: int, nbytes: int, t: int) -> int:
        wait = self._queue_delay_ps(unit, t)
        seg = self.lat.intra_segment_ps
        start = t + wait
        self._window[unit].append((start, seg))
        self._busy[unit] += seg
        self.stats.bytes_intra += nbytes
        self.stats.energy_network_fj += self.en.intra_fj(nbytes)
        return start + seg

    def _cross_link(self, src_unit: int, dst_unit: int, nbytes: int, t: int) -> int:
        occupy = self.lat.lines(nbytes) * self.lat.inter_line_ps
        key = (src_unit, dst_unit)
        start = max(t, self._link_free.get(key, 0))
        self._link_free[key] = start + occupy
        self.stats.bytes_inter += nbytes
        self.stats.energy_network_fj += self.en.inter_fj(nbytes)
        return start + occupy + self.lat.inter_fixed_ps

    def send_message(self, src_node, dst_node, t: int) -> int:
        """Deliver one 18-byte message; returns the arrival time."""
        src_unit = src_node[1]
        dst_unit = dst_node[1]
        arrival = self._cross_xbar(src_unit, MESSAGE_BYTES, t)
        if dst_unit != src_unit:
            arrival = self._cross_link(src_unit, dst_unit, MESSAGE_BYTES, arrival)
            arrival = self._cross_xbar(dst_unit, MESSAGE_BYTES, arrival)
            self.stats.messages_inter += 1
        else:
            self.stats.messages_intra += 1
        key = (src_node, dst_node)
        last = self._pair_last.get(key, 0)
        if arrival < last:
            arrival = last
        self._pair_last[key] = arrival
        return arrival

    def memory_access(self, req_unit: int, home_unit: int, write: bool, t: int,
                      sync_var: bool = False) -> int:
        """One 64-byte line access; returns the absolute completion time."""
        if sync_var:
            self.stats.mem_sync_var += 1
        elif home_unit == req_unit:
            self.stats.mem_local += 1
        else:
            self.stats.mem_remote += 1
        self.stats.energy_memory_fj += self.en.memory_fj(LINE_BYTES)
        # request: writes carry the line, reads an 18-byte command
        req_bytes = LINE_BYTES if write else MESSAGE_BYTES
        at = self._cross_xbar(req_unit, req_bytes, t)
        if home_unit != req_unit:
            at = self._cross_link(req_unit, home_unit, req_bytes, at)
            at = self._cross_xbar(home_unit, req_bytes, at)
        at += self.lat.memory_latency_ps(write)
        if write:
            return at  # posted: done once the array commits
        at = self._cross_xbar(home_unit, LINE_BYTES, at)
        if home_unit != req_unit:
            at = self._cross_link(home_unit, req_unit, LINE_BYTES, at)
            at = self._cross_xbar(req_unit, LINE_BYTES, at)
        return at


class _Core:
    __slots__ = ("core", "gen", "blocked", "done")

    def __init__(self, core: CoreId, gen):
        self.core = core
        self.gen = gen
        self.blocked = None
        self.done = False


class _Coord:
    __slots__ = ("coordinator", "inbox", "busy", "cache",
                 "occ_acc", "occ_last_t", "occ_max")

    def __init__(self, coordinator: Coordinator, cache: ServerCache | None):
        self.coordinator = coordinator
        self.inbox = deque()
        self.busy = False
        self.cache = cache
        self.occ_acc = 0
        self.occ_last_t = 0
        self.occ_max = 0


class Simulation:
    """Drives per-core programs against the configured scheme's coordinators."""

    def __init__(self, cfg: SystemConfig, workload, latency: LatencyModel | None = None,
                 energy: EnergyModel | None = None, trace: bool = False):
        self.cfg = cfg
        self.workload = workload
        self.lat = latency or LatencyModel.create(cfg.memory)
        self.en = energy or EnergyModel()
        self.stats = Stats()
        self.network = Network(cfg, self.lat, self.en, self.stats)
        self.trace_enabled = trace
        self.trace: list[TraceRecord] = []
        self.wire_log = bytearray()
        self.drop_filter = None  # test hook: (msg, src, dst) -> bool, True drops
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self._core_bits = core_id_bits(cfg.cores_per_unit)

        programs = workload.programs()
        expected = set(cfg.clients())
        if set(programs) != expected:
            raise ProtocolError("workload programs do not cover exactly the client cores")
        self.cores = {c: _Core(c, programs[c]) for c in sorted(expected)}
        self._pending = len(self.cores)

        self.coords: dict[int, _Coord] = {}
        self.oracle = None
        if cfg.scheme == "ideal":
            self.oracle = IdealOracle(self._ideal_wake)
        elif cfg.scheme == "central":
            self.coords[0] = _Coord(Coordinator(cfg, 0, server=True), ServerCache())
        else:
            server = cfg.scheme == "hier"
            for u in range(cfg.num_units):
                self.coords[u] = _Coord(Coordinator(cfg, u, server=server),
                                        ServerCache() if server else None)

    # -- plumbing ------------------------------------------------------------

    def _node_key(self, node) -> int:
        if node[0] == "core":
            return node[1] * self.cfg.cores_per_unit + node[2]
        return 1_000_000 + node[1]

    def _sched(self, t: int, kind: str, node, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, _RANK[kind], self._node_key(node), self._seq,
                                    kind, node, payload))

    def _trace(self, t: int, kind: str, unit: int, local: int, addr: int, info: int = 0) -> None:
        if self.trace_enabled:
            self.trace.append(TraceRecord(t, kind, unit, local, addr, info))

    def _count_wire(self, msg: Message) -> None:
        name = msg.opcode.name.lower()
        self.stats.by_opcode[name] = self.stats.by_opcode.get(name, 0) + 1
        if self.trace_enabled:
            self.wire_log += encode(msg)

    def _send(self, src_node, dst_node, msg: Message, t: int) -> None:
        self._count_wire(msg)
        self._trace(t, "msg_send", src_node[1], src_node[2] if src_node[0] == "core" else -1,
                    msg.addr, msg.opcode.value)
        if self.drop_filter is not None and self.drop_filter(msg, src_node, dst_node):
            return
        arrival = self.network.send_message(src_node, dst_node, t)
        self._sched(arrival, "msg", dst_node, (msg, src_node))

    # -- run loop ---------------------------------------------------------------

    def run(self) -> Stats:
        for core in self.cores.values():
            self._advance(core, 0)
        while self._heap:
            t, _rank, _key, _seq, kind, node, payload = heapq.heappop(self._heap)
            self.now = t
            if kind == "msg":
                self._on_msg(node, payload, t)
            elif kind in ("compute", "mem"):
                self._advance(self.cores[payload], t)
            elif kind == "service":
                self._on_service_done(node, payload, t)
        if self._pending:
            blocked = [(c.core, c.blocked) for c in self.cores.values() if not c.done]
            lines = ", ".join(f"{core}:{why}" for core, why in blocked)
            raise SimulationDeadlock(
                f"event queue drained with {self._pending} cores incomplete: {lines}",
                blocked=blocked)
        for crt in self.coords.values():
            assert not crt.inbox and not crt.busy, "coordinator inbox not drained"
        self._finalize()
        return self.stats

    def _finalize(self) -> None:
        self.stats.time_ps = self.now
        end = self.now
        for u in sorted(self.coords):
            crt = self.coords[u]
            table = crt.coordinator.table
            if table is None:
                continue
            self._occ_sample(crt, end)
            denom = end * table.capacity
            self.stats.st_avg_occupancy.append(crt.occ_acc / denom if denom else 0.0)
            self.stats.st_max_occupancy.append(crt.occ_max / table.capacity)
            self.stats.counters_end_total += crt.coordinator.counters.total()
        self.stats.completed_ops = self.workload.completed_ops
        self.stats.digest = self.workload.digest()

    # -- cores ----------------------------------------------------------------------

    def _advance(self, crt: _Core, t: int) -> None:
        """Run the core until it blocks or finishes.

        A core advanced with a blocking request pending has just been
        granted it, by a grant message or by the ideal oracle.
        """
        core = crt.core
        while True:
            b = crt.blocked
            if b is not None:
                crt.blocked = None
                kind = b[0]
                if kind == "lock":
                    self.stats.ops["lock_acquire"] += 1
                    self._trace(t, "cs_enter", core.unit, core.local, b[1])
                elif kind == "cond":
                    self.stats.ops["cond_wait"] += 1
                    self._trace(t, "cs_enter", core.unit, core.local, b[2])
                    self._trace(t, "cond_wake", core.unit, core.local, b[1], b[2])
                elif kind == "sem":
                    self.stats.ops["sem_wait"] += 1
                    self._trace(t, "sem_acquire", core.unit, core.local, b[1], b[2])
                else:
                    self.stats.ops["barrier_wait"] += 1
                    self._trace(t, "barrier_depart", core.unit, core.local, b[1])
            try:
                step = next(crt.gen)
            except StopIteration:
                crt.done = True
                self._pending -= 1
                return
            op = step[0]
            if op == "compute":
                n = step[1]
                if n <= 0:
                    continue
                self._sched(t + n * CORE_CYCLE_PS, "compute", ("core", core.unit, core.local), core)
                return
            if op == "mem":
                _, addr, write = step
                home = addr // self.cfg.unit_mem_bytes
                done = self.network.memory_access(core.unit, home, write, t)
                self._trace(t, "mem_op", core.unit, core.local, addr, int(write))
                self._sched(done, "mem", ("core", core.unit, core.local), core)
                return
            if not self._issue(crt, step, t):
                return

    def _dst_for(self, core: CoreId, addr: int):
        scheme = self.cfg.scheme
        if scheme == "central":
            return ("coord", 0)
        if scheme == "flat":
            return ("coord", master_se_of(self.cfg, addr))
        return ("coord", core.unit)

    def _issue(self, crt: _Core, step, t: int) -> bool:
        """Issue one synchronization step; True if the core keeps running.

        A blocking step sets crt.blocked. The ideal scheme hands each step to
        the oracle, which may grant a blocking step at once; every other
        scheme sends the request to the core's coordinator.
        """
        core = crt.core
        kind = step[0]
        addr = step[1]
        o = self.oracle
        info = 0

        if kind == "lock_acquire":
            crt.blocked = ("lock", addr)
            if o is not None:
                return o.lock_acquire(core, addr)
            opc = Opcode.LOCK_ACQUIRE_LOCAL
        elif kind == "lock_release":
            self.stats.ops["lock_release"] += 1
            self._trace(t, "cs_exit", core.unit, core.local, addr)
            if o is not None:
                o.lock_release(core, addr)
                return True
            opc = Opcode.LOCK_RELEASE_LOCAL
        elif kind == "barrier_wait":
            _, addr, info, within = step
            crt.blocked = ("barrier", addr)
            self._trace(t, "barrier_arrive", core.unit, core.local, addr)
            if o is not None:
                return o.barrier_wait(core, addr, info)
            opc = (Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT if within
                   else Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS)
        elif kind == "sem_wait":
            _, addr, info = step
            crt.blocked = ("sem", addr, info)
            if o is not None:
                return o.sem_wait(core, addr, info)
            opc = Opcode.SEM_WAIT_LOCAL
        elif kind == "sem_post":
            self.stats.ops["sem_post"] += 1
            self._trace(t, "sem_release", core.unit, core.local, addr)
            if o is not None:
                o.sem_post(core, addr)
                return True
            opc = Opcode.SEM_POST_LOCAL
        elif kind == "cond_wait":
            _, addr, info = step
            crt.blocked = ("cond", addr, info)
            self.stats.ops["lock_release"] += 1
            self._trace(t, "cs_exit", core.unit, core.local, info)
            self._trace(t, "cond_sleep", core.unit, core.local, addr, info)
            if o is not None:
                o.cond_wait(core, addr, info)
                return False
            opc = Opcode.COND_WAIT_LOCAL
        elif kind == "cond_signal":
            self.stats.ops[kind] += 1
            if o is not None:
                o.cond_signal(addr)
                return True
            opc = Opcode.COND_SIGNAL_LOCAL
        elif kind == "cond_broadcast":
            self.stats.ops[kind] += 1
            if o is not None:
                o.cond_broadcast(addr)
                return True
            opc = Opcode.COND_BROAD_LOCAL
        else:
            raise ProtocolError(f"unknown workload step {kind!r}")

        cid = wire_core_id(self.cfg.scheme, core.unit, core.local, self._core_bits)
        self._send(("core", core.unit, core.local), self._dst_for(core, addr),
                   Message(addr, opc, cid, info), t)
        return crt.blocked is None

    # -- coordinators --------------------------------------------------------------------

    def _on_msg(self, node, payload, t: int) -> None:
        if node[0] == "coord":
            msg = payload[0]
            self._trace(t, "msg_recv", node[1], -1, msg.addr, msg.opcode.value)
            self._enqueue(self.coords[node[1]], payload, t)
            return
        crt = self.cores[CoreId(node[1], node[2])]
        if payload[0] == "wake":
            _, kind, addr = payload
        else:
            msg = payload[0]
            self._trace(t, "msg_recv", node[1], node[2], msg.addr, msg.opcode.value)
            kind = _GRANT_KIND.get(msg.opcode)
            addr = msg.addr
        b = crt.blocked
        if b is None or b[0] != kind or b[1] != addr:
            what = f"wake {kind}" if payload[0] == "wake" else payload[0].opcode.name
            raise ProtocolError(f"{what}({addr:#x}) does not match pending {b} at {crt.core}")
        self._advance(crt, t)

    def _enqueue(self, crt: _Coord, env, t: int) -> None:
        crt.inbox.append(env)
        depth = len(crt.inbox)
        if depth > self.stats.max_inbox_depth:
            self.stats.max_inbox_depth = depth
        if depth > self.cfg.inbox_depth:
            self.stats.inbox_pressure_events += 1
        if not crt.busy:
            self._start_service(crt, t)

    def _occ_sample(self, crt: _Coord, t: int) -> None:
        table = crt.coordinator.table
        if table is None:
            return
        count = table.occupied_count
        crt.occ_acc += (t - crt.occ_last_t) * count
        crt.occ_last_t = t
        if count > crt.occ_max:
            crt.occ_max = count

    def _start_service(self, crt: _Coord, t: int) -> None:
        msg, src = crt.inbox.popleft()
        self._occ_sample(crt, t)
        coord = crt.coordinator
        out = coord.handle(msg, src)
        self._occ_sample(crt, t)  # reserve/release inside the service counts from t

        if src[0] == "core" and classify_opcode(msg.opcode) in (OpClass.ACQUIRE, OpClass.RELEASE):
            self.stats.sync_requests += 1
            if out.overflowed:
                self.stats.sync_overflowed += 1
        for kind, addr in out.table_events:
            self._trace(t, kind, coord.unit, -1, addr)

        cursor = t + SE_SERVICE_PS
        for opkind, addr in out.mem_ops:
            cursor = self.network.memory_access(coord.unit, coord.unit,
                                                opkind == "write", cursor, sync_var=True)
        if crt.cache is not None:
            cursor = self._server_touches(crt, out.touches, cursor)

        crt.busy = True
        self._sched(cursor, "service", coord.node(), out)

    def _server_touches(self, crt: _Coord, touches, cursor: int) -> int:
        """A software server reads and updates each variable line it handles."""
        unit = crt.coordinator.unit
        for addr in touches:
            line = addr // LINE_BYTES
            if crt.cache.access(line):
                cursor += self.lat.l1_hit_ps
                self.stats.energy_cache_fj += self.en.cache_fj(True)
            else:
                self.stats.energy_cache_fj += self.en.cache_fj(False)
                home = addr // self.cfg.unit_mem_bytes
                cursor = self.network.memory_access(unit, home, False, cursor, sync_var=True)
            cursor += self.lat.l1_hit_ps  # write the updated state back to the line
            self.stats.energy_cache_fj += self.en.cache_fj(True)
        return cursor

    def _on_service_done(self, node, out, t: int) -> None:
        crt = self.coords[node[1]]
        crt.busy = False
        for dst, m in out.sends:
            self._send(node, dst, m, t)
        for m in out.internal:
            self._enqueue(crt, (m, node), t)
        if crt.inbox and not crt.busy:
            self._start_service(crt, t)

    # -- ideal scheme ------------------------------------------------------------------------

    def _ideal_wake(self, core: CoreId, kind: str, addr: int, lock: int) -> None:
        """Oracle wake callback: the grant reaches the core as a message would.

        A cond wake's lock is the one the core named in its wait, which
        crt.blocked already holds.
        """
        self._sched(self.now, "msg", ("core", core.unit, core.local), ("wake", kind, addr))
