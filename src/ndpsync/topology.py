"""System shape, scheme policy, and variable-to-unit ownership.

Memory is partitioned contiguously across units. The unit whose memory
holds an address owns that address: its synchronization engine (or
per-unit server, depending on the scheme) is the master coordinator for
every synchronization variable stored there. The one global server
(direct routing to a server) and the ideal scheme's one zero-cost service
point master every address instead.

In process, a core is named by its node ("core", unit, local) and a
coordinator by ("coord", unit), in the network, the event queue, the
coordinators and the workloads alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .messages import CORE_ID_LIMIT, core_id_bits

MIB = 1024 * 1024
LINE_BYTES = 64  # a memory and cache line

# Each scheme as (route, service point). Route "local": a core sends to its own
# unit's coordinator, which aggregates toward the master; "direct": straight to
# the master; None: no messages, each step served at once and at no cost by one
# coordinator. Service point "engine": a fixed-size table with a memory overflow
# path; "server": a software server core; None: a dict with no table and no L1.
SCHEME_AXES = {
    "syncron": ("local", "engine"),
    "flat": ("direct", "engine"),
    "central": ("direct", "server"),
    "hier": ("local", "server"),
    "ideal": (None, None),
}
SCHEMES = tuple(SCHEME_AXES)


@dataclass
class SystemConfig:
    """Static system description; validated on construction.

    `route`, `server` and `one_master` are derived from `scheme` through
    SCHEME_AXES when the config is built.
    """

    num_units: int = 4
    cores_per_unit: int = 16
    clients_per_unit: int | None = None  # default: cores_per_unit - 1
    st_entries: int = 64
    index_counters: int = 256
    unit_mem_bytes: int = 1024 * MIB
    scheme: str = "syncron"
    inbox_depth: int = 16

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        # a direct-routed server is the one global server, on unit 0, and ideal
        # has one zero-cost service point
        self.route, service = SCHEME_AXES[self.scheme]
        self.server = service == "server"
        self.one_master = self.route is None or (self.route == "direct" and self.server)
        if self.num_units < 1:
            raise ConfigError("num_units must be >= 1")
        if self.cores_per_unit < 1:
            raise ConfigError("cores_per_unit must be >= 1")
        if self.server and self.cores_per_unit < 2:
            raise ConfigError(f"scheme {self.scheme!r} needs cores_per_unit >= 2 (a server core must exist)")
        if self.clients_per_unit is None:
            self.clients_per_unit = self.cores_per_unit - 1 if self.cores_per_unit > 1 else 1
        limit = self.cores_per_unit - 1 if self.server else self.cores_per_unit
        if not 1 <= self.clients_per_unit <= limit:
            raise ConfigError(
                f"clients_per_unit={self.clients_per_unit} out of range [1, {limit}] for scheme {self.scheme!r}")
        if self.st_entries < 1:
            raise ConfigError("st_entries must be >= 1")
        if self.index_counters < 1:
            raise ConfigError("index_counters must be >= 1")
        if self.unit_mem_bytes < 1:
            raise ConfigError("unit_mem_bytes must be >= 1")
        if self.inbox_depth < 1:
            raise ConfigError("inbox_depth must be >= 1")
        if self.route is not None:
            self._check_core_id_width()
            if (total := self.total_mem_bytes) > 1 << 64:
                raise ConfigError(f"{total} bytes of memory need addresses past 64 bits")

    def _check_core_id_width(self) -> None:
        """Reject a shape whose wire core ids (a client's or a unit's) need more than 6 bits.

        The check covers the widest id the scheme can send, so a run cannot
        fail later depending on whether, say, the overflow path fires.
        """
        top = self.clients_per_unit - 1
        if self.route == "direct" or not self.server:  # an engine packs on its overflow path
            top |= (self.num_units - 1) << core_id_bits(self.cores_per_unit)
        if self.route == "local":  # a unit's id on its *_global messages
            top = max(top, self.num_units - 1)
        if top >= CORE_ID_LIMIT:
            raise ConfigError(
                f"scheme {self.scheme!r} with {self.num_units} units x {self.cores_per_unit} "
                f"cores ({self.clients_per_unit} clients per unit) needs core id {top}, "
                f"which does not fit the 6-bit wire field")

    def wire_core_id(self, unit: int, local: int) -> int:
        """Core id on the requests of core (unit, local): {unit, core} packed
        wherever one coordinator serves every unit's cores, under direct routing
        and for ideal. Only a direct shape's ids reach the 6-bit wire field, and
        _check_core_id_width bounds them; ideal's never leave the process."""
        if self.route == "local":
            return local
        return unit << core_id_bits(self.cores_per_unit) | local

    # -- derived quantities ------------------------------------------------

    @property
    def coord_units(self) -> range:
        """Units that host a coordinator; none when no messages are sent."""
        if self.route is None:
            return range(0)
        return range(1 if self.one_master else self.num_units)

    @property
    def total_clients(self) -> int:
        return self.num_units * self.clients_per_unit

    @property
    def total_mem_bytes(self) -> int:
        return self.num_units * self.unit_mem_bytes

    def clients(self) -> list[tuple]:
        """Client cores, as ("core", unit, local) nodes, in (unit, local) order."""
        return [("core", u, l) for u in range(self.num_units) for l in range(self.clients_per_unit)]


def master_se_of(cfg: SystemConfig, addr: int) -> int:
    """Unit whose coordinator masters `addr`: the unit whose memory holds it
    (contiguous partitioning), or unit 0 where one coordinator masters every
    address (the one global server, and ideal's service point)."""
    unit = addr // cfg.unit_mem_bytes
    if addr < 0 or unit >= cfg.num_units:
        raise ConfigError(f"address {addr:#x} outside system memory (0..{cfg.total_mem_bytes:#x})")
    return 0 if cfg.one_master else unit
