"""System shape: memory units, cores, and variable-to-unit ownership.

Memory is partitioned contiguously across units. The unit whose memory
holds an address owns that address: its synchronization engine (or
per-unit server, depending on the scheme) is the master coordinator for
every synchronization variable stored there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .messages import CORE_ID_LIMIT, core_id_bits

MIB = 1024 * 1024

SCHEMES = ("syncron", "flat", "central", "hier", "ideal")
MEMORY_TECHS = ("hbm", "hmc", "ddr4")

# Schemes that dedicate one core per unit (hier) or one core in the whole
# system (central) as a software synchronization server.
SERVER_SCHEMES = ("central", "hier")

# Schemes whose requests can carry a packed {unit, core} id: flat and central
# routing on every request, syncron on its table-overflow path. hier sends
# only the local id; the ideal scheme sends no messages.
PACKED_ID_SCHEMES = ("syncron", "flat", "central")


@dataclass(frozen=True, order=True)
class CoreId:
    """A core addressed as (unit, local index within the unit)."""

    unit: int
    local: int


@dataclass
class SystemConfig:
    """Static system description; validated on construction."""

    num_units: int = 4
    cores_per_unit: int = 16
    clients_per_unit: int | None = None  # default: cores_per_unit - 1
    st_entries: int = 64
    index_counters: int = 256
    unit_mem_bytes: int = 1024 * MIB
    scheme: str = "syncron"
    memory: str = "hbm"
    inbox_depth: int = 16

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.memory not in MEMORY_TECHS:
            raise ConfigError(f"unknown memory tech {self.memory!r}, expected one of {MEMORY_TECHS}")
        if self.num_units < 1:
            raise ConfigError("num_units must be >= 1")
        if self.cores_per_unit < 1:
            raise ConfigError("cores_per_unit must be >= 1")
        if self.scheme in SERVER_SCHEMES and self.cores_per_unit < 2:
            raise ConfigError(f"scheme {self.scheme!r} needs cores_per_unit >= 2 (a server core must exist)")
        if self.clients_per_unit is None:
            self.clients_per_unit = self.cores_per_unit - 1 if self.cores_per_unit > 1 else 1
        limit = self.cores_per_unit - 1 if self.scheme in SERVER_SCHEMES else self.cores_per_unit
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
        if self.scheme != "ideal":
            self._check_core_id_width()

    def _check_core_id_width(self) -> None:
        """Reject a shape whose client cores' wire ids need more than 6 bits.

        The check covers the widest id the scheme can send, so a run cannot
        fail later depending on whether, say, the overflow path fires.
        """
        top = self.clients_per_unit - 1
        if self.scheme in PACKED_ID_SCHEMES:
            top |= (self.num_units - 1) << core_id_bits(self.cores_per_unit)
        if top >= CORE_ID_LIMIT:
            raise ConfigError(
                f"scheme {self.scheme!r} with {self.num_units} units x {self.cores_per_unit} "
                f"cores ({self.clients_per_unit} clients per unit) needs core id {top}, "
                f"which does not fit the 6-bit wire field")

    # -- derived quantities ------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.num_units * self.cores_per_unit

    @property
    def total_clients(self) -> int:
        return self.num_units * self.clients_per_unit

    @property
    def total_mem_bytes(self) -> int:
        return self.num_units * self.unit_mem_bytes

    def clients(self) -> list[CoreId]:
        """Client cores in deterministic (unit, local) order."""
        return [CoreId(u, l) for u in range(self.num_units) for l in range(self.clients_per_unit)]

    def server_core(self, unit: int) -> CoreId:
        """The per-unit server slot (last core of the unit)."""
        return CoreId(unit, self.cores_per_unit - 1)


def master_se_of(cfg: SystemConfig, addr: int) -> int:
    """Unit whose engine masters `addr` (contiguous partitioning)."""
    unit = addr // cfg.unit_mem_bytes
    if addr < 0 or unit >= cfg.num_units:
        raise ConfigError(f"address {addr:#x} outside system memory (0..{cfg.total_mem_bytes:#x})")
    return unit
