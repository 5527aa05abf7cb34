"""Wire message format shared by every synchronization request.

A message is 18 bytes:

    bytes 0..7    address of the synchronization variable, little-endian
    byte  8       opcode, low 6 bits (high 2 bits reserved, must be zero)
    byte  9       core id, low 6 bits (high 2 bits reserved, must be zero)
    bytes 10..17  64-bit info field, little-endian

The core id is the sender's local index within its unit; overflow
messages (and every request under direct routing, see topology)
pack {unit id, local core id} into the same 6 bits. The info field
carries the per-primitive argument: barrier participant count, semaphore
initial resources, the lock address associated with a condition-variable
wait; grant-direction messages carry counts where a handler defines them
and zero otherwise.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

MESSAGE_BYTES = 18
CORE_ID_LIMIT = 1 << 6  # the core id field is 6 bits wide

_WIRE = struct.Struct("<QBBQ")


class CodecError(ValueError):
    """Malformed wire message."""


class Opcode(enum.IntEnum):
    # locks
    LOCK_ACQUIRE_GLOBAL = 0
    LOCK_ACQUIRE_LOCAL = 1
    LOCK_RELEASE_GLOBAL = 2
    LOCK_RELEASE_LOCAL = 3
    LOCK_GRANT_GLOBAL = 4
    LOCK_GRANT_LOCAL = 5
    LOCK_ACQUIRE_OVERFLOW = 6
    LOCK_RELEASE_OVERFLOW = 7
    LOCK_GRANT_OVERFLOW = 8
    # barriers
    BARRIER_WAIT_GLOBAL = 9
    BARRIER_WAIT_LOCAL_WITHIN_UNIT = 10
    BARRIER_WAIT_LOCAL_ACROSS_UNITS = 11
    BARRIER_DEPART_GLOBAL = 12
    BARRIER_DEPART_LOCAL = 13
    BARRIER_WAIT_OVERFLOW = 14
    BARRIER_DEPARTURE_OVERFLOW = 15
    # semaphores
    SEM_WAIT_GLOBAL = 16
    SEM_WAIT_LOCAL = 17
    SEM_GRANT_GLOBAL = 18
    SEM_GRANT_LOCAL = 19
    SEM_POST_GLOBAL = 20
    SEM_POST_LOCAL = 21
    SEM_WAIT_OVERFLOW = 22
    SEM_GRANT_OVERFLOW = 23
    SEM_POST_OVERFLOW = 24
    # condition variables
    COND_WAIT_GLOBAL = 25
    COND_WAIT_LOCAL = 26
    COND_SIGNAL_GLOBAL = 27
    COND_SIGNAL_LOCAL = 28
    COND_BROAD_GLOBAL = 29
    COND_BROAD_LOCAL = 30
    COND_GRANT_GLOBAL = 31
    COND_GRANT_LOCAL = 32
    COND_WAIT_OVERFLOW = 33
    COND_SIGNAL_OVERFLOW = 34
    COND_BROAD_OVERFLOW = 35
    COND_GRANT_OVERFLOW = 36
    # counter maintenance
    DECREASE_INDEXING_COUNTER = 37


assert len(Opcode) == 38


# The vocabulary. An opcode's name spells PRIMITIVE_ACTION_LEVEL, and only this
# module reads it. The level names who asks or is answered: a client core
# (LOCAL), a unit's aggregate (GLOBAL), or another unit's core served from the
# master's memory (OVERFLOW). Irregular names: the barrier's two LOCAL_* waits
# are local, a barrier departure is its grant, and the counter decrease, sent
# between coordinators, acts on no primitive.
LOCK, BARRIER, SEMAPHORE, CONDVAR = "lock", "barrier", "semaphore", "condvar"
ACQUIRE, RELEASE, WAIT, POST, SIGNAL, BROADCAST, GRANT, DECREASE = (
    "acquire", "release", "wait", "post", "signal", "broadcast", "grant", "decrease")
LOCAL, GLOBAL, OVERFLOW = 0, 1, 2  # the values index per-level tuples
_WORDS = {"LOCK": LOCK, "BARRIER": BARRIER, "SEM": SEMAPHORE, "COND": CONDVAR,
          "ACQUIRE": ACQUIRE, "RELEASE": RELEASE, "WAIT": WAIT, "POST": POST, "SIGNAL": SIGNAL,
          "BROAD": BROADCAST, "GRANT": GRANT, "DEPART": GRANT, "DEPARTURE": GRANT,
          "LOCAL": LOCAL, "GLOBAL": GLOBAL, "OVERFLOW": OVERFLOW}


def _parse(op: Opcode) -> tuple:
    if op is Opcode.DECREASE_INDEXING_COUNTER:
        return None, DECREASE, GLOBAL
    return tuple(_WORDS[word] for word in op.name.split("_")[:3])


_PARSED = {op: _parse(op) for op in Opcode}
PRIMITIVE = {op: words[0] for op, words in _PARSED.items()}
ACTION = {op: words[1] for op, words in _PARSED.items()}
LEVEL = {op: words[2] for op, words in _PARSED.items()}
# acquire-type actions block the caller until a grant; the other requests never do
ACQUIRES = frozenset((ACQUIRE, WAIT))
# the acquire- and release-type requests of a client or a unit: what a table entry serves
SYNC_REQUESTS = frozenset(op for op in Opcode if PRIMITIVE[op] is not None
                          and ACTION[op] != GRANT and LEVEL[op] != OVERFLOW)


class Message(NamedTuple):
    addr: int
    opcode: Opcode
    core_id: int
    info: int = 0


# opcode by wire value; the values run 0..len(Opcode)-1 without gaps
_OPCODES = tuple(Opcode)
assert all(op == i for i, op in enumerate(_OPCODES))


def encode(m: Message) -> bytes:
    """Serialize to the 18-byte wire format; rejects out-of-range fields."""
    addr, op, core_id, info = m
    if not 0 <= addr < 1 << 64:
        raise CodecError(f"addr {addr} does not fit in 64 bits")
    if not 0 <= core_id < CORE_ID_LIMIT:
        raise CodecError(f"core_id {core_id} does not fit in 6 bits")
    if not 0 <= info < 1 << 64:
        raise CodecError(f"info {info} does not fit in 64 bits")
    if op not in Opcode._value2member_map_:
        raise CodecError(f"unknown opcode {op!r}")
    return _WIRE.pack(addr, op, core_id, info)


def decode(raw: bytes) -> Message:
    """Parse an 18-byte wire message; raises CodecError on any malformation."""
    if len(raw) != MESSAGE_BYTES:
        raise CodecError(f"expected {MESSAGE_BYTES} bytes, got {len(raw)}")
    addr, op_byte, core_byte, info = _WIRE.unpack(raw)
    if op_byte & 0xC0:
        raise CodecError(f"reserved opcode bits set: {op_byte:#04x}")
    if core_byte & 0xC0:
        raise CodecError(f"reserved core id bits set: {core_byte:#04x}")
    if op_byte >= len(_OPCODES):
        raise CodecError(f"unknown opcode {op_byte}")
    return Message(addr, _OPCODES[op_byte], core_byte, info)


def pack_core(unit: int, local: int, core_bits: int) -> int:
    """Pack {unit, local core} into the 6-bit core id field."""
    packed = (unit << core_bits) | local
    if packed >= CORE_ID_LIMIT:
        raise CodecError(f"packed core id {packed} does not fit in 6 bits")
    return packed


def unpack_core(packed: int, core_bits: int) -> tuple[int, int]:
    return packed >> core_bits, packed & ((1 << core_bits) - 1)


def core_id_bits(cores_per_unit: int) -> int:
    """Width of the local-core part of a packed {unit, core} id."""
    return max(1, (cores_per_unit - 1).bit_length())

