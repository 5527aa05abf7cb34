import random
import struct
import time

import pytest

from ndpsync import engine
from ndpsync.messages import (ACTION, BARRIER, GLOBAL, GRANT, LEVEL, LOCAL,
                              MESSAGE_BYTES, OVERFLOW, PRIMITIVE, SYNC_REQUESTS, WAIT,
                              CodecError, Message, Opcode, decode, encode, pack_core,
                              unpack_core)


def oracle_encode(addr, opcode, core_id, info):
    # independent re-implementation of the wire layout
    return struct.pack("<QBBQ", addr, opcode, core_id, info)


def oracle_decode(raw):
    addr, op, core, info = struct.unpack("<QBBQ", raw)
    return addr, op, core, info


def test_layout_is_18_bytes():
    assert MESSAGE_BYTES == 18
    raw = encode(Message(0, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    assert len(raw) == 18


def test_encode_matches_oracle_on_fixed_vectors():
    vectors = [
        (0, Opcode.LOCK_ACQUIRE_GLOBAL, 0, 0),
        (1, Opcode.LOCK_ACQUIRE_LOCAL, 1, 1),
        ((1 << 64) - 1, Opcode.DECREASE_INDEXING_COUNTER, 63, (1 << 64) - 1),
        (0xDEADBEEF, Opcode.BARRIER_WAIT_GLOBAL, 42, 60),
        (3 * 1024**3 + 512, Opcode.SEM_WAIT_LOCAL, 7, (2 << 32) | 1),
    ]
    for addr, op, core, info in vectors:
        assert encode(Message(addr, op, core, info)) == oracle_encode(addr, op, core, info)


def test_decode_matches_oracle_on_fixed_vectors():
    raw = oracle_encode(77, int(Opcode.COND_WAIT_LOCAL), 13, 1 << 40)
    m = decode(raw)
    assert (m.addr, m.opcode, m.core_id, m.info) == (77, Opcode.COND_WAIT_LOCAL, 13, 1 << 40)


def test_roundtrip_100k_random_messages_under_1s():
    rng = random.Random(0xC0DEC)
    ops = list(Opcode)
    start = time.monotonic()
    for _ in range(100_000):
        m = Message(addr=rng.getrandbits(64), opcode=rng.choice(ops),
                    core_id=rng.randrange(64), info=rng.getrandbits(64))
        raw = encode(m)
        assert oracle_decode(raw) == (m.addr, int(m.opcode), m.core_id, m.info)
        assert decode(raw) == m
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"codec too slow: {elapsed:.2f}s for 1e5 round-trips"


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(CodecError):
        encode(Message(1 << 64, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    with pytest.raises(CodecError):
        encode(Message(-1, Opcode.LOCK_ACQUIRE_LOCAL, 0, 0))
    with pytest.raises(CodecError):
        encode(Message(0, Opcode.LOCK_ACQUIRE_LOCAL, 64, 0))
    with pytest.raises(CodecError):
        encode(Message(0, Opcode.LOCK_ACQUIRE_LOCAL, -1, 0))
    with pytest.raises(CodecError):
        encode(Message(0, Opcode.LOCK_ACQUIRE_LOCAL, 0, 1 << 64))


def test_encode_rejects_unknown_opcode():
    with pytest.raises(CodecError, match="^unknown opcode 38$"):  # one past the last
        encode(Message(0, 38, 0, 0))


def test_decode_rejects_wrong_length():
    with pytest.raises(CodecError):
        decode(b"\x00" * 17)
    with pytest.raises(CodecError):
        decode(b"\x00" * 19)
    with pytest.raises(CodecError):
        decode(b"")


def test_decode_rejects_reserved_bits():
    good = bytearray(oracle_encode(5, int(Opcode.LOCK_GRANT_LOCAL), 3, 0))
    bad_op = bytes(good[:8]) + bytes([good[8] | 0x40]) + bytes(good[9:])
    with pytest.raises(CodecError):
        decode(bad_op)
    bad_core = bytes(good[:9]) + bytes([good[9] | 0x80]) + bytes(good[10:])
    with pytest.raises(CodecError):
        decode(bad_core)


def test_decode_rejects_unknown_opcode():
    raw = oracle_encode(0, 38, 0, 0)  # one past the last defined opcode
    with pytest.raises(CodecError):
        decode(raw)


def test_opcode_table_is_complete():
    assert len(Opcode) == 38
    assert [int(op) for op in Opcode] == list(range(38))


def test_each_opcode_has_exactly_one_level():
    for table in (PRIMITIVE, ACTION, LEVEL):
        assert set(table) == set(Opcode)
    assert {LEVEL[op] for op in Opcode} == {LOCAL, GLOBAL, OVERFLOW}


def test_only_the_counter_decrease_has_no_primitive():
    assert [op for op in Opcode if PRIMITIVE[op] is None] == [Opcode.DECREASE_INDEXING_COUNTER]


def test_irregular_barrier_names_parse():
    for op in (Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT, Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS):
        assert (PRIMITIVE[op], ACTION[op], LEVEL[op]) == (BARRIER, WAIT, LOCAL)
    op = Opcode.BARRIER_DEPARTURE_OVERFLOW
    assert (PRIMITIVE[op], ACTION[op], LEVEL[op]) == (BARRIER, GRANT, OVERFLOW)


def test_sync_requests_are_the_local_and_global_acquires_and_releases():
    O = Opcode
    assert SYNC_REQUESTS == {
        O.LOCK_ACQUIRE_GLOBAL, O.LOCK_ACQUIRE_LOCAL, O.LOCK_RELEASE_GLOBAL, O.LOCK_RELEASE_LOCAL,
        O.BARRIER_WAIT_GLOBAL, O.BARRIER_WAIT_LOCAL_WITHIN_UNIT,
        O.BARRIER_WAIT_LOCAL_ACROSS_UNITS,
        O.SEM_WAIT_GLOBAL, O.SEM_WAIT_LOCAL, O.SEM_POST_GLOBAL, O.SEM_POST_LOCAL,
        O.COND_WAIT_GLOBAL, O.COND_WAIT_LOCAL, O.COND_SIGNAL_GLOBAL, O.COND_SIGNAL_LOCAL,
        O.COND_BROAD_GLOBAL, O.COND_BROAD_LOCAL}
    assert len(SYNC_REQUESTS) == 17


def test_each_client_request_has_its_overflow_form():
    # a non-master redirects a client request by the same words at the OVERFLOW level
    O = Opcode
    expected = {
        O.LOCK_ACQUIRE_LOCAL: O.LOCK_ACQUIRE_OVERFLOW,
        O.LOCK_RELEASE_LOCAL: O.LOCK_RELEASE_OVERFLOW,
        O.BARRIER_WAIT_LOCAL_WITHIN_UNIT: O.BARRIER_WAIT_OVERFLOW,
        O.BARRIER_WAIT_LOCAL_ACROSS_UNITS: O.BARRIER_WAIT_OVERFLOW,
        O.SEM_WAIT_LOCAL: O.SEM_WAIT_OVERFLOW,
        O.SEM_POST_LOCAL: O.SEM_POST_OVERFLOW,
        O.COND_WAIT_LOCAL: O.COND_WAIT_OVERFLOW,
        O.COND_SIGNAL_LOCAL: O.COND_SIGNAL_OVERFLOW,
        O.COND_BROAD_LOCAL: O.COND_BROAD_OVERFLOW,
    }
    assert engine._REDIRECTED == expected
    for op, form in expected.items():
        assert (PRIMITIVE[form], ACTION[form], LEVEL[form]) == \
            (PRIMITIVE[op], ACTION[op], OVERFLOW)


def test_pack_core_roundtrip():
    rng = random.Random(7)
    for _ in range(2000):
        core_bits = rng.randrange(1, 5)
        unit = rng.randrange(1 << (6 - core_bits))
        local = rng.randrange(1 << core_bits)
        packed = pack_core(unit, local, core_bits)
        assert 0 <= packed < 64
        assert unpack_core(packed, core_bits) == (unit, local)


def test_pack_core_rejects_overflow():
    with pytest.raises(CodecError):
        pack_core(16, 0, 2)  # 16 << 2 == 64, out of the 6-bit field
