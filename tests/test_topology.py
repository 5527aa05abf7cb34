import pytest

from ndpsync.errors import ConfigError
from ndpsync.topology import SystemConfig, master_se_of

GIB = 1024 * 1024 * 1024


def test_defaults():
    cfg = SystemConfig()
    assert cfg.num_units == 4
    assert cfg.cores_per_unit == 16
    assert cfg.clients_per_unit == 15  # one core slot reserved, uniform across schemes
    assert cfg.total_clients == 60
    assert cfg.total_mem_bytes == 4 * GIB


def test_master_se_contiguous_partitioning():
    cfg = SystemConfig()
    assert master_se_of(cfg, 0) == 0
    assert master_se_of(cfg, GIB - 1) == 0
    assert master_se_of(cfg, GIB) == 1
    # 3.5 GiB lives in the fourth unit
    assert master_se_of(cfg, 7 * GIB // 2) == 3
    assert master_se_of(cfg, 4 * GIB - 1) == 3


def test_master_se_rejects_out_of_range():
    cfg = SystemConfig()
    with pytest.raises(ConfigError):
        master_se_of(cfg, 4 * GIB)
    with pytest.raises(ConfigError):
        master_se_of(cfg, -1)


def test_clients_deterministic_order():
    cfg = SystemConfig(num_units=2, cores_per_unit=3)
    assert cfg.clients() == [("core", 0, 0), ("core", 0, 1), ("core", 1, 0), ("core", 1, 1)]


def test_clients_per_unit_uniform_across_schemes():
    # comparisons stay apples-to-apples: every scheme leaves the same slot free
    for scheme in ("syncron", "flat", "central", "hier", "ideal"):
        cfg = SystemConfig(scheme=scheme)
        assert cfg.clients_per_unit == 15, scheme


def test_validation_errors():
    for kwargs in (
        {"scheme": "magic"},
        {"num_units": 0},
        {"cores_per_unit": 0},
        {"st_entries": 0},
        {"index_counters": 0},
        {"unit_mem_bytes": 0},
        {"inbox_depth": 0},
        {"clients_per_unit": 0},
        {"clients_per_unit": 17},
        {"scheme": "hier", "cores_per_unit": 1},
        {"scheme": "central", "clients_per_unit": 16},  # server slot must stay free
    ):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)


def test_single_core_unit_client_allowed():
    cfg = SystemConfig(num_units=1, cores_per_unit=1, scheme="syncron")
    assert cfg.clients_per_unit == 1
    assert cfg.clients() == [("core", 0, 0)]


# -- 6-bit wire core id ------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"scheme": "flat", "num_units": 8},
    {"scheme": "central", "num_units": 5},
    # rejected whether or not the overflow path would ever fire
    {"scheme": "syncron", "num_units": 8, "st_entries": 1},
    {"scheme": "syncron", "num_units": 8, "st_entries": 64},
    {"scheme": "syncron", "num_units": 1, "cores_per_unit": 65, "clients_per_unit": 65},
    {"scheme": "hier", "num_units": 1, "cores_per_unit": 66},  # local id 64
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_core_id_overflow_rejected_at_startup(kwargs):
    with pytest.raises(ConfigError, match="6-bit"):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"scheme": "syncron", "num_units": 4, "clients_per_unit": 16},  # packed id 63
    {"scheme": "flat"},
    {"scheme": "central"},
    {"scheme": "hier", "num_units": 8},       # unit ids 0..7 ride its *_global messages
    {"scheme": "hier", "num_units": 1, "cores_per_unit": 65},  # local ids 0..63
    {"scheme": "syncron", "num_units": 1, "cores_per_unit": 65},  # packed ids 0..63
    {"scheme": "ideal", "num_units": 8},      # no messages at all
    {"scheme": "syncron", "num_units": 8, "cores_per_unit": 8},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_widest_core_id_that_fits_is_accepted(kwargs):
    SystemConfig(**kwargs)


def test_wire_field_limits_apply_only_to_schemes_that_send_messages():
    # a hier unit's id rides in the core id field of its *_global messages
    with pytest.raises(ConfigError, match="core id 64"):
        SystemConfig(scheme="hier", num_units=65, cores_per_unit=2)
    with pytest.raises(ConfigError, match="past 64 bits"):
        SystemConfig(scheme="hier", num_units=2, unit_mem_bytes=1 << 64)
    SystemConfig(scheme="ideal", num_units=65, cores_per_unit=2)
    SystemConfig(scheme="ideal", num_units=2, unit_mem_bytes=1 << 64)
