"""Tests for machine parameter presets and validation."""

import dataclasses

import pytest

from repro.hw import bebop_broadwell, tiny_test_machine


def test_presets_validate():
    bebop_broadwell().validate()
    tiny_test_machine().validate()


def test_bebop_matches_paper_headline_numbers():
    p = bebop_broadwell()
    # §IV-A: OPA with 97 M msg/s and 100 Gbps
    assert p.nic_msg_rate == 97e6
    assert p.nic_bandwidth == 12.5e9


def test_derived_copy_lanes():
    p = tiny_test_machine()
    assert p.derived_copy_lanes() == 10


def test_with_overrides_returns_new_instance():
    p = tiny_test_machine()
    q = p.with_overrides(wire_latency=5e-6)
    assert q.wire_latency == 5e-6
    assert p.wire_latency == 1e-6


def test_frozen():
    p = tiny_test_machine()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.wire_latency = 0.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("nic_bandwidth", -1.0),
        ("wire_latency", 0.0),
        ("send_overhead", -1e-6),
        ("page_size", 0),
        ("eager_threshold", -1),
    ],
)
def test_validate_rejects_bad_values(field, value):
    p = tiny_test_machine().with_overrides(**{field: value})
    with pytest.raises(ValueError):
        p.validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("send_overhead", float("nan")),
        ("core_copy_bw", float("nan")),
        ("page_size", float("nan")),
        ("wire_latency", float("inf")),
        ("pip_flag_time", float("inf")),
        ("fabric_bandwidth", float("nan")),
        ("eager_threshold", True),
        ("copy_latency", "0"),
    ],
    ids=repr,
)
def test_validate_rejects_non_finite_values(field, value):
    """NaN fails every ordering check, so each field must be a finite
    number explicitly; a bool or a string is not one."""
    p = tiny_test_machine().with_overrides(**{field: value})
    with pytest.raises(ValueError, match=field):
        p.validate()


def test_validate_accepts_numpy_numbers_and_no_fabric():
    import numpy as np

    tiny_test_machine().with_overrides(
        eager_threshold=np.int64(4096), wire_latency=np.float64(2e-6),
        fabric_bandwidth=None,
    ).validate()


def test_validate_rejects_inconsistent_rates():
    p = tiny_test_machine().with_overrides(proc_msg_rate=1e9)
    with pytest.raises(ValueError):
        p.validate()
    p = tiny_test_machine().with_overrides(core_copy_bw=1e12)
    with pytest.raises(ValueError):
        p.validate()
