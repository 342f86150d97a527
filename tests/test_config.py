"""SimulationConfig semantics."""

import dataclasses

import pytest

from repro.config import (
    DelayMode,
    InertialPolicy,
    SimulationConfig,
    cdm_config,
    ddm_config,
)
from repro.errors import ConfigError, ReproError


def test_default_config_is_ddm_event_order():
    config = SimulationConfig()
    assert config.delay_mode is DelayMode.DDM
    assert config.inertial_policy is InertialPolicy.EVENT_ORDER
    config.validate()


def test_convenience_constructors():
    assert ddm_config().delay_mode is DelayMode.DDM
    assert cdm_config().delay_mode is DelayMode.CDM


def test_with_mode_changes_only_mode():
    base = ddm_config(max_events=123, record_filtered=True)
    other = base.with_mode(DelayMode.CDM)
    assert other.delay_mode is DelayMode.CDM
    assert other.max_events == 123
    assert other.record_filtered is True
    # the original is untouched
    assert base.delay_mode is DelayMode.DDM


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_events", 0),
        ("max_events", -5),
        ("min_delay", 0.0),
        ("min_delay", -1.0),
        ("time_resolution", -1e-9),
        ("default_input_slew", 0.0),
        ("batch_jobs", 0),
        ("batch_jobs", -2),
        ("service_workers", 0),
        ("service_workers", -3),
        ("server_host", ""),
        ("server_port", -1),
        ("server_port", 70000),
        ("server_max_netlists", 0),
        ("server_queue_depth", 0),
        # a policy's value is not a policy: validate() is the one check
        ("inertial_policy", "event-order"),
        # nor is a mode's value a mode (it would silently run CDM)
        ("delay_mode", "ddm"),
    ],
)
def test_validate_rejects_bad_values(field, value):
    config = dataclasses.replace(SimulationConfig(), **{field: value})
    with pytest.raises(ConfigError) as caught:
        config.validate()
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)


def test_configs_are_plain_dataclasses():
    config = SimulationConfig()
    clone = dataclasses.replace(config)
    assert clone == config


def test_batch_knob_defaults():
    config = SimulationConfig()
    assert config.batch_jobs == 1
    ddm_config(batch_jobs=4).validate()


def test_service_knob_defaults():
    config = SimulationConfig()
    assert config.service_workers == 2
    ddm_config(service_workers=4).validate()


def test_server_knob_defaults():
    config = SimulationConfig()
    assert config.server_host == "127.0.0.1"
    assert 0 <= config.server_port <= 65535
    assert config.server_max_netlists >= 1
    assert config.server_queue_depth >= 1
    ddm_config(server_port=0, server_max_netlists=2,
               server_queue_depth=4).validate()
