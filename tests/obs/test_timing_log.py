"""Structured logging."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.errors import ConfigError
from repro.obs.log import configure_logging, get_logger


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------

def test_configure_logging_is_idempotent():
    logger = configure_logging(level="info")
    assert len(logger.handlers) == 1
    again = configure_logging(level="debug")
    assert again is logger
    assert len(logger.handlers) == 1
    assert logger.level == logging.DEBUG
    configure_logging()  # restore the default for other tests
    assert logger.level == logging.WARNING


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ConfigError, match="unknown log level"):
        configure_logging(level="chatty")


def test_json_mode_emits_one_object_per_line_with_extras():
    stream = io.StringIO()
    configure_logging(level="info", json_mode=True, stream=stream)
    try:
        get_logger("service").warning(
            "worker died; respawning",
            extra={"worker_id": 3, "exitcode": -9},
        )
        get_logger("server").info("connection opened")
    finally:
        configure_logging()
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["level"] == "warning"
    assert first["logger"] == "repro.service"
    assert first["msg"] == "worker died; respawning"
    assert first["worker_id"] == 3
    assert first["exitcode"] == -9
    assert isinstance(first["ts"], float)
    second = json.loads(lines[1])
    assert second["logger"] == "repro.server"


def test_json_mode_survives_unserialisable_extras():
    stream = io.StringIO()
    configure_logging(level="info", json_mode=True, stream=stream)
    try:
        get_logger("service").info("odd", extra={"payload": {1, 2}})
    finally:
        configure_logging()
    payload = json.loads(stream.getvalue())
    assert "1" in payload["payload"]  # repr() fallback


def test_text_mode_appends_extras_as_key_value():
    stream = io.StringIO()
    configure_logging(level="info", json_mode=False, stream=stream)
    try:
        get_logger("service").warning(
            "requeueing in-flight chunk after worker crash",
            extra={"vectors": 8},
        )
    finally:
        configure_logging()
    line = stream.getvalue().strip()
    assert "repro.service" in line
    assert "requeueing in-flight chunk" in line
    assert "vectors=8" in line


def test_level_threshold_filters():
    stream = io.StringIO()
    configure_logging(level="error", stream=stream)
    try:
        get_logger("service").warning("below threshold")
        get_logger("service").error("above threshold")
    finally:
        configure_logging()
    output = stream.getvalue()
    assert "below threshold" not in output
    assert "above threshold" in output


def test_get_logger_prefixing():
    assert get_logger().name == "repro"
    assert get_logger("service").name == "repro.service"
    assert get_logger("repro.server").name == "repro.server"
    assert get_logger("repro").name == "repro"
