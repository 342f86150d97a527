"""Structured logging for the repro stack.

Plain stdlib ``logging`` underneath — the only additions are a JSON
formatter (one object per line, stable keys, ``extra`` fields surfaced)
and one place (:func:`configure_logging`) where the CLI's
``--log-level`` / ``--log-json`` flags land.  Libraries call
:func:`get_logger` and log with ``extra={...}`` context; they never
configure handlers themselves, so embedding the package in another
application keeps working.

The previously *silent* failure paths — service worker crash respawns,
task requeues, retry-budget exhaustion — log through here (logger
``repro.service``) alongside their new counters.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Optional, TextIO

from ..errors import ConfigError

__all__ = ["JsonLogFormatter", "configure_logging", "get_logger"]

ROOT_LOGGER_NAME = "repro"

#: ``LogRecord`` attributes that are plumbing, not caller-supplied
#: context.  Anything on a record beyond these came in via ``extra=``
#: and belongs in the JSON payload.
_RESERVED = frozenset(
    (
        "name", "msg", "args", "levelname", "levelno", "pathname",
        "filename", "module", "exc_info", "exc_text", "stack_info",
        "lineno", "funcName", "created", "msecs", "relativeCreated",
        "thread", "threadName", "processName", "process", "message",
        "taskName", "asctime",
    )
)


class JsonLogFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, msg, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_"):
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            payload[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=False)


class _TextFormatter(logging.Formatter):
    """Human format mirroring the JSON keys: time level logger msg k=v."""

    converter = time.localtime

    def format(self, record: logging.LogRecord) -> str:
        base = "%s %-7s %s: %s" % (
            self.formatTime(record, "%H:%M:%S"),
            record.levelname.lower(),
            record.name,
            record.getMessage(),
        )
        extras = [
            "%s=%r" % (key, value)
            for key, value in sorted(record.__dict__.items())
            if key not in _RESERVED and not key.startswith("_")
        ]
        if extras:
            base += " " + " ".join(extras)
        if record.exc_info and record.exc_info[0] is not None:
            base += "\n" + self.formatException(record.exc_info)
        return base


def configure_logging(
    level: str = "warning",
    json_mode: bool = False,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree; returns the root logger.

    Idempotent — repeated calls replace the handler rather than stack
    duplicates, so tests and the CLI can call it freely.  Only the
    ``repro`` subtree is touched; the process root logger is left alone.
    """
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ConfigError("unknown log level: %r" % level)
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    logger.setLevel(numeric)
    logger.propagate = False
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter() if json_mode else _TextFormatter())
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    return logger


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` tree (``repro.<name>``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + ".") or name == ROOT_LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(ROOT_LOGGER_NAME + "." + name)
