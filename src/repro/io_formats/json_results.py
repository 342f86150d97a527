"""JSON export of experiment results.

Experiment drivers return dataclasses; this serialiser turns them (and
the statistics objects they embed) into plain JSON for archiving runs,
e.g. ``halotis experiment table1 --json out.json``.
"""

from __future__ import annotations

import dataclasses
import io
import json
from enum import Enum
from typing import Any, Mapping, Union


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):  # result rows included
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy scalars/arrays
        return value.tolist()
    return repr(value)


def dump_results(results: Any, output: Union[str, io.TextIOBase]) -> None:
    """Serialise ``results`` (dataclass / dict / list tree) as JSON."""
    payload = _plain(results)
    own_handle = isinstance(output, str)
    handle = open(output, "w") if own_handle else output
    try:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    finally:
        if own_handle:
            handle.close()
