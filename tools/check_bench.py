"""Validator for the shared ``BENCH_*.json`` benchmark artifact schema.

Every benchmark that feeds the performance trajectory attaches one
record at ``benchmarks[].extra_info.bench`` via the ``bench_record``
fixture (``benchmarks/conftest.py``)::

    {"schema": 1, "name": "bitparallel-speedup",
     "config": {...workload knobs...},
     "measured": {...numbers the gate asserted on...}}

This tool checks every record in one or more pytest-benchmark JSON
artifacts: ``schema`` matches, ``name`` is a non-empty string, ``config``
is a JSON object of scalars, and every ``measured`` value is a finite
number (that is what trajectory tooling plots).  Benchmarks without a
``bench`` record are reported (``--require-all`` turns them into
failures for the gated speedup suites).

``--stamp`` post-processes each artifact in place, injecting a
top-level ``bench_stamp`` object with the capture timestamp and commit
SHA — CI owns provenance, not the benchmark process::

    python tools/check_bench.py BENCH_*.json --stamp --sha "$GITHUB_SHA"

Exit status is non-zero when any record is malformed (or, with
``--require-all``, missing).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, List, Tuple

#: Must match ``benchmarks/conftest.py:BENCH_RECORD_SCHEMA``.
EXPECTED_SCHEMA = 1

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _is_number(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_record(record: Any) -> List[str]:
    """Return the list of problems with one ``bench`` record."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["bench record is %s, not an object" % type(record).__name__]
    if record.get("schema") != EXPECTED_SCHEMA:
        problems.append(
            "schema %r != expected %d" % (record.get("schema"), EXPECTED_SCHEMA)
        )
    name = record.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name %r is not a non-empty string" % (name,))
    config = record.get("config")
    if not isinstance(config, dict):
        problems.append("config is not an object")
    else:
        for key, value in config.items():
            if not isinstance(value, _SCALAR_TYPES):
                problems.append(
                    "config[%r] is %s, not a JSON scalar"
                    % (key, type(value).__name__)
                )
    measured = record.get("measured")
    if not isinstance(measured, dict):
        problems.append("measured is not an object")
    else:
        for key, value in measured.items():
            if not _is_number(value):
                problems.append(
                    "measured[%r] = %r is not a finite number" % (key, value)
                )
    extra = sorted(set(record) - {"schema", "name", "config", "measured"})
    if extra:
        problems.append("unexpected keys: %s" % ", ".join(extra))
    return problems


def check_artifact(path: Path, require_all: bool) -> Tuple[int, int, int]:
    """Validate one artifact; returns (records, missing, broken)."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print("BROKEN %s: unreadable (%s)" % (path, error), file=sys.stderr)
        return 0, 0, 1
    entries = document.get("benchmarks")
    if not isinstance(entries, list):
        print(
            "BROKEN %s: no benchmarks[] array (not a pytest-benchmark "
            "artifact?)" % path,
            file=sys.stderr,
        )
        return 0, 0, 1
    records = missing = broken = 0
    for entry in entries:
        bench_name = entry.get("name", "<unnamed>")
        record = (entry.get("extra_info") or {}).get("bench")
        if record is None:
            missing += 1
            stream = sys.stderr if require_all else sys.stdout
            print(
                "%s %s: %s has no bench record"
                % ("BROKEN" if require_all else "note", path.name, bench_name),
                file=stream,
            )
            continue
        records += 1
        for problem in check_record(record):
            broken += 1
            print(
                "BROKEN %s: %s: %s" % (path.name, bench_name, problem),
                file=sys.stderr,
            )
    return records, missing, broken


def _resolve_sha(explicit: str) -> str:
    if explicit:
        return explicit
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp_artifact(path: Path, sha: str, timestamp: str) -> None:
    """Inject provenance (in place) without touching the records."""
    document = json.loads(path.read_text(encoding="utf-8"))
    document["bench_stamp"] = {
        "schema": EXPECTED_SCHEMA,
        "timestamp": timestamp,
        "sha": sha,
    }
    path.write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate BENCH_*.json bench records (and stamp "
        "provenance)"
    )
    parser.add_argument("artifacts", nargs="+", type=Path,
                        help="pytest-benchmark JSON files")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a benchmark has no bench record")
    parser.add_argument("--stamp", action="store_true",
                        help="inject bench_stamp {timestamp, sha} in place")
    parser.add_argument("--sha", default="",
                        help="commit sha for --stamp (default: git HEAD)")
    args = parser.parse_args(argv)

    total_records = total_missing = total_broken = 0
    for path in args.artifacts:
        records, missing, broken = check_artifact(path, args.require_all)
        total_records += records
        total_missing += missing
        total_broken += broken
    if args.stamp and not total_broken:
        sha = _resolve_sha(args.sha)
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        for path in args.artifacts:
            stamp_artifact(path, sha, timestamp)
    print(
        "%d bench records checked across %d artifacts: %d broken, "
        "%d benchmarks without a record"
        % (total_records, len(args.artifacts), total_broken, total_missing)
    )
    if total_broken or (args.require_all and total_missing):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
