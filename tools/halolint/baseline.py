"""Grandfathered findings.

A baseline entry matches a finding by *fingerprint* — a hash of the
rule id, the file and the message, deliberately excluding the line
number so unrelated edits above a grandfathered site do not resurrect
it.  Entries count: ``k`` entries with one fingerprint grandfather at
most ``k`` findings with it, so a second copy of a grandfathered finding
in the same file is fresh.  Removing an entry (or fixing the code)
un-grandfathers the finding and the next run fails again;
``tests/halolint/test_baseline.py`` pins that round trip.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.findings import Finding

_VERSION = 1


def fingerprint(finding: Finding) -> str:
    """Line-number-free identity of a finding (rule | file | message)."""
    key = "%s|%s|%s" % (finding.rule, finding.file or "", finding.message)
    return hashlib.sha256(key.encode()).hexdigest()[:16]


class Baseline:
    """The set of grandfathered finding fingerprints."""

    def __init__(self, entries: Optional[Sequence[Dict[str, object]]] = None):
        self.entries: List[Dict[str, object]] = list(entries or [])

    @property
    def fingerprints(self) -> set[str]:
        return {str(entry["fingerprint"]) for entry in self.entries}

    @classmethod
    def load(cls, path: Path) -> Baseline:
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.is_file():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if (
            not isinstance(payload, dict)
            or payload.get("version") != _VERSION
            or not isinstance(payload.get("entries"), list)
        ):
            raise ValueError(
                "%s is not a halolint baseline (need {'version': %d, "
                "'entries': [...]})" % (path, _VERSION)
            )
        return cls(payload["entries"])

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> Baseline:
        """Grandfather ``findings`` (what ``--write-baseline`` stores)."""
        return cls([
            {
                "fingerprint": fingerprint(finding),
                "rule": finding.rule,
                "file": finding.file,
                "message": finding.message,
            }
            for finding in findings
        ])

    def save(self, path: Path) -> None:
        ordered = sorted(
            self.entries,
            key=lambda e: (str(e.get("rule")), str(e.get("file")),
                           str(e.get("message"))),
        )
        Path(path).write_text(
            json.dumps({"version": _VERSION, "entries": ordered}, indent=2)
            + "\n",
            encoding="utf-8",
        )

    def split(
        self, findings: Sequence[Finding]
    ) -> tuple[List[Finding], int, List[str]]:
        """Partition findings against the baseline.

        Returns ``(fresh, grandfathered_count, stale_fingerprints)`` —
        fresh findings gate the run; stale fingerprints (one per unused
        entry) matched nothing (the grandfathered code was fixed) and
        should be pruned.  Each entry absorbs one finding: findings past
        the entry count of their fingerprint are fresh.
        """
        budget = Counter(str(entry["fingerprint"]) for entry in self.entries)
        fresh: List[Finding] = []
        for finding in findings:
            mark = fingerprint(finding)
            if budget[mark] > 0:
                budget[mark] -= 1
            else:
                fresh.append(finding)
        stale = sorted(budget.elements())
        return fresh, len(findings) - len(fresh), stale
