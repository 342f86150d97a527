"""Paper Table 1: simulation statistics (events / filtered events).

For both operand sequences the driver runs HALOTIS-DDM and HALOTIS-CDM
and tabulates executed events, filtered events and the CDM activity
overestimation — next to the paper's own numbers.

The shape claims the paper makes (and our benchmarks assert):

* CDM executes substantially more events than DDM (paper: +47%/+52%),
* DDM filters an order of magnitude more events than CDM
  (paper: 27 vs 1 and 66 vs 6).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..analysis.activity import ActivityComparison, compare_activity
from ..analysis.report import Table
from ..config import DelayMode
from . import common


@dataclasses.dataclass
class Table1Result:
    rows: Dict[int, ActivityComparison]

    def format(self) -> str:
        table = Table(
            [
                "sequence",
                "events DDM",
                "events CDM",
                "overst. CDM %",
                "filtered DDM",
                "filtered CDM",
            ],
            title="Table 1 — HALOTIS simulation statistics (measured)",
        )
        for which in sorted(self.rows):
            table.add_row(self.rows[which].as_row())
        reference = Table(
            [
                "sequence",
                "events DDM",
                "events CDM",
                "overst. CDM %",
                "filtered DDM",
                "filtered CDM",
            ],
            title="Table 1 — paper reference values",
        )
        for which in sorted(common.PAPER_TABLE1):
            ddm_events, cdm_events, over, ddm_filtered, cdm_filtered = (
                common.PAPER_TABLE1[which]
            )
            reference.add_row(
                [
                    common.SEQUENCE_LABELS[which],
                    ddm_events,
                    cdm_events,
                    over,
                    ddm_filtered,
                    cdm_filtered,
                ]
            )
        return table.render() + "\n\n" + reference.render()

    def shape_holds(
        self,
        overestimation_band: tuple = (20.0, 110.0),
        filter_ratio_min: float = 5.0,
    ) -> bool:
        """The paper's qualitative claims, as one predicate."""
        for row in self.rows.values():
            if not (
                overestimation_band[0]
                <= row.event_overestimation_percent
                <= overestimation_band[1]
            ):
                return False
            if row.ddm_filtered < filter_ratio_min * max(row.cdm_filtered, 1):
                return False
        return True


def run(record_traces: bool = False) -> Table1Result:
    """Regenerate Table 1 (both sequences, both delay models)."""
    rows: Dict[int, ActivityComparison] = {}
    for which in (1, 2):
        ddm = common.run_halotis(which, DelayMode.DDM, record_traces=record_traces)
        cdm = common.run_halotis(which, DelayMode.CDM, record_traces=record_traces)
        rows[which] = compare_activity(
            common.SEQUENCE_LABELS[which], ddm.stats, cdm.stats
        )
    return Table1Result(rows=rows)
