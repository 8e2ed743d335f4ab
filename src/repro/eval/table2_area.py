"""Table 2: cycle time and cell area of the monitored processors.

"Synthesizes" (through the component-level cost model of
:mod:`repro.area`) the baseline processor and the 1/8/16-entry CIC
variants, reporting minimum period and cell area against the paper's
Synopsys DC / TSMC 0.18 µ numbers.

The paper's per-configuration period wobble (−0.2 % … +0.5 %) is synthesis
noise around an unchanged critical path; the deterministic model reports
the structural result — the EX stage stays critical, so the period is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.area.synthesis import SynthesisReport, synthesize
from repro.utils.tables import TextTable

CONFIGURATIONS: tuple[int | None, ...] = (None, 1, 8, 16)

#: Paper Table 2: period ns, period overhead %, area um^2, area overhead %.
PAPER_TABLE2 = {
    None: (37.90, 0.0, 2_136_594, 0.0),
    1: (37.93, 0.1, 2_193_510, 2.7),
    8: (37.82, -0.2, 2_489_737, 16.5),
    16: (38.10, 0.5, 2_750_976, 28.8),
}


@dataclass(slots=True)
class Table2Row:
    entries: int | None
    report: SynthesisReport
    period_overhead: float
    area_overhead: float

    @property
    def label(self) -> str:
        if self.entries is None:
            return "baseline"
        return f"{self.entries}-entry table"


@dataclass(slots=True)
class Table2Result:
    rows: list[Table2Row] = field(default_factory=list)

    def row(self, entries: int | None) -> Table2Row:
        for row in self.rows:
            if row.entries == entries:
                return row
        raise KeyError(entries)

    def table(self) -> TextTable:
        table = TextTable(
            [
                "design", "period ns", "period ovhd %", "area um2",
                "area ovhd %", "paper area um2", "paper area ovhd %",
            ],
            title="Table 2 — cycle time and area overheads",
        )
        for row in self.rows:
            paper = PAPER_TABLE2.get(row.entries)
            table.add_row(
                [
                    row.label,
                    f"{row.report.min_period:.2f}",
                    f"{row.period_overhead:.1f}",
                    f"{row.report.cell_area:,.0f}",
                    f"{row.area_overhead:.1f}",
                    f"{paper[2]:,}" if paper else "-",
                    f"{paper[3]:.1f}" if paper else "-",
                ]
            )
        return table


def run_table2(
    configurations: tuple[int | None, ...] = CONFIGURATIONS,
    hash_name: str = "xor",
) -> Table2Result:
    """Synthesize every configuration and compute overheads vs baseline."""
    baseline = synthesize(None)
    result = Table2Result()
    for entries in configurations:
        report = baseline if entries is None else synthesize(entries, hash_name)
        result.rows.append(
            Table2Row(
                entries=entries,
                report=report,
                period_overhead=report.period_overhead(baseline),
                area_overhead=report.area_overhead(baseline),
            )
        )
    return result
