"""Figure 6: IHT miss rate of the nine applications vs table size.

The paper sweeps table sizes 1, 8, 16, 32 under the OS-managed LRU
replace-half policy and reports per-application miss rates as a bar chart.
Exact bar values are not tabulated in the text, so the comparison column
carries the paper's *qualitative* findings: dijkstra, patricia, blowfish
and bitcount drop sharply at 8 entries; every application drops
significantly at 32; stringsearch stays high through 16.

The sweep itself is a one-axis preset over the design-space explorer
(:mod:`repro.dse`): one hash, one policy, the size ladder, no adversary —
the engine replays each workload's recorded trace per size exactly as the
hand-rolled loop used to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.tables import TextTable
from repro.workloads.suite import WORKLOAD_NAMES

TABLE_SIZES = (1, 8, 16, 32)

#: Paper's qualitative expectation per application (from Section 6.1).
PAPER_NOTES = {
    "basicmath": "moderate at 8, near zero by 16",
    "susan": "near zero from 8 entries on",
    "dijkstra": "greatly reduced at 8",
    "patricia": "greatly reduced at 8, residual at 16",
    "blowfish": "reduced at 8 but stays significant through 16",
    "rijndael": "high at 8, gone at 16",
    "sha": "high at 8, gone at 16",
    "stringsearch": "stays high through 16 (worst locality)",
    "bitcount": "near zero from 8 entries on",
}


@dataclass(slots=True)
class Fig6Row:
    workload: str
    lookups: int
    miss_rates: dict[int, float]  # size -> rate in [0, 1]
    note: str = ""


@dataclass(slots=True)
class Fig6Result:
    rows: list[Fig6Row] = field(default_factory=list)

    def miss_rate(self, workload: str, size: int) -> float:
        for row in self.rows:
            if row.workload == workload:
                return row.miss_rates[size]
        raise KeyError(workload)

    def sizes(self) -> tuple[int, ...]:
        """The swept table sizes (whatever grid produced the rows)."""
        if not self.rows:
            return TABLE_SIZES
        return tuple(sorted(self.rows[0].miss_rates))

    def table(self) -> TextTable:
        sizes = self.sizes()
        headers = ["application", "block execs"] + [
            f"{size} entries" for size in sizes
        ] + ["paper (qualitative)"]
        table = TextTable(headers, title="Figure 6 — IHT miss rate (%)")
        for row in self.rows:
            cells = [row.workload, row.lookups]
            cells += [f"{100 * row.miss_rates[size]:.1f}" for size in sizes]
            cells.append(row.note)
            table.add_row(cells)
        return table


def run_fig6(
    scale: str = "default",
    sizes: tuple[int, ...] = TABLE_SIZES,
    policy_name: str = "lru_half",
    hash_name: str = "xor",
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> Fig6Result:
    """Trace-driven sweep of IHT sizes over the workload suite."""
    from repro.dse import ConfigSpace, DseSweep

    space = ConfigSpace(
        hash_names=(hash_name,),
        iht_sizes=tuple(sizes),
        policy_names=(policy_name,),
        miss_penalties=(100,),
        workloads=tuple(workloads),
        scale=scale,
        adversary="none",
    )
    points = DseSweep(space).run().ordered()
    result = Fig6Result()
    for name in workloads:
        rates = {
            point.config.iht_size: point.per_workload[name]["miss_rate"]
            for point in points
        }
        result.rows.append(
            Fig6Row(
                workload=name,
                lookups=points[0].per_workload[name]["lookups"],
                miss_rates=rates,
                note=PAPER_NOTES.get(name, ""),
            )
        )
    return result
