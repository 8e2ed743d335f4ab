"""Ablation A1: IHT replacement policies.

The paper's future work names "refining the entry replacement policy for
the IHT".  This ablation compares the paper's LRU replace-half against
LRU-one (classic cache behaviour), FIFO-half, and random-half across the
workload suite, per table size — a (policy × size) preset over the
design-space explorer (:mod:`repro.dse`), trace-driven, so the full grid
stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.osmodel.policies import POLICIES
from repro.utils.tables import TextTable
from repro.workloads.suite import WORKLOAD_NAMES

TABLE_SIZES = (8, 16)


@dataclass(slots=True)
class PolicyRow:
    workload: str
    #: (policy, size) -> miss rate.
    rates: dict[tuple[str, int], float]


@dataclass(slots=True)
class PolicyAblationResult:
    policies: tuple[str, ...]
    sizes: tuple[int, ...]
    rows: list[PolicyRow] = field(default_factory=list)

    def average(self, policy: str, size: int) -> float:
        return sum(row.rates[(policy, size)] for row in self.rows) / len(self.rows)

    def table(self) -> TextTable:
        headers = ["application"] + [
            f"{policy}@{size}" for policy in self.policies for size in self.sizes
        ]
        table = TextTable(
            headers, title="Ablation A1 — replacement policies, miss rate (%)"
        )
        for row in self.rows:
            cells = [row.workload] + [
                f"{100 * row.rates[(policy, size)]:.1f}"
                for policy in self.policies
                for size in self.sizes
            ]
            table.add_row(cells)
        table.add_row(
            ["average"]
            + [
                f"{100 * self.average(policy, size):.1f}"
                for policy in self.policies
                for size in self.sizes
            ]
        )
        return table


def run_policy_ablation(
    scale: str = "default",
    sizes: tuple[int, ...] = TABLE_SIZES,
    policies: tuple[str, ...] | None = None,
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
) -> PolicyAblationResult:
    from repro.dse import ConfigSpace, DseSweep

    chosen = policies or tuple(sorted(POLICIES))
    space = ConfigSpace(
        hash_names=("xor",),
        iht_sizes=tuple(sizes),
        policy_names=chosen,
        miss_penalties=(100,),
        workloads=tuple(workloads),
        scale=scale,
        adversary="none",
    )
    points = DseSweep(space).run().ordered()
    result = PolicyAblationResult(policies=chosen, sizes=sizes)
    for name in workloads:
        rates = {
            (point.config.policy_name, point.config.iht_size):
                point.per_workload[name]["miss_rate"]
            for point in points
        }
        result.rows.append(PolicyRow(workload=name, rates=rates))
    return result
