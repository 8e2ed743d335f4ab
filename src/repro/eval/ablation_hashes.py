"""Ablation A2: hash algorithms for the HASHFU.

The paper evaluates the XOR checksum and names stronger hashes (MD5,
SHA-1) as future work, noting cryptographic units "can hardly keep up with
the speed of processor pipelines".  This ablation quantifies the design
space on three axes per algorithm:

* **adversarial coverage** — detection rate against the same-column
  two-bit faults that defeat XOR,
* **hardware cost** — HASHFU area from the cell model,
* **update-path delay** — whether the algorithm fits the IF stage's slack
  (the SHA-1 datapath spectacularly does not, supporting the paper's
  argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.area.components import hashfu_area, hashfu_delay
from repro.area.synthesis import _BASE_STAGE_DELAY
from repro.cic.hashes import HASH_ALGORITHMS
from repro.utils.tables import TextTable


@dataclass(slots=True)
class HashRow:
    hash_name: str
    adversarial_coverage: float
    area: float
    delay: float
    fits_if_stage: bool


@dataclass(slots=True)
class HashAblationResult:
    workload: str
    rows: list[HashRow] = field(default_factory=list)

    def row(self, hash_name: str) -> HashRow:
        for row in self.rows:
            if row.hash_name == hash_name:
                return row
        raise KeyError(hash_name)

    def table(self) -> TextTable:
        table = TextTable(
            [
                "hash", "same-column 2-bit coverage %", "HASHFU area um2",
                "update delay ns", "fits IF stage",
            ],
            title=f"Ablation A2 — hash algorithms ({self.workload})",
        )
        for row in self.rows:
            table.add_row(
                [
                    row.hash_name,
                    f"{100 * row.adversarial_coverage:.1f}",
                    f"{row.area:,.0f}",
                    f"{row.delay:.2f}",
                    "yes" if row.fits_if_stage else "NO",
                ]
            )
        return table


def run_hash_ablation(
    workload: str = "dijkstra",
    scale: str = "small",
    pair_count: int = 40,
    iht_size: int = 8,
    seed: int = 7,
    hashes: tuple[str, ...] | None = None,
) -> HashAblationResult:
    from repro.dse import ConfigSpace, DseSweep

    names = hashes or tuple(sorted(HASH_ALGORITHMS))
    if_slack = _BASE_STAGE_DELAY["IF"]
    space = ConfigSpace(
        hash_names=names,
        iht_sizes=(iht_size,),
        policy_names=("lru_half",),
        miss_penalties=(100,),
        workloads=(workload,),
        scale=scale,
        adversary="same-column",
        pair_count=pair_count,
    )
    points = DseSweep(space, seed=seed).run().ordered()
    result = HashAblationResult(workload=workload)
    for point in points:
        hash_name = point.config.hash_name
        result.rows.append(
            HashRow(
                hash_name=hash_name,
                adversarial_coverage=point.objectives["detection_rate"],
                area=hashfu_area(hash_name),
                delay=hashfu_delay(hash_name),
                fits_if_stage=hashfu_delay(hash_name) < if_slack,
            )
        )
    return result
