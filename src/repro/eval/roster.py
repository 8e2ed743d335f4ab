"""The paper's evaluation roster: every table and figure, in order.

One definition shared by ``repro experiments`` and
``examples/paper_experiments.py``.  Each artifact is named by the stem of
the file it is written to under ``results/``:

=====================  ====================================================
results file           paper artifact
=====================  ====================================================
fig6_miss_rate.txt     Figure 6 — IHT miss rate vs table size
table1_cycles.txt      Table 1 — cycle overhead of integrity checking
table2_area.txt        Table 2 — synthesis cycle time and cell area
fault_analysis_xor.txt Section 6.3 — fault detection coverage
ablation_policies.txt  Ablation A1 — IHT replacement policies
ablation_hashes.txt    Ablation A2 — HASHFU algorithms
=====================  ====================================================
"""

from __future__ import annotations

import pathlib
from typing import Iterator

from repro.eval.ablation_hashes import run_hash_ablation
from repro.eval.ablation_policies import run_policy_ablation
from repro.eval.fault_analysis import run_fault_analysis
from repro.eval.fig6_miss_rate import run_fig6
from repro.eval.table1_cycles import run_table1
from repro.eval.table2_area import run_table2


def paper_artifacts(scale: str = "default") -> Iterator[tuple[str, object]]:
    """Yield ``(name, result)`` for each artifact in the table's order,
    computing each only when it is reached.

    Every result renders with ``.table()``.  The fault analysis and the
    hash ablation inject faults, so they run at ``small`` scale unless
    *scale* is ``tiny``.
    """
    fault_scale = "tiny" if scale == "tiny" else "small"
    yield "fig6_miss_rate", run_fig6(scale=scale)
    yield "table1_cycles", run_table1(scale=scale)
    yield "table2_area", run_table2()
    yield "fault_analysis_xor", run_fault_analysis(
        workload="dijkstra",
        scale=fault_scale,
        single_bit_count=150,
        multi_bit_count=60,
    )
    yield "ablation_policies", run_policy_ablation(scale=scale)
    yield "ablation_hashes", run_hash_ablation(
        workload="dijkstra", scale=fault_scale, pair_count=40
    )


def write_paper_artifacts(
    directory: str | pathlib.Path, scale: str = "default"
) -> None:
    """Render every artifact to ``<directory>/<name>.txt``, printing each
    table as it is written."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, result in paper_artifacts(scale):
        text = result.table().render()
        path = directory / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"{text}\n[saved to {path}]\n")
