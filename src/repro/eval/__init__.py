"""Evaluation harnesses — one driver per paper table/figure.

Each module exposes a ``run(...)`` function returning a result object with
typed rows plus a rendered :class:`~repro.utils.tables.TextTable`, and the
paper's reported numbers for side-by-side comparison.  The benchmark
harnesses under ``benchmarks/`` and the roster (``repro experiments``,
``examples/paper_experiments.py``) drive these and write the outputs
under ``results/``.

* :mod:`repro.eval.fig6_miss_rate` — Figure 6: IHT miss rate vs table size.
* :mod:`repro.eval.table1_cycles` — Table 1: cycle counts and overheads.
* :mod:`repro.eval.table2_area` — Table 2: synthesis area/period.
* :mod:`repro.eval.fault_analysis` — Section 6.3: detection coverage.
* :mod:`repro.eval.attack_coverage` — adversarial detection matrix
  (rate + latency per attack class × hash × policy).
* :mod:`repro.eval.ablation_policies` — replacement-policy ablation (A1).
* :mod:`repro.eval.ablation_hashes` — hash-algorithm ablation (A2).
* :mod:`repro.eval.roster` — all of the paper's artifacts in order
  (:func:`paper_artifacts`), behind ``repro experiments``.

The Figure-6 and ablation sweeps are thin presets over the design-space
explorer (:mod:`repro.dse`), which generalizes them to arbitrary
hash × IHT × policy × penalty grids with Pareto frontier reports.
"""

from repro.eval.fig6_miss_rate import run_fig6
from repro.eval.table1_cycles import run_table1
from repro.eval.table2_area import run_table2
from repro.eval.attack_coverage import run_attack_coverage
from repro.eval.fault_analysis import run_fault_analysis
from repro.eval.ablation_policies import run_policy_ablation
from repro.eval.ablation_hashes import run_hash_ablation
from repro.eval.roster import paper_artifacts, write_paper_artifacts

__all__ = [
    "paper_artifacts",
    "run_attack_coverage",
    "run_fault_analysis",
    "run_fig6",
    "run_hash_ablation",
    "run_policy_ablation",
    "run_table1",
    "run_table2",
    "write_paper_artifacts",
]
