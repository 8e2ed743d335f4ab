"""End-to-end benchmark: regenerate every paper artifact.

Times the library roster (:func:`repro.eval.paper_artifacts`, what
``repro experiments`` runs) at ``small`` scale.  Each run is a fresh
interpreter, so the evaluation caches (baseline traces, FHTs, decode
caches) start cold as they do for a user.  Commits the median roster
wall time over :data:`RUNS` runs with its range, and the median seconds
of each artifact.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

SCALE = "small"
RUNS = 3
ARTIFACTS = [
    "fig6_miss_rate",
    "table1_cycles",
    "table2_area",
    "fault_analysis_xor",
    "ablation_policies",
    "ablation_hashes",
]

_ROSTER = """
import json, sys, time
from repro.eval import paper_artifacts
seconds = {}
began = last = time.perf_counter()
for name, result in paper_artifacts(sys.argv[1]):
    result.table().render()
    now = time.perf_counter()
    seconds[name] = now - last
    last = now
print(json.dumps({"roster": last - began, "artifacts": seconds}))
"""


def run_roster() -> dict:
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    completed = subprocess.run(
        [sys.executable, "-c", _ROSTER, SCALE],
        env=env, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_paper_artifacts_roster(record_bench):
    runs = [run_roster() for _ in range(RUNS)]
    for run in runs:
        assert list(run["artifacts"]) == ARTIFACTS
    roster = [run["roster"] for run in runs]
    record_bench(
        scale=SCALE,
        runs=RUNS,
        roster_s=round(statistics.median(roster), 3),
        roster_s_min=round(min(roster), 3),
        roster_s_max=round(max(roster), 3),
        artifact_s={
            name: round(statistics.median(run["artifacts"][name] for run in runs), 3)
            for name in ARTIFACTS
        },
    )
