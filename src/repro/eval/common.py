"""Shared infrastructure for the evaluation harnesses.

Workload traces and baseline runs are cached per (workload, scale): the
Figure 6 sweep and Table 1 replay one recorded trace through many IHT
configurations instead of re-simulating, and Table 1 reuses the same
baseline cycles.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cfg.hashgen import build_fht
from repro.cic.fht import FullHashTable
from repro.cic.hashes import get_hash
from repro.pipeline.funcsim import RunResult, run_program
from repro.workloads.suite import build, workload_inputs


@lru_cache(maxsize=None)
def baseline_run(name: str, scale: str = "default") -> RunResult:
    """Unmonitored run with the block trace collected.

    Uses the same trace-capture path (`run_program(collect_trace=True)`)
    as the campaign engine's golden runs, so Figure-6 replay and the
    campaign backends consume one definition of the recorded trace.
    """
    program = build(name, scale)
    return run_program(
        program, collect_trace=True, inputs=workload_inputs(name, scale)
    )


@lru_cache(maxsize=None)
def workload_fht(name: str, scale: str = "default", hash_name: str = "xor") -> FullHashTable:
    return build_fht(build(name, scale), get_hash(hash_name))
