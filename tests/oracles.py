"""Slow reference implementations the fast paths are pinned against.

:func:`monitored_run` is a whole monitored simulation on the functional
ISS.  Table 1 and the DSE ``cycle_overhead`` objective derive the same
numbers from one unmonitored traced run plus IHT trace replay; the tests
that import this module compare the two.
"""

from __future__ import annotations

from functools import lru_cache

from repro.osmodel.loader import load_process
from repro.pipeline.funcsim import FuncSim, RunResult
from repro.workloads.suite import build, workload_inputs


@lru_cache(maxsize=None)
def monitored_run(
    name: str,
    iht_size: int,
    scale: str = "default",
    hash_name: str = "xor",
    policy_name: str = "lru_half",
    miss_penalty: int = 100,
) -> RunResult:
    """Monitored run of workload *name* under the OS-managed CIC."""
    program = build(name, scale)
    process = load_process(
        program,
        iht_size=iht_size,
        hash_name=hash_name,
        policy_name=policy_name,
        miss_penalty=miss_penalty,
    )
    simulator = FuncSim(
        program, monitor=process.monitor, inputs=workload_inputs(name, scale)
    )
    return simulator.run()
