"""Processor simulators.

Two simulators execute the same ISA with the same architected semantics:

* :class:`~repro.pipeline.funcsim.FuncSim` — a functional instruction-set
  simulator with an analytical cycle model (a scoreboard replicating the
  5-stage pipeline's hazard rules), run as a predecoded interpreter over a
  shared :class:`~repro.pipeline.funcsim.DecodeCache`.  Fast; the golden
  model for differential tests and the engine behind large evaluation
  sweeps.
* :class:`~repro.pipeline.cpu.PipelineCPU` — a cycle-level, stage-latch
  simulator of the single-issue in-order pipeline that executes the
  monitoring *microoperations* embedded in the IF and ID stages, exactly as
  the paper's Figures 3 and 4 specify.

Both share :mod:`~repro.pipeline.semantics` (instruction behaviour),
:mod:`~repro.pipeline.memory` (paged byte memory),
:mod:`~repro.pipeline.syscalls` (OS call model) and
:mod:`~repro.pipeline.hazards` (cycle-cost parameters), so any divergence
between them is a bug the differential tests catch.
"""

from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import DecodeCache, FuncSim, RunResult
from repro.pipeline.hazards import CycleModel
from repro.pipeline.memory import Memory
from repro.pipeline.state import ArchState
from repro.pipeline.trace import BlockEvent, BlockTrace

__all__ = [
    "ArchState",
    "BlockEvent",
    "BlockTrace",
    "CycleModel",
    "DecodeCache",
    "FuncSim",
    "Memory",
    "PipelineCPU",
    "RunResult",
]
