"""Shared test fixtures and helpers."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.asm.assembler import assemble
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim

#: ``HYPOTHESIS_PROFILE=ci`` (set on the CI tier-1 step) explores ten times
#: as many generated cases as a local run: the built-in default of 100
#: examples becomes 1000, and tests that pin their own budget scale it
#: through :func:`examples`.
EXAMPLES_FACTOR = 10
settings.register_profile("ci", max_examples=100 * EXAMPLES_FACTOR)
_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(_PROFILE)


def examples(local: int) -> int:
    """``max_examples`` for a test whose local budget is *local*."""
    return local * EXAMPLES_FACTOR if _PROFILE == "ci" else local


EXIT_SNIPPET = """
        li   $v0, 10
        syscall
"""


def assemble_with_exit(body: str, name: str = "test"):
    """Assemble *body* with a standard exit appended."""
    return assemble(body + EXIT_SNIPPET, name=name)


def run_both(program, **kwargs):
    """Run on both engines; assert architected equivalence; return results."""
    func_result = FuncSim(program, **kwargs).run()
    pipe_result = PipelineCPU(program, **kwargs).run()
    assert func_result.console == pipe_result.console
    assert func_result.exit_code == pipe_result.exit_code
    assert func_result.instructions == pipe_result.instructions
    assert func_result.cycles == pipe_result.cycles, (
        f"cycle mismatch: funcsim={func_result.cycles} "
        f"pipeline={pipe_result.cycles}"
    )
    return func_result, pipe_result


@pytest.fixture
def run_source():
    """Fixture: assemble a snippet (exit appended) and run on both engines."""

    def runner(body: str, **kwargs):
        program = assemble_with_exit(body)
        return run_both(program, **kwargs)[0]

    return runner
