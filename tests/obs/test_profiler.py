"""The phase profiler is a pure observer: identical RunResult, restored sim."""

import pytest

from repro.asm.assembler import assemble
from repro.obs.profiler import PHASES, PhaseProfiler, _MonitorProxy
from repro.osmodel.loader import load_process
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim

SOURCE = """
main:   li $t0, 5
        li $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""

ENGINES = (FuncSim, PipelineCPU)


def build(engine, monitored=True):
    program = assemble(SOURCE, name="profiled")
    monitor = load_process(program, iht_size=4).monitor if monitored else None
    return engine(program, monitor=monitor)


def result_key(result):
    return (
        result.exit_code,
        result.instructions,
        result.cycles,
        result.console,
    )


@pytest.mark.parametrize("engine", ENGINES)
class TestObserverOnly:
    def test_profiled_run_result_identical(self, engine):
        plain = build(engine).run()
        sim = build(engine)
        profiler = PhaseProfiler().attach(sim)
        profiled = sim.run()
        assert result_key(profiled) == result_key(plain)
        assert (
            profiled.monitor_stats.lookups == plain.monitor_stats.lookups
        )
        assert profiled.monitor_stats.misses == plain.monitor_stats.misses

    def test_monitor_proxy_forwards_attributes(self, engine):
        sim = build(engine)
        monitor = sim.monitor
        PhaseProfiler().attach(sim)
        result = sim.run()
        # The proxy forwards .stats (and everything else) to the wrapped
        # monitor, so the reported stats are the real monitor's.
        assert result.monitor_stats == monitor.stats
        assert sim.monitor.iht is monitor.iht

    def test_phases_observed(self, engine):
        sim = build(engine)
        profiler = PhaseProfiler().attach(sim)
        sim.run()
        report = profiler.report()
        assert set(report) == set(PHASES)
        for phase in ("fetch", "decode", "execute", "monitor"):
            assert report[phase]["calls"] > 0, phase
        total_share = sum(entry["share"] for entry in report.values())
        assert total_share == pytest.approx(1.0)

    def test_detach_restores_instance(self, engine):
        sim = build(engine)
        profiler = PhaseProfiler().attach(sim)
        assert isinstance(sim.monitor, _MonitorProxy)
        profiler.detach()
        assert not isinstance(sim.monitor, _MonitorProxy)
        # No shadowing instance attribute left: the binder resolves on the class.
        assert "_bind_phases" not in vars(sim)

    def test_unmonitored_run_profiles_without_monitor_bucket(self, engine):
        sim = build(engine, monitored=False)
        profiler = PhaseProfiler().attach(sim)
        sim.run()
        assert profiler.report()["monitor"]["calls"] == 0


class TestAttachment:
    def test_double_attach_rejected(self):
        sim = build(FuncSim)
        profiler = PhaseProfiler().attach(sim)
        with pytest.raises(RuntimeError, match="already attached"):
            profiler.attach(build(FuncSim))

    def test_unprofilable_object_rejected(self):
        with pytest.raises(TypeError, match="cannot profile"):
            PhaseProfiler().attach(object())

    def test_render_is_a_table(self):
        sim = build(FuncSim)
        profiler = PhaseProfiler().attach(sim)
        sim.run()
        text = profiler.render()
        assert "phase" in text
        for phase in PHASES:
            assert phase in text
