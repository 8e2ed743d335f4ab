"""Opt-in phase profiler for the simulators: fetch/decode/execute/monitor.

Answers "where does simulated time go on the *host*?" for one
:class:`~repro.pipeline.funcsim.FuncSim` or
:class:`~repro.pipeline.cpu.PipelineCPU` run by bucketing host wall time
into the four phases the paper's pipeline names — fetch, decode,
execute, and the monitor beside them.  Attachment is pure observation:

* both engines run predecoded loops and share one phase-binding
  contract: ``_bind_phases()`` hands ``run()``, once per call, the text
  fetch, the record lookup and the first-fetch translate callables, and
  every record carries its execute phase in a ``handler`` field
  (FuncSim's instruction handler, PipelineCPU's EX-stage value function)
  and copies itself with ``_replace``.  The profiler shadows
  ``_bind_phases`` **on the instance** with a binder that times the
  three callables and hands out twin records with timed handlers — the
  class is untouched, other simulators in the process are unaffected, an
  unprofiled step or cycle pays nothing, and
  :meth:`PhaseProfiler.detach` restores the instance exactly;
* the attached :class:`Monitor`, if any, is replaced by a transparent
  proxy that times ``on_instruction``/``on_block_end`` and forwards
  everything else (``.stats`` included, so ``RunResult.monitor_stats``
  is the very same object either way).

Because every wrapper returns its wrappee's result unchanged, a
profiled run produces an identical :class:`RunResult` — cycles,
instructions, exit code, console, monitor stats — which
``tests/obs/test_profiler.py`` pins.  Attach **before** calling
``run()``: the simulators bind the phases and read ``self.monitor``
into locals at the top of the loop, so wrappers installed mid-run would
never be consulted.

The profiler is deliberately not part of campaign telemetry: per-call
wrappers cost real time on hot loops, so this is a hand tool
(``repro run --profile``) rather than an always-on instrument.
"""

from __future__ import annotations

import time

#: The four paper-named phase buckets, in pipeline order.
PHASES = ("fetch", "decode", "execute", "monitor")

#: The one binder, on either engine, that yields the phase callables.
_BINDER = "_bind_phases"


class _MonitorProxy:
    """Times a monitor's hook calls; forwards everything else untouched."""

    __slots__ = ("_inner", "_profiler")

    def __init__(self, inner, profiler: "PhaseProfiler"):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_profiler", profiler)

    def on_instruction(self, address: int, word: int) -> None:
        start = time.perf_counter()
        try:
            return self._inner.on_instruction(address, word)
        finally:
            self._profiler._charge("monitor", time.perf_counter() - start)

    def on_block_end(self, end_address: int) -> int:
        start = time.perf_counter()
        try:
            return self._inner.on_block_end(end_address)
        finally:
            self._profiler._charge("monitor", time.perf_counter() - start)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)


class PhaseProfiler:
    """Host-time accounting of one simulator run, by pipeline phase."""

    __slots__ = ("buckets", "_sim", "_had_monitor")

    def __init__(self):
        self.buckets: dict[str, dict] = {
            phase: {"calls": 0, "seconds": 0.0} for phase in PHASES
        }
        self._sim = None
        self._had_monitor = False

    def _charge(self, phase: str, seconds: float) -> None:
        entry = self.buckets[phase]
        entry["calls"] += 1
        entry["seconds"] += seconds

    def _wrap(self, phase: str, method):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self._charge(phase, time.perf_counter() - start)

        return timed

    def _timed_binder(self, bind):
        """An engine's ``_bind_phases`` with every phase callable timed."""

        def bind_timed():
            read_word, lookup, translate = bind()
            timed_lookup = self._wrap("decode", lookup)
            timed_translate = self._wrap("decode", translate)
            twins: dict = {}  # record -> its twin with a timed handler

            def timed_record(record):
                twin = twins.get(record)
                if twin is None:
                    handler = record.handler
                    twin = twins[record] = (
                        record
                        if handler is None
                        else record._replace(handler=self._wrap("execute", handler))
                    )
                return twin

            def lookup_record(word):
                record = timed_lookup(word)
                return None if record is None else timed_record(record)

            def translate_record(word, address):
                return timed_record(timed_translate(word, address))

            return self._wrap("fetch", read_word), lookup_record, translate_record

        return bind_timed

    def attach(self, sim) -> "PhaseProfiler":
        """Instrument *sim* in place (call before ``sim.run()``); returns self."""
        if self._sim is not None:
            raise RuntimeError("profiler already attached")
        bind = getattr(sim, _BINDER, None)
        if bind is None:
            raise TypeError(
                f"cannot profile {type(sim).__name__}: no {_BINDER}() phase binder"
            )
        setattr(sim, _BINDER, self._timed_binder(bind))
        self._had_monitor = getattr(sim, "monitor", None) is not None
        if self._had_monitor:
            sim.monitor = _MonitorProxy(sim.monitor, self)
        self._sim = sim
        return self

    def detach(self) -> None:
        """Restore the simulator's own binder and monitor."""
        sim, self._sim = self._sim, None
        if sim is None:
            return
        # Deleting the instance attribute un-shadows the class method.
        try:
            delattr(sim, _BINDER)
        except AttributeError:
            pass
        if self._had_monitor and isinstance(sim.monitor, _MonitorProxy):
            sim.monitor = sim.monitor._inner

    def report(self) -> dict:
        """``{phase: {"calls", "seconds", "share"}}`` over measured time."""
        total = sum(entry["seconds"] for entry in self.buckets.values())
        return {
            phase: {
                "calls": entry["calls"],
                "seconds": entry["seconds"],
                "share": (entry["seconds"] / total) if total > 0 else 0.0,
            }
            for phase, entry in self.buckets.items()
        }

    def render(self) -> str:
        """A small fixed-width table of the phase breakdown."""
        lines = [f"{'phase':<10} {'calls':>10} {'seconds':>10} {'share':>7}"]
        for phase, entry in self.report().items():
            lines.append(
                f"{phase:<10} {entry['calls']:>10} "
                f"{entry['seconds']:>10.4f} {entry['share']:>6.1%}"
            )
        return "\n".join(lines)
