"""Spans around the public calls into each layer, installed from outside.

The traced run of a workload calls :meth:`Tracer.install` before it
starts.  It replaces the public functions and methods listed in :data:`TARGETS` with
wrappers that time each call and record a span — name, start, end,
parent span, run id — in memory.  Spans are written out by
:meth:`Tracer.dump` when the repetition ends.  Nothing under ``src/`` is
changed: module-level functions are re-bound in every ``repro`` module
that imported them by name, methods are re-bound on their class.

Only the process that installed the tracer records.  Pool workers forked
from it inherit the wrappers but pass straight through to the original
code; their work is read from the counters the program already returns
(``HarnessResult.telemetry`` and ``shard_stats``), which the
``HarnessRunner.run`` wrapper keeps.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time

#: (span name, module, attribute path).  A dotted attribute is a method.
TARGETS = (
    ("eval.run_fig6", "repro.eval.fig6_miss_rate", "run_fig6"),
    ("eval.run_table1", "repro.eval.table1_cycles", "run_table1"),
    ("eval.run_table2", "repro.eval.table2_area", "run_table2"),
    ("eval.run_fault_analysis", "repro.eval.fault_analysis", "run_fault_analysis"),
    ("eval.run_policy_ablation", "repro.eval.ablation_policies", "run_policy_ablation"),
    ("eval.run_hash_ablation", "repro.eval.ablation_hashes", "run_hash_ablation"),
    ("workloads.build", "repro.workloads.suite", "build"),
    ("osmodel.load_process", "repro.osmodel.loader", "load_process"),
    ("cic.replay_trace", "repro.cic.replay", "replay_trace"),
    ("funcsim.run", "repro.pipeline.funcsim", "FuncSim.run"),
    ("pipeline_cpu.run", "repro.pipeline.cpu", "PipelineCPU.run"),
    ("faults.full_injection", "repro.exec.backends", "FullBackend.run"),
    ("golden.build_context", "repro.faults.campaign", "build_context"),
    ("golden.build_store", "repro.exec.golden", "build_golden_store"),
    ("pipeline_golden.build_store", "repro.exec.pipeline_golden", "build_pipeline_golden_store"),
    ("exec.workspace_build", "repro.exec.runner", "Workspace.build"),
    ("exec.campaign_run", "repro.exec.runner", "CampaignRunner.run"),
    ("harness.run", "repro.exec.harness", "HarnessRunner.run"),
    ("pool.spawn", "repro.exec.pool", "WarmPool.__init__"),
    ("sharing.publish", "repro.exec.sharing", "publish"),
    ("service.cache_lease", "repro.service.cache", "CheckpointCache.lease"),
    ("dse.sweep_run", "repro.dse.engine", "DseSweep.run"),
)


class Tracer:
    """In-memory span recorder for one repetition of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        #: Span name -> list of (seconds, facts) per call, where facts is
        #: what :func:`_facts` extracts from the call (``None`` if nothing).
        self.calls: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list = []

    # ------------------------------------------------------------------

    def _open(self, name: str) -> dict:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            before = _progress(name, args)
            span = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                entry = (
                    span["end"] - span["start"],
                    _facts(name, args, result, before),
                )
                with tracer._lock:
                    tracer.calls.setdefault(name, []).append(entry)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`."""
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                setattr(owner, method, wrapped)
                self._restore.append((owner, method, raw))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original)
            # Re-bind the function in every repro module holding it by
            # name (``from x import f`` copies the reference).
            for holder in list(sys.modules.values()):
                if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def dump(self, path: str, origin: float) -> int:
        """Write spans as JSON lines, times in seconds since *origin*."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item["start"]):
                row = dict(span)
                row["start"] = round(span["start"] - origin, 6)
                row["end"] = round(span["end"] - origin, 6)
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        return len(self.spans)

    # ------------------------------------------------------------------

    def busy(self, name: str) -> float:
        """Seconds spent in calls named *name* (no target calls itself)."""
        return sum(
            span["end"] - span["start"] for span in self.spans if span["name"] == name
        )

    def ended_before(self, name: str, moment: float) -> float:
        """Seconds of calls named *name* that ended before *moment*."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] <= moment
        )


def _progress(name: str, args) -> int | None:
    """The simulator's progress counter before a resumable run call.

    ``run(until=k)`` resumes where the previous call paused, so the work
    one call did is the counter after it minus this value.  ``FuncSim``
    exposes no public counter, so its private one is read.
    """
    if name == "funcsim.run":
        return getattr(args[0], "_executed", 0)
    if name == "pipeline_cpu.run":
        return args[0].cycles
    return None


def _facts(name: str, args, result, before):
    """The small, plain facts a layer metric needs from one call.

    Only these are kept — never the arguments or the result, which would
    keep simulators alive and change the memory the run uses.
    """
    if name == "funcsim.run":
        sim = args[0]
        return (
            sim.monitor is not None,
            sim.program.name,
            getattr(sim, "_executed", 0) - before,
        )
    if name == "pipeline_cpu.run":
        return args[0].cycles - before
    if result is None:
        return None
    if name == "cic.replay_trace":
        return result.lookups
    if name in ("golden.build_store", "pipeline_golden.build_store"):
        return len(result.checkpoints)
    if name == "sharing.publish":
        return result.size
    if name == "harness.run":
        return {
            "workers": args[0].workers,
            "kind": args[0].job.factory.kind,
            "counters": dict((result.telemetry or {}).get("counters", {})),
            "shards": [
                (meta["seconds"], meta["records"]) for meta in result.shard_stats
            ],
        }
    return None
