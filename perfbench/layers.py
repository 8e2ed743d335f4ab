"""Per-layer metrics of one traced repetition.

Every metric ``BENCHMARK.json`` lists under ``per_layer`` is computed
for every workload; a layer the workload does not exercise reads 0 (the
"predicted flat" cells of NOTES.md).  Work done inside pool workers or
the job server is read from the counters and shard statistics the
program returns (``HarnessResult.telemetry`` and ``shard_stats``, kept
by the ``harness.run`` wrapper).
"""

from __future__ import annotations

_EVAL_SPANS = {
    "eval.fig6_s": "eval.run_fig6",
    "eval.table1_s": "eval.run_table1",
    "eval.fault_analysis_s": "eval.run_fault_analysis",
    "eval.ablation_policies_s": "eval.run_policy_ablation",
    "eval.ablation_hashes_s": "eval.run_hash_ablation",
}

#: Set-up parts timed by wrapped calls that end inside the set-up window.
_SETUP_SPANS = {
    "setup.workloads_build_s": "workloads.build",
    "setup.golden_run_s": "golden.build_context",
    "setup.store_record_s": "golden.build_store",
    "setup.sharing_publish_s": "sharing.publish",
    "setup.pool_spawn_s": "pool.spawn",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counters(calls: dict) -> dict:
    """Program counters summed over every harness run of the repetition."""
    total: dict[str, int] = {}
    for _seconds, facts in calls.get("harness.run", []):
        if facts is None:
            continue
        for name, value in facts["counters"].items():
            total[name] = total.get(name, 0) + value
    return total


def _harness(calls: dict) -> tuple[float, float]:
    """Shard busy seconds, and harness overhead in ms per shard.

    Overhead is the run's wall time times the workers it could use,
    minus the time shards spent executing, per shard.
    """
    busy = 0.0
    capacity = 0.0
    shards = 0
    for seconds, facts in calls.get("harness.run", []):
        if facts is None or not facts["shards"]:
            continue
        run_busy = sum(shard_seconds for shard_seconds, _ in facts["shards"])
        busy += run_busy
        capacity += seconds * min(facts["workers"], len(facts["shards"]))
        shards += len(facts["shards"])
    return busy, _ratio((capacity - busy) * 1e3, shards)


def _funcsim(calls: dict) -> dict:
    bare = [0, 0.0]
    monitored = [0, 0.0]
    per_program: dict[str, list] = {}
    for seconds, (is_monitored, program, instructions) in calls.get("funcsim.run", []):
        side = monitored if is_monitored else bare
        side[0] += instructions
        side[1] += seconds
        entry = per_program.setdefault(program, [0, 0.0, 0, 0.0])
        offset = 2 if is_monitored else 0
        entry[offset] += instructions
        entry[offset + 1] += seconds
    # CIC cost: monitored minus bare time per instruction, over programs
    # run both ways, weighted by monitored instructions.
    weighted = 0.0
    weight = 0
    for bare_i, bare_t, mon_i, mon_t in per_program.values():
        if bare_i and mon_i:
            weighted += (mon_t / mon_i - bare_t / bare_i) * mon_i
            weight += mon_i
    return {
        "funcsim.bare_instr_per_s": _ratio(bare[0], bare[1]),
        "funcsim.monitored_instr_per_s": _ratio(monitored[0], monitored[1]),
        "funcsim.busy_s": bare[1] + monitored[1],
        "cic.overhead_ns_per_instr": _ratio(weighted * 1e9, weight),
    }


def layer_metrics(rep) -> dict:
    """Every per-layer metric except ``trace.overhead_pct`` (run.py's)."""
    tracer = rep.tracer
    calls = tracer.calls
    metrics = {name: tracer.busy(span) for name, span in _EVAL_SPANS.items()}
    metrics.update(_funcsim(calls))

    def facts_sum(name: str) -> float:
        return sum(facts or 0 for _seconds, facts in calls.get(name, []))

    counters = _counters(calls)
    forks = counters.get("golden.batch.fork", 0) + counters.get("golden.fork", 0)
    replayed = counters.get("golden.batch.prefix_replayed", 0)
    saved = counters.get("golden.batch.prefix_saved", 0)
    shard_busy, overhead = _harness(calls)
    full = calls.get("faults.full_injection", [])
    cache_hits = counters.get("measure_cache.hit", 0)
    cache_lookups = cache_hits + counters.get("measure_cache.miss", 0)
    metrics.update(
        {
            "cic.replay_lookups_per_s": _ratio(
                facts_sum("cic.replay_trace"), tracer.busy("cic.replay_trace")
            ),
            "osmodel.load_process_ms": tracer.busy("osmodel.load_process") * 1e3,
            "workloads.build_s": tracer.busy("workloads.build"),
            "faults.full_injections_per_s": _ratio(
                len(full), sum(seconds for seconds, _ in full)
            ),
            "golden.run_s": tracer.busy("golden.build_context"),
            "golden.record_s": tracer.busy("golden.build_store"),
            "golden.checkpoints": facts_sum("golden.build_store"),
            "golden.prefix_replayed_per_fault": _ratio(replayed, forks),
            "golden.prefix_saved_ratio": _ratio(saved, saved + replayed),
            "golden.fork_at_zero_ratio": _ratio(
                counters.get("golden.fork_at_zero", 0), forks
            ),
            "harness.shard_busy_s": shard_busy,
            "harness.overhead_ms_per_shard": overhead,
            "pool.spawn_s": tracer.busy("pool.spawn"),
            "sharing.publish_s": tracer.busy("sharing.publish"),
            "sharing.publish_bytes": facts_sum("sharing.publish"),
            "service.queue_wait_ms": 0.0,
            "service.run_ms": 0.0,
            "service.cache_hit_ratio": 0.0,
            "service.cache_build_s": 0.0,
            "pipeline_cpu.cycles_per_s": _ratio(
                facts_sum("pipeline_cpu.run"), tracer.busy("pipeline_cpu.run")
            ),
            "pipeline_golden.record_s": tracer.busy("pipeline_golden.build_store"),
            "pipeline_golden.forks": counters.get("pipeline_golden.fork", 0),
            "dse.measure_cache_hit_ratio": _ratio(cache_hits, cache_lookups),
            "trace.spans": len(tracer.spans),
        }
    )
    if rep.workload == "service":
        metrics.update(rep.service_layers)
        metrics["service.cache_build_s"] = tracer.busy("exec.workspace_build")
    metrics.update(setup_breakdown(rep))
    return metrics


def setup_breakdown(rep) -> dict:
    """Split ``setup_s`` into its parts, timed from outside the program."""
    stamps = rep.stamps
    ready = stamps["ready"]
    parts = {
        "setup.interpreter_s": stamps["start"] - stamps["spawn"],
        "setup.import_s": stamps["imported"] - stamps["start"],
    }
    for name, span in _SETUP_SPANS.items():
        parts[name] = rep.tracer.ended_before(span, ready)
    parts["setup.server_ready_s"] = (
        ready - stamps["imported"] if rep.workload == "service" else 0.0
    )
    parts["setup.other_s"] = (ready - stamps["spawn"]) - sum(parts.values())
    return parts
