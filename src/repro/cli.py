"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``asm FILE``
    Assemble a source file and print the listing (address, encoding,
    disassembly).

``run FILE``
    Assemble and execute unmonitored on the functional ISS; print console
    output and cycle statistics.  ``--engine pipeline`` uses the
    cycle-level pipeline; ``--input N`` queues integers for ``read_int``.

``monitor FILE``
    Execute under the OS-managed integrity monitor; report monitor
    statistics.  ``--iht N``, ``--hash NAME``, ``--policy NAME`` select the
    configuration; ``--flip ADDR:BIT`` injects a persistent fault before
    the run to exercise detection.

``workload NAME``
    Run one of the nine built-in workloads monitored and report statistics
    (``--scale tiny|small|default``).

``experiments``
    Regenerate every paper table/figure into ``results/`` under the
    current directory (:func:`repro.eval.write_paper_artifacts`).

``coverage run|diff|check``
    The exhaustive ground-truth gate (:mod:`repro.coverage`).  ``run``
    executes a named corpus — every 2-bit same-column pair, or every
    attack generator at every eligible CFG site — and writes the reduced
    coverage matrix; ``check`` validates committed matrices (schema,
    fingerprint, internal consistency); ``diff`` re-derives a matrix from
    the spec embedded in the artifact (``--workload`` restricts the
    re-derivation) and reports divergence cell by cell, exiting 1 on any
    delta.  ``make coverage-smoke`` runs the CI subset.

``stats PATH``
    Render the ``*.metrics.json`` telemetry artifacts written beside
    campaign/DSE/coverage results files (:mod:`repro.obs`): run
    manifest, span tree with wall-time shares, counters, and per-shard /
    per-worker breakdowns.  PATH is one metrics file or a directory to
    scan recursively; ``--check`` additionally validates every file —
    and its ``*.events.jsonl`` sibling when present — against the
    schemas.  ``--follow`` tails the run's live event log instead
    (shard progress, per-worker throughput, cache-hit rate, ETA),
    degrading to the final summary when the run already finished;
    ``--export-trace FILE`` converts the event timeline plus span tree
    to Chrome/Perfetto ``trace_event`` JSON.

``stats diff A B [--gate PCT]``
    Compare two metrics or ``BENCH_*.json`` artifacts metric by metric
    (wall seconds, records/s, cache-hit rates, span shares, per-test
    bench numbers), each drift signed toward *worse*; with ``--gate``
    the exit code becomes the regression gate: 1 when anything got at
    least PCT percent worse.

``top PATH``
    Alias of ``stats PATH --follow`` — the live view of an in-flight
    run.

``dse sweep|frontier|report``
    Drive the design-space explorer (:mod:`repro.dse`).  ``sweep``
    evaluates a configuration grid — ``--preset NAME`` or explicit axis
    flags (``--hash``/``--iht``/``--policy``/``--penalty``, all
    repeatable, crossed with ``--workload`` at ``--scale``) — on the
    golden backend, sharded across ``--workers`` and streamed to
    ``--out`` so ``--resume`` picks interrupted sweeps back up.
    ``frontier`` computes the Pareto-non-dominated configurations of a
    sweep file over any ``--objective`` subset; ``report`` prints the
    full ranked trade-off report.  Point records and frontiers are
    identical for any worker count and either backend.

``campaign TARGET``
    Run a parallel fault-injection campaign (the §6.3 experiment) against a
    workload name or an assembly file, on the :mod:`repro.exec` harness.
    ``--faults N`` random single-bit faults (seeded by ``--seed``) are
    sharded across ``--workers`` processes; ``--out FILE`` streams JSONL
    records so ``--resume`` can pick an interrupted campaign back up from
    the last completed shard.  ``--preset NAME`` selects a named campaign
    (``exhaustive-single-bit``: every flip of every executed word at
    default scale on the golden backend).  ``--backend`` picks the
    execution backend from the registry — ``golden`` forks each injection
    from the recorded golden run's nearest checkpoint instead of
    re-simulating from instruction zero (``full``), ``pipeline-golden``
    forks the cycle-level pipeline and measures cycles.  Results are
    identical for any worker count and either functional backend.

``attack TARGET``
    Run the adversarial tampering sweep (:mod:`repro.attacks`) against a
    workload name or assembly file and print the detection matrix —
    detection rate and latency per attack class.  ``--class`` selects
    attack classes (repeatable; ``all``/``persistent``/``transient``),
    ``--per-class`` the scenarios sampled per class.  Sweeps shard across
    ``--workers``, stream to ``--out``, and ``--resume`` like campaigns;
    the matrix is byte-identical for any worker count.  ``TARGET=all``
    (for both ``campaign`` and ``attack``) sweeps the whole nine-workload
    suite, MiBench-class workloads included.

``serve`` / ``submit`` / ``jobs``
    The campaign-as-a-service tier (:mod:`repro.service`,
    ``docs/SERVICE.md``).  ``serve`` runs the long-lived multi-tenant job
    server: a unix-socket (optionally TCP) line-JSON protocol, a fair
    per-client queue, a content-addressed cache of golden checkpoint
    stores, and a crash-tolerant job journal — kill the server mid-job
    and the next ``serve`` resumes it shard-exact.  ``submit
    campaign|dse|attack|coverage`` validates and enqueues jobs
    (``--wait`` blocks, ``--watch`` streams the live event/record lines);
    ``jobs`` lists jobs, ``--stats`` shows queue depth and cache hit
    rates, ``--cancel`` stops a job at its next shard-step boundary,
    ``--shutdown`` stops the server gracefully.

Exit codes are uniform across commands: ``0`` success, ``1`` usage or
toolchain error (including assembly failures), ``2`` a
:class:`~repro.errors.MonitorViolation` — so scripts can distinguish
"the monitor caught tampering" from "the tool failed".

Every subcommand takes the uniform observability flags: ``-v/--verbose``
(debug-level progress), ``-q/--quiet`` (warnings and errors only), and
``--no-telemetry`` (disable the :mod:`repro.obs` instruments — results
are byte-identical either way).  Progress goes through the shared
structured logger (:mod:`repro.obs.log`) on stderr; stdout stays
machine-clean.  ``run``/``monitor``/``workload`` additionally take
``--profile`` to print a host-time fetch/decode/execute/monitor phase
breakdown of the simulated run.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__
from repro.asm.assembler import assemble
from repro.errors import MonitorViolation, ReproError
from repro.obs import core as obs_core
from repro.obs.log import log, set_level
from repro.osmodel.loader import load_process
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim

#: Exit code signalling a detected integrity violation (vs 1 = tool error).
EXIT_VIOLATION = 2

#: Mirrors of the execution-layer registries, spelled out so building the
#: parser stays free of the repro.exec import stack (the cmd_* handlers
#: defer their heavy imports to call time for the same reason).
#: ``tests/test_cli.py`` pins both against the live registries.
BACKEND_CHOICES = ("full", "golden", "pipeline-golden")
CAMPAIGN_PRESET_CHOICES = ("exhaustive-single-bit", "smoke", "mibench-tiny")
COVERAGE_CORPUS_CHOICES = ("pairs-tiny", "pairs-small", "attacks-tiny")


def _engine(name: str):
    return PipelineCPU if name == "pipeline" else FuncSim


def _read_source(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.file), name=args.file)
    print(program.listing())
    print(f"; entry {program.entry:#010x}, "
          f"{len(program.text.data) // 4} instructions, "
          f"{len(program.data.data)} data bytes")
    return 0


def _maybe_profile(args: argparse.Namespace, simulator):
    """Attach the opt-in phase profiler (``--profile``) to *simulator*."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs import PhaseProfiler

    return PhaseProfiler().attach(simulator)


def _run_profiled(args: argparse.Namespace, simulator):
    """Run *simulator*, printing the phase table even when the run raises
    (a ``monitor --flip`` violation still deserves its breakdown)."""
    profiler = _maybe_profile(args, simulator)
    try:
        return simulator.run()
    finally:
        if profiler is not None:
            print(profiler.render(), file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.file), name=args.file)
    simulator = _engine(args.engine)(program, inputs=args.input or None)
    result = _run_profiled(args, simulator)
    if result.console:
        print(result.console, end="" if result.console.endswith("\n") else "\n")
    log.info(f"exit {result.exit_code}, {result.instructions} instructions, "
             f"{result.cycles} cycles ({args.engine})")
    return result.exit_code


def cmd_monitor(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.file), name=args.file)
    process = load_process(
        program,
        iht_size=args.iht,
        hash_name=args.hash,
        policy_name=args.policy,
    )
    simulator = _engine(args.engine)(
        program, monitor=process.monitor, inputs=args.input or None
    )
    for spec in args.flip or []:
        address_text, _, bit_text = spec.partition(":")
        simulator.state.memory.flip_bit(int(address_text, 0), int(bit_text))
    # A MonitorViolation exits 2 via main().
    result = _run_profiled(args, simulator)
    stats = result.monitor_stats
    if result.console:
        print(result.console, end="" if result.console.endswith("\n") else "\n")
    log.info(
        f"cycles {result.cycles}, lookups {stats.lookups}, "
        f"hits {stats.hits}, misses {stats.misses} "
        f"(miss rate {100 * stats.miss_rate:.2f}%), "
        f"OS cycles {stats.os_cycles}"
    )
    return result.exit_code


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads.suite import WORKLOAD_NAMES, build, workload_inputs

    if args.name not in WORKLOAD_NAMES:
        log.error(f"unknown workload {args.name!r}; "
                  f"choose from: {', '.join(WORKLOAD_NAMES)}")
        return 1
    program = build(args.name, args.scale)
    process = load_process(program, iht_size=args.iht, hash_name=args.hash)
    simulator = _engine(args.engine)(
        program,
        monitor=process.monitor,
        inputs=workload_inputs(args.name, args.scale),
    )
    result = _run_profiled(args, simulator)
    stats = result.monitor_stats
    print(result.console, end="" if result.console.endswith("\n") else "\n")
    log.info(
        f"{args.name}[{args.scale}]: {result.instructions} instructions, "
        f"{result.cycles} cycles, miss rate {100 * stats.miss_rate:.2f}% "
        f"@ IHT {args.iht}"
    )
    return 0


def _resolve_target(target: str) -> tuple[str | None, str | None, str | None]:
    """``(workload, source, name)`` for a workload name or assembly file.

    Returns ``(None, None, None)`` — after printing a diagnostic — when the
    target is neither.
    """
    import os

    from repro.workloads.suite import WORKLOAD_NAMES

    if target in WORKLOAD_NAMES:
        return target, None, None
    if os.path.exists(target):
        return None, _read_source(target), target
    log.error(
        f"unknown target {target!r}: not a workload "
        f"({', '.join(WORKLOAD_NAMES)}) and no such file"
    )
    return None, None, None


def _campaign_roster(preset) -> tuple[str, ...]:
    """The workload set ``TARGET=all`` expands to: the preset's roster
    when it has one, the full nine-workload suite otherwise."""
    from repro.workloads.suite import WORKLOAD_NAMES

    if preset is not None and preset.workloads:
        return tuple(preset.workloads)
    return tuple(WORKLOAD_NAMES)


def _suffixed_out(out: str | None, workload: str, default_ext: str) -> str | None:
    if not out:
        return None
    root, ext = os.path.splitext(out)
    return f"{root}-{workload}{ext or default_ext}"


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.exec import get_campaign_preset

    # A preset supplies scale/backend defaults and the fault plan; any
    # flag given explicitly overrides the preset's value.  The target
    # ``all`` sweeps a roster: the preset's workload set when it has one
    # (e.g. mibench-tiny), the whole nine-workload suite otherwise.
    preset = get_campaign_preset(args.preset) if args.preset else None
    if args.target == "all":
        for workload in _campaign_roster(preset):
            status = _run_campaign(
                args, preset, workload,
                _suffixed_out(args.out, workload, ".jsonl"),
            )
            if status != 0:
                return status
        return 0
    return _run_campaign(args, preset, args.target, args.out)


def _run_campaign(
    args: argparse.Namespace, preset, target: str, out: str | None
) -> int:
    from repro.exec import CampaignRunner, CampaignSpec
    from repro.faults.campaign import Outcome

    workload, source, name = _resolve_target(target)
    if workload is None and source is None:
        return 1
    scale = args.scale or (preset.scale if preset else "small")
    backend = args.backend or (preset.backend if preset else "full")
    spec = CampaignSpec(
        workload=workload,
        scale=scale,
        source=source,
        name=name,
        iht_size=args.iht,
        hash_name=args.hash,
        policy_name=args.policy,
        backend=backend,
    )
    runner = CampaignRunner(
        spec,
        workers=args.workers,
        chunk_size=args.chunk,
        batch_size=args.batch_size,
    )
    if preset is not None and args.faults is None:
        faults = preset.faults(runner.campaign, seed=args.seed)
    else:
        faults = runner.campaign.random_single_bit(
            args.faults if args.faults is not None else 200, seed=args.seed
        )
    result = runner.run(
        faults,
        seed=args.seed,
        out=out,
        resume=args.resume,
        stop_after_shards=args.stop_after_shards,
    )
    report = result.report()
    counts = report.counts()
    print(f"campaign {spec.label}: {report.summary()}")
    for outcome in Outcome:
        if counts[outcome]:
            print(f"  {outcome.value:20s} {counts[outcome]}")
    if out:
        state = "complete" if result.complete else "partial"
        log.info(f"{state} results in {out} "
                 f"({len(result.records)}/{result.total} faults, "
                 f"{args.workers} workers)")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    # ``attack all`` runs the detection matrix over the whole workload
    # suite — the MiBench-class workloads included — one sweep each.
    if args.target == "all":
        from repro.workloads.suite import WORKLOAD_NAMES

        for workload in WORKLOAD_NAMES:
            status = _run_attack(
                args, workload,
                out=_suffixed_out(args.out, workload, ".jsonl"),
                json_path=_suffixed_out(args.json, workload, ".json"),
            )
            if status != 0:
                return status
        return 0
    return _run_attack(args, args.target, out=args.out, json_path=args.json)


def _run_attack(
    args: argparse.Namespace, target: str, out: str | None,
    json_path: str | None,
) -> int:
    from repro.eval.attack_coverage import run_attack_coverage

    workload, source, name = _resolve_target(target)
    if workload is None and source is None:
        return 1
    result = run_attack_coverage(
        workload=workload,
        scale=args.scale,
        source=source,
        name=name,
        classes=tuple(args.attack_class) if args.attack_class else ("all",),
        per_class=args.per_class,
        hash_names=tuple(args.hash) if args.hash else ("xor",),
        policy_names=tuple(args.policy) if args.policy else ("lru_half",),
        iht_size=args.iht,
        inputs=args.input or None,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk,
        out=out,
        resume=args.resume,
        backend=args.backend,
    )
    print(result.table().render())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(result.render_json())
        log.info(f"detection matrix written to {json_path}")
    if result.out_files:
        log.info(
            f"per-scenario records in {', '.join(result.out_files)} "
            f"({args.workers} workers)"
        )
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient, default_socket_path

    host = port = None
    if getattr(args, "tcp", None):
        host, port = args.tcp
    socket_path = args.socket or default_socket_path(args.state_dir)
    return ServiceClient(
        socket_path=None if host else socket_path,
        host=host,
        port=port,
        client=getattr(args, "client", "anonymous"),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceConfig, run_server

    host = port = None
    if args.tcp:
        host, port = args.tcp
    return run_server(
        ServiceConfig(
            state_dir=args.state_dir,
            socket_path=args.socket,
            host=host,
            port=port,
            max_jobs=args.max_jobs,
            per_client=args.per_client,
            cache_capacity=args.cache_capacity,
            step_shards=args.step_shards,
        )
    )


def _job_line(status: dict) -> str:
    progress = str(status["records_done"])
    if status["total"] is not None:
        progress += f"/{status['total']}"
    line = (
        f"{status['id']:8s} {status['client']:12s} {status['kind']:9s} "
        f"{status['label']:24s} {status['state']:9s} {progress}"
    )
    if status["error"]:
        line += f"  ! {status['error']}"
    return line


def _finish_submit(args: argparse.Namespace, client, submitted: list) -> int:
    """Shared --wait/--watch tail of every ``repro submit`` variant."""
    import json as json_module

    for status in submitted:
        print(_job_line(status))
    if getattr(args, "watch", False):
        status = 0
        for job in submitted:
            for line in client.watch(job["id"]):
                if line.get("stream") == "end":
                    final = line["job"]
                    log.info(
                        f"{final['id']} {final['state']} "
                        f"({final['records_done']} records)"
                    )
                    if final["state"] != "done":
                        status = 1
                else:
                    print(json_module.dumps(line, sort_keys=True))
        return status
    if getattr(args, "wait", False):
        status = 0
        for job in submitted:
            final = client.wait(job["id"], timeout=args.timeout)
            print(_job_line(final))
            if final["state"] != "done":
                status = 1
        return status
    return 0


def cmd_submit_campaign(args: argparse.Namespace) -> int:
    from repro.exec import CampaignSpec, get_campaign_preset

    preset = get_campaign_preset(args.preset) if args.preset else None
    scale = args.scale or (preset.scale if preset else "small")
    backend = args.backend or (preset.backend if preset else "full")
    targets = (
        _campaign_roster(preset) if args.target == "all" else (args.target,)
    )
    client = _service_client(args)
    submitted = []
    for target in targets:
        workload, source, name = _resolve_target(target)
        if workload is None and source is None:
            return 1
        spec = CampaignSpec(
            workload=workload,
            scale=scale,
            source=source,
            name=name,
            iht_size=args.iht,
            hash_name=args.hash,
            policy_name=args.policy,
            backend=backend,
        )
        submitted.append(
            client.submit(
                {
                    "kind": "campaign",
                    "spec": spec.to_json(),
                    # An explicit --faults overrides the preset's fault
                    # plan, mirroring `repro campaign`.
                    "preset": args.preset if args.faults is None else None,
                    "faults": (
                        args.faults if args.faults is not None else 200
                    ),
                    "seed": args.seed,
                    "workers": args.workers,
                    "chunk_size": args.chunk,
                    "batch_size": args.batch_size,
                },
                priority=args.priority,
            )
        )
        log.debug(f"submitted {submitted[-1]['id']} for {target}")
    return _finish_submit(args, client, submitted)


def cmd_submit_dse(args: argparse.Namespace) -> int:
    payload = {"kind": "dse", "backend": args.backend, "seed": args.seed,
               "workers": args.workers, "chunk_size": args.chunk}
    if args.preset:
        payload["preset"] = args.preset
    else:
        import dataclasses

        from repro.dse import ConfigSpace

        overrides = {
            "hash_names": tuple(args.hash) if args.hash else None,
            "iht_sizes": tuple(args.iht) if args.iht else None,
            "policy_names": tuple(args.policy) if args.policy else None,
            "workloads": tuple(args.workload) if args.workload else None,
            "scale": args.scale,
        }
        overrides = {
            key: value for key, value in overrides.items()
            if value is not None
        }
        defaults = ConfigSpace(
            hash_names=("xor",),
            iht_sizes=(4, 8),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("sha",),
            scale="tiny",
        )
        payload["space"] = dataclasses.replace(defaults, **overrides).to_json()
    client = _service_client(args)
    return _finish_submit(args, client, [client.submit(payload, priority=args.priority)])


def cmd_submit_attack(args: argparse.Namespace) -> int:
    from repro.workloads.suite import WORKLOAD_NAMES

    targets = (
        tuple(WORKLOAD_NAMES) if args.target == "all" else (args.target,)
    )
    client = _service_client(args)
    submitted = []
    for target in targets:
        submitted.append(
            client.submit(
                {
                    "kind": "attack",
                    "workload": target,
                    "scale": args.scale,
                    "classes": list(args.attack_class or ("all",)),
                    "per_class": args.per_class,
                    "hash_names": list(args.hash or ("xor",)),
                    "policy_names": list(args.policy or ("lru_half",)),
                    "iht_size": args.iht,
                    "backend": args.backend,
                    "seed": args.seed,
                    "workers": args.workers,
                    "chunk_size": args.chunk,
                },
                priority=args.priority,
            )
        )
    return _finish_submit(args, client, submitted)


def cmd_submit_coverage(args: argparse.Namespace) -> int:
    client = _service_client(args)
    return _finish_submit(
        args,
        client,
        [
            client.submit(
                {
                    "kind": "coverage",
                    "corpus": args.corpus,
                    "workers": args.workers,
                    "chunk_size": args.chunk,
                    "batch_size": args.batch_size,
                },
                priority=args.priority,
            )
        ],
    )


def cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_module

    client = _service_client(args)
    if args.shutdown:
        client.shutdown()
        log.info("server asked to shut down")
        return 0
    if args.cancel:
        response = client.cancel(args.cancel)
        print(_job_line(response["job"]))
        if response.get("cancel_pending"):
            log.info("cancellation lands at the next shard-step boundary")
        return 0
    if args.watch:
        for line in client.watch(args.watch):
            print(json_module.dumps(line, sort_keys=True))
        return 0
    if args.stats:
        stats = client.stats()
        cache = stats["cache"]
        print(f"uptime {stats['uptime']}s, "
              f"{stats['running']} running / {stats['queued']} queued "
              f"(max {stats['max_jobs']}, per-client {stats['per_client']})")
        print(f"jobs by state: "
              + (", ".join(f"{state}={count}"
                           for state, count in sorted(stats["jobs"].items()))
                 or "none"))
        print(f"checkpoint cache: {cache['hits']} hits, "
              f"{cache['misses']} misses, {cache['evictions']} evictions, "
              f"{cache['entries']}/{cache['capacity']} stores, "
              f"{cache['bytes']} bytes")
        for store in cache["stores"]:
            print(f"  {store['key']}  {store['label']:24s} "
                  f"{store['hits']} hits, {store['bytes']} bytes")
        return 0
    jobs = client.jobs()
    if not jobs:
        log.info("no jobs")
        return 0
    for status in jobs:
        print(_job_line(status))
    return 0


def cmd_dse_sweep(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.dse import ConfigSpace, DseSweep, get_preset

    # Flags left at None were not given; anything explicit overrides the
    # preset (or the documented defaults when no preset is named).
    overrides = {
        "hash_names": tuple(args.hash) if args.hash else None,
        "iht_sizes": tuple(args.iht) if args.iht else None,
        "policy_names": tuple(args.policy) if args.policy else None,
        "miss_penalties": tuple(args.penalty) if args.penalty else None,
        "workloads": tuple(args.workload) if args.workload else None,
        "scale": args.scale,
        "adversary": args.adversary,
        "attack_classes": (
            tuple(args.attack_class) if args.attack_class else None
        ),
        "per_class": args.per_class,
        "pair_count": args.pair_count,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.preset is not None:
        space = dataclasses.replace(get_preset(args.preset), **overrides)
    else:
        defaults = ConfigSpace(
            hash_names=("xor", "crc32"),
            iht_sizes=(4, 8, 16, 32),
            policy_names=("lru_half",),
            miss_penalties=(100,),
            workloads=("sha", "dijkstra", "bitcount"),
        )
        space = dataclasses.replace(defaults, **overrides)
    sweep = DseSweep(
        space,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk,
        backend=args.backend,
    )
    result = sweep.run(
        out=args.out,
        resume=args.resume,
        stop_after_shards=args.stop_after_shards,
    )
    print(result.table().render())
    log.info(f"{result.summary()}")
    if args.out:
        state = "complete" if result.complete else "partial"
        log.info(
            f"{state} point records in {args.out} "
            f"({len(result.points)}/{result.total} configurations, "
            f"{args.workers} workers)"
        )
    return 0


def _frontier_report(args: argparse.Namespace):
    from repro.dse import DEFAULT_FRONTIER, FrontierReport, load_points

    objectives = (
        tuple(args.objective) if args.objective else DEFAULT_FRONTIER
    )
    header, points = load_points(args.points)
    if not points:
        log.error(f"error: {args.points} holds no point records")
        return None, None
    return header, FrontierReport.build(points, objectives)


def cmd_dse_frontier(args: argparse.Namespace) -> int:
    _header, report = _frontier_report(args)
    if report is None:
        return 1
    print(report.table().render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.render_json())
        log.info(f"frontier written to {args.json}")
    return 0


def cmd_dse_report(args: argparse.Namespace) -> int:
    from repro.dse import OBJECTIVES

    header, report = _frontier_report(args)
    if report is None:
        return 1
    lines = [report.table().render(), ""]
    lines.append("Per-objective champions:")
    for name, objective in OBJECTIVES.items():
        scored = [
            point
            for point in report.points
            if point.objectives.get(name) is not None
        ]
        if not scored:
            continue
        best = min(scored, key=lambda point: objective.key(point.objectives[name]))
        lines.append(
            f"  {name:18s} {best.config.config_id:28s} "
            f"{best.objectives[name]:.6g}  ({objective.sense})"
        )
    space = header.get("space", {})
    lines.append("")
    lines.append(
        f"Swept {len(report.points)} configurations on "
        f"{', '.join(space.get('workloads', ()))} @ "
        f"{space.get('scale', '?')}; adversary={space.get('adversary', '?')}; "
        f"seed {header.get('seed')}."
    )
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        log.info(f"report written to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    # `repro stats diff A B` rides the same subcommand: the positional
    # `path` doubles as the verb so `repro stats PATH [--check]` keeps
    # its exact historical shape.
    if args.path == "diff":
        return _stats_diff(args)
    if args.extra:
        log.error(
            "error: `repro stats` takes one path "
            "(did you mean `repro stats diff A B`?)"
        )
        return 1
    if args.follow:
        return _stats_follow(args)
    if args.export_trace:
        return _stats_export_trace(args)
    return _stats_render(args)


def _stats_render(args: argparse.Namespace) -> int:
    from repro.obs import find_metrics, load_metrics, render_metrics
    from repro.obs.events import read_events, resolve_events_path
    from repro.obs.schema import validate_events, validate_metrics

    files = find_metrics(args.path)
    if not files:
        log.error(f"error: no metrics files under {args.path} "
                  "(runs emit them beside --out when telemetry is on)")
        return 1
    status = 0
    reports = []
    events_checked = 0
    for path in files:
        payload = load_metrics(path)
        if args.check:
            errors = validate_metrics(payload)
            events_file = resolve_events_path(path)
            if os.path.exists(events_file):
                events_checked += 1
                errors += [
                    f"{os.path.basename(events_file)}: {problem}"
                    for problem in validate_events(read_events(events_file))
                ]
            for problem in errors:
                log.error(f"{path}: {problem}")
            if errors:
                status = 1
        reports.append(
            render_metrics(payload, path=path if len(files) > 1 else None)
        )
    print("\n\n".join(reports))
    if args.check and status == 0:
        log.info(
            f"{len(files)} metrics file(s) schema-valid"
            + (
                f" ({events_checked} event log(s) checked)"
                if events_checked
                else ""
            )
        )
    return status


def _stats_follow(args: argparse.Namespace) -> int:
    from repro.obs import follow_path

    return follow_path(
        args.path,
        interval=args.interval,
        timeout=args.timeout,
        verbose=getattr(args, "verbose", False),
    )


def _stats_export_trace(args: argparse.Namespace) -> int:
    from repro.obs import export_trace

    trace = export_trace(args.path, args.export_trace)
    log.info(
        f"trace with {len(trace['traceEvents'])} events written to "
        f"{args.export_trace} (load in https://ui.perfetto.dev "
        "or chrome://tracing)"
    )
    return 0


def _stats_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_artifacts, render_diff

    if len(args.extra) != 2:
        log.error("error: usage: repro stats diff A B [--gate PCT]")
        return 1
    report = diff_artifacts(args.extra[0], args.extra[1])
    print(render_diff(report, gate=args.gate))
    if args.gate is not None and report.worst >= args.gate:
        return 1
    return 0


def _coverage_files(path: str) -> list[str]:
    """One artifact file, or every matrix ``*.json`` under a directory.

    Observability siblings (``*.metrics.json`` written beside coverage
    artifacts) are not matrices and are skipped — ``repro stats --check``
    owns them.
    """
    if os.path.isdir(path):
        found = []
        for root, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".json") and not name.endswith(".metrics.json"):
                    found.append(os.path.join(root, name))
        return sorted(found)
    return [path]


def cmd_coverage_run(args: argparse.Namespace) -> int:
    from repro.coverage import default_artifact_path, get_corpus, run_coverage
    from repro.obs.metrics import metrics_path

    spec = get_corpus(args.corpus)
    out = args.out or default_artifact_path(spec.name)
    payload = run_coverage(
        spec,
        workers=args.workers,
        chunk_size=args.chunk,
        batch_size=args.batch_size,
        progress=log.info,
        out=out,
    )
    manifest = payload["manifest"]
    print(
        f"coverage {spec.name}: {manifest['total_injections']} injections, "
        f"{len(payload['cells'])} cells, fingerprint "
        f"{manifest['fingerprint']} -> {out}"
    )
    if obs_core.enabled():
        log.info(f"run telemetry in {metrics_path(out)}")
    return 0


def cmd_coverage_check(args: argparse.Namespace) -> int:
    from repro.coverage import check_payload, load_payload

    files = _coverage_files(args.path)
    if not files:
        log.error(f"error: no coverage artifacts under {args.path}")
        return 1
    status = 0
    for path in files:
        errors = check_payload(load_payload(path))
        for problem in errors:
            log.error(f"{path}: {problem}")
        if errors:
            status = 1
    if status == 0:
        log.info(f"{len(files)} coverage matrix(es) sound")
    return status


def cmd_coverage_diff(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.coverage import (
        CoverageSpec,
        diff_payloads,
        load_payload,
        render_deltas,
        run_coverage,
    )

    expected = load_payload(args.path)
    workloads = tuple(args.workload) if args.workload else None
    if args.against is not None:
        actual = load_payload(args.against)
    else:
        spec = CoverageSpec.from_json(expected["spec"])
        if workloads:
            unknown = set(workloads) - set(spec.targets())
            if unknown:
                log.error(
                    f"error: {', '.join(sorted(unknown))} not in corpus "
                    f"{spec.name!r} (targets: {', '.join(spec.targets())})"
                )
                return 1
            if spec.workloads:
                # Source-based corpora have a single target; restricting
                # to it is the identity, and workloads= must stay unset.
                spec = dataclasses.replace(spec, workloads=workloads)
        actual = run_coverage(
            spec,
            workers=args.workers,
            chunk_size=args.chunk,
            batch_size=args.batch_size,
            progress=log.info,
        )
    deltas = diff_payloads(expected, actual, workloads=workloads)
    print(render_deltas(deltas))
    return 1 if deltas else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.eval import write_paper_artifacts

    write_paper_artifacts("results", scale=args.scale)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Fei & Shi (DATE 2007) reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )

    # Uniform observability flags, shared by every subcommand via the
    # argparse parents= mechanism so `repro campaign -v ...` and
    # `repro dse sweep -v ...` mean the same thing (repro.obs.log).
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level progress on stderr",
    )
    observability.add_argument(
        "-q", "--quiet", action="store_true",
        help="only warnings and errors on stderr",
    )
    observability.add_argument(
        "--no-telemetry", action="store_true",
        help="disable execution telemetry (repro.obs counters/spans and "
             "the *.metrics.json written beside --out); results are "
             "byte-identical either way",
    )

    commands = parser.add_subparsers(dest="command", required=True)
    obs = [observability]

    asm_command = commands.add_parser("asm", help="assemble and list",
                                      parents=obs)
    asm_command.add_argument("file")
    asm_command.set_defaults(handler=cmd_asm)

    def _common_run_flags(sub):
        sub.add_argument("--engine", choices=("func", "pipeline"), default="func")
        sub.add_argument(
            "--input", type=int, action="append",
            help="queue an integer for read_int (repeatable)",
        )

    def _profile_flag(sub):
        sub.add_argument(
            "--profile", action="store_true",
            help="print a host-time fetch/decode/execute/monitor phase "
                 "breakdown of the run to stderr (repro.obs.PhaseProfiler)",
        )

    run_command = commands.add_parser("run", help="execute unmonitored",
                                      parents=obs)
    run_command.add_argument("file")
    _common_run_flags(run_command)
    _profile_flag(run_command)
    run_command.set_defaults(handler=cmd_run)

    monitor_command = commands.add_parser("monitor", help="execute monitored",
                                          parents=obs)
    monitor_command.add_argument("file")
    _common_run_flags(monitor_command)
    _profile_flag(monitor_command)
    monitor_command.add_argument("--iht", type=int, default=8)
    monitor_command.add_argument("--hash", default="xor")
    monitor_command.add_argument("--policy", default="lru_half")
    monitor_command.add_argument(
        "--flip", action="append", metavar="ADDR:BIT",
        help="flip a bit of a stored word before running (repeatable)",
    )
    monitor_command.set_defaults(handler=cmd_monitor)

    workload_command = commands.add_parser("workload", help="run a workload",
                                           parents=obs)
    workload_command.add_argument("name")
    workload_command.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="small"
    )
    workload_command.add_argument("--engine", choices=("func", "pipeline"),
                                  default="func")
    workload_command.add_argument("--iht", type=int, default=8)
    workload_command.add_argument("--hash", default="xor")
    _profile_flag(workload_command)
    workload_command.set_defaults(handler=cmd_workload)

    campaign_command = commands.add_parser(
        "campaign", help="parallel fault-injection campaign", parents=obs
    )
    campaign_command.add_argument(
        "target", help="workload name or assembly file path"
    )
    campaign_command.add_argument(
        "--preset", metavar="NAME", choices=CAMPAIGN_PRESET_CHOICES,
        help="named campaign from repro.exec.presets "
             f"({', '.join(CAMPAIGN_PRESET_CHOICES)}); supplies the fault "
             "plan and scale/backend defaults, explicit flags override",
    )
    campaign_command.add_argument(
        "--scale", choices=("tiny", "small", "default"), default=None,
        help="workload build scale (default small, or the preset's)",
    )
    campaign_command.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1: serial, in-process)",
    )
    campaign_command.add_argument(
        "--faults", type=int, default=None,
        help="number of random single-bit faults to inject "
             "(default 200; overrides a preset's fault plan)",
    )
    campaign_command.add_argument(
        "--seed", type=int, default=42,
        help="campaign seed: drives fault generation (and is recorded "
             "in the results header for resume validation)",
    )
    campaign_command.add_argument(
        "--out", help="stream per-fault JSONL records to this file"
    )
    campaign_command.add_argument(
        "--resume", action="store_true",
        help="skip shards already committed to --out",
    )
    campaign_command.add_argument(
        "--chunk", type=int, default=16,
        help="faults per shard (the unit of distribution and resume)",
    )
    campaign_command.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="faults per batched-kernel call within a shard (default: the "
             "whole shard at once — fastest for the golden backend, which "
             "shares the pristine prefix across a batch); an execution "
             "knob like --workers, never recorded in the artifact",
    )
    campaign_command.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="injection execution backend (registry: repro.exec.backends; "
             "default full, or the preset's): full replay, golden "
             "fork-at-fault, or cycle-measuring pipeline-golden — "
             "see docs/HARNESS.md and docs/PERFORMANCE.md",
    )
    campaign_command.add_argument(
        "--stop-after-shards", type=int, default=None, metavar="N",
        help="run at most N new shards then exit with partial results "
             "(kill/resume exercise used by `make harness-smoke`)",
    )
    campaign_command.add_argument("--iht", type=int, default=8)
    campaign_command.add_argument("--hash", default="xor")
    campaign_command.add_argument("--policy", default="lru_half")
    campaign_command.set_defaults(handler=cmd_campaign)

    attack_command = commands.add_parser(
        "attack", help="adversarial tampering sweep + detection matrix",
        parents=obs,
    )
    attack_command.add_argument(
        "target", help="workload name or assembly file path"
    )
    attack_command.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="small"
    )
    attack_command.add_argument(
        "--class", dest="attack_class", action="append", metavar="NAME",
        help="attack class to sweep (repeatable; also all/persistent/"
             "transient; default all)",
    )
    attack_command.add_argument(
        "--per-class", type=int, default=8,
        help="scenarios sampled per attack class (default 8)",
    )
    attack_command.add_argument(
        "--input", type=int, action="append",
        help="queue an integer for read_int (repeatable)",
    )
    attack_command.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1: serial, in-process)",
    )
    attack_command.add_argument(
        "--seed", type=int, default=42,
        help="corpus-sampling and campaign seed",
    )
    attack_command.add_argument(
        "--out", help="stream per-scenario JSONL records to this file"
    )
    attack_command.add_argument(
        "--resume", action="store_true",
        help="skip shards already committed to --out",
    )
    attack_command.add_argument(
        "--json", help="also write the detection matrix as JSON to this file"
    )
    attack_command.add_argument(
        "--chunk", type=int, default=16,
        help="scenarios per shard (the unit of distribution and resume)",
    )
    attack_command.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="full",
        help="injection execution backend (see `campaign --backend`)",
    )
    attack_command.add_argument("--iht", type=int, default=8)
    attack_command.add_argument(
        "--hash", action="append", metavar="NAME",
        help="hash function column (repeatable; default xor)",
    )
    attack_command.add_argument(
        "--policy", action="append", metavar="NAME",
        help="IHT replacement policy column (repeatable; default lru_half)",
    )
    attack_command.set_defaults(handler=cmd_attack)

    # ------------------------------------------------------------------
    # The service tier: serve / submit / jobs (repro.service)
    # ------------------------------------------------------------------

    def _tcp_endpoint(value: str) -> tuple[str, int]:
        host, _, port_text = value.rpartition(":")
        if not host or not port_text.isdigit():
            raise argparse.ArgumentTypeError(
                f"expected HOST:PORT, got {value!r}"
            )
        return host, int(port_text)

    service_parent = argparse.ArgumentParser(add_help=False)
    service_parent.add_argument(
        "--state-dir", default=".repro-service", metavar="DIR",
        help="service state directory: journal, socket, per-job results "
             "(default .repro-service)",
    )
    service_parent.add_argument(
        "--socket", metavar="PATH",
        help="unix socket path (default <state-dir>/service.sock)",
    )
    service_parent.add_argument(
        "--tcp", type=_tcp_endpoint, metavar="HOST:PORT",
        help="talk TCP instead of the unix socket",
    )

    serve_command = commands.add_parser(
        "serve",
        help="run the long-lived multi-tenant job server (repro.service)",
        parents=[observability, service_parent],
    )
    serve_command.add_argument(
        "--max-jobs", type=int, default=2, metavar="N",
        help="jobs executing concurrently (default 2)",
    )
    serve_command.add_argument(
        "--per-client", type=int, default=2, metavar="N",
        help="per-client concurrent-jobs cap (default 2)",
    )
    serve_command.add_argument(
        "--cache-capacity", type=int, default=8, metavar="N",
        help="checkpoint stores kept warm before LRU eviction (default 8)",
    )
    serve_command.add_argument(
        "--step-shards", type=int, default=4, metavar="N",
        help="shards per job step — the cancellation/drain granularity "
             "(default 4)",
    )
    serve_command.set_defaults(handler=cmd_serve)

    submit_parent = argparse.ArgumentParser(add_help=False)
    submit_parent.add_argument(
        "--client", default="anonymous", metavar="NAME",
        help="tenant name for fair scheduling (default anonymous)",
    )
    submit_parent.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="scheduling priority (higher first; default 0)",
    )
    submit_parent.add_argument(
        "--wait", action="store_true",
        help="block until the job(s) finish; exit 1 unless all done",
    )
    submit_parent.add_argument(
        "--watch", action="store_true",
        help="stream the job's live event/record lines as JSON to stdout",
    )
    submit_parent.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait gives up after this long (default 600)",
    )
    submit_parent.add_argument("--seed", type=int, default=42)
    submit_parent.add_argument(
        "--workers", type=int, default=1,
        help="worker processes the job runs with (default 1)",
    )

    submit_command = commands.add_parser(
        "submit",
        help="submit a job to a running `repro serve`",
    )
    submit_commands = submit_command.add_subparsers(
        dest="submit_command", required=True
    )
    submit_obs = [observability, service_parent, submit_parent]

    submit_campaign = submit_commands.add_parser(
        "campaign", help="submit a fault-injection campaign",
        parents=submit_obs,
    )
    submit_campaign.add_argument(
        "target",
        help="workload name, assembly file, or `all` (one job per "
             "workload — the preset's roster, or the whole suite)",
    )
    submit_campaign.add_argument(
        "--preset", metavar="NAME", choices=CAMPAIGN_PRESET_CHOICES,
        help="named campaign from repro.exec.presets",
    )
    submit_campaign.add_argument(
        "--scale", choices=("tiny", "small", "default"), default=None,
    )
    submit_campaign.add_argument("--faults", type=int, default=None)
    submit_campaign.add_argument("--chunk", type=int, default=16)
    submit_campaign.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
    )
    submit_campaign.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
    )
    submit_campaign.add_argument("--iht", type=int, default=8)
    submit_campaign.add_argument("--hash", default="xor")
    submit_campaign.add_argument("--policy", default="lru_half")
    submit_campaign.set_defaults(handler=cmd_submit_campaign)

    submit_dse = submit_commands.add_parser(
        "dse", help="submit a design-space sweep", parents=submit_obs
    )
    submit_dse.add_argument(
        "--preset", metavar="NAME",
        help="named space from repro.dse.presets",
    )
    submit_dse.add_argument("--hash", action="append", metavar="NAME")
    submit_dse.add_argument("--iht", type=int, action="append", metavar="N")
    submit_dse.add_argument("--policy", action="append", metavar="NAME")
    submit_dse.add_argument("--workload", action="append", metavar="NAME")
    submit_dse.add_argument(
        "--scale", choices=("tiny", "small", "default"), default=None,
    )
    submit_dse.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="golden",
    )
    submit_dse.add_argument("--chunk", type=int, default=4)
    submit_dse.set_defaults(handler=cmd_submit_dse)

    submit_attack = submit_commands.add_parser(
        "attack", help="submit an adversarial tampering sweep",
        parents=submit_obs,
    )
    submit_attack.add_argument(
        "target", help="workload name, or `all` (one job per workload)"
    )
    submit_attack.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="tiny",
    )
    submit_attack.add_argument(
        "--class", dest="attack_class", action="append", metavar="NAME",
    )
    submit_attack.add_argument("--per-class", type=int, default=4)
    submit_attack.add_argument("--chunk", type=int, default=16)
    submit_attack.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="golden",
    )
    submit_attack.add_argument("--iht", type=int, default=8)
    submit_attack.add_argument("--hash", action="append", metavar="NAME")
    submit_attack.add_argument("--policy", action="append", metavar="NAME")
    submit_attack.set_defaults(handler=cmd_submit_attack)

    submit_coverage = submit_commands.add_parser(
        "coverage", help="submit a coverage corpus run", parents=submit_obs
    )
    submit_coverage.add_argument(
        "corpus", choices=COVERAGE_CORPUS_CHOICES,
    )
    submit_coverage.add_argument("--chunk", type=int, default=64)
    submit_coverage.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
    )
    submit_coverage.set_defaults(handler=cmd_submit_coverage)

    jobs_command = commands.add_parser(
        "jobs",
        help="list/inspect/cancel jobs on a running `repro serve`",
        parents=[observability, service_parent],
    )
    jobs_command.add_argument(
        "--client", default="anonymous", metavar="NAME",
        help="tenant name to identify as (default anonymous)",
    )
    jobs_group = jobs_command.add_mutually_exclusive_group()
    jobs_group.add_argument(
        "--stats", action="store_true",
        help="server statistics: queue depth, checkpoint-cache hit rates",
    )
    jobs_group.add_argument(
        "--watch", metavar="ID",
        help="stream one job's live event/record lines as JSON",
    )
    jobs_group.add_argument(
        "--cancel", metavar="ID",
        help="cancel a job (queued: immediately; running: at the next "
             "shard-step boundary)",
    )
    jobs_group.add_argument(
        "--shutdown", action="store_true",
        help="gracefully stop the server (running jobs resume on restart)",
    )
    jobs_command.set_defaults(handler=cmd_jobs)

    dse_command = commands.add_parser(
        "dse", help="design-space exploration (sweep / frontier / report)"
    )
    dse_commands = dse_command.add_subparsers(dest="dse_command", required=True)

    sweep_command = dse_commands.add_parser(
        "sweep", help="evaluate a monitor-configuration grid", parents=obs
    )
    sweep_command.add_argument(
        "--preset", metavar="NAME",
        help="named space from repro.dse.presets; any space flag given "
             "explicitly overrides the preset's value",
    )
    sweep_command.add_argument(
        "--hash", action="append", metavar="NAME",
        help="hash-axis value (repeatable; default xor,crc32)",
    )
    sweep_command.add_argument(
        "--iht", type=int, action="append", metavar="N",
        help="IHT-entries axis value (repeatable; default 4,8,16,32)",
    )
    sweep_command.add_argument(
        "--policy", action="append", metavar="NAME",
        help="replacement-policy axis value (repeatable; default lru_half)",
    )
    sweep_command.add_argument(
        "--penalty", type=int, action="append", metavar="CYCLES",
        help="OS miss-penalty axis value (repeatable; default 100)",
    )
    sweep_command.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload measured per point (repeatable; "
             "default sha,dijkstra,bitcount)",
    )
    sweep_command.add_argument(
        "--scale", choices=("tiny", "small", "default"), default=None,
        help="workload build scale (default tiny)",
    )
    sweep_command.add_argument(
        "--adversary", choices=("attacks", "same-column", "none"),
        default=None,
        help="detection-objective source (default: the attack corpus)",
    )
    sweep_command.add_argument(
        "--class", dest="attack_class", action="append", metavar="NAME",
        help="attack class for --adversary attacks (repeatable; default all)",
    )
    sweep_command.add_argument(
        "--per-class", type=int, default=None,
        help="scenarios sampled per attack class (default 4)",
    )
    sweep_command.add_argument(
        "--pair-count", type=int, default=None,
        help="pairs per workload for --adversary same-column (default 24)",
    )
    sweep_command.add_argument("--seed", type=int, default=42)
    sweep_command.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1: serial, in-process)",
    )
    sweep_command.add_argument(
        "--chunk", type=int, default=4,
        help="configurations per shard (the unit of distribution and resume)",
    )
    sweep_command.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="golden",
        help="campaign backend for detection objectives (default golden; "
             "pipeline-golden additionally scores measured_cycle_overhead "
             "on the cycle-level pipeline; see `campaign --backend`)",
    )
    sweep_command.add_argument(
        "--out", help="stream per-point JSONL records to this file"
    )
    sweep_command.add_argument(
        "--resume", action="store_true",
        help="skip shards already committed to --out",
    )
    sweep_command.add_argument(
        "--stop-after-shards", type=int, default=None, metavar="N",
        help="run at most N new shards then exit with partial results "
             "(kill/resume exercise used by `make harness-smoke`)",
    )
    sweep_command.set_defaults(handler=cmd_dse_sweep)

    frontier_command = dse_commands.add_parser(
        "frontier", help="Pareto frontier of a sweep file", parents=obs
    )
    frontier_command.add_argument(
        "points", help="JSONL sweep file written by `dse sweep --out`"
    )
    frontier_command.add_argument(
        "--objective", action="append", metavar="NAME",
        help="objective to optimize (repeatable; default "
             "area_overhead,detection_latency,miss_rate)",
    )
    frontier_command.add_argument(
        "--json", help="also write the frontier as JSON to this file"
    )
    frontier_command.set_defaults(handler=cmd_dse_frontier)

    report_command = dse_commands.add_parser(
        "report", help="ranked trade-off report of a sweep file", parents=obs
    )
    report_command.add_argument(
        "points", help="JSONL sweep file written by `dse sweep --out`"
    )
    report_command.add_argument(
        "--objective", action="append", metavar="NAME",
        help="objective subset for the frontier (repeatable)",
    )
    report_command.add_argument(
        "--out", help="also write the rendered report to this file"
    )
    report_command.set_defaults(handler=cmd_dse_report)

    coverage_command = commands.add_parser(
        "coverage",
        help="exhaustive ground-truth coverage matrices (run/diff/check)",
    )
    coverage_commands = coverage_command.add_subparsers(
        dest="coverage_command", required=True
    )

    def _coverage_exec_flags(sub):
        sub.add_argument(
            "--workers", type=int, default=1,
            help="worker processes (default 1: serial, in-process)",
        )
        sub.add_argument(
            "--chunk", type=int, default=64,
            help="injections per shard (default 64; an execution knob — "
                 "the matrix is identical for any value)",
        )
        sub.add_argument(
            "--batch-size", type=int, default=None, metavar="N",
            help="injections per batched-kernel call within a shard "
                 "(see `campaign --batch-size`)",
        )

    coverage_run_command = coverage_commands.add_parser(
        "run", help="execute a named corpus and write its matrix",
        parents=obs,
    )
    coverage_run_command.add_argument(
        "corpus", choices=COVERAGE_CORPUS_CHOICES,
        help="named corpus from repro.coverage "
             f"({', '.join(COVERAGE_CORPUS_CHOICES)})",
    )
    coverage_run_command.add_argument(
        "--out", help="artifact path (default: results/coverage/<name>.json)"
    )
    _coverage_exec_flags(coverage_run_command)
    coverage_run_command.set_defaults(handler=cmd_coverage_run)

    coverage_diff_command = coverage_commands.add_parser(
        "diff",
        help="re-derive a committed matrix and report per-cell deltas",
        parents=obs,
    )
    coverage_diff_command.add_argument(
        "path", help="committed coverage matrix artifact"
    )
    coverage_diff_command.add_argument(
        "--against", metavar="FILE",
        help="compare against another matrix file instead of re-deriving",
    )
    coverage_diff_command.add_argument(
        "--workload", action="append", metavar="NAME",
        help="restrict the re-derivation and comparison to these corpus "
             "targets (repeatable; default: the whole corpus)",
    )
    _coverage_exec_flags(coverage_diff_command)
    coverage_diff_command.set_defaults(handler=cmd_coverage_diff)

    coverage_check_command = coverage_commands.add_parser(
        "check",
        help="validate matrix artifacts (schema, fingerprint, consistency)",
        parents=obs,
    )
    coverage_check_command.add_argument(
        "path", help="one matrix file, or a directory scanned recursively"
    )
    coverage_check_command.set_defaults(handler=cmd_coverage_check)

    stats_command = commands.add_parser(
        "stats",
        help="render, follow, export, or diff run telemetry",
        parents=obs,
    )
    stats_command.add_argument(
        "path",
        help="one metrics file or a directory scanned recursively; "
             "or the verb `diff` followed by two artifacts",
    )
    stats_command.add_argument(
        "extra", nargs="*",
        help="for `stats diff`: the two artifacts to compare "
             "(*.metrics.json or BENCH_*.json)",
    )
    stats_command.add_argument(
        "--check", action="store_true",
        help="also validate each file against the metrics schema — and "
             "its *.events.jsonl sibling when present — "
             "(repro.obs.schema); exit 1 on any violation",
    )
    stats_command.add_argument(
        "--follow", action="store_true",
        help="tail the run's *.events.jsonl live (alias: `repro top`); "
             "prints shard progress, throughput, cache hits, and ETA, "
             "or just the final summary when the run already finished",
    )
    stats_command.add_argument(
        "--interval", type=float, default=0.2, metavar="SECONDS",
        help="--follow poll interval (default 0.2s)",
    )
    stats_command.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="--follow gives up (exit 1) after this long without a "
             "run-finished event (default: wait forever)",
    )
    stats_command.add_argument(
        "--export-trace", metavar="FILE",
        help="write the run as Chrome/Perfetto trace_event JSON "
             "(event timeline + span tree; open in ui.perfetto.dev)",
    )
    stats_command.add_argument(
        "--gate", type=float, default=None, metavar="PCT",
        help="for `stats diff`: exit 1 when any gated metric regressed "
             "by at least PCT percent",
    )
    stats_command.set_defaults(handler=cmd_stats)

    top_command = commands.add_parser(
        "top",
        help="live view of a running campaign/sweep "
             "(alias of `stats --follow`)",
        parents=obs,
    )
    top_command.add_argument(
        "path", help="the run's results, metrics, or events file"
    )
    top_command.add_argument(
        "--interval", type=float, default=0.2, metavar="SECONDS",
        help="poll interval (default 0.2s)",
    )
    top_command.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up (exit 1) after this long without a run-finished "
             "event (default: wait forever)",
    )
    top_command.set_defaults(
        handler=cmd_stats, follow=True, check=False,
        export_trace=None, gate=None, extra=[],
    )

    experiments_command = commands.add_parser(
        "experiments", help="regenerate paper tables/figures", parents=obs
    )
    experiments_command.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="default"
    )
    experiments_command.set_defaults(handler=cmd_experiments)
    return parser


def _apply_observability(args: argparse.Namespace) -> None:
    """Map the uniform flags onto the process-wide logger and telemetry.

    The level is set unconditionally (not only when a flag is given) so
    repeated in-process ``main()`` calls — the test suite's idiom — don't
    leak one invocation's verbosity into the next.
    """
    if getattr(args, "quiet", False):
        set_level("warning")
    elif getattr(args, "verbose", False):
        set_level("debug")
    else:
        set_level("info")
    if getattr(args, "no_telemetry", False):
        obs_core.set_enabled(False)
    else:
        obs_core.set_enabled(
            os.environ.get(obs_core.ENV_SWITCH, "1") != "0"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_observability(args)
    try:
        return args.handler(args)
    except MonitorViolation as violation:
        # A detection event, not a tool failure: distinct exit code so
        # scripts can tell "tampering caught" from "invocation broken".
        log.error(f"VIOLATION: {violation}")
        return EXIT_VIOLATION
    except ReproError as error:
        log.error(f"error: {error}")
        return 1
    except OSError as error:
        log.error(f"error: {error}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
