"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition with a JSON config and
reads back the JSON result it writes.  A fresh interpreter per
repetition is deliberate: ``repro.eval.common`` memoizes whole
simulations with ``lru_cache``, warm worker pools and the decode cache
outlive a run, so a second repetition inside one process would time
those caches instead of the program (see NOTES.md).

Usage: python3 rep.py CONFIG.json
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

from speed import Speedometer  # noqa: E402
from util import canonical_digest  # noqa: E402

#: The classification outcomes; a record with any other outcome is an
#: internal error and counts as a failed operation.
OUTCOMES = (
    "detected-cic",
    "detected-baseline",
    "crashed",
    "hang",
    "silent-corruption",
    "benign",
)
#: OS cycle charge per IHT miss used by the Table-1 roster.
MISS_PENALTY = 100


class Rep:
    """State and result of one repetition."""

    def __init__(self, config: dict):
        self.config = config
        self.workload = config["workload"]
        self.setup_only = config["mode"] == "setup"
        self.inputs = config["inputs"]
        self.budget = config["budget"]
        self.stamps = {"spawn": config["spawn_t"], "start": T_START}
        self.metrics: dict = {}
        self.ledger: dict = {}
        self.service_layers: dict = {}
        #: Metric name -> samples that run.py pools across repetitions:
        #: the median of each, and for ``first_record_ms`` its p50/p95.
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        #: Times in the metrics and samples are reference seconds (see
        #: speed.py); the raw wall-clock values are kept beside them.
        self.speed = Speedometer()
        self.raw: dict = {}

    def now(self) -> float:
        return time.perf_counter()

    def span(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds."""
        return self.speed.reference_seconds(start, end)

    def stamp(self, name: str, at: float | None = None) -> float:
        self.stamps[name] = self.now() if at is None else at
        return self.stamps[name]

    def imported(self) -> None:
        """Mark the end of imports; install the tracer in traced runs."""
        self.stamp("imported")
        if self.config["trace"]:
            from tracer import Tracer

            self.tracer = Tracer(self.config["run_id"])
            self.tracer.install()

    def measured(self) -> None:
        """End of the measured work: stop tracing and the speed samples
        before the oracles run, so their calls do not count as the
        workload's."""
        self.speed.stop()
        if self.tracer is not None:
            self.tracer.uninstall()

    def check(self, ok: bool, message: str) -> bool:
        """Record an oracle check; a failed check fails one operation."""
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def crash(self, what: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {traceback.format_exc(limit=4)}")

    def result(self) -> dict:
        data = {
            "workload": self.workload,
            "mode": self.config["mode"],
            "stamps": self.stamps,
            "setup_s": self.span(self.stamps["spawn"], self.stamps["ready"]),
            "metrics": self.metrics,
            "raw": {"setup_s": self.stamps["ready"] - self.stamps["spawn"], **self.raw},
            "speed_factor": self.speed.factor(),
            "samples": self.samples,
            "ledger": self.ledger,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }
        if self.tracer is not None:
            from layers import layer_metrics

            data["layers"] = layer_metrics(self)
            data["spans"] = self.tracer.dump(
                self.config["spans_path"], origin=self.stamps["spawn"]
            )
        return data


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def histogram(outcomes) -> dict:
    """Count of each outcome value, in sorted order."""
    return dict(sorted(Counter(outcomes).items()))


def internal_errors(records) -> int:
    return sum(1 for record in records if record.outcome.value not in OUTCOMES)


def shard_commits(out: str, offset: float) -> list[tuple[float, int]]:
    """(perf-counter time, records) of each shard commit of a run.

    Read from the run's own event log (``<out>.events.jsonl``), whose
    wall-clock stamps *offset* converts to this process's perf counter.
    """
    from repro.obs.events import events_path

    commits = []
    with open(events_path(out), encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("type") == "shard-committed":
                commits.append((event["t"] - offset, event["records"]))
    return commits


# ----------------------------------------------------------------------
# artifacts: the paper's evaluation roster
# ----------------------------------------------------------------------


def artifacts(rep: Rep) -> None:
    # Called through the module, so the traced run's wrappers are seen.
    import repro.eval as roster

    rep.imported()
    rep.stamp("ready")
    if rep.setup_only:
        return
    scale = rep.inputs["scale"]
    # The roster of examples/paper_experiments.py, called in-process.
    fault_scale = "small" if scale != "tiny" else "tiny"
    steps = [
        ("fig6_miss_rate", lambda: roster.run_fig6(scale=scale)),
        ("table1_cycles", lambda: roster.run_table1(scale=scale)),
        ("table2_area", lambda: roster.run_table2()),
        (
            "fault_analysis_xor",
            lambda: roster.run_fault_analysis(
                workload="dijkstra",
                scale=fault_scale,
                single_bit_count=150,
                multi_bit_count=60,
            ),
        ),
        ("ablation_policies", lambda: roster.run_policy_ablation(scale=scale)),
        (
            "ablation_hashes",
            lambda: roster.run_hash_ablation(
                workload="dijkstra",
                scale=fault_scale,
                pair_count=40,
            ),
        ),
    ]
    results, times, digests = {}, {}, {}
    started = rep.now()
    for name, make in steps:
        rep.attempted += 1
        began = rep.now()
        try:
            result = make()
            text = result.table().render()
        except Exception:  # noqa: BLE001 - an artifact not produced is a failure
            rep.crash(name)
            continue
        times[name] = rep.span(began, rep.now())
        results[name] = result
        digests[name] = canonical_digest(text)
    ended = rep.now()
    wall = rep.span(started, ended)
    rep.raw["artifacts_s"] = ended - started
    rep.metrics["peak_rss_mb"] = peak_rss_mb()
    rep.measured()

    # Oracle 1: the Table-1 identity, every row and IHT size.
    table1 = results.get("table1_cycles")
    if table1 is not None:
        for row in table1.rows:
            for size, cycles in row.monitored_cycles.items():
                rep.check(
                    cycles == row.base_cycles + row.misses[size] * MISS_PENALTY,
                    f"table1 {row.workload} IHT{size}: {cycles} != "
                    f"{row.base_cycles} + {row.misses[size]} x {MISS_PENALTY}",
                )
    # Oracle 2: every rendered table matches its pinned digest.
    expected = rep.inputs["digests"]
    for name, digest in digests.items():
        rep.check(digest == expected[name], f"{name}: table digest {digest[:16]} differs")

    injections = 0
    fault = results.get("fault_analysis_xor")
    if fault is not None:
        injections = sum(scenario.report.total for scenario in fault.scenarios)
        rep.ledger["fault_outcomes"] = {
            scenario.label: histogram(
                result.outcome.value for result in scenario.report.results
            )
            for scenario in fault.scenarios
        }
    fig6 = results.get("fig6_miss_rate")
    cells = sum(len(row.miss_rates) for row in fig6.rows) if fig6 else 0
    if table1 is not None:
        from repro.eval.common import baseline_run

        rep.ledger["table1"] = {
            row.workload: {
                "base_cycles": row.base_cycles,
                "monitored_cycles": row.monitored_cycles,
                "iht_lookups": row.lookups,
                "iht_misses": row.misses,
                "funcsim_instructions": baseline_run(row.workload, scale).instructions,
            }
            for row in table1.rows
        }
    rep.ledger["table_digests"] = digests
    rep.samples = {"first_record_ms": [seconds * 1e3 for seconds in times.values()]}
    rep.metrics.update(
        artifacts_s=wall,
        faults_per_s=injections / times["fault_analysis_xor"] if fault else 0.0,
        jobs_per_s=len(results) / wall,
        points_per_s=cells / times["fig6_miss_rate"] if fig6 else 0.0,
    )


# ----------------------------------------------------------------------
# campaign: cold CLI-equivalent golden campaign, then warm rounds
# ----------------------------------------------------------------------


def campaign(rep: Rep) -> None:
    from repro.exec.records import fault_from_json
    from repro.exec.runner import CampaignRunner, Workspace
    from repro.exec.spec import CampaignSpec

    rep.imported()
    offset = time.time() - time.perf_counter()
    spec = CampaignSpec(**rep.inputs["spec"])
    rounds = [
        (item["seed"], [fault_from_json(data) for data in item["faults"]])
        for item in rep.inputs["rounds"]
    ]
    runner = CampaignRunner(spec, workers=rep.inputs["workers"])
    if rep.setup_only:
        # The same cold start, stopped once its first shard commits.
        seed, faults = rounds[0]
        runner.run(faults, seed=seed, out="round0.jsonl", stop_after_shards=1)
        rep.stamp("ready", shard_commits("round0.jsonl", offset)[0][0])
        return
    # Per round: injections and shards committed after set-up, the time
    # they took, the round's wall time, and the gaps between commits.
    per_round: list[tuple[int, int, float, float]] = []
    gaps_ms: list[float] = []
    raw_rates: list[float] = []
    outcomes = {}
    sample = {}
    index = 0
    # Every repetition starts with round 0, the cold campaign; after it,
    # repetition k of K runs rounds k+1, k+1+K, ... so that one run
    # measures as many distinct injections as it can.
    stride = rep.config["repetitions"]
    while True:
        number = 0 if index == 0 else (1 + rep.config["index"] + (index - 1) * stride) % len(rounds)
        seed, faults = rounds[number]
        out = f"round{index}.jsonl"
        began = rep.now()
        rep.attempted += len(faults)
        result = runner.run(faults, seed=seed, out=out)
        ended = rep.now()
        committed = shard_commits(out, offset)
        commits = [moment for moment, _records in committed]
        rep.failed += (result.total - len(result.records)) + internal_errors(result.records)
        if index == 0:
            # Set-up ends when the cold campaign commits its first shard.
            rep.stamp("ready", commits[0])
            records = len(result.records) - committed[0][1]
            by_index = {record.index: record for record in result.records}
            sample = {i: by_index.get(i) for i in rep.inputs["oracle"]}
        else:
            records = len(result.records)
            commits.insert(0, began)
        raw_rates.append(records / (ended - commits[0]))
        per_round.append(
            (records, len(commits) - 1, rep.span(commits[0], ended), rep.span(began, ended))
        )
        gaps_ms.extend(rep.span(a, b) * 1e3 for a, b in zip(commits, commits[1:]))
        ordered = sorted(result.records, key=lambda record: record.index)
        entry = {
            "outcomes": histogram(record.outcome.value for record in ordered),
            "latency_sum": sum(record.latency or 0 for record in ordered),
            "records": canonical_digest([record.to_json() for record in ordered]),
        }
        rep.check(
            outcomes.setdefault(str(number), entry) == entry,
            f"round {number} gave different records when run again",
        )
        index += 1
        # At least one warm round, whatever the budget.
        if index >= 2 and ended - rep.stamps["ready"] >= rep.budget:
            break
    rep.metrics["peak_rss_mb"] = peak_rss_mb()
    rep.measured()
    rep.raw["faults_per_s"] = statistics.median(raw_rates)
    store = runner.workspace.state
    rep.ledger = {
        "golden_instructions": runner.workspace.context.golden_instructions,
        "golden_checkpoints": len(getattr(store, "checkpoints", ())),
        **{f"round {number}": entry for number, entry in outcomes.items()},
    }
    # Rates are medians over rounds, pooled across repetitions by run.py:
    # a round's cost depends on the few injections that escape detection
    # and run to the end, and the host's speed drifts within a run.
    warm = per_round[1:]
    rep.samples = {
        "faults_per_s": [records / seconds for records, _, seconds, _ in per_round],
        "jobs_per_s": [shards / seconds for _, shards, seconds, _ in per_round],
        "artifacts_s": [wall for *_, wall in warm],
        "points_per_s": [1.0 / wall for *_, wall in warm],
        "first_record_ms": gaps_ms,
    }
    if not rep.config["oracle"]:
        return
    # Oracle: sampled round-0 records re-run on the full backend.
    full = Workspace.build(CampaignSpec(**{**rep.inputs["spec"], "backend": "full"}))
    first = rep.inputs["rounds"][0]["faults"]
    for fault_index, record in sample.items():
        if not rep.check(record is not None, f"round 0 record {fault_index} missing"):
            continue
        truth = full.run_fault(fault_from_json(first[fault_index]))
        rep.check(
            (truth.outcome, truth.latency) == (record.outcome, record.latency),
            f"record {fault_index}: golden {record.outcome.value}/{record.latency} "
            f"!= full {truth.outcome.value}/{truth.latency}",
        )


# ----------------------------------------------------------------------
# service: in-process job server, tenants in closed loops
# ----------------------------------------------------------------------


def service(rep: Rep) -> None:
    import asyncio
    import threading

    from repro.service.client import ServiceClient, ServiceError
    from repro.service.server import ReproService, ServiceConfig

    rep.imported()
    # A relative socket path keeps the unix-socket name short whatever
    # the checkout's path; the repetition runs in its own directory.  The
    # watch stream polls every 5 ms, as benchmarks/bench_service.py does:
    # at the 50 ms default a latency is a whole number of ticks, and the
    # median flips between ticks from one run to the next.  One job runs
    # at a time, so the fair queue alternates the tenants: with two
    # concurrent jobs sharing the interpreter lock, a cache hit took 2x
    # as long while the other tenant's job built its cache, and the
    # median latency jumped between the two groups (NOTES.md).
    config = ServiceConfig(state_dir="svc", socket_path="svc.sock", poll=0.005, max_jobs=1)
    server = ReproService(config)
    # Daemon only as a safety net: the finally block shuts it down.
    thread = threading.Thread(
        target=lambda: asyncio.run(server.main()), name="server", daemon=True
    )
    thread.start()
    try:
        while True:
            try:
                ServiceClient(socket_path="svc.sock", client="probe").ping()
                break
            except ServiceError:
                if rep.now() - rep.stamps["start"] > 60:
                    raise
                time.sleep(0.002)
        rep.stamp("ready")
        if rep.setup_only:
            return
        jobs = _drive_tenants(rep)
        stats = ServiceClient(socket_path="svc.sock", client="stats").stats()
        rep.metrics["peak_rss_mb"] = peak_rss_mb()
        rep.measured()
    finally:
        try:
            ServiceClient(socket_path="svc.sock", client="stop").shutdown()
        except ServiceError:
            pass
        thread.join(timeout=120)
    _service_results(rep, jobs, stats)


def _drive_tenants(rep: Rep) -> list[dict]:
    """Each tenant submits its stream in a closed loop until time is up.

    A job the server refuses or loses ends its tenant's loop and is
    returned without a final status, so it counts as failed.
    """
    import threading

    from repro.service.client import ServiceClient, ServiceError

    done: list[dict] = []
    lock = threading.Lock()
    deadline = rep.stamps["ready"] + rep.budget

    def tenant(number: int, stream: list[dict]) -> None:
        client = ServiceClient(socket_path="svc.sock", client=f"tenant-{number}")
        for position, payload in enumerate(stream):
            if rep.now() >= deadline:
                return
            entry = {
                "tenant": number,
                "position": position,
                "payload": payload,
                "id": None,
                "submitted": rep.now(),
                "first": None,
                "status": None,
            }
            try:
                entry["id"] = client.submit(payload)["id"]
                for line in client.watch(entry["id"]):
                    kind = line.get("stream")
                    if entry["first"] is None and kind == "record" and line["data"].get("type") == "record":
                        entry["first"] = rep.now()
                    elif kind == "end":
                        entry["status"] = line["job"]
            except ServiceError as error:
                rep.errors.append(f"tenant {number} job {position}: {error}")
            entry["ended"] = rep.now()
            with lock:
                done.append(entry)
            if entry["status"] is None:
                return

    tenants = [
        threading.Thread(target=tenant, args=(number, stream), name=f"tenant-{number}")
        for number, stream in enumerate(rep.inputs["tenants"][: rep.inputs["workers"]])
    ]
    for thread in tenants:
        thread.start()
    for thread in tenants:
        thread.join(timeout=300)
    return done


def _job_records(job_id: str) -> list[dict]:
    with open(os.path.join("svc", "jobs", job_id + ".jsonl"), encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    return sorted(
        (line for line in lines if line.get("type") == "record"),
        key=lambda line: line["index"],
    )


def _service_results(rep: Rep, jobs: list[dict], stats: dict) -> None:
    from repro.exec.runner import CampaignRunner
    from repro.exec.spec import CampaignSpec

    rep.attempted = len(jobs)
    if not jobs:
        rep.check(False, "no service job completed within the run")
        return
    ok = [
        job
        for job in jobs
        if job["status"] is not None and job["status"]["state"] == "done" and job["first"] is not None
    ]
    rep.failed += len(jobs) - len(ok)
    last = max(job["ended"] for job in jobs)
    window = rep.span(rep.stamps["ready"], last)
    rep.raw["jobs_per_s"] = len(ok) / (last - rep.stamps["ready"])
    records = {job["id"]: _job_records(job["id"]) for job in ok}
    for job in ok:
        rep.failed += sum(1 for line in records[job["id"]] if line["outcome"] not in OUTCOMES)
    first_ms = [rep.span(job["submitted"], job["first"]) * 1e3 for job in ok]
    specs = {canonical_digest(job["payload"]["spec"]) for job in ok}
    rep.metrics.update(
        # Mean, not median: in a closed loop it is tenants / throughput
        # (Little's law), while the median sits between the hit and miss
        # job clusters and jumps between them from run to run.
        artifacts_s=statistics.fmean(rep.span(job["submitted"], job["ended"]) for job in ok),
        faults_per_s=sum(job["payload"]["faults"] for job in ok) / window,
        jobs_per_s=len(ok) / window,
        points_per_s=len(specs) / window,
    )
    rep.samples = {"first_record_ms": first_ms}
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    rep.service_layers = {
        "service.queue_wait_ms": statistics.median(
            (job["status"]["started_t"] - job["status"]["submitted_t"]) * 1e3 for job in ok
        ),
        "service.run_ms": statistics.median(
            (job["status"]["finished_t"] - job["status"]["started_t"]) * 1e3 for job in ok
        ),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
    }
    rep.ledger = {
        f"{job['tenant']}:{job['position']}": {
            "outcomes": histogram(line["outcome"] for line in records[job["id"]]),
            "records": canonical_digest(records[job["id"]]),
        }
        for job in ok
    }
    # Oracle: a seeded sample of jobs re-run serially in-process.
    rng = random.Random(rep.inputs["oracle_seed"])
    for job in rng.sample(ok, min(len(ok), rep.inputs["oracle_sample"])):
        payload = job["payload"]
        runner = CampaignRunner(
            CampaignSpec.from_json(payload["spec"]), chunk_size=payload["chunk_size"]
        )
        faults = runner.campaign.random_single_bit(payload["faults"], seed=payload["seed"])
        serial = runner.run(faults, seed=payload["seed"]).records
        expected = [record.to_json() for record in sorted(serial, key=lambda r: r.index)]
        rep.check(
            expected == records[job["id"]],
            f"job {job['id']} ({job['tenant']}:{job['position']}) records differ from a serial run",
        )


# ----------------------------------------------------------------------
# dse: the paper design space on the cycle-measuring backend
# ----------------------------------------------------------------------

#: The frontier objectives (all minimized), restated so the oracle does
#: not take them from the code it checks.
FRONTIER = ("area_overhead", "detection_latency", "miss_rate")


def _brute_frontier(points: list) -> list[int]:
    """Indexes of the points no other point dominates (None = worst)."""
    keys = {
        point.index: [
            float("inf") if point.objectives.get(name) is None else point.objectives[name]
            for name in FRONTIER
        ]
        for point in points
    }
    return [
        point.index
        for point in points
        if not any(
            keys[other.index] != keys[point.index]
            and all(a <= b for a, b in zip(keys[other.index], keys[point.index]))
            for other in points
        )
    ]


def dse(rep: Rep) -> None:
    from repro.dse import DseSweep, get_preset

    rep.imported()
    space = get_preset(rep.inputs["preset"])
    # One point per shard, so every point's commit is a latency sample.
    sweep = DseSweep(
        space, seed=rep.inputs["seed"], workers=1, chunk_size=1, backend=rep.inputs["backend"]
    )
    rep.stamp("ready")
    if rep.setup_only:
        return
    offset = time.time() - time.perf_counter()
    out = "dse.jsonl"
    rep.attempted = space.size
    began = rep.now()
    result = sweep.run(out=out)
    ended = rep.now()
    wall = rep.span(began, ended)
    rep.raw["points_per_s"] = space.size / (ended - began)
    rep.metrics["peak_rss_mb"] = peak_rss_mb()
    rep.measured()
    points = sorted(result.points, key=lambda point: point.index)
    rep.failed += result.total - len(points)
    commits = [began] + [moment for moment, _ in shard_commits(out, offset)]
    rep.samples = {"first_record_ms": [rep.span(a, b) * 1e3 for a, b in zip(commits, commits[1:])]}
    injections = sum(
        entry.get("injections", 0) for point in points for entry in point.per_workload.values()
    )
    rep.metrics.update(
        artifacts_s=wall,
        points_per_s=len(points) / wall,
        faults_per_s=injections / wall,
        jobs_per_s=len(rep.samples["first_record_ms"]) / wall,
    )
    rep.ledger = {
        "points": canonical_digest([point.to_json() for point in points]),
        "pipeline_cycles": sum(
            entry.get("monitored_cycles", 0) for point in points for entry in point.per_workload.values()
        ),
        "iht_lookups": sum(entry["lookups"] for point in points for entry in point.per_workload.values()),
        "iht_misses": sum(entry["misses"] for point in points for entry in point.per_workload.values()),
        "injections": injections,
    }
    _dse_oracle(rep, space, points)


def _dse_oracle(rep: Rep, space, points: list) -> None:
    from repro.dse import DEFAULT_FRONTIER, DseWorkspaceFactory, evaluate_point, pareto_frontier

    rep.check(
        [point.index for point in pareto_frontier(points, DEFAULT_FRONTIER)] == _brute_frontier(points),
        "frontier differs from a brute-force dominance check",
    )
    rng = random.Random(rep.inputs["oracle_seed"])
    subset = sorted(rng.sample(points, min(len(points), rep.inputs["oracle_sample"])), key=lambda p: p.index)
    workspace = DseWorkspaceFactory(space, rep.inputs["seed"], rep.inputs["backend"]).build()
    rerun = [evaluate_point(workspace, point.index, point.shard, point.config) for point in subset]
    for point, again in zip(subset, rerun):
        rep.check(point.to_json() == again.to_json(), f"point {point.index} differs on re-run")
    rep.check(
        _brute_frontier(subset) == _brute_frontier(rerun),
        "frontier of the re-run subset differs",
    )


WORKLOADS = {"artifacts": artifacts, "campaign": campaign, "service": service, "dse": dse}


def main(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    rep = Rep(config)
    rep.speed.start()
    try:
        WORKLOADS[config["workload"]](rep)
    finally:
        rep.speed.stop()
    data = rep.result()
    with open(config["result_path"], "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
