"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command makes the workload's inputs
from ``--seed``, runs its repetitions (each in a fresh interpreter, see
``rep.py``), checks every output against the workload's oracle, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the wrappers of ``tracer.py`` are
installed and the metrics are the per-layer ones.  Everything the run
writes stays under ``.perfbench/`` in the checkout: temporary state
(removed at the end), span files, the exact-statistics ledger and the
last untraced result of each workload (the reference for the tracing
overhead).  The exit code is 0 when every output is correct, 1 when an
oracle failed, 2 when the checkout cannot run the benchmark.

See NOTES.md for the workloads, the metrics and the oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

from util import percentile  # noqa: E402

#: Roster scale of the artifacts workload; NOTES.md says why not default.
ARTIFACTS_SCALE = "small"
#: Repetitions per run: (measuring, set-up only).  Each is a fresh
#: interpreter; set-up is measured in all of them.
REPETITIONS = {
    "artifacts": (1, 2),
    "campaign": (1, 2),
    "service": (1, 2),
    "dse": (1, 2),
}
#: The end-to-end metric whose traced/untraced ratio is the tracing
#: overhead, with +1 when higher is better.
PRIMARY = {
    "artifacts": ("artifacts_s", -1),
    "campaign": ("faults_per_s", 1),
    "service": ("jobs_per_s", 1),
    "dse": ("points_per_s", 1),
}
REP_TIMEOUT = 150


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_stamp() -> dict:
    """Provenance stamped on every result: host, interpreter, commit."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def make_inputs(workload: str, seed: int, nproc: int) -> dict:
    """The workload's inputs, made from *seed* alone (plus host caps)."""
    sys.path.insert(0, SRC)
    from inputs import MAKERS

    inputs = MAKERS[workload](seed)
    inputs["workers"] = min(2, nproc)
    inputs["seed"] = seed
    if workload == "artifacts":
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
            pinned = json.load(handle)
        inputs["scale"] = ARTIFACTS_SCALE
        inputs["digests"] = pinned[ARTIFACTS_SCALE]
    return inputs


def run_reps(workload: str, seed: int, seconds: int, trace: bool, inputs: dict, scratch: str) -> list[dict]:
    """Run every repetition in turn; return their results."""
    measuring, setup_only = REPETITIONS[workload]
    budget = seconds / measuring
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # Telemetry (and so the event log the benchmark reads commit times
    # from) is the program's default; pin it on against the caller's env.
    env["REPRO_OBS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    spans_dir = os.path.join(STATE, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    results = []
    for index in range(measuring + setup_only):
        mode = "measure" if index < measuring else "setup"
        workdir = os.path.join(scratch, f"rep{index}")
        os.makedirs(workdir)
        run_id = f"{workload}-seed{seed}-rep{index}"
        config = {
            "workload": workload,
            "mode": mode,
            "trace": trace,
            "budget": budget,
            "inputs": inputs,
            "oracle": index == 0,
            "index": index,
            "repetitions": measuring,
            "run_id": run_id,
            "result_path": os.path.join(workdir, "result.json"),
            "spans_path": os.path.join(spans_dir, run_id + ".spans.jsonl"),
        }
        config_path = os.path.join(workdir, "config.json")
        # Set-up is timed from here: writing the inputs is part of the spawn.
        config["spawn_t"] = time.perf_counter()
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), config_path],
            cwd=workdir,
            env=env,
            timeout=REP_TIMEOUT,
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"repetition {index} of {workload} exited {completed.returncode}:\n"
                f"{completed.stderr[-4000:]}"
            )
        with open(config["result_path"], encoding="utf-8") as handle:
            results.append(json.load(handle))
    return results


def end_to_end(reps: list[dict]) -> dict:
    """Aggregate the repetitions into the end-to-end metrics.

    ``setup_s`` is the median over every repetition.  A metric a
    repetition reports as samples is the median of the samples pooled
    over the measuring repetitions (``first_record_ms`` gives p50 and
    p95); the others are medians over the measuring repetitions.
    """
    measuring = [rep for rep in reps if rep["mode"] == "measure"]
    metrics = {"setup_s": statistics.median(rep["setup_s"] for rep in reps)}
    for name in measuring[0]["metrics"]:
        metrics[name] = statistics.median(rep["metrics"][name] for rep in measuring)
    for name in measuring[0]["samples"]:
        pooled = sorted(value for rep in measuring for value in rep["samples"][name])
        if name == "first_record_ms":
            metrics["first_record_p50_ms"] = percentile(pooled, 0.50)
            metrics["first_record_p95_ms"] = percentile(pooled, 0.95)
        else:
            metrics[name] = statistics.median(pooled)
    return metrics


def per_layer(reps: list[dict]) -> dict:
    """Medians of the per-layer metrics: the ``setup.*`` parts over every
    repetition, the others over the measuring ones."""
    measuring = [rep for rep in reps if rep["mode"] == "measure"]
    return {
        name: statistics.median(
            rep["layers"][name] for rep in (reps if name.startswith("setup.") else measuring)
        )
        for name in measuring[0]["layers"]
    }


def ledger_path(workload: str, seed: int) -> str:
    return os.path.join(STATE, "ledger", f"{workload}-seed{seed}.json")


def check_ledger(workload: str, seed: int, reps: list[dict]) -> list[str]:
    """The exact-statistics ledger must repeat across repetitions and runs.

    Any key two repetitions' ledgers both hold must have one value: the
    repetitions run the same inputs, though time-bounded ones finish
    different numbers of rounds or jobs (and campaign repetitions take
    different rounds after the shared cold one).  The ledger of the
    first run of a seed is kept, and every later run of that seed must
    agree with it.
    """
    errors = []
    ledgers = [rep["ledger"] for rep in reps if rep["mode"] == "measure"]
    merged = dict(ledgers[0])
    for ledger in ledgers[1:]:
        errors.extend(_ledger_diff(merged, ledger, "repetition"))
        for key, value in ledger.items():
            merged.setdefault(key, value)
    path = ledger_path(workload, seed)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            kept = json.load(handle)
        errors.extend(_ledger_diff(kept, merged, f"earlier run ({path})"))
        for key, value in merged.items():
            kept.setdefault(key, value)
        merged = kept
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, sort_keys=True, indent=1)
    return errors


def _ledger_diff(reference: dict, other: dict, against: str) -> list[str]:
    return [
        f"ledger {key!r} differs from {against}"
        for key in sorted(set(reference) & set(other))
        if reference[key] != other[key]
    ]


def overhead_pct(workload: str, traced: dict, reference: dict) -> float:
    """Tracing overhead: how much worse the traced primary metric reads."""
    name, sense = PRIMARY[workload]
    if sense > 0:
        return 100.0 * (reference[name] / traced[name] - 1.0)
    return 100.0 * (traced[name] / reference[name] - 1.0)


def measure(workload: str, seed: int, seconds: int, trace: bool, inputs: dict) -> tuple[list[dict], dict]:
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(STATE, "tmp"))
    try:
        reps = run_reps(workload, seed, seconds, trace, inputs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return reps, end_to_end(reps)


def main(argv=None) -> int:
    benchmark = load_benchmark()
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2

    stamp = host_stamp()
    inputs = make_inputs(args.workload, args.seed, stamp["nproc"])
    reps, e2e = measure(args.workload, args.seed, args.seconds, bool(args.trace), inputs)
    last_path = os.path.join(STATE, "last", f"{args.workload}.json")
    if args.trace:
        if os.path.exists(last_path):
            with open(last_path, encoding="utf-8") as handle:
                reference = json.load(handle)["metrics"]
        else:
            _, reference = measure(args.workload, args.seed, args.seconds, False, inputs)
        metrics = per_layer(reps)
        metrics["trace.overhead_pct"] = overhead_pct(args.workload, e2e, reference)
        declared = benchmark["per_layer"]
    else:
        metrics = e2e
        declared = benchmark["end_to_end"]

    ledger_errors = check_ledger(args.workload, args.seed, reps)
    errors = [error for rep in reps for error in rep["errors"]] + ledger_errors
    measuring = [rep for rep in reps if rep["mode"] == "measure"]
    attempted = sum(rep["attempted"] for rep in measuring)
    failed = sum(rep["failed"] for rep in measuring) + len(ledger_errors)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": stamp,
        "metrics": metrics,
        "end_to_end": e2e,
        # The wall-clock values behind the reference-second metrics, and
        # the host's speed in each repetition (speed.py).
        "raw": [rep["raw"] for rep in reps],
        "speed_factor": [rep["speed_factor"] for rep in reps],
        "samples": {
            name: [value for rep in measuring for value in rep["samples"][name]]
            for name in measuring[0]["samples"]
        },
        "errors": errors,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if not args.trace and not errors:
        os.makedirs(os.path.dirname(last_path), exist_ok=True)
        with open(last_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    print("host " + json.dumps(stamp, sort_keys=True))
    print(f"ledger {os.path.relpath(ledger_path(args.workload, args.seed), ROOT)}")
    for error in errors:
        print(f"WRONG OUTPUT: {error}")
    output = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    for entry_name, entry in output.items():
        print(f"{entry_name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": output,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
