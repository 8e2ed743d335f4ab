"""Seeded inputs for every workload.

The benchmark makes all inputs here, in the parent process, from the
``--seed`` argument, and hands them to each repetition as a JSON file.
The program under test receives only these inputs.  The same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import random

from repro.utils.seeds import derive_seed

#: The campaign workload's target: a CLI-equivalent golden campaign.
CAMPAIGN_SPEC = {
    "workload": "sha",
    "scale": "default",
    "iht_size": 8,
    "backend": "golden",
}
#: Injections per campaign run ("round"); rounds repeat until time is up.
ROUND_FAULTS = 400
#: Rounds made per seed; a repetition that finishes all of them starts over.
ROUNDS = 48
#: Attack scenarios sampled per attack class and round.
ATTACKS_PER_CLASS = 10
#: Round-0 records re-run on the ``full`` backend by the oracle.
CAMPAIGN_ORACLE_SAMPLE = 6

#: Service jobs: small golden campaigns on sha at tiny scale, large
#: enough that simulation rather than thread hand-offs sets a job's
#: latency (NOTES.md).
SERVICE_JOBS_PER_TENANT = 1000
SERVICE_FAULTS = 64
SERVICE_CHUNK = 16
#: The specs four jobs in five share.
SHARED_SPECS = (
    {"iht_size": 8, "hash_name": "xor", "policy_name": "lru_half"},
    {"iht_size": 16, "hash_name": "crc32", "policy_name": "lru_half"},
    {"iht_size": 4, "hash_name": "add", "policy_name": "lru_one"},
)
NEW_SPEC_AXES = {
    "iht_size": tuple(range(1, 65)),
    "hash_name": ("xor", "add", "rotxor", "crc32"),
    "policy_name": ("lru_half", "lru_one", "fifo", "random"),
}
SERVICE_ORACLE_SAMPLE = 10
#: One job in NEW_SPEC_EVERY uses a never-seen spec (NOTES.md says why
#: not one in three).
NEW_SPEC_EVERY = 5

#: DSE: the ``paper`` preset on the cycle-measuring backend.
DSE_PRESET = "paper"
DSE_BACKEND = "pipeline-golden"
DSE_ORACLE_SAMPLE = 3


def artifacts_inputs(seed: int) -> dict:
    """No inputs: the roster is the paper's fixed experiment.

    Its two sampled steps keep the roster's own seeds whatever *seed* is.
    Their few injections are heavy-tailed -- a handful run to the end of
    the program or to the hang budget -- so their time follows the
    sample: over five seeds the fault analysis made the roster take
    22 s to 40 s, and the hash ablation alone took 2 s to 11 s over six.
    A seeded roster would measure the sample, not the code.
    """
    return {}


def _fetch_counts(spec) -> dict[int, int]:
    """Golden fetches of each text address (from the block trace)."""
    from repro.pipeline.funcsim import run_program

    result = run_program(
        spec.build_program(), collect_trace=True, inputs=spec.resolved_inputs()
    )
    counts: dict[int, int] = {}
    for event in result.block_trace:
        for address in range(event.start, event.end + 4, 4):
            counts[address] = counts.get(address, 0) + 1
    return counts


def campaign_inputs(seed: int) -> dict:
    """Rounds of transient single-bit faults mixed with attack scenarios."""
    from repro.attacks.corpus import AttackCorpus
    from repro.exec.records import fault_to_json
    from repro.exec.spec import CampaignSpec
    from repro.faults.models import TransientFetchFault

    spec = CampaignSpec(**CAMPAIGN_SPEC)
    context = spec.build_context()
    counts = _fetch_counts(spec)
    addresses = sorted(context.executed_addresses)
    corpus = AttackCorpus.from_context(context)
    rounds = []
    for round_index in range(ROUNDS):
        round_seed = derive_seed(f"campaign:{seed}:{round_index}")
        rng = random.Random(round_seed)
        attacks = corpus.build(
            classes=("all",), per_class=ATTACKS_PER_CLASS, seed=round_seed
        )
        faults = []
        for _ in range(ROUND_FAULTS - len(attacks)):
            address = rng.choice(addresses)
            faults.append(
                TransientFetchFault(
                    address,
                    (rng.randrange(32),),
                    occurrence=rng.randint(1, counts[address]),
                )
            )
        mix = [fault_to_json(item) for item in faults + attacks]
        rng.shuffle(mix)
        rounds.append({"seed": round_seed, "faults": mix})
    sample = random.Random(derive_seed(f"campaign-oracle:{seed}")).sample(
        range(ROUND_FAULTS), CAMPAIGN_ORACLE_SAMPLE
    )
    return {"spec": CAMPAIGN_SPEC, "rounds": rounds, "oracle": sorted(sample)}


def service_inputs(seed: int) -> dict:
    """Two tenants' job streams: shared specs and never-seen specs.

    Each block of NEW_SPEC_EVERY jobs holds exactly one job with a spec
    no earlier job used, at a seeded position; the others take the
    shared specs in turn.  Fixed counts, rather than a coin per job,
    keep the cache hits the same for every seed: a shared spec comes back
    long before the server's LRU cache could evict it, so only
    never-reused specs are evicted.  The seeded position keeps the two
    tenants' cache misses from falling into step.
    """
    rng = random.Random(derive_seed(f"service:{seed}"))
    used = {tuple(sorted(spec.items())) for spec in SHARED_SPECS}
    tenants = []
    for _tenant in range(2):
        jobs = []
        shared_turn = 0
        while len(jobs) < SERVICE_JOBS_PER_TENANT:
            new_at = rng.randrange(NEW_SPEC_EVERY)
            for slot in range(NEW_SPEC_EVERY):
                if slot != new_at:
                    monitor = dict(SHARED_SPECS[shared_turn % len(SHARED_SPECS)])
                    shared_turn += 1
                else:
                    while True:
                        monitor = {
                            axis: rng.choice(values)
                            for axis, values in NEW_SPEC_AXES.items()
                        }
                        key = tuple(sorted(monitor.items()))
                        if key not in used:
                            used.add(key)
                            break
                jobs.append(
                    {
                        "kind": "campaign",
                        "spec": {
                            "workload": "sha",
                            "scale": "tiny",
                            "backend": "golden",
                            **monitor,
                        },
                        "faults": SERVICE_FAULTS,
                        "seed": rng.randrange(2**31),
                        "chunk_size": SERVICE_CHUNK,
                    }
                )
        tenants.append(jobs)
    return {
        "tenants": tenants,
        "oracle_seed": derive_seed(f"service-oracle:{seed}"),
        "oracle_sample": SERVICE_ORACLE_SAMPLE,
    }


def dse_inputs(seed: int) -> dict:
    return {
        "preset": DSE_PRESET,
        "backend": DSE_BACKEND,
        "seed": seed,
        "oracle_seed": derive_seed(f"dse-oracle:{seed}"),
        "oracle_sample": DSE_ORACLE_SAMPLE,
    }


MAKERS = {
    "artifacts": artifacts_inputs,
    "campaign": campaign_inputs,
    "service": service_inputs,
    "dse": dse_inputs,
}
