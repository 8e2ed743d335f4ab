"""Persistent warm worker pools: spin up once, reuse everywhere.

Before this module, every :meth:`HarnessRunner.run` call that went
parallel built a fresh :class:`multiprocessing.Pool`, re-published the
parent's shared payload, had every worker re-attach and re-materialize
its warm workspace, and tore the whole thing down when the run finished.
For the checkpointed backends that warm state *is* the campaign's fixed
cost — golden run, FHT, decode cache, checkpoint store — so benchmarks
that ran one campaign per cell measured pool spin-up, not execution, and
adding workers made throughput **fall**
(``results/BENCH_bench_campaign_scaling.json`` before this change:
golden 1071 → 671 faults/s from 1 to 4 workers).

A :class:`WarmPool` is created once per ``(factory, workers, share)``
identity and kept for the life of the process:

* workers materialize their workspace exactly once, in the pool
  initializer — from the parent's shared-memory payload when one is
  published (:mod:`repro.exec.sharing`), else from the picklable factory;
* every later harness run whose job carries an *equal* factory (same
  pickle) reuses the live pool: no fork/spawn, no re-publish, no
  re-attach, no golden-run re-recording — shards go straight to warm
  workers;
* campaigns and DSE sweeps share the mechanism because identity is the
  factory itself, not the client type.

Identity is the factory's pickle: two runners whose specs/spaces are
equal reuse one pool; any difference (another workload, another backend,
another batch plan) transparently gets its own.  The registry holds at
most :data:`MAX_POOLS` pools and evicts least-recently-used beyond that,
so long pytest sessions cannot accumulate worker processes.  All pools
are torn down at interpreter exit (and by :func:`shutdown_pools`, which
tests call to assert reuse from a clean slate).

Dispatch is grouped.  Every hand-off between the parent and a worker
(task pipe, result pipe, the parent's pool threads waking on a host
whose cores the workers already fill) costs about 1–2 ms of wall time
on a 2-vCPU VM: noise beside a 10 ms shard, but as much as a ~4 ms
golden shard of the predecoded interpreter.  Like ``Pool.map``, a warm
pool therefore sends each worker about four tasks per run, each a group
of consecutive shards — capped so a task carries at most
:data:`DISPATCH_TARGET_S` of kernel work, judged by the mean worker
seconds per shard of the pool's previous run.  A pool that has not yet
finished a run, and any run of heavy shards, dispatches one shard per
task, so long campaigns keep their commit latency and resume
granularity.  Every shard is still committed on its own.
"""

from __future__ import annotations

import atexit
import math
import pickle
from typing import Callable

from repro.obs import core as obs
from repro.exec.sharing import SharedPayload, publish, release

#: Live pools kept before least-recently-used eviction kicks in.  Four
#: pools of at most a few workers each bounds stray processes while
#: letting a bench sweep (three backends) plus a test file coexist.
MAX_POOLS = 4

#: Most kernel seconds one grouped task may carry, so grouping delays a
#: shard's commit by at most this much.
DISPATCH_TARGET_S = 0.1

#: Tasks per worker and run once shards are grouped (as ``Pool.map``):
#: few enough to amortize hand-offs, enough to balance a noisy host.
TASKS_PER_WORKER = 4


def dispatch_chunksize(
    shard_seconds: float | None, count: int, workers: int
) -> int:
    """Shards per dispatched task for a run of *count* shards.

    One per task until a run has measured *shard_seconds*; then
    :data:`TASKS_PER_WORKER` tasks per worker, each carrying at most
    :data:`DISPATCH_TARGET_S` of work.
    """
    if not shard_seconds:
        return 1
    per_task = math.ceil(count / (TASKS_PER_WORKER * workers))
    cap = math.ceil(DISPATCH_TARGET_S / shard_seconds)
    return max(1, min(per_task, cap))


def _factory_key(factory, workers: int, share: bool) -> tuple:
    """Pool identity: the factory's pickled value plus the pool shape.

    Pickle equality is conservative — a spurious mismatch only costs a
    fresh pool, never a wrong reuse.
    """
    return (
        type(factory).__qualname__,
        pickle.dumps(factory, protocol=pickle.HIGHEST_PROTOCOL),
        workers,
        share,
    )


class WarmPool:
    """One persistent pool of workers warmed for one factory."""

    def __init__(self, key: tuple, factory, workers: int, ticket: SharedPayload | None):
        import multiprocessing

        from repro.exec.harness import _pool_init

        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        self.key = key
        self.workers = workers
        #: Harness runs served (1 = just built): tests and benchmarks
        #: read this to assert a pool was actually reused.
        self.runs = 0
        #: Mean worker seconds per shard over the previous run; ``None``
        #: until one has finished, so a new pool dispatches one by one.
        self.shard_seconds: float | None = None
        self._ticket = ticket
        self._pool = context.Pool(
            processes=workers,
            initializer=_pool_init,
            initargs=(factory, ticket),
        )

    def imap_shards(self, tasks):
        """Dispatch shard tasks to the warm workers, unordered.

        Yields ``(shard_id, records, meta)`` per shard as its task
        completes; see the module docstring for how shards are grouped.
        """
        from repro.exec.harness import _pool_shard

        self.runs += 1
        results = self._pool.imap_unordered(
            _pool_shard,
            tasks,
            chunksize=dispatch_chunksize(
                self.shard_seconds, len(tasks), self.workers
            ),
        )
        return self._observe(results)

    def _observe(self, results):
        seconds = 0.0
        shards = 0
        for result in results:
            seconds += result[2]["seconds"]
            shards += 1
            yield result
        if shards:
            self.shard_seconds = seconds / shards

    def close(self) -> None:
        """Tear the pool down and release its shared payload."""
        self._pool.terminate()
        self._pool.join()
        release(self._ticket)
        self._ticket = None


#: Insertion-ordered registry; order doubles as the LRU list.
_POOLS: dict[tuple, WarmPool] = {}


def acquire(
    factory,
    workers: int,
    share: bool,
    payload_supplier: Callable[[], object | None],
) -> WarmPool:
    """The warm pool for *factory*, creating (and caching) it on first use.

    *payload_supplier* is only invoked when a pool is actually built and
    ``share`` is set — reusing a pool never touches the parent workspace,
    which is what makes repeat campaigns skip the recording entirely.
    """
    key = _factory_key(factory, workers, share)
    pool = _POOLS.pop(key, None)
    if pool is None:
        obs.count("pool.build")
        ticket = None
        if share:
            payload = payload_supplier()
            if payload is not None:
                ticket = publish(payload)
        pool = WarmPool(key, factory, workers, ticket)
        while len(_POOLS) >= MAX_POOLS:
            obs.count("pool.evict")
            _POOLS.pop(next(iter(_POOLS))).close()
    else:
        obs.count("pool.reuse")
    _POOLS[key] = pool  # (re)append: most recently used sits last
    return pool


def pool_stats() -> dict[tuple, int]:
    """Live pools and their run counts (introspection for tests/benchmarks)."""
    return {key: pool.runs for key, pool in _POOLS.items()}


def shutdown_pools() -> None:
    """Close every live pool (idempotent; also runs at interpreter exit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.close()


atexit.register(shutdown_pools)
