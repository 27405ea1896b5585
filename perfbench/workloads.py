"""The benchmark's five workloads.

Each workload is a function ``(seed, size, tracer) -> Episode`` that
builds its inputs, sets up a fresh system, runs one fixed amount of
measured work and checks the outputs. The prefilled contents and the
tables' hash seeds are fixed (:data:`FILL_SEED`); ``seed`` drives the
measured op streams and the interleaving of simulated clients. Fixing
the contents keeps the work of one workload alike across seeds: with
seeded contents, which hot keys share a group or segment, and so the
abort and split counts, varied by up to 2x from seed to seed. One
episode's simulated results are a pure function of ``seed`` and
``size``; only the wall times vary. ``tracer`` (a
:class:`tracing.Tracer`, or ``None``) is attached to the system's
instances after set-up, just before the measured window, and detached
right after it. README.md explains why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.bench.config import build_table, make_trace
from repro.bench.experiments.contention import build_client_streams
from repro.bench.experiments.crashmatrix import CrashMatrixSpec, make_harness
from repro.bench.experiments.serving import ServingSpec, build_serving_table
from repro.bench.runner import fill_to_load_factor
from repro.bench.workload import ZipfianRanks
from repro.concurrency import run_concurrent, table_digest
from repro.kv import KVStore
from repro.nvm import CacheConfig, MemStats, NVMRegion, SimConfig
from repro.nvm.crashpoint import BatchOp, Op, run_campaign
from repro.obs import MetricsRegistry
from repro.serving import NETWORK_PRESETS, run_serving
from repro.tables.cell import ItemSpec

_clock = time.perf_counter

#: seed of the prefilled contents and of every table's hash family
FILL_SEED = 42


@dataclass
class Episode:
    """One set-up plus one measured window of a workload."""

    #: set-up phases in wall seconds: ``streams`` (input generation)
    #: and ``fill`` (build and prefill)
    streams_s: float
    fill_s: float
    #: wall seconds of the measured window
    measure_s: float
    #: operations attempted in the window (the unit of ``wall_ops_per_s``)
    ops: int
    #: refused, lost or wrong operations and crash violations
    failed: int
    #: deterministic results: simulated costs, event counts, digests
    exact: dict
    #: correctness-check failures (any entry fails the run)
    failures: list[str] = field(default_factory=list)
    #: wall ns of each call the benchmark made into the public API
    call_ns: list[int] = field(default_factory=list)
    #: wall seconds of the calls during which the index split
    split_call_s: float = 0.0


def _nvm_exact(stats: MemStats) -> dict:
    return {
        "nvm.flushes": stats.flushes,
        "nvm.fences": stats.fences,
        "nvm.cache_misses": stats.cache_misses,
        "nvm.line_writes": stats.nvm_line_writes,
        "nvm.bytes_written": stats.nvm_bytes_written,
        "nvm.sim_ns": stats.sim_time_ns,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values``."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def _digest(inputs) -> str:
    """Short digest of a workload's generated inputs."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def _fresh_key(rng: random.Random, used: set[bytes], size: int = 8) -> bytes:
    while True:
        key = rng.getrandbits(8 * size).to_bytes(size, "little")
        if any(key) and key not in used:
            used.add(key)
            return key


# ----------------------------------------------------------------------
# point-sim: the paper's own request path

POINT_SIZES = {
    "full": {"cells": 1 << 14, "ops": 6000},
    "tiny": {"cells": 1 << 10, "ops": 400},
}


def point_sim(seed: int, size: str = "full", tracer=None) -> Episode:
    """Scalar ops on one ``GroupHashTable`` on a simulated region whose
    table is 8x its cache: 50% query hits, 10% query misses, 20%
    inserts, 20% deletes, uniform keys, load factor held at 0.5."""
    cfg = POINT_SIZES[size]
    t0 = _clock()
    fill_rng, rng = random.Random(FILL_SEED), random.Random(seed)
    used: set[bytes] = set()
    fill = [
        (_fresh_key(fill_rng, used), fill_rng.randbytes(8))
        for _ in range(cfg["cells"] // 2)
    ]
    shadow = dict(fill)
    live = list(shadow)
    stream: list[tuple[str, bytes, bytes | None]] = []
    for _ in range(cfg["ops"]):
        u = rng.random()
        if u < 0.5:
            key = live[rng.randrange(len(live))]
            stream.append(("query", key, shadow[key]))
        elif u < 0.6:
            stream.append(("query", _fresh_key(rng, used), None))
        elif u < 0.8:
            key, value = _fresh_key(rng, used), rng.randbytes(8)
            shadow[key] = value
            live.append(key)
            stream.append(("insert", key, value))
        else:
            index = rng.randrange(len(live))
            key = live[index]
            live[index] = live[-1]
            live.pop()
            del shadow[key]
            stream.append(("delete", key, None))
    t1 = _clock()
    built = build_table(
        "group", cfg["cells"], ItemSpec(), group_size=256, seed=FILL_SEED
    )
    table, region = built.table, built.region
    refused = sum(not table.insert(key, value) for key, value in fill)
    t2 = _clock()

    if tracer is not None:
        tracer.trace_spans(table, "group_hash")
        tracer.trace_nvm(region)
    calls = []
    for kind, key, value in stream:
        if kind == "query":
            calls.append((table.query, (key,), value))
        elif kind == "insert":
            calls.append((table.insert, (key, value), True))
        else:
            calls.append((table.delete, (key,), True))
    stats = region.stats
    before = stats.snapshot()
    call_ns: list[int] = []
    sim_ns: list[float] = []
    wrong = 0
    ns = time.perf_counter_ns
    start = _clock()
    for fn, args, expect in calls:
        sim0 = stats.sim_time_ns
        c0 = ns()
        got = fn(*args)
        call_ns.append(ns() - c0)
        sim_ns.append(stats.sim_time_ns - sim0)
        if got != expect:
            wrong += 1
    measure_s = _clock() - start
    if tracer is not None:
        tracer.detach()
    delta = stats.delta(before)

    failures = []
    if refused:
        failures.append(f"{refused} prefill inserts refused")
    if wrong:
        failures.append(f"{wrong} ops returned a wrong result")
    if dict(table.items()) != shadow:
        failures.append("final contents differ from the shadow dict")
    if not table.check_count():
        failures.append("check_count() failed")
    failures.extend(table.integrity_violations())
    writes = sum(kind != "query" for kind, _, _ in stream)
    inserts = sum(kind == "insert" for kind, _, _ in stream)
    exact = {
        "ops": len(stream),
        "sim_ns_per_op": delta.sim_time_ns / len(stream),
        "sim_op_ns_p50": percentile(sim_ns, 0.50),
        "sim_op_ns_p99": percentile(sim_ns, 0.99),
        "sim_kops": len(stream) / delta.sim_time_ns * 1e6,
        "flushes_per_write": delta.flushes / writes,
        "nvm_bytes_per_user_byte": delta.nvm_bytes_written
        / (inserts * ItemSpec().item_size),
        "input_digest": _digest(stream),
        "table_digest": table_digest(table),
        **_nvm_exact(delta),
    }
    return Episode(
        streams_s=t1 - t0,
        fill_s=t2 - t1,
        measure_s=measure_s,
        ops=len(stream),
        failed=wrong + refused,
        exact=exact,
        failures=failures,
        call_ns=call_ns,
    )


# ----------------------------------------------------------------------
# kv-ingest: writes beside reads through a growable KVStore

KV_SIZES = {
    "full": {"index_cells": 1024, "prefill": 512, "rounds": 40},
    "tiny": {"index_cells": 1024, "prefill": 128, "rounds": 6},
}
KV_FRESH, KV_OVERWRITE, KV_GET = 64, 16, 64
#: holds the whole index and most records, so flushes, not misses,
#: dominate the simulated time
KV_CACHE_BYTES = 2 << 20
KV_SLAB_BYTES = 1 << 20


def kv_ingest(seed: int, size: str = "full", tracer=None) -> Episode:
    """Rounds of ``put_many`` (64 fresh keys), ``put_many`` (16
    Zipfian overwrites of resident keys) and ``get_many`` (64 resident
    keys, newest hottest) on ``KVStore(growable=True)``."""
    cfg = KV_SIZES[size]
    t0 = _clock()
    fill_rng, rng = random.Random(FILL_SEED), random.Random(seed)
    used: set[bytes] = set()

    def item(source: random.Random) -> tuple[bytes, bytes]:
        key = _fresh_key(source, used, 16)
        return key, source.randbytes(source.randint(16, 256))

    fill = [item(fill_rng) for _ in range(cfg["prefill"])]
    order = [key for key, _ in fill]
    shadow = dict(fill)
    zipf = ZipfianRanks(0.99)
    rounds = []
    for _ in range(cfg["rounds"]):
        fresh = [item(rng) for _ in range(KV_FRESH)]
        order.extend(key for key, _ in fresh)
        shadow.update(fresh)
        over = []
        for _ in range(KV_OVERWRITE):
            key = order[zipf.rank(len(order), rng.random())]
            value = rng.randbytes(rng.randint(16, 256))
            shadow[key] = value
            over.append((key, value))
        gets = [
            order[len(order) - 1 - zipf.rank(len(order), rng.random())]
            for _ in range(KV_GET)
        ]
        rounds.append((fresh, over, gets, [shadow[key] for key in gets]))
    t1 = _clock()
    region = NVMRegion(
        8 << 20,
        SimConfig(cache=CacheConfig(KV_CACHE_BYTES, 64, 8)),
        name="kv-ingest",
    )
    store = KVStore(
        region,
        n_index_cells=cfg["index_cells"],
        max_key=16,
        max_value=256,
        slab_bytes_per_class=KV_SLAB_BYTES,
        seed=FILL_SEED,
        growable=True,
    )
    refused = sum(not ok for ok in store.put_many(fill))
    t2 = _clock()

    if tracer is not None:
        tracer.trace_spans(store, "kv")
        tracer.trace_spans(store.slab, "kv.slab")
        tracer.trace_spans(store.index, "directory")
        tracer.trace_nvm(region)
    index = store.index
    stats = region.stats
    before = stats.snapshot()
    splits_before = index.splits
    call_ns: list[int] = []
    split_ns = 0
    wrong = 0
    ns = time.perf_counter_ns
    start = _clock()
    for fresh, over, gets, values in rounds:
        for fn, arg, expect in (
            (store.put_many, fresh, None),
            (store.put_many, over, None),
            (store.get_many, gets, values),
        ):
            splits = index.splits
            c0 = ns()
            got = fn(arg)
            took = ns() - c0
            call_ns.append(took)
            if index.splits > splits:
                split_ns += took
            if expect is None:
                refused += sum(not ok for ok in got)
            else:
                wrong += sum(g != e for g, e in zip(got, expect))
    measure_s = _clock() - start
    if tracer is not None:
        tracer.detach()
    delta = stats.delta(before)

    failures = []
    if refused:
        failures.append(f"{refused} puts refused")
    if wrong:
        failures.append(f"{wrong} gets returned a stale or wrong value")
    keys = list(shadow)
    lost = sum(g != shadow[k] for k, g in zip(keys, store.get_many(keys)))
    if lost:
        failures.append(f"{lost} keys do not read back their latest value")
    put_items = [pair for fresh, over, _, _ in rounds for pair in fresh + over]
    user_ops = len(rounds) * (KV_FRESH + KV_OVERWRITE + KV_GET)
    user_bytes = sum(len(k) + len(v) for k, v in put_items)
    live_bytes = sum(len(k) + len(v) for k, v in shadow.items())
    exact = {
        "ops": user_ops,
        "sim_ns_per_op": delta.sim_time_ns / user_ops,
        "flushes_per_write": delta.flushes / len(put_items),
        "nvm_bytes_per_user_byte": delta.nvm_bytes_written / user_bytes,
        "space_amp": _kv_footprint(store) / live_bytes,
        "directory.splits": index.splits - splits_before,
        "input_digest": _digest(rounds),
        "table_digest": table_digest(store),
        **_nvm_exact(delta),
    }
    return Episode(
        streams_s=t1 - t0,
        fill_s=t2 - t1,
        measure_s=measure_s,
        ops=user_ops,
        failed=wrong + refused + lost,
        exact=exact,
        failures=failures,
        call_ns=call_ns,
        split_call_s=split_ns / 1e9,
    )


def _kv_footprint(store: KVStore) -> int:
    """Bytes the store holds for its live data: every allocation but
    the slab's reserved class arrays, plus the slab chunks in use."""
    region = store.region
    index_bytes = sum(
        a.size for a in region.allocations if not a.label.startswith("slab.")
    )
    slab = store.slab
    chunk_bytes = sum(
        util * (KV_SLAB_BYTES // size) * size
        for size, util in slab.utilization().items()
    )
    return index_bytes + round(chunk_bytes)


# ----------------------------------------------------------------------
# serving-ycsb-d: the top of the stack

SERVING_SIZES = {
    "full": {"cells": 1 << 12, "ops": 4096},
    "tiny": {"cells": 1 << 9, "ops": 256},
}


def serving_ycsb_d(seed: int, size: str = "full", tracer=None) -> Episode:
    """``run_serving`` over a growable 4-shard table: 64 clients,
    ``batch_max`` 8, location cache on, ``rdma-dc`` network, YCSB-D."""
    cfg = SERVING_SIZES[size]
    spec = ServingSpec(
        total_cells=cfg["cells"],
        n_clients=64,
        n_ops=cfg["ops"],
        batch_max=8,
        location_cache=True,
        net="rdma-dc",
        seed=FILL_SEED,
    )
    t0 = _clock()
    table = build_serving_table(spec)
    stream = make_trace(spec.trace, seed=FILL_SEED).unique_items()
    resident, _ = fill_to_load_factor(
        SimpleNamespace(table=table, scheme="sharded"), stream, spec.load_factor
    )
    t1 = _clock()
    streams = build_client_streams(spec.replace(seed=seed), resident, stream)
    t2 = _clock()

    metrics = None
    if tracer is not None:
        tracer.trace_spans(table, "sharded")
        for i, shard_table in enumerate(table.tables):
            tracer.trace_spans(shard_table, "directory", tag=f"shard{i}")
            tracer.trace_nvm(table.backend.shard(i))
        metrics = MetricsRegistry()
    before = table.merged_stats()
    splits_before = table.splits
    start = _clock()
    with _span(tracer, "serving", "serving.run_serving"):
        result = run_serving(
            table,
            streams,
            net=NETWORK_PRESETS[spec.net],
            batch_max=spec.batch_max,
            location_cache=spec.location_cache,
            seed=seed,
            metrics=metrics,
        )
    measure_s = _clock() - start
    if tracer is not None:
        tracer.detach()
    delta = table.merged_stats().delta(before)

    failures = list(result.check_failures)
    if result.wrong_answers:
        failures.append(f"{result.wrong_answers} wrong one-sided answers")
    if result.failed_ops:
        failures.append(f"{result.failed_ops} ops failed")
    probes = result.one_sided_reads
    exact = {
        "ops": result.ops,
        "sim_op_ns_p50": result.overall.percentile(0.50),
        "sim_op_ns_p99": result.overall.percentile(0.99),
        "sim_kops": result.throughput_kops(),
        "serving.routed_ops": result.routed_ops,
        "serving.one_sided_reads": probes,
        "serving.hint_misses": result.hint_misses,
        "serving.one_sided_hit_ratio": (probes - result.hint_misses) / probes
        if probes
        else 0.0,
        "serving.doorbell_flushes": result.flushes,
        "serving.mean_batch": result.mean_batch(),
        "serving.max_queue_depth": result.max_queue_depth,
        "directory.splits": table.splits - splits_before,
        "input_digest": _digest(streams),
        "table_digest": table_digest(table),
        **_nvm_exact(delta),
    }
    if metrics is not None:
        exact["serving.service_ns_p99"] = metrics.histogram(
            "serving.service_ns"
        ).quantile(0.99)
    return Episode(
        streams_s=t2 - t1,
        fill_s=t1 - t0,
        measure_s=measure_s,
        ops=result.ops,
        failed=result.wrong_answers
        + result.failed_ops
        + len(result.check_failures),
        exact=exact,
        failures=failures,
    )


# ----------------------------------------------------------------------
# contention-ycsb-a: the concurrency layer

CONTENTION_SIZES = {
    "full": {"cells": 1 << 14, "ops": 6000},
    "tiny": {"cells": 1 << 10, "ops": 320},
}


def contention_ycsb_a(seed: int, size: str = "full", tracer=None) -> Episode:
    """``run_concurrent`` with 16 clients on a group/sim table at load
    factor 0.5 under YCSB-A (50/50 query/update, Zipfian)."""
    cfg = CONTENTION_SIZES[size]
    t0 = _clock()
    trace = make_trace("randomnum", seed=FILL_SEED)
    built = build_table(
        "group", cfg["cells"], trace.spec, group_size=256, seed=FILL_SEED
    )
    stream = trace.unique_items()
    resident, _ = fill_to_load_factor(built, stream, 0.5)
    t1 = _clock()
    spec = SimpleNamespace(preset="ycsb-a", n_ops=cfg["ops"], n_clients=16, seed=seed)
    streams = build_client_streams(spec, resident, stream)
    t2 = _clock()

    table, region = built.table, built.region
    if tracer is not None:
        tracer.trace_spans(table, "group_hash")
        tracer.trace_nvm(region)
    before = region.stats.snapshot()
    start = _clock()
    with _span(tracer, "concurrency", "concurrency.run_concurrent"):
        result = run_concurrent(table, streams, seed=seed)
    measure_s = _clock() - start
    if tracer is not None:
        tracer.detach()
    delta = region.stats.delta(before)

    failures = list(result.check_failures)
    if result.lost_updates:
        failures.append(f"{result.lost_updates} lost updates")
    if result.failed_ops:
        failures.append(f"{result.failed_ops} ops failed")
    committed = len(result.committed)
    exact = {
        "ops": result.ops,
        "sim_op_ns_p50": result.overall.percentile(0.50),
        "sim_op_ns_p99": result.overall.percentile(0.99),
        "sim_kops": result.throughput_kops(),
        "concurrency.read_aborts": result.read_aborts,
        "concurrency.read_retries": result.read_retries,
        "concurrency.lock_waits": result.lock_waits,
        "concurrency.lock_wait_ns": result.lock_wait_ns,
        "concurrency.fp_skips": result.fp_skips,
        "concurrency.commit_ratio": committed
        / (committed + result.read_aborts + result.read_retries),
        "input_digest": _digest(streams),
        "table_digest": table_digest(table),
        **_nvm_exact(delta),
    }
    return Episode(
        streams_s=t2 - t1,
        fill_s=t1 - t0,
        measure_s=measure_s,
        ops=result.ops,
        failed=result.lost_updates + result.failed_ops + len(result.check_failures),
        exact=exact,
        failures=failures,
    )


# ----------------------------------------------------------------------
# crash-campaign: crash points and recovery

CRASH_SIZES = {
    "full": {"cells": 1024, "ops": 4},
    "tiny": {"cells": 256, "ops": 4},
}
CRASH_BATCH = 4


def crash_campaign(seed: int, size: str = "full", tracer=None) -> Episode:
    """``run_campaign`` on a 1024-cell group table on ``RawBackend``
    (the crash matrix's default cell) with ``subset_budget=2``, over a
    window of scalar insert/delete/update and ``put_many`` batches."""
    cfg = CRASH_SIZES[size]
    spec = CrashMatrixSpec(total_cells=cfg["cells"], seed=FILL_SEED)
    t0 = _clock()
    fill_rng, rng = random.Random(FILL_SEED), random.Random(seed)
    used: set[bytes] = set()
    prefill = {
        _fresh_key(fill_rng, used): fill_rng.randbytes(8)
        for _ in range(int(spec.prefill * spec.total_cells))
    }
    live = dict(prefill)
    ops: list[Op | BatchOp] = []
    for i in range(cfg["ops"]):
        kind = ("insert", "delete", "update", "put_many")[i % 4]
        if kind == "put_many":
            batch = tuple(
                (_fresh_key(rng, used), rng.randbytes(8)) for _ in range(CRASH_BATCH)
            )
            live.update(batch)
            ops.append(BatchOp("put_many", batch))
        elif kind == "insert":
            key, value = _fresh_key(rng, used), rng.randbytes(8)
            live[key] = value
            ops.append(Op("insert", key, value))
        else:
            key = sorted(live)[rng.randrange(len(live))]
            if kind == "delete":
                del live[key]
                ops.append(Op("delete", key))
            else:
                live[key] = rng.randbytes(8)
                ops.append(Op("update", key, live[key]))
    t1 = _clock()
    # the campaign's first factory call (its recording run) gets the
    # harness built here, so set-up time is one build and prefill
    prebuilt = [make_harness(spec, prefill)]
    t2 = _clock()

    def factory():
        if prebuilt:
            harness = prebuilt.pop()
        else:
            with _span(tracer, "crash", "crash.rebuild"):
                harness = make_harness(spec, prefill)
        if tracer is not None:
            tracer.trace_spans(harness, "crash")
            tracer.trace_nvm(harness.crash_backend)
        return harness

    start = _clock()
    with _span(tracer, "crash", "crash.run_campaign"):
        result = run_campaign(
            factory,
            ops,
            subset_budget=spec.subset_budget,
            seed=seed,
            prefill=prefill,
        )
    measure_s = _clock() - start
    if tracer is not None:
        tracer.detach()
    failures = [
        f"{v.oracle} violation at event {v.event_index}: {v.detail}"
        for v in result.violations[:5]
    ]
    exact = {
        "ops": result.points,
        "crash.points": result.points,
        "crash.replays": result.replays,
        "crash.replays_per_point": result.replays / result.points,
        "crash.events": result.trace.n_events,
        "crash.violations": len(result.violations),
        "input_digest": _digest(ops),
    }
    return Episode(
        streams_s=t1 - t0,
        fill_s=t2 - t1,
        measure_s=measure_s,
        ops=result.points,
        failed=len(result.violations),
        exact=exact,
        failures=failures,
    )


def _span(tracer, layer: str, name: str):
    """A span around a block when tracing, else nothing."""
    return contextlib.nullcontext() if tracer is None else tracer.span(layer, name)


WORKLOADS = {
    "point-sim": point_sim,
    "kv-ingest": kv_ingest,
    "serving-ycsb-d": serving_ycsb_d,
    "contention-ycsb-a": contention_ycsb_a,
    "crash-campaign": crash_campaign,
}
