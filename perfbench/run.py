"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload point-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1

One run repeats *episodes* of its workload (set-up, then a fixed amount
of measured work; see ``workloads.py``) until ``--seconds`` have passed,
and reports medians over the episodes. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` spends half the
time on untraced episodes and half on traced ones and reports the
per-layer metrics. Every episode's outputs are checked, and every
episode of one run must produce identical simulated results, traced or
not. The last line of standard output is the result as one JSON
object; the lines before it (starting with ``#``) give the run's
provenance and every metric that applies to the workload.

``--workload all`` runs the five workloads one after another, each in
its own process.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
# the benchmark never reads results from the bench engine's cache
os.environ.setdefault("REPRO_BENCH_NO_CACHE", "1")

import numpy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Episode, percentile  # noqa: E402

#: end-to-end metrics: (name, unit); reported on every workload
END_TO_END = (("setup_s", "s"), ("wall_ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: backend methods whose outermost calls are counted
NVM_METHODS = (
    "read",
    "write",
    "read_u64",
    "write_u64",
    "write_atomic_u64",
    "persist",
    "clflush",
    "mfence",
    "scan_clear_u64",
    "scan_match",
    "scan_match_many",
    "scan_match_pairs",
    "scan_occupied_at",
    "scan_occupied_bitmap",
    "peek_volatile",
    "peek_persistent",
    "unpersisted_ranges",
)

#: per-layer metrics: (name, unit). The first group is the
#: workload-specific end-to-end metrics, which apply to some workloads
#: only; every metric is reported on every workload, as 0 where the
#: workload does not exercise it.
PER_LAYER = (
    ("wall_call_us_p50", "us"),
    ("wall_call_us_p99", "us"),
    ("crash_points_per_s", "1/s"),
    ("sim_ns_per_op", "ns"),
    ("sim_op_ns_p50", "ns"),
    ("sim_op_ns_p99", "ns"),
    ("sim_kops", "kop/s"),
    ("flushes_per_write", "count"),
    ("nvm_bytes_per_user_byte", "B/B"),
    ("space_amp", "B/B"),
    ("failed_op_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("setup.streams_s", "s"),
    ("setup.fill_s", "s"),
    ("group_hash.calls", "count"),
    ("group_hash.self_s", "s"),
    ("group_hash.self_us_per_call", "us"),
    *((f"nvm.calls.{m}", "count") for m in NVM_METHODS),
    ("nvm.self_s", "s"),
    ("nvm.flushes", "count"),
    ("nvm.fences", "count"),
    ("nvm.cache_misses", "count"),
    ("nvm.line_writes", "count"),
    ("nvm.bytes_written", "B"),
    ("nvm.sim_ns", "ns"),
    ("directory.calls.put_many", "count"),
    ("directory.items_per_put_many", "count"),
    ("directory.put_many.self_us_per_item", "us"),
    ("directory.self_s", "s"),
    ("directory.splits", "count"),
    ("directory.split_call_s", "s"),
    ("sharded.shard_skew", "ratio"),
    ("kv.self_s", "s"),
    ("kv.slab.allocs", "count"),
    ("kv.slab.frees", "count"),
    ("kv.slab.self_s", "s"),
    ("kv.put_many.fallback_ratio", "ratio"),
    ("serving.self_s", "s"),
    ("serving.self_us_per_op", "us"),
    ("serving.routed_ops", "count"),
    ("serving.one_sided_reads", "count"),
    ("serving.hint_misses", "count"),
    ("serving.one_sided_hit_ratio", "ratio"),
    ("serving.doorbell_flushes", "count"),
    ("serving.mean_batch", "count"),
    ("serving.max_queue_depth", "count"),
    ("serving.service_ns_p99", "ns"),
    ("concurrency.self_s", "s"),
    ("concurrency.self_us_per_op", "us"),
    ("concurrency.read_aborts", "count"),
    ("concurrency.read_retries", "count"),
    ("concurrency.lock_waits", "count"),
    ("concurrency.lock_wait_ns", "ns"),
    ("concurrency.fp_skips", "count"),
    ("concurrency.commit_ratio", "ratio"),
    ("crash.rebuild_s", "s"),
    ("crash.replay_s", "s"),
    ("crash.crash_s", "s"),
    ("crash.dirty_scan_s", "s"),
    ("crash.recover_s", "s"),
    ("crash.oracle_s", "s"),
    ("crash.factory_calls", "count"),
    ("crash.replays", "count"),
    ("crash.replays_per_point", "count"),
)

#: fewest episodes a run makes, so set-up time is a median of several
MIN_EPISODES = 3


def provenance() -> dict:
    """Where and from what the numbers came."""
    sha = dirty = None
    git = ["git", "-C", str(ROOT)]
    try:
        top = subprocess.run(
            [*git, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = top.stdout.split()
        # outside a git work tree of its own (a plain checkout, or one
        # nested in another repository) there is no sha to report
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            status = subprocess.run(
                [*git, "status", "--porcelain"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "start_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def reference_pass() -> float:
    """Wall seconds of one fixed pass of interpreter work: integer
    arithmetic over a small dict, then updates of a 64k-entry dict with
    bytes slicing and hashing.

    The reference machine shares its cores with other tenants, and its
    speed moves by up to 2x over seconds as they come and go. Timing
    this pass around each episode measures that factor (see
    :func:`run_episodes`). Of the passes tried, this mix of a
    cache-resident and a memory-heavier loop tracked the slowdown of all
    five workloads best."""
    t0 = time.perf_counter()
    small: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
        small[i & 1023] = acc
    large: dict[int, int] = {}
    for i in range(40_000):
        key = (i * 2654435761) & 0xFFFF
        large[key] = large.get(key, 0) + i
        acc ^= hash(key.to_bytes(8, "little")[2:6])
    return time.perf_counter() - t0


#: seconds :func:`reference_pass` takes on the reference machine (a
#: 2-vCPU Xeon VM at 2.1 GHz running Python 3.11) when it runs alone
REFERENCE_PASS_S = 0.022


def run_episodes(fn, seed: int, size: str, seconds: float, traced: bool):
    """Episodes of ``fn`` until ``seconds`` have passed (at least
    :data:`MIN_EPISODES` untraced, one traced).

    Returns ``[(episode, tracer or None, speed)]``. ``speed`` is the
    machine's speed during the episode relative to the reference
    machine, from the mean of the reference passes just before and just
    after it: multiplying a wall time by ``speed`` gives the time the
    reference machine would have taken."""
    out = []
    deadline = time.perf_counter() + seconds
    least = 1 if traced else MIN_EPISODES
    before = reference_pass()
    while len(out) < least or time.perf_counter() < deadline:
        tracer = Tracer() if traced else None
        episode = fn(seed, size, tracer)
        after = reference_pass()
        out.append((episode, tracer, 2 * REFERENCE_PASS_S / (before + after)))
        before = after
    return out


def episode_metrics(ep: Episode, speed: float) -> dict:
    """Wall metrics of one untraced episode, in reference-machine time,
    and the raw ones as measured."""
    return {
        "setup_s": (ep.streams_s + ep.fill_s) * speed,
        "wall_ops_per_s": ep.ops / (ep.measure_s * speed),
        "setup.streams_s": ep.streams_s * speed,
        "setup.fill_s": ep.fill_s * speed,
        "directory.split_call_s": ep.split_call_s * speed,
        "raw.setup_s": ep.streams_s + ep.fill_s,
        "raw.wall_ops_per_s": ep.ops / ep.measure_s,
        "machine_speed": speed,
    }


def _median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def workload_metrics(plain) -> dict:
    """Every metric the untraced episodes give: the end-to-end metrics
    and the workload-specific ones with their simulated results."""
    out = _median_of([episode_metrics(ep, speed) for ep, _, speed in plain])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["failed_op_ratio"] = sum(ep.failed for ep, _, _ in plain) / sum(
        ep.ops for ep, _, _ in plain
    )
    calls = [ns * speed / 1e3 for ep, _, speed in plain for ns in ep.call_ns]
    if calls:
        out["wall_call_us_p50"] = percentile(calls, 0.50)
        out["wall_call_us_p99"] = percentile(calls, 0.99)
        out["wall_call_samples"] = len(calls)
    first = plain[0][0]
    if "crash.points" in first.exact:
        out["crash_points_per_s"] = out["wall_ops_per_s"]
    out.update(first.exact)
    return out


def traced_metrics(ep: Episode, tr: Tracer, speed: float) -> dict:
    """Per-layer metrics of one traced episode; wall times (units ``s``
    and ``us``) in reference-machine time."""
    names = tr.by_name()
    layers = tr.layer_self()
    layer_calls: dict[str, int] = {}
    for layer, name in tr.names:
        if name in names:
            layer_calls[layer] = layer_calls.get(layer, 0) + names[name]["calls"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}

    def span(name: str) -> dict:
        return names.get(name, empty)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m = {
        "group_hash.calls": layer_calls.get("group_hash", 0),
        "group_hash.self_s": layers.get("group_hash", 0.0),
        "group_hash.self_us_per_call": per(
            layers.get("group_hash", 0.0), layer_calls.get("group_hash", 0), 1e6
        ),
        "nvm.self_s": tr.nvm_self_s,
        "directory.calls.put_many": span("directory.put_many")["calls"],
        "directory.items_per_put_many": per(
            span("directory.put_many")["items"], span("directory.put_many")["calls"]
        ),
        "directory.put_many.self_us_per_item": per(
            span("directory.put_many")["self_s"],
            span("directory.put_many")["items"],
            1e6,
        ),
        "directory.self_s": layers.get("directory", 0.0),
        "kv.self_s": layers.get("kv", 0.0),
        "kv.slab.allocs": span("kv.slab.alloc")["calls"],
        "kv.slab.frees": span("kv.slab.free")["calls"],
        "kv.slab.self_s": layers.get("kv.slab", 0.0),
        "kv.put_many.fallback_ratio": per(
            tr.calls_with_child("kv.put_many", "kv.put"),
            span("kv.put_many")["calls"],
        ),
        "crash.rebuild_s": span("crash.rebuild")["total_s"],
        "crash.replay_s": span("crash.apply")["total_s"],
        "crash.crash_s": span("crash.crash")["total_s"],
        "crash.dirty_scan_s": tr.nvm.get("unpersisted_ranges", [0, 0.0])[1],
        "crash.recover_s": span("crash.recover")["total_s"],
        "crash.oracle_s": span("crash.snapshot")["total_s"]
        + span("crash.integrity_violations")["total_s"],
        "crash.factory_calls": span("crash.rebuild")["calls"],
        "traced.wall_ops_per_s": ep.ops / ep.measure_s,
    }
    for layer in ("serving", "concurrency"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
        m[f"{layer}.self_us_per_op"] = per(layers.get(layer, 0.0), ep.ops, 1e6)
    for method in NVM_METHODS:
        m[f"nvm.calls.{method}"] = tr.nvm.get(method, [0])[0]
    tags = list(tr.tag_calls.values())
    m["sharded.shard_skew"] = max(tags) / statistics.mean(tags) if tags else 0.0
    units = dict(PER_LAYER)
    for name in m:
        if units.get(name) in ("s", "us"):
            m[name] *= speed
    m["traced.wall_ops_per_s"] /= speed
    return m


def exact_mismatches(episodes: list[Episode]) -> list[str]:
    """Simulated results that differ between episodes of one run
    (traced episodes may add keys, but must agree on the shared ones)."""
    first = episodes[0].exact
    return [
        f"episode {i}: {key} = {ep.exact[key]!r}, episode 0 gave {value!r}"
        for i, ep in enumerate(episodes[1:], 1)
        for key, value in first.items()
        if ep.exact.get(key) != value
    ]


def run(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> dict:
    """Run one workload; returns the result object plus the provenance,
    the check failures and ``detail``: every metric that applies.
    ``size="tiny"`` shrinks every workload for the benchmark's tests."""
    prov = provenance()
    fn = WORKLOADS[workload]
    plain = run_episodes(fn, seed, size, seconds / 2 if trace else seconds, False)
    traced = run_episodes(fn, seed, size, seconds / 2, True) if trace else []
    episodes = [ep for ep, _, _ in plain + traced]
    failures = [f for ep in episodes for f in ep.failures]
    failures += exact_mismatches(episodes)
    detail = workload_metrics(plain)
    if trace:
        detail.update(
            _median_of([traced_metrics(ep, tr, speed) for ep, tr, speed in traced])
        )
        # exact results only traced episodes give (a metrics registry)
        detail.update(
            (k, v) for k, v in traced[0][0].exact.items() if k not in detail
        )
        detail["trace.overhead_ratio"] = (
            detail["wall_ops_per_s"] / detail["traced.wall_ops_per_s"]
        )
        wanted = PER_LAYER
    else:
        wanted = END_TO_END
    metrics = {
        name: {"value": float(detail.get(name, 0.0)), "unit": unit}
        for name, unit in wanted
    }
    return {
        "result": {
            "correct": not failures,
            "attempted": sum(ep.ops for ep in episodes),
            "failed": sum(ep.failed for ep in episodes),
            "metrics": metrics,
        },
        "provenance": prov,
        "episodes": {"untraced": len(plain), "traced": len(traced)},
        "failures": failures[:20],
        "detail": detail,
        "units": dict(END_TO_END + PER_LAYER),
    }


def print_run(out: dict, workload: str, seed: int) -> None:
    """Human-readable lines, then the result object as the last line."""
    print(f"# workload {workload} seed {seed} episodes {json.dumps(out['episodes'])}")
    print(f"# provenance {json.dumps(out['provenance'])}")
    for failure in out["failures"]:
        print(f"# CHECK FAILED: {failure}")
    units = out["units"]
    for name, value in out["detail"].items():
        print(f"# {name} = {value} {units.get(name, '')}".rstrip())
    print(json.dumps(out["result"]))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(out, args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
