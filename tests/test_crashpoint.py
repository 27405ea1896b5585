"""Crash-matrix campaign machinery (:mod:`repro.nvm.crashpoint`) and the
bench-layer cells (:mod:`repro.bench.experiments.crashmatrix`).

Three layers of assurance:

- unit tests of the building blocks (schedules, shadow oracle, trace
  recording);
- end-to-end campaigns over correct schemes must come back clean;
- **mutation tests**: deliberately broken recovery must be *caught*,
  with a minimal failing event prefix — a fault-injection harness that
  cannot detect an injected bug is worthless.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.bench.cache import ResultCache
from repro.bench.engine import Engine
from repro.bench.experiments.crashmatrix import (
    CrashMatrixSpec,
    ShardedCampaignHarness,
    TableCampaignHarness,
    build_concurrent_workload,
    build_workload,
    make_harness,
    run_crash_matrix_spec,
)
from repro.concurrency.scheduler import table_digest
from repro.core import ShardedTable
from repro.core.group_hash import GroupHashTable
from repro.nvm.backend import RawBackend
from repro.nvm.crashpoint import (
    CampaignResult,
    Op,
    WordSubsetSchedule,
    check_recovery,
    dirty_word_offsets,
    enumerate_schedules,
    record_trace,
    run_campaign,
    shadow_states,
)
from repro.nvm.memory import NVMRegion, SimConfig, SimulatedPowerFailure
from repro.nvm.wearlevel import WearLevelledRegion
from repro.tables.wal import UndoLog

from tests.conftest import random_items


def _campaign(spec: CrashMatrixSpec, **kw):
    """Run one campaign cell and return the raw CampaignResult."""
    prefill, ops = build_workload(spec)
    return run_campaign(
        lambda: make_harness(spec, prefill),
        ops,
        subset_budget=spec.subset_budget,
        seed=spec.seed,
        prefill=prefill,
        **kw,
    )


# ----------------------------------------------------------------------
# building blocks


def test_word_subset_schedule_filters_dirty_words():
    sched = WordSubsetSchedule(frozenset({8, 24}))
    assert list(sched.words_persisted(0, [0, 8, 16, 24])) == [8, 24]
    assert list(WordSubsetSchedule(frozenset()).words_persisted(0, [0, 8])) == []


def test_shadow_states_tracks_prefix_effects():
    ops = [
        Op("insert", b"a", b"1"),
        Op("update", b"a", b"2"),
        Op("delete", b"a"),
    ]
    states = shadow_states(ops)
    assert states == [{}, {b"a": b"1"}, {b"a": b"2"}, {}]


def test_shadow_states_delete_of_prefill_key_stays_deleted():
    # Regression guard: the base state must be threaded *through* the
    # fold — merging it afterwards would resurrect deleted keys.
    base = {b"p": b"0"}
    states = shadow_states([Op("delete", b"p"), Op("insert", b"q", b"1")], base)
    assert states[0] == {b"p": b"0"}
    assert states[1] == {}
    assert states[2] == {b"q": b"1"}


def test_enumerate_schedules_exhaustive_when_budget_allows():
    dirty = (0, 8, 16)
    scheds = enumerate_schedules(dirty, budget=10, seed=0, event_index=1)
    ids = [name for name, _ in scheds]
    assert ids[0] == "drop-all" and ids[1] == "persist-all"
    # 2^3 - 2 = 6 strict subsets, all distinct, all strict
    subsets = {s.persisted for name, s in scheds if name.startswith("subset")}
    assert len(subsets) == 6
    assert all(0 < len(s) < 3 for s in subsets)


def test_enumerate_schedules_respects_budget_and_is_deterministic():
    dirty = tuple(range(0, 80, 8))  # 10 words -> 1022 strict subsets
    a = enumerate_schedules(dirty, budget=5, seed=3, event_index=7)
    b = enumerate_schedules(dirty, budget=5, seed=3, event_index=7)
    assert len(a) == 2 + 5
    assert [(n, s.persisted) for n, s in a] == [(n, s.persisted) for n, s in b]
    # different boundary -> (potentially) different random subsets, but
    # always valid strict subsets
    for _, sched in enumerate_schedules(dirty, budget=5, seed=3, event_index=8):
        assert sched.persisted <= set(dirty)


def test_enumerate_schedules_single_dirty_word_has_no_strict_subsets():
    scheds = enumerate_schedules((8,), budget=4, seed=0, event_index=1)
    assert [name for name, _ in scheds] == ["drop-all", "persist-all"]


def test_record_trace_rejects_a_failing_op():
    spec = CrashMatrixSpec(n_ops=2, total_cells=256)
    prefill, _ = build_workload(spec)
    harness = make_harness(spec, prefill)
    with pytest.raises(RuntimeError, match="did not apply"):
        record_trace(harness, [Op("delete", b"\xff" * 8)])


def test_record_trace_orders_events_and_op_ends():
    spec = CrashMatrixSpec(n_ops=2, total_cells=256)
    prefill, ops = build_workload(spec)
    trace = record_trace(make_harness(spec, prefill), ops)
    assert trace.n_events > 0
    assert trace.op_end_events == sorted(trace.op_end_events)
    assert trace.op_end_events[-1] == trace.n_events
    assert {e.kind for e in trace.events} <= {"write", "flush", "fence"}
    assert trace.completed_ops(trace.n_events) == len(ops)
    assert trace.completed_ops(0) == 0


# ----------------------------------------------------------------------
# end-to-end campaigns over correct implementations


def test_group_campaign_is_clean():
    result = _campaign(CrashMatrixSpec(scheme="group", n_ops=6))
    assert result.ok
    assert result.points == result.trace.n_events + 1
    assert result.replays >= result.points
    assert result.minimal_failing_prefix() is None


def test_logged_campaign_is_clean():
    result = _campaign(CrashMatrixSpec(scheme="linear-L", n_ops=4))
    assert result.ok
    assert result.points == result.trace.n_events + 1


def test_sharded_campaign_is_clean():
    result = _campaign(CrashMatrixSpec(scheme="group", n_shards=4, n_ops=8))
    assert result.ok
    assert result.points > 0


def test_campaign_max_points_truncates():
    result = _campaign(CrashMatrixSpec(scheme="group", n_ops=6), max_points=5)
    assert result.points == 5


def test_spec_executor_round_trips_through_engine_cache(tmp_path):
    spec = CrashMatrixSpec(scheme="group", n_ops=4, subset_budget=1)
    engine = Engine(jobs=1, cache=ResultCache(tmp_path / "cache"))
    first = engine.run_one(spec)
    again = engine.run_one(spec)
    assert engine.cache.hits == 1
    assert first == again
    assert first == run_crash_matrix_spec(spec)
    assert first["violations"] == [] and first["min_failing_prefix"] is None


# ----------------------------------------------------------------------
# mutation tests: injected recovery bugs must be detected


def test_broken_group_recovery_is_caught(monkeypatch):
    # "Recovery" that rebuilds count but skips Algorithm 4's reset of
    # unoccupied cells — the exact step the paper's consistency argument
    # hinges on.
    def count_only(self):
        self._set_count(sum(1 for _ in self.items()))

    monkeypatch.setattr(GroupHashTable, "recover", count_only)
    result = _campaign(CrashMatrixSpec(scheme="group", n_ops=6))
    assert not result.ok
    assert any(v.oracle == "invariant" for v in result.violations)
    prefix = result.minimal_failing_prefix()
    assert prefix is not None
    assert len(prefix) == min(v.event_index for v in result.violations) - 1
    assert len(prefix) < result.trace.n_events


def test_broken_undo_rollback_is_caught(monkeypatch):
    # A rollback that forgets the log entirely: crashes that land inside
    # a logged operation leave the persistent tail nonzero, which the
    # invariant oracle must flag.
    monkeypatch.setattr(UndoLog, "recover", lambda self: None)
    result = _campaign(CrashMatrixSpec(scheme="linear-L", n_ops=4))
    assert not result.ok
    assert any("log tail" in v.detail for v in result.violations)
    assert result.minimal_failing_prefix() is not None


# ----------------------------------------------------------------------
# sharded crash domains: a shard failure is invisible to its neighbours


def test_sharded_crash_leaves_other_shards_untouched():
    table = ShardedTable(512, n_shards=4, seed=9)
    items = random_items(60, seed=9)
    for key, value in items:
        assert table.insert(key, value)

    crash_shard = table.shard_of(items[0][0])
    backend = table.backend.shard(crash_shard)
    # arm so the next operation on the crash shard dies mid-commit
    backend.arm_crash(3)
    victim = next(
        key
        for key, _ in random_items(200, seed=77)
        if table.shard_of(key) == crash_shard and table.query(key) is None
    )
    before = [
        dataclasses.asdict(table.backend.shard(i).stats)
        for i in range(table.n_shards)
    ]
    with pytest.raises(SimulatedPowerFailure):
        table.insert(victim, b"\x01" * 8)
    backend.disarm_crash()

    table.crash(shard=crash_shard)
    table.reattach(shard=crash_shard)
    table.recover(shard=crash_shard)

    # untouched shards saw zero additional simulated events end to end
    for i in range(table.n_shards):
        if i == crash_shard:
            continue
        assert dataclasses.asdict(table.backend.shard(i).stats) == before[i]
    # every committed item survived, on every shard
    recovered = dict(table.items())
    for key, value in items:
        assert recovered[key] == value
    assert victim not in recovered
    for shard_table in table.tables:
        assert shard_table.integrity_violations() == []


# ----------------------------------------------------------------------
# forks: campaigns build the harness once and deep-copy it per crash point


@pytest.mark.parametrize("make", [RawBackend, NVMRegion], ids=["raw", "sim"])
def test_fork_images_are_independent(make):
    parent = make(4096)
    parent.alloc(4096)
    parent.write(0, b"A" * 8)
    parent.persist(0, 8)
    parent.write(64, b"B" * 8)
    fork = copy.deepcopy(parent)
    fork.write(128, b"C" * 8)
    fork.persist(128, 8)
    parent.write(192, b"D" * 8)
    parent.persist(192, 8)
    assert parent.peek_volatile(128, 8) == bytes(8)
    assert parent.peek_persistent(128, 8) == bytes(8)
    assert fork.peek_volatile(192, 8) == bytes(8)
    assert fork.peek_persistent(192, 8) == bytes(8)
    # shared history survives in both, unflushed data stays unflushed
    for backend in (parent, fork):
        assert backend.peek_persistent(0, 8) == b"A" * 8
        assert backend.peek_volatile(64, 8) == b"B" * 8
        assert backend.peek_persistent(64, 8) == bytes(8)
        assert (64, 8) in backend.unpersisted_ranges()
    assert fork.stats.writes == parent.stats.writes
    assert fork.bytes_allocated == parent.bytes_allocated == 4096
    fork.crash()
    assert fork.peek_volatile(64, 8) == bytes(8)
    assert parent.peek_volatile(64, 8) == b"B" * 8


def test_wear_levelled_fork_owns_its_mapper_and_wear_counters():
    parent = WearLevelledRegion(4096, SimConfig(track_wear=True), rotate_every=2)
    for i in range(4):
        parent.write(64 * i, b"w" * 8)
        parent.persist(64 * i, 8)
    fork = copy.deepcopy(parent)
    assert type(fork) is WearLevelledRegion
    mapping = (parent.mapper.start, parent.mapper.gap)
    wear = parent.wear.counts()
    assert (fork.mapper.start, fork.mapper.gap) == mapping
    for i in range(8):
        fork.write(64 * i, b"f" * 8)
        fork.persist(64 * i, 8)
    assert (fork.mapper.start, fork.mapper.gap) != mapping
    assert (parent.mapper.start, parent.mapper.gap) == mapping
    assert (parent.wear.counts() == wear).all()
    assert fork.wear.counts().sum() > wear.sum()
    assert parent.peek_volatile(0, 8) == b"w" * 8
    assert fork.peek_volatile(0, 8) == b"f" * 8


def test_raw_fork_scans_read_the_forks_own_bytes():
    # a plain deepcopy would copy the numpy scan views into detached
    # arrays, and the fork's vectorised scans would read stale bytes
    stride, count = 24, 32
    parent = RawBackend(stride * count)
    fork = copy.deepcopy(parent)
    fork.write(5 * stride, (1).to_bytes(8, "little") + b"key-five")
    assert fork.scan_match(0, stride, count, b"key-five") == 5
    assert fork.scan_occupied_bitmap(0, stride, count) == 1 << 5
    assert parent.scan_match(0, stride, count, b"key-five") is None
    assert parent.scan_occupied_bitmap(0, stride, count) == 0


@pytest.mark.parametrize("make", [RawBackend, NVMRegion], ids=["raw", "sim"])
def test_fork_drops_observers_and_armed_crash(make):
    parent = make(4096)
    seen = []
    handle = parent.observe(lambda kind, addr, size: seen.append(kind))
    parent.arm_crash(3)
    fork = copy.deepcopy(parent)
    assert fork.event_hook is None
    for _ in range(10):
        fork.write(0, b"x" * 8)
    assert seen == []
    parent.write(0, b"y" * 8)
    parent.write(8, b"y" * 8)
    with pytest.raises(SimulatedPowerFailure):
        parent.write(16, b"y" * 8)
    assert seen == ["write", "write"]
    handle.close()


def test_fork_keeps_a_per_instance_class():
    # tracers give one instance a private subclass; forks must keep it
    backend = RawBackend(4096)
    backend.__class__ = type("RawBackend", (RawBackend,), {"__slots__": ()})
    assert type(copy.deepcopy(backend)) is type(backend)


def _backends(harness):
    if isinstance(harness, ShardedCampaignHarness):
        return list(harness.table.backend)
    return [harness.crash_backend]


FORK_SPECS = {
    "group": CrashMatrixSpec(scheme="group", n_ops=8),
    "linear-L": CrashMatrixSpec(scheme="linear-L", n_ops=8),
    "sharded": CrashMatrixSpec(scheme="group", n_shards=4, n_ops=8),
    "grow": CrashMatrixSpec(
        total_cells=32, n_ops=24, prefill=0.5, grow=True, segment_cells=8
    ),
}


@pytest.mark.parametrize("name", list(FORK_SPECS))
def test_fork_after_k_ops_equals_a_fresh_replay(name):
    spec = FORK_SPECS[name]
    prefill, ops = build_workload(spec)
    k = len(ops) // 2
    cursor = make_harness(spec, prefill)
    for op in ops[:k]:
        assert cursor.apply(op)
    fork = copy.deepcopy(cursor)
    fresh = make_harness(spec, prefill)
    for op in ops[:k]:
        assert fresh.apply(op)
    # the fork is a complete, independent table: finishing the workload
    # on it matches a fresh run and leaves the cursor where it was
    for a, b in [(fork, fresh), (cursor, fresh)]:
        assert table_digest(a.table) == table_digest(b.table)
        for x, y in zip(_backends(a), _backends(b), strict=True):
            assert x.peek_volatile(0, x.size) == y.peek_volatile(0, y.size)
            assert x.peek_persistent(0, x.size) == y.peek_persistent(0, y.size)
            assert x.stats == y.stats
    before = table_digest(cursor.table)
    for op in ops[k:]:
        assert fork.apply(op)
        assert fresh.apply(op)
    assert table_digest(fork.table) == table_digest(fresh.table)
    assert table_digest(cursor.table) == before
    if spec.grow:
        assert fork.split_count == fresh.split_count > cursor.split_count


def test_run_campaign_calls_factory_once():
    spec = CrashMatrixSpec(scheme="group", n_ops=4)
    prefill, ops = build_workload(spec)
    calls = []

    def factory():
        calls.append(1)
        return make_harness(spec, prefill)

    result = run_campaign(factory, ops, prefill=prefill)
    assert result.ok and result.points == result.trace.n_events + 1
    assert len(calls) == 1


def _reference_campaign(factory, ops, *, subset_budget, seed, prefill):
    """The replay-per-schedule campaign: rebuild the harness and replay
    the whole op prefix for every (boundary, schedule) pair."""

    def replay(event_index, schedule):
        harness = factory()
        harness.crash_backend.arm_crash(event_index)
        inflight = -1
        try:
            for i, op in enumerate(ops):
                inflight = i
                harness.apply(op)
                inflight = -1
        except SimulatedPowerFailure:
            pass
        harness.crash_backend.disarm_crash()
        dirty = dirty_word_offsets(harness.crash_backend)
        harness.crash(schedule)
        return harness, inflight, dirty

    trace = record_trace(factory(), ops)
    states = shadow_states(ops, base=prefill)
    result = CampaignResult(trace=trace, n_ops=len(ops))
    for k in range(1, trace.n_events + 2):
        result.points += 1
        result.split_points += trace.in_split_window(k)
        result.concurrent_points += trace.in_concurrent_window(k)
        harness, inflight, dirty = replay(k, WordSubsetSchedule(frozenset()))
        schedules = enumerate_schedules(
            dirty, budget=subset_budget, seed=seed, event_index=k
        )
        for i, (name, schedule) in enumerate(schedules):
            if i > 0:
                harness, inflight, _ = replay(k, schedule)
            result.replays += 1
            harness.recover()
            completed = trace.completed_ops(k - 1)
            op = ops[inflight] if inflight >= 0 else None
            result.violations.extend(
                check_recovery(
                    harness.snapshot(),
                    completed_state=states[completed],
                    inflight_state=states[completed + (op is not None)],
                    inflight_op=op,
                    structural=harness.integrity_violations(),
                    event_index=k,
                    schedule=name,
                    op_index=inflight,
                )
            )
    return result


EQUIVALENCE_SPECS = {
    "group": CrashMatrixSpec(scheme="group", n_ops=6),
    "linear-L": CrashMatrixSpec(scheme="linear-L", n_ops=4),
    "sharded": CrashMatrixSpec(scheme="group", n_shards=4, n_ops=8),
    "grow": CrashMatrixSpec(
        total_cells=32, n_ops=18, prefill=0.5, grow=True, segment_cells=8
    ),
    "b4": CrashMatrixSpec(scheme="group", n_ops=4, batch=4),
    "c3": CrashMatrixSpec(scheme="group", n_ops=6, clients=3),
}


def _equivalent(spec):
    concurrent = frozenset()
    if spec.clients:
        prefill, ops, concurrent = build_concurrent_workload(spec)
    else:
        prefill, ops = build_workload(spec)

    def factory():
        harness = make_harness(spec, prefill)
        harness.concurrent_ops = concurrent
        return harness

    kw = dict(subset_budget=spec.subset_budget, seed=spec.seed, prefill=prefill)
    forked = run_campaign(factory, ops, **kw)
    assert forked == _reference_campaign(factory, ops, **kw)
    return forked


@pytest.mark.parametrize("name", list(EQUIVALENCE_SPECS))
def test_forked_campaign_equals_replay_per_schedule(name):
    result = _equivalent(EQUIVALENCE_SPECS[name])
    assert result.ok and result.replays > result.points
    if name == "grow":
        assert result.split_points > 0
    if name == "c3":
        assert result.concurrent_points > 0


def test_forked_campaign_equals_replay_per_schedule_when_failing(monkeypatch):
    monkeypatch.setattr(
        GroupHashTable,
        "recover",
        lambda self: self._set_count(sum(1 for _ in self.items())),
    )
    result = _equivalent(CrashMatrixSpec(scheme="group", n_ops=6))
    assert not result.ok


def test_non_deterministic_harness_is_rejected():
    # a harness whose ops do extra work once the recording is done: the
    # cursor's per-op event count exposes the divergence
    spec = CrashMatrixSpec(scheme="group", n_ops=4)
    prefill, ops = build_workload(spec)
    applied = []

    class Drifting(TableCampaignHarness):
        def apply(self, op):
            applied.append(op)
            if len(applied) > len(ops):
                self.crash_backend.write(0, bytes(8))
            return super().apply(op)

    def factory():
        harness = make_harness(spec, prefill)
        harness.__class__ = Drifting
        return harness

    with pytest.raises(RuntimeError, match="non-deterministic"):
        run_campaign(factory, ops, prefill=prefill)
