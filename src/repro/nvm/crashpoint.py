"""Deterministic crash-matrix fault injection.

The hypothesis fuzz in :mod:`tests` samples *random* crash points and
*random* survival schedules; a specific ordering bug can hide between
samples forever. This module makes the paper's consistency claim an
enumerable property instead: record the program-order persistence event
log (``write``/``flush``/``fence``) of a deterministic workload, then
**power-fail it at every crash boundary** — before every event, plus the
run-to-completion point — run the scheme's recovery, and check three
oracles against a shadow dict:

- **invariant** — the structure itself is sound after recovery
  (:meth:`~repro.tables.base.PersistentHashTable.integrity_violations`:
  persistent count matches occupancy, no duplicate keys, undo log
  truncated; group hashing adds Algorithm 4's unoccupied-cells-are-zero
  postcondition);
- **durability** — every operation that *completed* before the crash is
  fully reflected (its persists had retired, so no schedule may lose it);
- **atomicity** — the one in-flight operation is all-or-nothing: the
  recovered table equals the shadow state either before or after it,
  never in between. For an in-flight :class:`BatchOp` (a coalesced
  multi-item commit) the contract is per item: any *subset* of the
  batch's items may have survived, but each surviving item must carry
  exactly its batch value — a batch is a set of individually-atomic
  commits sharing flushes, not one jumbo transaction.

At each boundary the crash itself is varied: besides the two extremes
(drop every unflushed word / persist every unflushed word) the campaign
enumerates per-word survival subsets of the dirty lines — exhaustively
when ``2^w - 2`` fits the budget, otherwise singletons, complements and
seeded pseudo-random subsets. Everything is a pure function of the
workload and the seed, so a failing cell replays bit-identically and the
first failing boundary *is* the minimal failing event prefix.

No boundary re-runs the workload from scratch. A campaign builds its
harness once and advances it op by op; a boundary inside op ``i`` is
reached by forking (``copy.deepcopy``) the harness at the op's start
and replaying only op ``i`` until the armed crash fires, so the
in-flight op unwinds exactly as it would on real hardware. That
pre-crash state is forked once more per survival schedule.

The machinery is scheme-agnostic: campaigns drive a
:class:`CrashHarness`, a thin deep-copyable adapter over one table.
:mod:`repro.bench.experiments.crashmatrix` supplies harnesses for every
table scheme and for :class:`~repro.core.sharded.ShardedTable` per-shard
crash domains, and runs campaign cells through the bench engine.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, Sequence

from repro.nvm.backend import MemoryBackend
from repro.nvm.crash import CrashSchedule
from repro.nvm.memory import ATOMIC_UNIT, SimulatedPowerFailure

#: oracle identifiers used in :class:`Violation.oracle`
ORACLES = ("invariant", "durability", "atomicity")


@dataclass(frozen=True)
class Op:
    """One logical table operation in a campaign workload."""

    #: "insert" | "delete" | "update"
    kind: str
    key: bytes
    value: bytes | None = None


@dataclass(frozen=True)
class BatchOp:
    """One *batched* table operation — a coalesced multi-item commit
    whose crash boundaries land inside the batch's shared flush window.
    Campaign workloads must use fresh keys (not in the pre-fill, not
    repeated) so the per-key atomicity oracle stays unambiguous."""

    #: "put_many"
    kind: str
    #: the batch payload, in submission order
    items: tuple[tuple[bytes, bytes], ...]


def op_keys(op: "Op | BatchOp") -> tuple[bytes, ...]:
    """Keys an op touches (one for scalar ops, all items for a batch)."""
    if isinstance(op, BatchOp):
        return tuple(key for key, _ in op.items)
    return (op.key,)


@dataclass(frozen=True)
class PersistEvent:
    """One recorded persistence-relevant event (program order)."""

    kind: str
    addr: int
    size: int

    def to_list(self) -> list:
        """JSON-ready ``[kind, addr, size]`` triple."""
        return [self.kind, self.addr, self.size]


@dataclass
class WorkloadTrace:
    """Program-order event log of one recorded workload run."""

    #: every write/flush/fence the crash-domain backend saw, in order
    events: list[PersistEvent]
    #: ``op_end_events[i]`` = events executed when op ``i`` completed
    op_end_events: list[int]
    #: event windows ``(start, end]`` of ops during which the harness
    #: performed at least one segment split (directory growth) — empty
    #: for fixed-size schemes. A crash boundary ``k`` with
    #: ``start < k <= end`` lands *while a split is in progress*.
    split_windows: list[tuple[int, int]] = field(default_factory=list)
    #: event windows of ops that were *logically concurrent* with
    #: another client's in-flight op — only populated when the harness
    #: exposes ``concurrent_ops`` (a set of op indices, produced by the
    #: deterministic multi-client interleaver). A crash boundary inside
    #: such a window fires between two clients' in-flight ops.
    concurrent_windows: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        """Total persistence events in the measured window."""
        return len(self.events)

    @property
    def n_splits(self) -> int:
        """Number of recorded split-carrying ops."""
        return len(self.split_windows)

    def in_split_window(self, event_index: int) -> bool:
        """Whether crash boundary ``event_index`` falls inside an op
        that was performing a segment split."""
        return any(s < event_index <= e for s, e in self.split_windows)

    def in_concurrent_window(self, event_index: int) -> bool:
        """Whether crash boundary ``event_index`` falls inside an op
        that overlapped another client's in-flight op."""
        return any(s < event_index <= e for s, e in self.concurrent_windows)

    def completed_ops(self, executed_events: int) -> int:
        """Number of ops fully applied after ``executed_events`` events."""
        done = 0
        for end in self.op_end_events:
            if end <= executed_events:
                done += 1
            else:
                break
        return done


@dataclass(frozen=True)
class WordSubsetSchedule:
    """:class:`~repro.nvm.crash.CrashSchedule` persisting exactly a
    chosen set of absolute 8-byte word offsets (everything else drops).

    The deterministic building block of the matrix: drop-all is the
    empty set, persist-all is the full dirty set, and every enumerated
    subset in between is one concrete way the hardware could have torn
    the unflushed lines."""

    persisted: frozenset[int]

    def words_persisted(
        self, line_addr: int, dirty_word_offsets: Sequence[int]
    ) -> Sequence[int]:
        """Keep the dirty words named by :attr:`persisted`."""
        return [off for off in dirty_word_offsets if off in self.persisted]


class CrashHarness(Protocol):
    """What a campaign needs from one scheme under test.

    A harness wraps a built (and pre-filled) table. :func:`run_campaign`
    calls its factory once and forks the result with ``copy.deepcopy``
    for every crash point and schedule, so a harness must be
    deep-copyable into a fully independent copy — backends fork their
    images and drop observers (see ``RawBackend.__deepcopy__``) — and
    no state leaks between crash points.
    """

    @property
    def crash_backend(self) -> MemoryBackend:
        """The backend forming the crash domain (armed + introspected)."""
        ...  # pragma: no cover - protocol

    def apply(self, op: Op) -> bool:
        """Apply one op to the table; True when it took effect."""
        ...  # pragma: no cover - protocol

    def crash(self, schedule: CrashSchedule) -> None:
        """Power-fail the crash domain with the given schedule."""
        ...  # pragma: no cover - protocol

    def recover(self) -> None:
        """Reattach volatile mirrors and run the scheme's recovery."""
        ...  # pragma: no cover - protocol

    def snapshot(self) -> dict[bytes, bytes]:
        """Recovered table contents as a plain dict."""
        ...  # pragma: no cover - protocol

    def integrity_violations(self) -> list[str]:
        """Structural problems after recovery (empty when sound)."""
        ...  # pragma: no cover - protocol

    # Optional: harnesses over growable (directory) schemes may expose a
    # ``split_count`` int property; :func:`record_trace` samples it
    # around every op to mark split-in-progress event windows on the
    # trace. Multi-client harnesses may expose ``concurrent_ops`` (a set
    # of op indices that logically overlapped another client's in-flight
    # op); their event windows become the trace's concurrent windows.
    # Fixed-size / single-client harnesses simply omit both.


@dataclass(frozen=True)
class Violation:
    """One oracle failure at one (crash point, schedule) cell."""

    #: which oracle failed ("invariant" / "durability" / "atomicity")
    oracle: str
    #: 1-based index of the event the crash fired before
    #: (``n_events + 1`` = the run-to-completion crash)
    event_index: int
    #: schedule identifier ("drop-all", "persist-all", "subset:<i>")
    schedule: str
    #: index of the in-flight op (-1 when none was in flight)
    op_index: int
    detail: str

    def to_dict(self) -> dict:
        """JSON-ready field dict."""
        return {
            "oracle": self.oracle,
            "event_index": self.event_index,
            "schedule": self.schedule,
            "op_index": self.op_index,
            "detail": self.detail,
        }


@dataclass
class CampaignResult:
    """Outcome of one exhaustive crash campaign."""

    #: recorded trace of the uncrashed workload
    trace: WorkloadTrace
    #: number of ops in the workload
    n_ops: int
    #: crash boundaries enumerated (one per event, plus completion)
    points: int = 0
    #: enumerated boundaries that landed inside a split-in-progress
    #: window (0 for fixed-size schemes)
    split_points: int = 0
    #: enumerated boundaries that landed inside an op logically
    #: concurrent with another client's in-flight op (0 for
    #: single-client workloads)
    concurrent_points: int = 0
    #: (boundary, schedule) pairs crashed, recovered and checked
    replays: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: flight-recorder dump trimmed to the minimal failing prefix —
    #: the last recorded ops/events leading up to the earliest failing
    #: boundary; ``None`` when the campaign is clean or no recorder was
    #: attached
    failure_context: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether every replay satisfied every oracle."""
        return not self.violations

    def minimal_failing_prefix(self) -> list[PersistEvent] | None:
        """The event prefix executed before the earliest failing crash
        point — the shortest schedule that demonstrates the bug — or
        ``None`` when the campaign is clean. Boundaries are enumerated
        in program order, so the first recorded violation is minimal."""
        if not self.violations:
            return None
        first = min(v.event_index for v in self.violations)
        return self.trace.events[: first - 1]


def record_trace(
    harness: CrashHarness,
    ops: Sequence[Op | BatchOp],
    recorder=None,
) -> WorkloadTrace:
    """Run ``ops`` uncrashed on a fresh harness, recording the event log.

    ``recorder`` (a :class:`~repro.obs.FlightRecorder`) optionally
    mirrors the recording into a bounded ring — each persist event with
    its program-order index, each op with the event count it retired at
    — so a failing campaign can ship last-N context alongside the
    minimal failing prefix. The recorder is volatile-only: it observes
    the same hook invocations the trace does and never changes them.

    Raises if any op does not take effect — campaign workloads must be
    deterministic, and an op that fails in the recording would silently
    desynchronise the shadow oracle in every replay."""
    events: list[PersistEvent] = []
    backend = harness.crash_backend

    if recorder is None:

        def hook(kind: str, addr: int, size: int) -> None:
            events.append(PersistEvent(kind, addr, size))

    else:

        def hook(kind: str, addr: int, size: int) -> None:
            recorder.record_event(index=len(events) + 1, kind=kind, addr=addr)
            events.append(PersistEvent(kind, addr, size))

    handle = backend.observe(hook)
    op_end_events: list[int] = []
    split_windows: list[tuple[int, int]] = []
    concurrent_windows: list[tuple[int, int]] = []
    # growable harnesses expose a split counter; sampling it around each
    # op marks the event windows where a split was in progress
    tracks_splits = getattr(harness, "split_count", None) is not None
    # multi-client harnesses mark the ops that logically overlapped
    # another client's in-flight op (the workload is the interleaver's
    # serialized commit order); their event windows are where a crash
    # fires between two clients' in-flight ops
    concurrent_ops = getattr(harness, "concurrent_ops", None) or frozenset()
    try:
        for i, op in enumerate(ops):
            start = len(events)
            splits_before = harness.split_count if tracks_splits else 0
            if not harness.apply(op):
                raise RuntimeError(
                    f"campaign op {i} ({op.kind} {op.key!r}) did not apply; "
                    "choose a workload whose every op succeeds"
                )
            op_end_events.append(len(events))
            if tracks_splits and harness.split_count > splits_before:
                split_windows.append((start, len(events)))
            if i in concurrent_ops:
                concurrent_windows.append((start, len(events)))
            if recorder is not None:
                recorder.record_op(
                    0,
                    index=i,
                    kind=op.kind,
                    key=op_keys(op)[0].hex(),
                    events_done=len(events),
                )
    finally:
        handle.close()
    return WorkloadTrace(
        events=events,
        op_end_events=op_end_events,
        split_windows=split_windows,
        concurrent_windows=concurrent_windows,
    )


def shadow_states(
    ops: Sequence[Op | BatchOp], base: dict[bytes, bytes] | None = None
) -> list[dict[bytes, bytes]]:
    """Expected table contents after each op prefix.

    ``states[j]`` is the shadow dict once the first ``j`` ops applied;
    ``states[0]`` is the pre-workload state (``base``: the pre-fill
    items, empty by default). Seeding the base here — rather than
    merging it afterwards — keeps deletes of pre-filled keys from
    resurrecting in later states."""
    states = [dict(base or {})]
    for op in ops:
        state = dict(states[-1])
        if op.kind == "put_many":
            for key, value in op.items:
                state[key] = value
        elif op.kind == "insert" or op.kind == "update":
            state[op.key] = op.value
        elif op.kind == "delete":
            state.pop(op.key, None)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        states.append(state)
    return states


def dirty_word_offsets(backend: MemoryBackend) -> tuple[int, ...]:
    """Absolute offsets of every 8-byte word whose volatile value has
    not reached the persistent image — the words a crash schedule gets
    to rule on."""
    offsets: list[int] = []
    for addr, size in backend.unpersisted_ranges():
        start = addr - addr % ATOMIC_UNIT
        offsets.extend(range(start, addr + size, ATOMIC_UNIT))
    return tuple(offsets)


def enumerate_schedules(
    dirty: Sequence[int], *, budget: int, seed: int, event_index: int
) -> list[tuple[str, WordSubsetSchedule]]:
    """Deterministic survival schedules for one crash boundary.

    Always the two extremes; with ``w >= 2`` dirty words also up to
    ``budget`` *strict* subsets: all ``2^w - 2`` of them when they fit
    the budget, otherwise singletons, then complements, then subsets
    drawn from a PRNG seeded by ``(seed, event_index)`` — so the same
    campaign always tests the same matrix."""
    out: list[tuple[str, WordSubsetSchedule]] = [
        ("drop-all", WordSubsetSchedule(frozenset()))
    ]
    w = len(dirty)
    if w == 0:
        return out
    out.append(("persist-all", WordSubsetSchedule(frozenset(dirty))))
    if w < 2 or budget <= 0:
        return out
    subsets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()

    def add(subset: frozenset[int]) -> None:
        if 0 < len(subset) < w and subset not in seen:
            seen.add(subset)
            subsets.append(subset)

    n_strict = (1 << w) - 2
    if n_strict <= budget:
        for mask in range(1, (1 << w) - 1):
            add(frozenset(off for i, off in enumerate(dirty) if mask >> i & 1))
    else:
        for off in dirty:
            add(frozenset((off,)))
        for off in dirty:
            add(frozenset(dirty) - {off})
        rng = random.Random((seed << 20) ^ event_index)
        attempts = 0
        while len(subsets) < budget and attempts < 16 * budget:
            attempts += 1
            add(frozenset(off for off in dirty if rng.random() < 0.5))
    return out + [
        (f"subset:{i}", WordSubsetSchedule(s))
        for i, s in enumerate(subsets[:budget])
    ]


def check_recovery(
    recovered: dict[bytes, bytes],
    *,
    completed_state: dict[bytes, bytes],
    inflight_state: dict[bytes, bytes],
    inflight_op: Op | BatchOp | None,
    structural: Sequence[str],
    event_index: int,
    schedule: str,
    op_index: int,
) -> list[Violation]:
    """Run the three oracles on one recovered state.

    ``completed_state`` is the shadow after every completed op;
    ``inflight_state`` is the shadow if the in-flight op had also
    applied (equal to ``completed_state`` when nothing was in flight).
    The atomicity oracle is per affected key, which for a scalar op is
    the classic all-or-nothing check and for an in-flight
    :class:`BatchOp` admits any surviving subset of the batch's items —
    each one either absent or carrying exactly its batch value.
    """
    violations = [
        Violation("invariant", event_index, schedule, op_index, problem)
        for problem in structural
    ]
    inflight_keys = (
        frozenset(op_keys(inflight_op)) if inflight_op is not None else frozenset()
    )
    for key, value in completed_state.items():
        if key in inflight_keys:
            continue
        got = recovered.get(key)
        if got != value:
            violations.append(
                Violation(
                    "durability", event_index, schedule, op_index,
                    f"committed key {key.hex()} "
                    + ("lost" if got is None else f"corrupted to {got.hex()}"),
                )
            )
    for key in recovered:
        if key not in completed_state and key not in inflight_keys:
            violations.append(
                Violation(
                    "atomicity", event_index, schedule, op_index,
                    f"phantom key {key.hex()} surfaced by the crash",
                )
            )
    for key in sorted(inflight_keys):
        got = recovered.get(key)
        legal = {completed_state.get(key), inflight_state.get(key)}
        if got not in legal:
            violations.append(
                Violation(
                    "atomicity", event_index, schedule, op_index,
                    f"in-flight {inflight_op.kind} key {key.hex()} "
                    f"partially visible (found {got.hex() if got else None})",
                )
            )
    return violations


def _events(backend: MemoryBackend) -> int:
    """Persistence events the backend has executed so far (every store,
    flush and fence is exactly one)."""
    stats = backend.stats
    return stats.writes + stats.flushes + stats.fences


def _crash_points(
    cursor: CrashHarness,
    ops: Sequence[Op | BatchOp],
    trace: WorkloadTrace,
    n_points: int,
) -> Iterator[tuple[int, int, CrashHarness]]:
    """Yield ``(event_index, inflight op, harness)`` for crash boundaries
    ``1..n_points`` in program order; each harness is power-failed
    before event ``event_index`` but not yet crashed.

    ``cursor`` (the freshly built harness) advances one op at a time.
    A boundary inside op ``i`` forks the cursor at the op's start, arms
    the crash relative to it and replays only op ``i``; the
    run-to-completion boundary yields the cursor after the last op.
    Raises ``RuntimeError`` when the cursor or a fork strays from the
    recorded trace (a non-deterministic harness)."""
    start = 0
    for i, op in enumerate(ops):
        end = trace.op_end_events[i]
        for event_index in range(start + 1, min(end, n_points) + 1):
            fork = copy.deepcopy(cursor)
            fork.crash_backend.arm_crash(event_index - start)
            try:
                fork.apply(op)
            except SimulatedPowerFailure:
                yield event_index, i, fork
                continue
            raise RuntimeError(
                f"non-deterministic replay: boundary {event_index} did not "
                f"fire inside op {i}, whose recorded events end at {end}"
            )
        if end >= n_points:
            return
        before = _events(cursor.crash_backend)
        cursor.apply(op)
        executed = _events(cursor.crash_backend) - before
        if executed != end - start:
            raise RuntimeError(
                f"non-deterministic replay: op {i} executed {executed} "
                f"events but the recorded trace says {end - start}"
            )
        start = end
    if n_points > trace.n_events:
        yield trace.n_events + 1, -1, cursor


def run_campaign(
    factory: Callable[[], CrashHarness],
    ops: Sequence[Op | BatchOp],
    *,
    subset_budget: int = 2,
    seed: int = 0,
    prefill: dict[bytes, bytes] | None = None,
    max_points: int | None = None,
    recorder=None,
) -> CampaignResult:
    """Enumerate every crash boundary of the ``ops`` workload.

    ``factory`` is called once: it builds the harness (table constructed
    and pre-filled with ``prefill``), which must be deterministic and
    deep-copyable. The recording runs on a fork of it. For each boundary
    ``k`` in ``1..n_events`` (crash fires before event ``k``) plus the
    run-to-completion point, the pre-crash state comes from
    :func:`_crash_points` and is forked once per enumerated survival
    schedule; each fork is crashed with its schedule, recovers, and the
    oracles run. ``max_points`` truncates the boundary sweep
    (diagnostics only — a truncated campaign proves nothing about the
    boundaries it skipped).

    ``recorder`` (a :class:`~repro.obs.FlightRecorder`) observes the
    recording run; when the campaign fails, its dump — trimmed to the
    ops and events that executed before the earliest failing boundary —
    lands in :attr:`CampaignResult.failure_context`, so the report that
    carries the minimal failing prefix also carries the last recorded
    ops leading into it."""
    cursor = factory()
    trace = record_trace(copy.deepcopy(cursor), ops, recorder=recorder)
    states = shadow_states(ops, base=prefill)
    result = CampaignResult(trace=trace, n_ops=len(ops))
    n_points = trace.n_events + 1
    if max_points is not None:
        n_points = min(n_points, max_points)
    for event_index, inflight, pre_crash in _crash_points(cursor, ops, trace, n_points):
        result.points += 1
        if trace.in_split_window(event_index):
            result.split_points += 1
        if trace.in_concurrent_window(event_index):
            result.concurrent_points += 1
        schedules = enumerate_schedules(
            dirty_word_offsets(pre_crash.crash_backend),
            budget=subset_budget,
            seed=seed,
            event_index=event_index,
        )
        completed = trace.completed_ops(event_index - 1)
        inflight_op = ops[inflight] if inflight >= 0 else None
        for i, (schedule_id, schedule) in enumerate(schedules):
            # the last schedule consumes the pre-crash state itself
            last = i == len(schedules) - 1
            harness = pre_crash if last else copy.deepcopy(pre_crash)
            harness.crash(schedule)
            result.replays += 1
            harness.recover()
            result.violations.extend(
                check_recovery(
                    harness.snapshot(),
                    completed_state=states[completed],
                    inflight_state=(
                        states[completed + 1] if inflight_op is not None
                        else states[completed]
                    ),
                    inflight_op=inflight_op,
                    structural=harness.integrity_violations(),
                    event_index=event_index,
                    schedule=schedule_id,
                    op_index=inflight,
                )
            )
    if result.violations and recorder is not None:
        first = min(v.event_index for v in result.violations)
        dump = recorder.dump()
        # keep only what executed before the failing boundary, so the
        # context matches the minimal failing prefix exactly
        dump["ops"] = {
            client: [op for op in ring if op.get("events_done", 0) < first]
            for client, ring in dump["ops"].items()
        }
        dump["events"] = [e for e in dump["events"] if e.get("index", 0) < first]
        dump["first_failing_boundary"] = first
        result.failure_context = dump
    return result
