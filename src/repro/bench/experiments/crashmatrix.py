"""Crash-matrix campaigns: the consistency claim as an enumerable test.

The paper argues (Sections 3.4 / 4.6) that group hashing needs no log
because its persist ordering makes every crash recoverable. This driver
turns that argument into a measured artifact: for each campaign cell —
a (scheme, backend, shard layout, workload, subset budget) tuple frozen
as a :class:`CrashMatrixSpec` — it records the persistence event log of
a deterministic workload and power-fails it at every crash boundary
under every word-survival schedule, recovering and checking the three
oracles of :mod:`repro.nvm.crashpoint` each time.

Cells run through the bench :class:`~repro.bench.engine.Engine`, so a
campaign deduplicates, fans out across ``--jobs`` workers, and caches:
a green matrix re-verifies from disk for free until the source tree
changes, at which point the code-version token forces a full re-run —
exactly the regression discipline CI wants.

The grid always includes the paper's scheme (group hashing), at least
one logged baseline (undo-log rollback exercises a *different* recovery
path), a :class:`~repro.core.sharded.ShardedTable` cell whose crash
domain is a single shard — proving shard independence, not just
single-table recoverability — and a *grow* cell: a
:class:`~repro.core.directory.DirectoryTable` under an insert-heavy
workload that forces several segment splits inside the recorded window,
so crash boundaries land mid-split and recovery must land on exactly
the old or the new directory state. A multi-client cell interleaves
several logical clients under the deterministic scheduler of
:mod:`repro.concurrency` and replays the serialized commit order, so
crash boundaries also land *between two different clients' in-flight
ops* — recovery is proven with concurrent work outstanding.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from repro.bench.config import build_table
from repro.bench.engine import default_engine, register_spec_kind
from repro.bench.experiments import ExperimentResult
from repro.bench.report import format_ratio_note, format_table
from repro.core import DirectoryTable, ShardedTable, recover_table
from repro.nvm.backend import MemoryBackend, RawBackend
from repro.nvm.crash import CrashSchedule
from repro.nvm.crashpoint import BatchOp, Op, run_campaign
from repro.obs import FlightRecorder
from repro.tables.cell import CellCodec, ItemSpec

#: schemes enumerated at the tiny (``--quick``) scale
QUICK_SCHEMES: tuple[str, ...] = ("group", "linear-L")

#: schemes enumerated at every larger scale (scheduled full runs)
FULL_SCHEMES: tuple[str, ...] = ("group", "linear-L", "pfht-L", "path-L")


@dataclass(frozen=True)
class CrashMatrixSpec:
    """One campaign cell, frozen so the engine can dedupe and cache it.

    ``n_shards=0`` campaigns a monolithic ``scheme`` table on
    ``backend``; ``n_shards>0`` campaigns a :class:`ShardedTable` (group
    scheme on raw shards — the sharded default) whose crash domain is
    shard 0 only.
    """

    scheme: str = "group"
    #: "raw" (fast, identical event semantics) or "sim" (full simulator)
    backend: str = "raw"
    total_cells: int = 256
    group_size: int = 32
    #: measured ops after pre-fill (the enumerated window)
    n_ops: int = 16
    #: pre-fill load factor (inserted before recording starts)
    prefill: float = 0.3
    #: strict word-survival subsets per boundary beyond the two extremes
    subset_budget: int = 2
    #: 0 = monolithic table; >0 = sharded with shard 0 as crash domain
    n_shards: int = 0
    #: True = directory-of-segments table (``DirectoryTable``) with an
    #: insert-heavy workload that forces splits inside the recorded
    #: window, so crash boundaries land mid-split
    grow: bool = False
    #: per-segment cells for ``grow`` cells (small, so splits are cheap
    #: to enumerate and frequent enough to cross ≥3 in the window)
    segment_cells: int = 8
    #: >0 = batched-insert workload: every insert op becomes a
    #: ``put_many`` of this many fresh items, so crash boundaries land
    #: inside the coalesced flush window and the per-key atomicity
    #: oracle checks subset survival
    batch: int = 0
    #: >0 = multi-client workload: ``n_ops`` total ops are split over
    #: this many logical clients and interleaved by the deterministic
    #: scheduler (:mod:`repro.concurrency`); the campaign replays the
    #: serialized commit order and counts boundaries that land between
    #: two different clients' in-flight ops
    clients: int = 0
    seed: int = 42

    def to_dict(self) -> dict:
        """JSON-ready field dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashMatrixSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)

    @property
    def label(self) -> str:
        """Report row label, e.g. ``group``, ``linear-L``, ``group x4``."""
        name = self.scheme
        if self.grow:
            name += "-dir"
        if self.n_shards:
            name += f" x{self.n_shards}"
        if self.batch:
            name += f" b{self.batch}"
        if self.clients:
            name += f" c{self.clients}"
        if self.backend != "raw":
            name += f" ({self.backend})"
        return name


def build_workload(
    spec: CrashMatrixSpec,
) -> tuple[dict[bytes, bytes], list[Op | BatchOp]]:
    """Deterministic (pre-fill items, measured op list) for one cell.

    Pure function of the spec: a seeded PRNG draws unique non-zero
    8-byte keys, pre-fills to ``spec.prefill`` load, then emits a
    repeating insert/delete/update/insert mix whose delete and update
    targets are drawn from the keys live at that point — so the
    workload crosses every commit discipline (fresh cell, tombstone,
    in-place overwrite) while staying replayable bit-for-bit. With
    ``spec.batch > 0`` every insert slot becomes a :class:`BatchOp` of
    that many fresh items, so the enumerated crash boundaries land
    inside the coalesced batch flush window (the deletes and updates in
    between keep scalar commits in the same trace)."""
    spec_fields = ItemSpec()
    rng = random.Random((spec.seed << 8) ^ 0xC4A5)
    used: set[bytes] = set()

    def fresh_key() -> bytes:
        while True:
            key = rng.getrandbits(64).to_bytes(spec_fields.key_size, "little")
            if any(key) and key not in used:
                used.add(key)
                return key

    def fresh_value() -> bytes:
        return rng.getrandbits(64).to_bytes(spec_fields.value_size, "little")

    n_prefill = max(2, int(spec.prefill * spec.total_cells))
    prefill = {fresh_key(): fresh_value() for _ in range(n_prefill)}
    shadow = dict(prefill)
    # grow cells skew heavily towards inserts so segments fill and split
    # *inside* the recorded window (the cell still crosses tombstone and
    # in-place-overwrite commits once each)
    kinds = (
        ("insert",) * 6 + ("update", "delete")
        if spec.grow
        else ("insert", "delete", "update", "insert")
    )
    ops: list[Op | BatchOp] = []
    for i in range(spec.n_ops):
        kind = kinds[i % len(kinds)]
        if kind == "insert" and spec.batch:
            batch = tuple(
                (fresh_key(), fresh_value()) for _ in range(spec.batch)
            )
            shadow.update(batch)
            ops.append(BatchOp("put_many", batch))
        elif kind == "insert":
            key, value = fresh_key(), fresh_value()
            shadow[key] = value
            ops.append(Op("insert", key, value))
        elif kind == "delete":
            key = sorted(shadow)[rng.randrange(len(shadow))]
            del shadow[key]
            ops.append(Op("delete", key))
        else:
            key = sorted(shadow)[rng.randrange(len(shadow))]
            value = fresh_value()
            shadow[key] = value
            ops.append(Op("update", key, value))
    return prefill, ops


def build_concurrent_workload(
    spec: CrashMatrixSpec,
) -> tuple[dict[bytes, bytes], list[Op], frozenset[int]]:
    """Deterministic multi-client workload for a ``clients > 0`` cell.

    Each client gets its own insert-heavy stream over a *disjoint* key
    slice (the low key byte is the client tag, so every op succeeds and
    the shadow oracle stays unambiguous), the streams run under the
    deterministic interleaver on a scratch harness, and the resulting
    physical commit order — plus the set of ops whose simulated-clock
    windows overlapped another client's in-flight op — becomes the
    campaign workload. Contention is still real: different clients'
    keys share lock stripes (groups) by hash collision, and every
    boundary inside an overlapped op's event window fires while another
    client's op is logically in flight."""
    from repro.concurrency import ClientOp, run_concurrent

    spec_fields = ItemSpec()
    rng = random.Random((spec.seed << 8) ^ 0xC4A5)
    prefill: dict[bytes, bytes] = {}
    n_prefill = max(2, int(spec.prefill * spec.total_cells))
    while len(prefill) < n_prefill:
        # low byte 0xEE tags pre-fill keys (client tags are 1..clients)
        key = ((rng.getrandbits(56) << 8) | 0xEE).to_bytes(
            spec_fields.key_size, "little"
        )
        prefill.setdefault(
            key, rng.getrandbits(64).to_bytes(spec_fields.value_size, "little")
        )

    per_client = max(1, spec.n_ops // spec.clients)
    kinds = ("insert", "insert", "update", "insert", "delete", "insert")
    streams: list[list[ClientOp]] = []
    for client in range(spec.clients):
        crng = random.Random((spec.seed << 8) ^ 0xCC ^ (client * 0x51))
        own: list[tuple[bytes, bytes]] = []
        ops: list[ClientOp] = []
        for i in range(per_client):
            kind = kinds[i % len(kinds)]
            if kind != "insert" and not own:
                kind = "insert"
            if kind == "insert":
                key = ((crng.getrandbits(56) << 8) | (client + 1)).to_bytes(
                    spec_fields.key_size, "little"
                )
                value = crng.getrandbits(64).to_bytes(
                    spec_fields.value_size, "little"
                )
                own.append((key, value))
                ops.append(ClientOp("insert", key, value))
            elif kind == "update":
                index = crng.randrange(len(own))
                value = crng.getrandbits(64).to_bytes(
                    spec_fields.value_size, "little"
                )
                own[index] = (own[index][0], value)
                ops.append(ClientOp("update", own[index][0], value))
            else:
                key, _ = own.pop(crng.randrange(len(own)))
                ops.append(ClientOp("delete", key))
        streams.append(ops)

    # the scratch run: same construction as the campaign's harness, so
    # the serialized commit order is exactly what the campaign re-executes
    scratch = make_harness(spec, prefill)
    result = run_concurrent(scratch.table, streams, seed=spec.seed)
    if not result.ok or not all(r.ok for r in result.committed):
        raise RuntimeError(
            f"concurrent workload for {spec.label} did not apply cleanly: "
            f"{result.check_failures[:3]}"
        )
    ops = [Op(r.op.kind, r.op.key, r.op.value) for r in result.committed]
    concurrent = frozenset(
        i for i, r in enumerate(result.committed) if r.concurrent
    )
    return prefill, ops, concurrent


class TableCampaignHarness:
    """:class:`~repro.nvm.crashpoint.CrashHarness` over one built table."""

    def __init__(self, built) -> None:
        self.built = built
        self.table = built.table

    @property
    def crash_backend(self) -> MemoryBackend:
        """The table's whole backend is the crash domain."""
        return self.built.region

    @property
    def split_count(self) -> int | None:
        """Segment splits so far (None for fixed-size schemes, which
        tells :func:`record_trace` not to track split windows)."""
        return getattr(self.table, "splits", None)

    def apply(self, op: Op | BatchOp) -> bool:
        """Route one workload op to the table."""
        if op.kind == "put_many":
            return all(self.table.put_many(list(op.items)))
        if op.kind == "insert":
            return self.table.insert(op.key, op.value)
        if op.kind == "delete":
            return self.table.delete(op.key)
        if op.kind == "update":
            return self.table.update(op.key, op.value)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def crash(self, schedule: CrashSchedule) -> None:
        """Power-fail the backend under ``schedule``."""
        self.built.region.crash(schedule)

    def recover(self) -> None:
        """Reboot: reattach mirrors, run the scheme's recovery."""
        recover_table(self.table)

    def snapshot(self) -> dict[bytes, bytes]:
        """Recovered contents as a plain dict."""
        return dict(self.table.items())

    def integrity_violations(self) -> list[str]:
        """The table's structural self-checks."""
        return self.table.integrity_violations()


class ShardedCampaignHarness:
    """Harness whose crash domain is one shard of a sharded table.

    The workload routes over every shard, but only ``crash_shard``'s
    backend is recorded, armed, crashed and recovered — the campaign
    thereby checks both that the failed shard recovers and that the
    oracles hold over the *global* key space (untouched shards keep
    serving their committed items)."""

    def __init__(self, table: ShardedTable, crash_shard: int = 0) -> None:
        self.table = table
        self.crash_shard = crash_shard

    @property
    def crash_backend(self) -> MemoryBackend:
        """The crash shard's own backend."""
        return self.table.backend.shard(self.crash_shard)

    def apply(self, op: Op | BatchOp) -> bool:
        """Route one workload op through the shard router."""
        if op.kind == "put_many":
            return all(self.table.put_many(list(op.items)))
        if op.kind == "insert":
            return self.table.insert(op.key, op.value)
        if op.kind == "delete":
            return self.table.delete(op.key)
        if op.kind == "update":
            return self.table.update(op.key, op.value)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def crash(self, schedule: CrashSchedule) -> None:
        """Power-fail only the crash shard."""
        self.table.crash(schedule, shard=self.crash_shard)

    def recover(self) -> None:
        """Reboot only the crash shard (others never went down)."""
        recover_table(self.table.tables[self.crash_shard])

    def snapshot(self) -> dict[bytes, bytes]:
        """Global contents across all shards."""
        return dict(self.table.items())

    def integrity_violations(self) -> list[str]:
        """Structural checks on every shard (the global invariant)."""
        problems: list[str] = []
        for i, shard_table in enumerate(self.table.tables):
            problems.extend(
                f"shard {i}: {p}" for p in shard_table.integrity_violations()
            )
        return problems


@dataclass
class _GrownBuilt:
    """Minimal ``build_table``-shaped carrier for the grow cell's
    directory table (what :class:`TableCampaignHarness` consumes)."""

    table: DirectoryTable
    region: MemoryBackend


def make_harness(
    spec: CrashMatrixSpec, prefill: dict[bytes, bytes]
) -> TableCampaignHarness | ShardedCampaignHarness:
    """Build one fresh, pre-filled harness for ``spec`` (the campaign
    factory — a campaign calls it once and forks the result for every
    crash point)."""
    harness: TableCampaignHarness | ShardedCampaignHarness
    if spec.grow:
        if spec.scheme != "group" or spec.backend != "raw" or spec.n_shards:
            raise ValueError(
                "grow campaign cells use a monolithic DirectoryTable "
                "(group segments) on a raw backend"
            )
        # headroom: splits carve new segments (and doubled directory
        # arrays) out of the same never-reused bump allocator
        codec = CellCodec(ItemSpec())
        backend = RawBackend(
            codec.array_bytes(spec.total_cells * 8) + (1 << 16),
            name="growcell",
        )
        table = DirectoryTable(
            backend,
            spec.total_cells,
            ItemSpec(),
            segment_cells=spec.segment_cells,
            seed=spec.seed,
        )
        harness = TableCampaignHarness(_GrownBuilt(table, backend))
    elif spec.n_shards:
        if spec.scheme != "group" or spec.backend != "raw":
            raise ValueError(
                "sharded campaign cells use the sharded default "
                "(group scheme on raw shards)"
            )
        table = ShardedTable(
            spec.total_cells,
            ItemSpec(),
            n_shards=spec.n_shards,
            seed=spec.seed,
        )
        harness = ShardedCampaignHarness(table)
    else:
        built = build_table(
            spec.scheme,
            spec.total_cells,
            ItemSpec(),
            group_size=spec.group_size,
            seed=spec.seed,
            cache_ratio=4.0,
            backend=spec.backend,
        )
        harness = TableCampaignHarness(built)
    for key, value in prefill.items():
        if not harness.apply(Op("insert", key, value)):
            raise RuntimeError(
                f"pre-fill insert failed at load {spec.prefill} — lower "
                f"spec.prefill for {spec.label}"
            )
    return harness


def run_crash_matrix_spec(spec: CrashMatrixSpec) -> dict:
    """Execute one campaign cell; returns a JSON-ready summary dict.

    This is the engine executor for :class:`CrashMatrixSpec` (runs in
    pool workers), so the result must round-trip through JSON
    unchanged: counts, violation dicts, and the minimal failing event
    prefix as ``[kind, addr, size]`` triples."""
    concurrent: frozenset[int] = frozenset()
    if spec.clients:
        prefill, ops, concurrent = build_concurrent_workload(spec)
    else:
        prefill, ops = build_workload(spec)

    def factory():
        harness = make_harness(spec, prefill)
        harness.concurrent_ops = concurrent
        return harness

    result = run_campaign(
        factory,
        ops,
        subset_budget=spec.subset_budget,
        seed=spec.seed,
        prefill=prefill,
        recorder=FlightRecorder(),
    )
    prefix = result.minimal_failing_prefix()
    return {
        "scheme": spec.scheme,
        "backend": spec.backend,
        "n_shards": spec.n_shards,
        "batch": spec.batch,
        "clients": spec.clients,
        "ops": result.n_ops,
        "events": result.trace.n_events,
        "points": result.points,
        "splits": result.trace.n_splits,
        "split_points": result.split_points,
        "concurrent_points": result.concurrent_points,
        "replays": result.replays,
        "violations": [v.to_dict() for v in result.violations],
        "min_failing_prefix": (
            None if prefix is None else [e.to_list() for e in prefix]
        ),
        "failure_context": result.failure_context,
    }


register_spec_kind(CrashMatrixSpec, run_crash_matrix_spec)


def campaign_specs(
    scale,
    seed: int,
    *,
    schemes: tuple[str, ...] | None = None,
    backend: str = "raw",
    budget: int | None = None,
) -> list[CrashMatrixSpec]:
    """The campaign grid for one scale.

    Tiny scale is the CI smoke matrix (two schemes, small budget);
    anything larger widens to every logged baseline and a higher subset
    budget, and adds a simulator-backend cell so the costed region's
    event semantics stay covered too. A sharded cell (group scheme,
    shard-0 crash domain) and a batched-insert cell (coalesced
    ``put_many`` commits) are always present."""
    quick = scale.name == "tiny"
    chosen = tuple(schemes) if schemes else (
        QUICK_SCHEMES if quick else FULL_SCHEMES
    )
    subset_budget = budget if budget is not None else (2 if quick else 6)
    n_ops = 16 if quick else 24
    cells = 256 if quick else 512
    specs = [
        CrashMatrixSpec(
            scheme=scheme,
            backend=backend,
            total_cells=cells,
            group_size=32,
            n_ops=n_ops,
            subset_budget=subset_budget,
            seed=seed,
        )
        for scheme in chosen
    ]
    specs.append(
        CrashMatrixSpec(
            scheme="group",
            backend="raw",
            total_cells=cells,
            group_size=32,
            n_ops=n_ops + 8,
            subset_budget=subset_budget,
            n_shards=4,
            seed=seed,
        )
    )
    if not quick and backend == "raw":
        specs.append(
            CrashMatrixSpec(
                scheme="group",
                backend="sim",
                total_cells=cells,
                group_size=32,
                n_ops=n_ops,
                subset_budget=subset_budget,
                seed=seed,
            )
        )
    # the batched-insert cell: every insert is a coalesced put_many, so
    # crash boundaries land inside the shared flush window and the
    # per-key atomicity oracle proves subset survival is all coalescing
    # can cost (DESIGN.md decision 13)
    specs.append(
        CrashMatrixSpec(
            scheme="group",
            backend="raw",
            total_cells=cells,
            group_size=32,
            n_ops=8 if quick else 12,
            subset_budget=subset_budget,
            batch=4,
            seed=seed,
        )
    )
    # the mid-interleaving cell: three logical clients run under the
    # deterministic scheduler and the campaign replays the serialized
    # commit order — crash boundaries inside an overlapped op's window
    # fire while another client's op is logically in flight, proving
    # recovery with concurrent in-flight ops (DESIGN.md decision 14)
    specs.append(
        CrashMatrixSpec(
            scheme="group",
            backend="raw",
            total_cells=cells,
            group_size=32,
            n_ops=12 if quick else 18,
            subset_budget=subset_budget,
            clients=3,
            seed=seed,
        )
    )
    # the split-in-progress cell: tiny segments + insert-heavy mix so
    # several splits happen inside the recorded window and the campaign
    # enumerates crash boundaries landing mid-split
    specs.append(
        CrashMatrixSpec(
            scheme="group",
            backend="raw",
            total_cells=32,
            group_size=32,
            n_ops=24 if quick else 40,
            prefill=0.5,
            subset_budget=subset_budget,
            grow=True,
            segment_cells=8,
            seed=seed,
        )
    )
    return specs


def run(
    scale,
    seed: int = 42,
    engine=None,
    *,
    schemes: tuple[str, ...] | None = None,
    backend: str = "raw",
    budget: int | None = None,
) -> ExperimentResult:
    """Run the crash-matrix campaign grid and render the report."""
    engine = engine or default_engine()
    specs = campaign_specs(
        scale, seed, schemes=schemes, backend=backend, budget=budget
    )
    cells = engine.run(specs)

    columns = [
        "events", "points", "split_pts", "conc_pts", "replays", "violations"
    ]
    rows = []
    total_points = total_replays = total_violations = 0
    total_splits = total_split_points = total_batch_points = 0
    total_concurrent_points = 0
    first_prefix: list | None = None
    for spec, cell in zip(specs, cells):
        rows.append((
            spec.label,
            {
                "events": cell["events"],
                "points": cell["points"],
                "split_pts": cell["split_points"],
                "conc_pts": cell["concurrent_points"],
                "replays": cell["replays"],
                "violations": len(cell["violations"]),
            },
        ))
        total_points += cell["points"]
        total_replays += cell["replays"]
        total_violations += len(cell["violations"])
        total_splits += cell["splits"]
        total_split_points += cell["split_points"]
        total_concurrent_points += cell["concurrent_points"]
        if spec.batch:
            total_batch_points += cell["points"]
        if first_prefix is None and cell["min_failing_prefix"] is not None:
            first_prefix = cell["min_failing_prefix"]

    text = format_table(
        "Crash matrix: every persist boundary x word-survival schedules",
        columns,
        rows,
        precision=0,
    )
    text += "\n" + format_ratio_note(
        f"{total_points} crash points, {total_replays} replays, "
        f"{total_violations} oracle violation(s) "
        f"({'all schemes recover consistently' if not total_violations else 'FAIL'})"
    )
    text += "\n" + format_ratio_note(
        f"{total_splits} segment splits in-window, "
        f"{total_split_points} crash points landed mid-split "
        "(recovery must land on the old or the new directory state)"
    )
    text += "\n" + format_ratio_note(
        f"{total_batch_points} crash points in batched-insert cells "
        "(boundaries inside coalesced put_many flush windows; any "
        "surviving subset must be per-item intact)"
    )
    text += "\n" + format_ratio_note(
        f"{total_concurrent_points} crash points landed between two "
        "different clients' in-flight ops (recovery proven with "
        "concurrent work outstanding)"
    )
    if first_prefix is not None:
        text += "\n" + format_ratio_note(
            f"minimal failing prefix: {len(first_prefix)} event(s) "
            "(see the JSON dump for the event list)"
        )
    data = {
        "cells": [
            dict(cell, spec=spec.to_dict())
            for spec, cell in zip(specs, cells)
        ],
        "total_points": total_points,
        "total_replays": total_replays,
        "total_violations": total_violations,
        "total_splits": total_splits,
        "total_split_points": total_split_points,
        "total_batch_points": total_batch_points,
        "total_concurrent_points": total_concurrent_points,
        "ok": total_violations == 0,
    }
    return ExperimentResult(
        name="crashmatrix",
        paper_ref="Consistency claim (Sections 3.4 and 4.6)",
        data=data,
        text=text,
    )
