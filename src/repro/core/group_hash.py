"""Group hashing (paper Section 3): write-efficient, consistent hashing
for NVM.

Faithfulness notes, keyed to the paper:

- **Insert** follows Algorithm 1 exactly: write key+value → persist →
  atomically set the cell's bitmap (8-byte store) → persist → increment
  ``count`` → persist. No logging, no copy-on-write — a crash before the
  bitmap flip simply loses the (uncommitted) item, and recovery clears
  the partial write.
- **Delete** follows Algorithm 3: the bitmap is cleared *before* the
  key-value wipe so a crash mid-wipe leaves a cell that recovery knows
  to reset (bitmap 0 ⇒ contents are garbage).
- **Query** follows Algorithm 2, with one hardening noted in the paper
  reproduction: the level-2 scan checks the bitmap in addition to the
  key (the paper checks only the key, relying on recovery having zeroed
  unoccupied cells; checking the bit costs nothing — it travels in the
  same header word as the probe read — and makes the structure safe even
  before a post-crash recovery pass).
- **Group sharing**: collisions in level-1 cell ``k`` spill exclusively
  into the contiguous level-2 group ``k // group_size``, so the fallback
  scan walks consecutive cachelines (hardware-prefetch friendly; in the
  simulator, consecutive cells share lines, which is what produces the
  low miss counts of Figures 2b and 6).

An optional ``n_hash_functions > 1`` mode implements the ablation the
paper discusses in Section 4.4 (a second hash raises space utilization
but breaks probe contiguity); the default of 1 is the paper's design.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.layout import GroupLayout
from repro.core.recovery import recover_group_table
from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT, ItemSpec
from repro.tables.wal import UndoLog


class GroupHashTable(PersistentHashTable):
    """The paper's group hashing scheme."""

    scheme_name = "group"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        group_size: int = 256,
        n_hash_functions: int = 1,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        if log is not None:
            raise ValueError(
                "group hashing guarantees consistency with 8-byte atomic "
                "writes; it never uses a log (that's the point of the paper)"
            )
        if n_cells % 2:
            raise ValueError("n_cells must be even (two equal levels)")
        n_level = n_cells // 2
        if n_level % group_size:
            raise ValueError(
                f"group_size {group_size} must divide the per-level cell "
                f"count {n_level}"
            )
        if n_hash_functions < 1:
            raise ValueError("need at least one hash function")
        super().__init__(region, n_cells, spec, log=None, seed=seed)
        self.group_size = group_size
        self.n_hash_functions = n_hash_functions
        self._hashes = [self.family.function(i) for i in range(n_hash_functions)]
        tab1 = region.alloc(
            self.codec.array_bytes(n_level), align=CACHELINE, label="group.tab1"
        )
        tab2 = region.alloc(
            self.codec.array_bytes(n_level), align=CACHELINE, label="group.tab2"
        )
        self.layout = GroupLayout(
            n_cells_level=n_level,
            group_size=group_size,
            tab1_base=tab1,
            tab2_base=tab2,
        )
        # Extended global info (Figure 4): group_size and table_size next
        # to the base block's count field.
        region.write_u64(self._info_addr + 24, group_size)
        region.write_u64(self._info_addr + 32, n_level)
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return 2 * (self.n_cells // 2)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        layout = self.layout
        return (
            (layout.tab1_base, layout.n_cells_level),
            (layout.tab2_base, layout.n_cells_level),
        )

    @property
    def n_lock_stripes(self) -> int:
        """One lock stripe per *group* — the paper's natural locking
        unit: stripe ``g`` covers level-1 cells ``[g*group_size,
        (g+1)*group_size)`` and the level-2 group they spill into."""
        return self.layout.n_cells_level // self.group_size

    def lock_stripes(self, key: bytes) -> tuple[int, ...]:
        """Every group ``key`` can land in (one per hash function),
        sorted — a writer locks them all, an optimistic reader
        validates them all."""
        n_level, group_size = self.layout.n_cells_level, self.group_size
        return tuple(sorted({h(key) % n_level // group_size for h in self._hashes}))

    # ------------------------------------------------------------------
    # Algorithm 1

    def insert(self, key: bytes, value: bytes) -> bool:
        # Hot path: layout arithmetic is inlined into locals and the
        # group walk is the backend's bulk probe, whose event semantics
        # are defined as the per-cell loop — so the simulator's event
        # counts (pinned by tests) are those of the readable form.
        layout = self.layout
        region = self.region
        cell_size = self.codec.cell_size
        group_size = self.group_size
        tr, mx = self.tracer, self.metrics
        for h in self._hashes:
            if tr is not None:
                tr.push("hash")
            k = h(key) % layout.n_cells_level
            if tr is not None:
                tr.pop()
                tr.push("l1_probe")
            addr1 = layout.tab1_base + k * cell_size
            l1_free = not region.read_u64(addr1) & OCCUPIED_BIT
            if tr is not None:
                tr.pop()
            if l1_free:
                if mx is not None:
                    mx.histogram("group.insert_probe_cells").record(1)
                    mx.counter("group.l1_inserts").inc()
                self._install(addr1, key, value)
                return True
            # Level-1 collision: scan the matched level-2 group — a
            # contiguous run of group_size cells.
            if tr is not None:
                tr.push("l2_probe")
            group_base = layout.tab2_base + (k - k % group_size) * cell_size
            i = region.scan_clear_u64(group_base, cell_size, group_size, OCCUPIED_BIT)
            if tr is not None:
                tr.pop()
            if i is not None:
                if mx is not None:
                    mx.histogram("group.insert_probe_cells").record(2 + i)
                    mx.counter("group.overflow_inserts").inc()
                    mx.heat("group.overflow_heat").touch(k // group_size)
                self._install(group_base + i * cell_size, key, value)
                return True
        # Both the home cell and its whole shared group are full: the
        # paper's signal that the table needs expansion.
        if mx is not None:
            mx.counter("group.insert_failures").inc()
        return False

    # ------------------------------------------------------------------
    # Algorithm 2

    def query(self, key: bytes) -> bytes | None:
        addr = self._find(key)
        if addr is None:
            return None
        return self.codec.read_value(self.region, addr)

    def _find(self, key: bytes) -> int | None:
        # Same discipline as insert: the home cell is one header+key
        # read (the codec.probe access), the group walk is the backend's
        # bulk match with identical per-cell read semantics.
        layout = self.layout
        region = self.region
        cell_size = self.codec.cell_size
        group_size = self.group_size
        probe_size = HEADER_SIZE + self.spec.key_size
        tr, mx = self.tracer, self.metrics
        for h in self._hashes:
            if tr is not None:
                tr.push("hash")
            k = h(key) % layout.n_cells_level
            if tr is not None:
                tr.pop()
                tr.push("l1_probe")
            addr1 = layout.tab1_base + k * cell_size
            raw = region.read(addr1, probe_size)
            if tr is not None:
                tr.pop()
            if raw[0] & OCCUPIED_BIT and raw[HEADER_SIZE:] == key:
                if mx is not None:
                    mx.histogram("group.find_probe_cells").record(1)
                return addr1
            if tr is not None:
                tr.push("l2_probe")
            group_base = layout.tab2_base + (k - k % group_size) * cell_size
            i = region.scan_match(
                group_base, cell_size, group_size, key,
                mask=OCCUPIED_BIT, key_offset=HEADER_SIZE,
            )
            if tr is not None:
                tr.pop()
            if i is not None:
                if mx is not None:
                    mx.histogram("group.find_probe_cells").record(2 + i)
                    mx.heat("group.overflow_heat").touch(k // group_size)
                return group_base + i * cell_size
        if mx is not None:
            mx.histogram("group.find_probe_cells").record(
                (1 + group_size) * self.n_hash_functions
            )
        return None

    # ------------------------------------------------------------------
    # item enumeration (split support)

    def scan_items(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield every committed ``(key, value)`` pair through the costed
        read path.

        This is the enumeration hook a segment split needs: unlike
        :meth:`items` (a cost-free peek for assertions), this walk
        charges one header+kv read per cell, in address order — the same
        sequential, prefetch-friendly pattern as the recovery scan — so
        the price of rehashing a segment shows up in simulated time."""
        spec, region = self.spec, self.region
        probe_size = HEADER_SIZE + spec.item_size
        for addr in self._iter_cell_addrs():
            raw = region.read(addr, probe_size)
            if raw[0] & OCCUPIED_BIT:
                kv = raw[HEADER_SIZE:]
                yield kv[: spec.key_size], kv[spec.key_size :]

    # ------------------------------------------------------------------
    # Algorithm 3

    def delete(self, key: bytes) -> bool:
        addr = self._find(key)
        if addr is None:
            return False
        self._remove(addr)
        return True

    # ------------------------------------------------------------------
    # batch operations (beyond the paper; DESIGN.md decision 13)

    def put_many(self, items: list[tuple[bytes, bytes]]) -> list[bool]:
        """Insert a batch of ``(key, value)`` pairs; one bool per item.

        Placement policy is Algorithm 1's, applied to the items in
        order (later items see earlier, still-uncommitted placements),
        so the final persistent state is byte-identical to a loop of
        :meth:`insert` calls. Persistence is coalesced per batch: all
        key-value stores, one flush per touched line, one fence, then
        all bitmap commits, one flush per header line, one fence, then
        a single count persist. Every persisted bitmap still implies
        its key-value bytes persisted first, so recovery (Algorithm 4)
        holds at any crash boundary inside the batch — a mid-batch
        crash durably keeps some *subset* of the batch's items, each
        individually intact (proven by the crash-matrix batch cell)."""
        results, placements, _ = self._plan_puts(items, stop_on_failure=False)
        self._commit_puts(placements)
        return results

    def _put_many_prefix(self, items: list[tuple[bytes, bytes]]) -> int:
        """Place and commit the longest placeable prefix of ``items``;
        returns how many were consumed. Directory segments use this so
        a full segment stops the batch exactly where a scalar loop
        would have triggered the split."""
        _, placements, consumed = self._plan_puts(items, stop_on_failure=True)
        self._commit_puts(placements)
        return consumed

    def _plan_puts(
        self, items: list[tuple[bytes, bytes]], *, stop_on_failure: bool
    ) -> tuple[list[bool], list[tuple[int, bytes, bytes]], int]:
        """Plan Algorithm 1 placements for a batch without committing.

        Occupancy is read through the costed scan primitives — one
        gather over the batch's home cells, one group-filter bitmap per
        touched level-2 group — and mirrored in volatile caches so
        later items observe earlier claims. Returns ``(results,
        placements, consumed)``; with ``stop_on_failure`` the plan ends
        at the first unplaceable item (``consumed`` < ``len(items)``)."""
        layout, region, codec = self.layout, self.region, self.codec
        spec = codec.spec
        cell_size = codec.cell_size
        group_size = self.group_size
        n_level = layout.n_cells_level
        full_mask = (1 << group_size) - 1
        tab1, tab2 = layout.tab1_base, layout.tab2_base
        for key, value in items:
            if len(key) != spec.key_size or len(value) != spec.value_size:
                raise ValueError(
                    f"item must be {spec.key_size}+{spec.value_size} bytes, "
                    f"got {len(key)}+{len(value)}"
                )
        hashes = self._hashes
        homes = [hashes[0](key) % n_level for key, _ in items]
        unique = sorted(set(homes))
        seed_bitmap = region.scan_occupied_at(
            [tab1 + k * cell_size for k in unique], OCCUPIED_BIT
        )
        l1_state = {k: bool(seed_bitmap >> i & 1) for i, k in enumerate(unique)}
        group_state: dict[int, int] = {}
        results = [False] * len(items)
        placements: list[tuple[int, bytes, bytes]] = []
        for idx, (key, value) in enumerate(items):
            placed = False
            for hi, h in enumerate(hashes):
                k = homes[idx] if hi == 0 else h(key) % n_level
                occupied = l1_state.get(k)
                if occupied is None:
                    occupied = bool(
                        region.read_u64(tab1 + k * cell_size) & OCCUPIED_BIT
                    )
                if not occupied:
                    l1_state[k] = True
                    placements.append((tab1 + k * cell_size, key, value))
                    placed = True
                    break
                l1_state[k] = True
                group = k // group_size
                bitmap = group_state.get(group)
                if bitmap is None:
                    bitmap = region.scan_occupied_bitmap(
                        tab2 + group * group_size * cell_size,
                        cell_size,
                        group_size,
                        OCCUPIED_BIT,
                    )
                free = ~bitmap & full_mask
                if free:
                    slot = (free & -free).bit_length() - 1
                    group_state[group] = bitmap | (1 << slot)
                    placements.append(
                        (
                            tab2 + (group * group_size + slot) * cell_size,
                            key,
                            value,
                        )
                    )
                    placed = True
                    break
                group_state[group] = bitmap
            results[idx] = placed
            if not placed and stop_on_failure:
                return results[:idx], placements, idx
        return results, placements, len(items)

    def _commit_puts(self, placements: list[tuple[int, bytes, bytes]]) -> None:
        """Coalesced Algorithm 1 commit of planned placements.

        Phase order carries the consistency argument: every key-value
        store is flushed and fenced *before any* bitmap store issues,
        so no schedule can persist a set bitmap whose key-value bytes
        were lost — the exact invariant Algorithm 4 relies on. The
        count is persisted once; recovery rebuilds it anyway."""
        if not placements:
            return
        region = self.region
        item_size = self.codec.spec.item_size
        line = region.line_size
        placements.sort(key=lambda p: p[0])
        kv_lines: list[int] = []
        for addr, key, value in placements:
            kv_addr = addr + HEADER_SIZE
            region.write(kv_addr, key + value)
            first = kv_addr // line
            last = (kv_addr + item_size - 1) // line
            for ln in range(first, last + 1):
                if not kv_lines or kv_lines[-1] != ln:
                    kv_lines.append(ln)
        for ln in kv_lines:
            region.clflush(ln * line)
        region.mfence()
        header_lines: list[int] = []
        for addr, _, _ in placements:
            region.write_atomic_u64(addr, region.read_u64(addr) | OCCUPIED_BIT)
            ln = addr // line
            if not header_lines or header_lines[-1] != ln:
                header_lines.append(ln)
        for ln in header_lines:
            region.clflush(ln * line)
        region.mfence()
        self._set_count(self._count + len(placements))
        if self.metrics is not None:
            self.metrics.counter("group.batch_put_items").inc(len(placements))

    def _find_many(self, keys: list[bytes]) -> list[int | None]:
        """Batched Algorithm 2: cell address per key (or None).

        One vectorized home-cell probe covers the whole batch in
        address order; keys that miss level 1 are grouped by their
        level-2 group and resolved with one multi-key group filter per
        group, groups visited in address order for locality."""
        layout, region, codec = self.layout, self.region, self.codec
        cell_size = codec.cell_size
        group_size = self.group_size
        n_level = layout.n_cells_level
        tab1, tab2 = layout.tab1_base, layout.tab2_base
        h0 = self._hashes[0]
        n = len(keys)
        out: list[int | None] = [None] * n
        homes = [h0(key) % n_level for key in keys]
        order = sorted(range(n), key=lambda i: homes[i])
        l1_hits = region.scan_match_pairs(
            [(tab1 + homes[i] * cell_size, keys[i]) for i in order],
            mask=OCCUPIED_BIT,
            key_offset=HEADER_SIZE,
        )
        groups: dict[int, list[int]] = {}
        for pos, i in enumerate(order):
            if l1_hits[pos]:
                out[i] = tab1 + homes[i] * cell_size
            else:
                groups.setdefault(homes[i] // group_size, []).append(i)
        for group in sorted(groups):
            idxs = groups[group]
            base = tab2 + group * group_size * cell_size
            found = region.scan_match_many(
                base,
                cell_size,
                group_size,
                [keys[i] for i in idxs],
                mask=OCCUPIED_BIT,
                key_offset=HEADER_SIZE,
            )
            for i, slot in zip(idxs, found):
                if slot is not None:
                    out[i] = base + slot * cell_size
        return out

    def get_many(self, keys: list[bytes]) -> list[bytes | None]:
        """Batched Algorithm 2 lookups; one value (or None) per key.

        Probes are vectorized and address-sorted (see :meth:`_find_many`);
        results come back in input order. Read-only, so there is no
        consistency argument to make — only reordered read traffic."""
        if self.n_hash_functions != 1:
            return [self.query(key) for key in keys]
        region = self.region
        value_offset = self.codec.value_offset
        value_size = self.spec.value_size
        return [
            None if addr is None else region.read(addr + value_offset, value_size)
            for addr in self._find_many(keys)
        ]

    def delete_many(self, keys: list[bytes]) -> list[bool]:
        """Batched Algorithm 3; one bool per key.

        Lookups are batched like :meth:`get_many`; commits are coalesced
        in two fenced phases mirroring Algorithm 3's order (all bitmap
        clears flushed before any key-value wipe issues), so a persisted
        bitmap-clear can only expose a cell recovery knows to reset.
        Duplicate keys within one batch claim distinct cells exactly
        like the scalar loop: the first occurrence takes the first match
        and later occurrences re-probe *after* the coalesced commit, so
        a second resident copy of the key (inserts never check presence)
        is found and deleted just as a loop of :meth:`delete` calls
        would find it."""
        if self.n_hash_functions != 1:
            return [self.delete(key) for key in keys]
        addrs = self._find_many(keys)
        claimed: set[int] = set()
        victims: list[int] = []
        results: list[bool] = []
        retries: list[int] = []
        for i, addr in enumerate(addrs):
            if addr is None:
                results.append(False)
            elif addr in claimed:
                # a duplicate occurrence resolved to an already-claimed
                # cell; another copy of the key may live elsewhere, and
                # only a post-commit probe can see past the claimed cell
                retries.append(i)
                results.append(False)
            else:
                claimed.add(addr)
                victims.append(addr)
                results.append(True)
        self._commit_deletes(victims)
        for i in retries:
            results[i] = self.delete(keys[i])
        return results

    def _commit_deletes(self, victims: list[int]) -> None:
        """Coalesced Algorithm 3 commit: bitmap-clear phase (flush +
        fence) strictly before the key-value wipe phase (flush + fence),
        then one count persist."""
        if not victims:
            return
        region = self.region
        item_size = self.codec.spec.item_size
        line = region.line_size
        victims.sort()
        header_lines: list[int] = []
        for addr in victims:
            region.write_atomic_u64(
                addr, region.read_u64(addr) & ~OCCUPIED_BIT & 0xFFFFFFFFFFFFFFFF
            )
            ln = addr // line
            if not header_lines or header_lines[-1] != ln:
                header_lines.append(ln)
        for ln in header_lines:
            region.clflush(ln * line)
        region.mfence()
        empty_kv = bytes(item_size)
        kv_lines: list[int] = []
        for addr in victims:
            kv_addr = addr + HEADER_SIZE
            region.write(kv_addr, empty_kv)
            first = kv_addr // line
            last = (kv_addr + item_size - 1) // line
            for ln in range(first, last + 1):
                if not kv_lines or kv_lines[-1] != ln:
                    kv_lines.append(ln)
        for ln in kv_lines:
            region.clflush(ln * line)
        region.mfence()
        self._set_count(self._count - len(victims))
        if self.metrics is not None:
            self.metrics.counter("group.batch_delete_items").inc(len(victims))

    # ------------------------------------------------------------------
    # Algorithm 4

    def recover(self) -> None:
        """Post-crash recovery: delegate to the standalone scan so tests
        can also run it against a bare region."""
        recover_group_table(self)

    # ------------------------------------------------------------------
    # diagnostics

    def integrity_violations(self) -> list[str]:
        """Base structural checks plus Algorithm 4's postcondition: after
        recovery every unoccupied cell's key-value field is zero in the
        persistent image (a non-zero one is a torn write recovery should
        have reset)."""
        problems = super().integrity_violations()
        size = self.codec.cell_size
        item_end = HEADER_SIZE + self.spec.item_size
        zero_kv = bytes(self.spec.item_size)
        for base, n in self._cell_arrays():
            cells = self.region.peek_persistent(base, n * size)
            for off in range(0, n * size, size):
                if (
                    not cells[off] & OCCUPIED_BIT
                    and cells[off + HEADER_SIZE : off + item_end] != zero_kv
                ):
                    problems.append(
                        f"unoccupied cell at {base + off} holds non-zero "
                        "key-value bytes"
                    )
        return problems

    def level_occupancy(self) -> tuple[int, int]:
        """(level-1 occupied, level-2 occupied) — used by the group-size
        analysis and the examples."""
        codec, region, layout = self.codec, self.region, self.layout
        l1 = sum(
            1
            for i in range(layout.n_cells_level)
            if codec.is_occupied(region, layout.tab1_addr(codec, i))
        )
        l2 = sum(
            1
            for i in range(layout.n_cells_level)
            if codec.is_occupied(region, layout.tab2_addr(codec, i))
        )
        return l1, l2

    def observe_occupancy(self, metrics) -> None:
        """Record the current occupancy picture into ``metrics`` without
        touching simulated state: level gauges (``group.l1_occupied`` /
        ``group.l2_occupied``) and a per-group level-2 fill heat map
        (``group.occupancy_heat``). Reads use the cost-free peek API so
        this can run mid-benchmark."""
        codec, region, layout = self.codec, self.region, self.layout
        l1 = 0
        for i in range(layout.n_cells_level):
            raw = region.peek_volatile(layout.tab1_addr(codec, i), 1)
            if raw[0] & OCCUPIED_BIT:
                l1 += 1
        heat = metrics.heat("group.occupancy_heat")
        group_size = self.group_size
        l2 = 0
        for g in range(layout.n_cells_level // group_size):
            fill = 0
            for i in range(g * group_size, (g + 1) * group_size):
                raw = region.peek_volatile(layout.tab2_addr(codec, i), 1)
                if raw[0] & OCCUPIED_BIT:
                    fill += 1
            if fill:
                heat.touch(g, fill)
            l2 += fill
        metrics.gauge("group.l1_occupied").set(l1)
        metrics.gauge("group.l2_occupied").set(l2)

    def group_fill(self, group: int) -> int:
        """Occupied cells in level-2 group ``group`` (diagnostic)."""
        codec, region, layout = self.codec, self.region, self.layout
        start = group * self.group_size
        return sum(
            1
            for i in range(start, start + self.group_size)
            if codec.is_occupied(region, layout.tab2_addr(codec, i))
        )
