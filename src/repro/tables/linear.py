"""Linear probing baseline.

The paper's representative "traditional DRAM hashing scheme": collision
resolution probes the immediately following cells, so probe sequences
are contiguous in memory — which is why it has the best cache behaviour
of the baselines (Section 2.3) — but deletion must restore the probe
invariant by **backward shifting** the cluster (no tombstones), the
"complicated delete process" whose extra writes and flushes the paper
measures (Figures 5 and 6, delete panels, especially at load factor
0.75).

Without an undo log, a crash in the middle of a backward-shift delete
leaves a duplicated or lost item — the motivating inconsistency for the
``linear-L`` variant.
"""

from __future__ import annotations

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT, ItemSpec
from repro.tables.wal import UndoLog


class LinearProbingTable(PersistentHashTable):
    """Open-addressing hash table with linear probing."""

    scheme_name = "linear"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(region, n_cells, spec, log=log, seed=seed)
        self._hash = self.family.function(0)
        self._base = region.alloc(
            self.codec.array_bytes(n_cells), align=CACHELINE, label="linear.cells"
        )
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return self.n_cells

    def _slot(self, key: bytes) -> int:
        return self._hash(key) % self.n_cells

    def _addr(self, index: int) -> int:
        return self.codec.addr(self._base, index)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        return ((self._base, self.n_cells),)

    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        codec, region, n = self.codec, self.region, self.n_cells
        tr, mx = self.tracer, self.metrics
        start = self._slot(key)
        self._begin_op()
        if tr is not None:
            tr.push("probe")
        # The wrapped cluster is at most two contiguous runs, so one
        # vectorized clear-scan per run replaces the per-cell loop; the
        # reference implementation probes cell by cell with early exit,
        # so the event sequence is unchanged.
        cell_size = codec.cell_size
        found = None
        i = region.scan_clear_u64(
            self._addr(start), cell_size, n - start, OCCUPIED_BIT
        )
        if i is not None:
            found = (i, self._addr(start + i))
        elif start:
            i = region.scan_clear_u64(self._base, cell_size, start, OCCUPIED_BIT)
            if i is not None:
                found = (n - start + i, self._addr(i))
        if tr is not None:
            tr.pop()
        if found is None:
            self._commit_op()
            return False
        if mx is not None:
            mx.histogram("linear.insert_probe_cells").record(found[0] + 1)
        self._install(found[1], key, value)
        self._commit_op()
        return True

    def query(self, key: bytes) -> bytes | None:
        idx = self._find(key)
        if idx is None:
            return None
        return self.codec.read_value(self.region, self._addr(idx))

    def _find(self, key: bytes) -> int | None:
        """Probe the cluster starting at the key's home slot; an empty
        cell terminates the search (valid because deletes backward-shift
        instead of leaving tombstones)."""
        codec, region, n = self.codec, self.region, self.n_cells
        tr, mx = self.tracer, self.metrics
        start = self._slot(key)
        if tr is not None:
            tr.push("probe")
        # Vectorized empty-or-match probe over the (at most two) runs of
        # the wrapped cluster; scan_probe stops at the first empty cell
        # or key hit exactly like the scalar loop did, reading
        # header+key per probed cell.
        cell_size = codec.cell_size
        result = None
        probed = 0
        hit = region.scan_probe(
            self._addr(start),
            cell_size,
            n - start,
            key,
            mask=OCCUPIED_BIT,
            key_offset=HEADER_SIZE,
        )
        if hit is not None:
            i, matched = hit
            probed = i + 1
            if matched:
                result = start + i
        else:
            probed = n - start
            if start:
                hit = region.scan_probe(
                    self._base,
                    cell_size,
                    start,
                    key,
                    mask=OCCUPIED_BIT,
                    key_offset=HEADER_SIZE,
                )
                if hit is not None:
                    i, matched = hit
                    probed += i + 1
                    if matched:
                        result = i
                else:
                    probed = n
        if tr is not None:
            tr.pop()
        if mx is not None:
            mx.histogram("linear.find_probe_cells").record(probed)
        return result

    def _locate(self, key: bytes) -> int | None:
        idx = self._find(key)
        return None if idx is None else self._addr(idx)

    def delete(self, key: bytes) -> bool:
        codec, region, n = self.codec, self.region, self.n_cells
        hole = self._find(key)
        if hole is None:
            return False
        self._begin_op()
        tr, mx = self.tracer, self.metrics
        if tr is not None:
            tr.push("backward_shift")
        shifts = 0
        # Backward-shift compaction (Knuth 6.4 Algorithm R): walk the rest
        # of the cluster and pull every item whose home slot would become
        # unreachable into the hole. Each pull is an extra NVM write +
        # persist — the delete cost the paper charges linear probing for.
        # The walk is bounded to one full cycle: with no empty cell in the
        # table (load factor 1.0) there is no cluster end to stop at, but
        # after visiting every other cell once the invariant is restored.
        j = hole
        for _ in range(n - 1):
            j += 1
            if j >= n:
                j -= n
            addr_j = self._addr(j)
            occupied, key_j = codec.probe(region, addr_j)
            if not occupied:
                break
            home = self._hash(key_j) % n
            # Move item j into the hole iff its home slot lies cyclically
            # outside (hole, j] — i.e. probing from `home` would pass the
            # hole before reaching j.
            if (j - home) % n >= (j - hole) % n:
                value_j = codec.read_value(region, addr_j)
                if self.log is not None:
                    self.log.record(self._addr(hole), codec.cell_size)
                codec.write_kv(region, self._addr(hole), key_j, value_j)
                region.persist(*codec.kv_span(self._addr(hole)))
                codec.set_occupied(region, self._addr(hole), True)
                region.persist(self._addr(hole), 8)
                hole = j
                shifts += 1
        if tr is not None:
            tr.pop()
        if mx is not None:
            mx.histogram("linear.delete_shifts").record(shifts)
            mx.counter("linear.shift_moves").inc(shifts)
        self._remove(self._addr(hole))
        self._commit_op()
        return True
