"""PFHT baseline — the PCM-friendly bucketized cuckoo hash table.

After Debnath et al., "Revisiting hash table design for phase change
memory" (the paper's reference [5]): a cuckoo variant that

- uses **4-cell buckets** (one 64-byte cacheline for 16-byte items, so a
  bucket probe is a single line fill),
- permits **at most one displacement** per insert (bounding the cascading
  writes of classic cuckoo hashing), and
- spills insertion failures into a **stash** sized at 3 % of the table,
  searched linearly.

The paper's evaluation settings are reproduced as defaults: bucket size
4, stash 3 %. At load factor 0.75 the stash fills up and its linear
search dominates — the PFHT/path crossover in Figures 5 and 6.

Displacement moves an item between two buckets in multiple steps, which
is not crash-atomic — hence the ``PFHT-L`` logged variant.
"""

from __future__ import annotations

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT, ItemSpec
from repro.tables.wal import UndoLog


class PFHTTable(PersistentHashTable):
    """Bucketized cuckoo hashing with one displacement and a stash."""

    scheme_name = "pfht"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        bucket_size: int = 4,
        stash_fraction: float = 0.03,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(region, n_cells, spec, log=log, seed=seed)
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.bucket_size = bucket_size
        self.n_buckets = max(1, n_cells // bucket_size)
        self.stash_cells = max(1, int(round(n_cells * stash_fraction)))
        self._h1, self._h2 = self.family.pair()
        self._base = region.alloc(
            self.codec.array_bytes(self.n_buckets * bucket_size),
            align=CACHELINE,
            label="pfht.buckets",
        )
        self._stash_base = region.alloc(
            self.codec.array_bytes(self.stash_cells),
            align=CACHELINE,
            label="pfht.stash",
        )
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return self.n_buckets * self.bucket_size + self.stash_cells

    def _buckets_of(self, key: bytes) -> tuple[int, int]:
        return self._h1(key) % self.n_buckets, self._h2(key) % self.n_buckets

    def _cell_addr(self, bucket: int, slot: int) -> int:
        return self.codec.addr(self._base, bucket * self.bucket_size + slot)

    def _stash_addr(self, slot: int) -> int:
        return self.codec.addr(self._stash_base, slot)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        return (
            (self._base, self.n_buckets * self.bucket_size),
            (self._stash_base, self.stash_cells),
        )

    # ------------------------------------------------------------------

    def _empty_slot(self, bucket: int) -> int | None:
        """First free slot of ``bucket``: one clear-scan over the
        bucket's contiguous cells (events identical to the per-slot
        loop — the reference scan probes cell by cell, early exit)."""
        return self.region.scan_clear_u64(
            self._cell_addr(bucket, 0),
            self.codec.cell_size,
            self.bucket_size,
            OCCUPIED_BIT,
        )

    def insert(self, key: bytes, value: bytes) -> bool:
        mx = self.metrics
        b1, b2 = self._buckets_of(key)
        self._begin_op()
        try:
            for bucket in (b1, b2):
                slot = self._empty_slot(bucket)
                if slot is not None:
                    if mx is not None:
                        mx.counter("pfht.bucket_inserts").inc()
                    self._install(self._cell_addr(bucket, slot), key, value)
                    return True
            if self._displace_and_install(b1, key, value):
                return True
            if b2 != b1 and self._displace_and_install(b2, key, value):
                return True
            ok = self._stash_insert(key, value)
            if mx is not None:
                mx.counter("pfht.stash_inserts" if ok else "pfht.insert_failures").inc()
            return ok
        finally:
            self._commit_op()

    def _displace_and_install(self, bucket: int, key: bytes, value: bytes) -> bool:
        """Try to free one slot of ``bucket`` by moving an occupant to its
        alternate bucket — PFHT's single allowed displacement."""
        codec, region = self.codec, self.region
        for slot in range(self.bucket_size):
            addr = self._cell_addr(bucket, slot)
            occupied, victim_key = codec.probe(region, addr)
            if not occupied:  # pragma: no cover - caller checked fullness
                continue
            vb1, vb2 = self._buckets_of(victim_key)
            alt = vb2 if bucket == vb1 else vb1
            if alt == bucket:
                continue
            alt_slot = self._empty_slot(alt)
            if alt_slot is None:
                continue
            victim_value = codec.read_value(region, addr)
            tr, mx = self.tracer, self.metrics
            if mx is not None:
                mx.counter("pfht.displacements").inc()
            if tr is not None:
                tr.push("displace")
            self._relocate(
                addr, self._cell_addr(alt, alt_slot), victim_key, victim_value
            )
            if tr is not None:
                tr.pop()
            self._install(addr, key, value)
            return True
        return False

    def _stash_insert(self, key: bytes, value: bytes) -> bool:
        codec, region = self.codec, self.region
        for slot in range(self.stash_cells):
            addr = self._stash_addr(slot)
            if not codec.is_occupied(region, addr):
                self._install(addr, key, value)
                return True
        return False

    # ------------------------------------------------------------------

    def _find(self, key: bytes) -> int | None:
        """Return the cell address holding ``key``, searching both
        buckets and then the stash linearly."""
        codec, region = self.codec, self.region
        tr, mx = self.tracer, self.metrics
        cell_size = codec.cell_size
        b1, b2 = self._buckets_of(key)
        buckets = (b1,) if b1 == b2 else (b1, b2)
        probed = 0
        if tr is not None:
            tr.push("bucket_probe")
        # One match-scan per bucket (the group-filter primitive at
        # bucket granularity): early exit on hit, full bucket on miss,
        # header+key read per probed cell — the scalar loop's events.
        for bucket in buckets:
            slot = region.scan_match(
                self._cell_addr(bucket, 0),
                cell_size,
                self.bucket_size,
                key,
                mask=OCCUPIED_BIT,
                key_offset=HEADER_SIZE,
            )
            if slot is not None:
                probed += slot + 1
                if tr is not None:
                    tr.pop()
                if mx is not None:
                    mx.histogram("pfht.find_probe_cells").record(probed)
                return self._cell_addr(bucket, slot)
            probed += self.bucket_size
        if tr is not None:
            tr.pop()
            tr.push("stash_probe")
        slot = region.scan_match(
            self._stash_base,
            cell_size,
            self.stash_cells,
            key,
            mask=OCCUPIED_BIT,
            key_offset=HEADER_SIZE,
        )
        if slot is not None:
            probed += slot + 1
            if tr is not None:
                tr.pop()
            if mx is not None:
                mx.histogram("pfht.find_probe_cells").record(probed)
                mx.counter("pfht.stash_hits").inc()
            return self._stash_addr(slot)
        probed += self.stash_cells
        if tr is not None:
            tr.pop()
        if mx is not None:
            mx.histogram("pfht.find_probe_cells").record(probed)
        return None

    def query(self, key: bytes) -> bytes | None:
        addr = self._find(key)
        if addr is None:
            return None
        return self.codec.read_value(self.region, addr)

    def delete(self, key: bytes) -> bool:
        addr = self._find(key)
        if addr is None:
            return False
        self._begin_op()
        self._remove(addr)
        self._commit_op()
        return True

    # ------------------------------------------------------------------

    def stash_occupancy(self) -> int:
        """Number of items currently living in the stash (diagnostic for
        the load-factor-0.75 crossover analysis)."""
        codec, region = self.codec, self.region
        return sum(
            1
            for slot in range(self.stash_cells)
            if codec.is_occupied(region, self._stash_addr(slot))
        )
