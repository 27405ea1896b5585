"""Level hashing — the contemporaneous point of comparison.

Zuo, Hua & Wu, "Write-Optimized and High-Performance Hashing Index
Scheme for Persistent Memory" (OSDI 2018) appeared the same year as the
paper reproduced here and attacks the same problem with strikingly
similar ingredients, which makes it the comparison users of this
repository ask for first. The structure:

- a **top level** of N buckets (4 slots each) addressable by two hash
  functions, and a **bottom level** of N/2 buckets, where bottom bucket
  ``b`` is shared by top buckets ``2b`` and ``2b+1`` — sharing one
  level down, where group hashing shares sideways within a group;
- an insert tries its two top buckets, then the two corresponding
  bottom buckets, then attempts **at most one movement** of a resident
  item to its alternate bucket (like PFHT's single displacement);
- consistency comes from slot-granular tokens committed with 8-byte
  atomic stores — the same log-free discipline as group hashing, which
  this implementation inherits directly from the shared
  :class:`~repro.tables.base.PersistentHashTable` commit helpers.

This is the algorithmic skeleton sufficient for latency/miss/
utilization comparison; the OSDI paper's in-place resizing and
fine-grained locking are out of scope here (as resizing/concurrency are
in the reproduced paper).
"""

from __future__ import annotations

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import ItemSpec
from repro.tables.wal import UndoLog


class LevelHashTable(PersistentHashTable):
    """Two-level bucketized hashing with one-movement inserts."""

    scheme_name = "level"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        bucket_size: int = 4,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(region, n_cells, spec, log=log, seed=seed)
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.bucket_size = bucket_size
        # top : bottom = 2 : 1 in buckets → cells split 2/3 : 1/3
        self.n_top = max(2, (2 * n_cells) // (3 * bucket_size))
        if self.n_top % 2:
            self.n_top += 1  # bottom sharing needs an even top count
        self.n_bottom = self.n_top // 2
        self._h1, self._h2 = self.family.pair()
        self._top_base = region.alloc(
            self.codec.array_bytes(self.n_top * bucket_size),
            align=CACHELINE,
            label="level.top",
        )
        self._bottom_base = region.alloc(
            self.codec.array_bytes(self.n_bottom * bucket_size),
            align=CACHELINE,
            label="level.bottom",
        )
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return (self.n_top + self.n_bottom) * self.bucket_size

    def _top_buckets(self, key: bytes) -> tuple[int, int]:
        return self._h1(key) % self.n_top, self._h2(key) % self.n_top

    def _top_addr(self, bucket: int, slot: int) -> int:
        return self.codec.addr(self._top_base, bucket * self.bucket_size + slot)

    def _bottom_addr(self, bucket: int, slot: int) -> int:
        return self.codec.addr(self._bottom_base, bucket * self.bucket_size + slot)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        return (
            (self._top_base, self.n_top * self.bucket_size),
            (self._bottom_base, self.n_bottom * self.bucket_size),
        )

    def _candidate_buckets(self, key: bytes):
        """The four bucket scans of level hashing: two top, two bottom
        (bottom bucket = top bucket // 2, the position-sharing rule)."""
        t1, t2 = self._top_buckets(key)
        yield ("top", t1)
        if t2 != t1:
            yield ("top", t2)
        b1, b2 = t1 // 2, t2 // 2
        yield ("bottom", b1)
        if b2 != b1:
            yield ("bottom", b2)

    def _bucket_addr(self, level: str, bucket: int, slot: int) -> int:
        return (
            self._top_addr(bucket, slot)
            if level == "top"
            else self._bottom_addr(bucket, slot)
        )

    def _empty_slot(self, level: str, bucket: int) -> int | None:
        codec, region = self.codec, self.region
        for slot in range(self.bucket_size):
            if not codec.is_occupied(region, self._bucket_addr(level, bucket, slot)):
                return slot
        return None

    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        """Try the four candidate buckets, then one movement."""
        self._begin_op()
        try:
            for level, bucket in self._candidate_buckets(key):
                slot = self._empty_slot(level, bucket)
                if slot is not None:
                    self._install(self._bucket_addr(level, bucket, slot), key, value)
                    return True
            return self._move_and_install(key, value)
        finally:
            self._commit_op()

    def _move_and_install(self, key: bytes, value: bytes) -> bool:
        """Level hashing's single movement: evict one occupant of a top
        candidate bucket to the occupant's alternate top bucket (or its
        bottom bucket) if that has room."""
        codec, region = self.codec, self.region
        t1, t2 = self._top_buckets(key)
        for bucket in dict.fromkeys((t1, t2)):
            for slot in range(self.bucket_size):
                addr = self._top_addr(bucket, slot)
                occupied, victim_key = codec.probe(region, addr)
                if not occupied:  # pragma: no cover - bucket was full
                    continue
                v1, v2 = self._top_buckets(victim_key)
                alt_candidates = []
                alt_top = v2 if bucket == v1 else v1
                if alt_top != bucket:
                    alt_candidates.append(("top", alt_top))
                alt_candidates.append(("bottom", alt_top // 2))
                alt_candidates.append(("bottom", bucket // 2))
                for alt_level, alt_bucket in alt_candidates:
                    alt_slot = self._empty_slot(alt_level, alt_bucket)
                    if alt_slot is None:
                        continue
                    victim_value = codec.read_value(region, addr)
                    self._relocate(
                        addr,
                        self._bucket_addr(alt_level, alt_bucket, alt_slot),
                        victim_key,
                        victim_value,
                    )
                    self._install(addr, key, value)
                    return True
        return False

    # ------------------------------------------------------------------

    def _find(self, key: bytes) -> int | None:
        codec, region = self.codec, self.region
        for level, bucket in self._candidate_buckets(key):
            for slot in range(self.bucket_size):
                addr = self._bucket_addr(level, bucket, slot)
                occupied, cell_key = codec.probe(region, addr)
                if occupied and cell_key == key:
                    return addr
        return None

    def query(self, key: bytes) -> bytes | None:
        """Check the four candidate buckets (up to 16 contiguous cells
        across four cachelines)."""
        addr = self._find(key)
        if addr is None:
            return None
        return self.codec.read_value(self.region, addr)

    def delete(self, key: bytes) -> bool:
        """Token-clear commit, identical discipline to insert."""
        addr = self._find(key)
        if addr is None:
            return False
        self._begin_op()
        self._remove(addr)
        self._commit_op()
        return True
