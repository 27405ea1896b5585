"""Classic cuckoo hashing — PFHT's ancestor, for the cascade ablation.

The paper compares against PFHT, "an NVM optimized variant of cuckoo
hashing [that allows] at most one displacement", precisely because
classic cuckoo hashing (Pagh & Rodler) evicts in unbounded chains: each
insert may relocate dozens of items, and on NVM every relocation is a
persisted write. Implementing the classic scheme lets the ablation
benchmark *measure* the cascading-write problem PFHT was designed to
avoid — the justification the paper inherits from Debnath et al.

Two hash functions, one cell per bucket, eviction chains bounded by
``max_kicks`` (insert fails beyond it — a real implementation would
rehash).
"""

from __future__ import annotations

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import ItemSpec
from repro.tables.wal import UndoLog


class CuckooHashTable(PersistentHashTable):
    """Textbook two-function cuckoo hashing with eviction chains."""

    scheme_name = "cuckoo"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        max_kicks: int = 64,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(region, n_cells, spec, log=log, seed=seed)
        if max_kicks <= 0:
            raise ValueError("max_kicks must be positive")
        self.max_kicks = max_kicks
        self._h1, self._h2 = self.family.pair()
        self._base = region.alloc(
            self.codec.array_bytes(n_cells), align=CACHELINE, label="cuckoo.cells"
        )
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return self.n_cells

    def _candidates(self, key: bytes) -> tuple[int, int]:
        n = self.n_cells
        return self._h1(key) % n, self._h2(key) % n

    def _addr(self, index: int) -> int:
        return self.codec.addr(self._base, index)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        return ((self._base, self.n_cells),)

    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        codec, region = self.codec, self.region
        c1, c2 = self._candidates(key)
        self._begin_op()
        try:
            for idx in (c1, c2):
                if not codec.is_occupied(region, self._addr(idx)):
                    self._install(self._addr(idx), key, value)
                    return True
            # both candidates taken: start the eviction chain at c1
            cur_key, cur_value, idx = key, value, c1
            chain: list[tuple[int, bytes, bytes]] = []
            for _ in range(self.max_kicks):
                addr = self._addr(idx)
                victim_key = codec.read_key(region, addr)
                victim_value = codec.read_value(region, addr)
                chain.append((addr, victim_key, victim_value))
                # overwrite in place with the wandering item — each hop
                # is a full persisted cell write (the cascade cost)
                if self.log is not None:
                    self.log.record(addr, codec.cell_size)
                codec.write_kv(region, addr, cur_key, cur_value)
                region.persist(*codec.kv_span(addr))
                cur_key, cur_value = victim_key, victim_value
                v1, v2 = self._candidates(cur_key)
                idx = v2 if idx == v1 else v1
                dest = self._addr(idx)
                if not codec.is_occupied(region, dest):
                    self._install(dest, cur_key, cur_value)
                    return True
            # chain too long: roll the displacements back so the failed
            # insert leaves the table exactly as it was (a production
            # implementation would rehash instead)
            for addr, victim_key, victim_value in reversed(chain):
                if self.log is not None:
                    self.log.record(addr, codec.cell_size)
                codec.write_kv(region, addr, victim_key, victim_value)
                region.persist(*codec.kv_span(addr))
            return False
        finally:
            self._commit_op()

    def _find(self, key: bytes) -> int | None:
        codec, region = self.codec, self.region
        for idx in self._candidates(key):
            addr = self._addr(idx)
            occupied, cell_key = codec.probe(region, addr)
            if occupied and cell_key == key:
                return addr
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
