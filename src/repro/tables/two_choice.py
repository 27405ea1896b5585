"""2-choice hashing — a scheme the paper mentions only to exclude.

Section 4.1: "2-choice hashing has too low space utilization ratio,
[so] we do not take [it] into the comparison." We implement it anyway so
the exclusion ablation (`benchmarks/test_ablation_excluded_schemes.py`)
can *measure* that claim: each key has exactly two candidate cells and
no eviction, so inserts start failing at a load factor far below the
other schemes.
"""

from __future__ import annotations

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import ItemSpec
from repro.tables.wal import UndoLog


class TwoChoiceTable(PersistentHashTable):
    """Hashing with two candidate cells per key and no displacement."""

    scheme_name = "two-choice"

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
        self._h1, self._h2 = self.family.pair()
        self._base = region.alloc(
            self.codec.array_bytes(n_cells), align=CACHELINE, label="two_choice.cells"
        )
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return self.n_cells

    def _candidates(self, key: bytes) -> tuple[int, int]:
        n = self.n_cells
        return self._h1(key) % n, self._h2(key) % n

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        return ((self._base, self.n_cells),)

    def insert(self, key: bytes, value: bytes) -> bool:
        codec, region = self.codec, self.region
        self._begin_op()
        for idx in self._candidates(key):
            addr = self.codec.addr(self._base, idx)
            if not codec.is_occupied(region, addr):
                self._install(addr, key, value)
                self._commit_op()
                return True
        self._commit_op()
        return False

    def _find(self, key: bytes) -> int | None:
        codec, region = self.codec, self.region
        for idx in self._candidates(key):
            addr = self.codec.addr(self._base, idx)
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
