"""Path hashing baseline.

After Zuo & Hua, "A write-friendly hashing scheme for non-volatile
memory systems" (the paper's reference [34]): storage cells form an
*inverted complete binary tree*. The top level (level 0) has ``2^m``
cells addressable by two hash functions; when both positions collide,
the item descends the tree — the candidate at level ``i`` for leaf
position ``p`` is cell ``p >> i`` of a level holding ``2^(m-i)`` cells.
*Position sharing* means siblings share their ancestors' cells, and
*path shortening* allocates only the top ``reserved_levels`` levels
(the paper evaluates with 20).

The property the paper's motivation section hinges on: the cells along a
path live in **different level arrays**, so each probe step touches a
different cacheline — one memory access (and likely one L3 miss) per
level, which is why path hashing has the worst request latency and miss
counts despite its excellent space utilization (Figure 7).

Inserts write a single cell, but the paper still pairs it with logging
(``path-L``) since the scheme itself specifies no commit protocol.
"""

from __future__ import annotations

from typing import Iterator

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT, ItemSpec
from repro.tables.wal import UndoLog


class PathHashingTable(PersistentHashTable):
    """Inverted-binary-tree hashing with position sharing."""

    scheme_name = "path"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        reserved_levels: int = 20,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        # Level 0 must be a power of two so the shift-by-level addressing
        # of the binary tree works; round the request down.
        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        self._m = max(1, n_cells.bit_length() - 1)
        level0 = 1 << self._m
        super().__init__(region, level0, spec, log=log, seed=seed)
        self.reserved_levels = min(reserved_levels, self._m + 1)
        if self.reserved_levels < 1:
            raise ValueError("need at least one level")
        self._h1, self._h2 = self.family.pair()
        # One contiguous array per level; *separate* allocations so paths
        # cross arrays exactly as in the original layout.
        self._level_bases: list[int] = []
        self._level_sizes: list[int] = []
        for level in range(self.reserved_levels):
            size = level0 >> level
            self._level_bases.append(
                region.alloc(
                    self.codec.array_bytes(size),
                    align=CACHELINE,
                    label=f"path.level{level}",
                )
            )
            self._level_sizes.append(size)
        self._capacity = sum(self._level_sizes)
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return self._capacity

    def _positions(self, key: bytes) -> tuple[int, int]:
        mask = (1 << self._m) - 1
        return self._h1(key) & mask, self._h2(key) & mask

    def _cell_addr(self, level: int, pos: int) -> int:
        return self.codec.addr(self._level_bases[level], pos)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (self._level_bases[level], self._level_sizes[level])
            for level in range(self.reserved_levels)
        )

    def _path_cells(self, key: bytes) -> Iterator[int]:
        """Yield candidate cell addresses: both positions per level,
        walking down the reserved levels."""
        p1, p2 = self._positions(key)
        for level in range(self.reserved_levels):
            yield self._cell_addr(level, p1 >> level)
            addr2 = self._cell_addr(level, p2 >> level)
            if (p2 >> level) != (p1 >> level):
                yield addr2

    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        region = self.region
        tr, mx = self.tracer, self.metrics
        self._begin_op()
        if tr is not None:
            tr.push("path_probe")
        # The candidate cells are scattered across the level arrays, so
        # the vectorized form is a gather: one clear-scan over the
        # precomputed address list, early exit at the first free cell
        # (one header read per probed cell, as before).
        addrs = list(self._path_cells(key))
        idx = region.scan_clear_at(addrs, OCCUPIED_BIT)
        found = None if idx is None else addrs[idx]
        probed = len(addrs) if idx is None else idx + 1
        if tr is not None:
            tr.pop()
        if found is None:
            self._commit_op()
            return False
        if mx is not None:
            mx.histogram("path.insert_probe_cells").record(probed)
        self._install(found, key, value)
        self._commit_op()
        return True

    def _find(self, key: bytes) -> int | None:
        region = self.region
        tr, mx = self.tracer, self.metrics
        if tr is not None:
            tr.push("path_probe")
        # Gathered match-scan down the path: early exit on hit, one
        # header+key read per probed cell — the scalar loop's events.
        addrs = list(self._path_cells(key))
        idx = region.scan_match_at(
            addrs, key, mask=OCCUPIED_BIT, key_offset=HEADER_SIZE
        )
        found = None if idx is None else addrs[idx]
        probed = len(addrs) if idx is None else idx + 1
        if tr is not None:
            tr.pop()
        if mx is not None:
            mx.histogram("path.find_probe_cells").record(probed)
        return found

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
