"""Chained hashing — the other scheme the paper excludes.

Section 4.1: "chained hashing performs poorly under memory pressure due
to frequent memory allocation and free calls." We implement it with a
fixed node pool (bump allocator + persistent free list) so the exclusion
ablation can measure its two real costs on NVM: allocator metadata
persists on every insert/delete, and chains are pointer-chased across
non-contiguous nodes (one potential cache miss per hop).

Node layout (implicit occupancy — a node is live iff reachable from a
bucket head)::

    +---------+--------------------+------------------------+
    |  next   |        key         |         value          |
    |   8 B   |                    |                        |
    +---------+--------------------+------------------------+

Insert is naturally crash-atomic (prepare node off-list, persist, then
atomically swing the bucket head pointer) — chaining's one genuine
virtue on NVM, also exercised by the tests.
"""

from __future__ import annotations

from typing import Iterator

from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.base import PersistentHashTable
from repro.tables.cell import ItemSpec
from repro.tables.wal import UndoLog

#: null pointer — the metadata block occupies address 0, so no node can
#: ever live there.
NIL = 0


class ChainedHashTable(PersistentHashTable):
    """Separate chaining with a persistent node pool."""

    scheme_name = "chained"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        buckets_per_cell: float = 1.0,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__(region, n_cells, spec, log=log, seed=seed)
        self._hash = self.family.function(0)
        self.n_buckets = max(1, int(n_cells * buckets_per_cell))
        self.node_size = -(-(8 + self.spec.item_size) // 8) * 8
        # extended metadata: bump cursor and free-list head live in the
        # info block so they survive crashes
        self._bump_addr = self._info_addr + 24
        self._free_addr = self._info_addr + 32
        self._buckets = region.alloc(
            8 * self.n_buckets, align=CACHELINE, label="chained.buckets"
        )
        self._pool = region.alloc(
            self.node_size * n_cells, align=CACHELINE, label="chained.pool"
        )
        self._bump = 0
        self._free = NIL
        region.write_u64(self._bump_addr, 0)
        region.write_u64(self._free_addr, NIL)
        for b in range(self.n_buckets):
            region.write_u64(self._buckets + 8 * b, NIL)
        region.flush_range(self._buckets, 8 * self.n_buckets)
        region.mfence()
        self._finish_layout()

    @property
    def capacity(self) -> int:
        return self.n_cells

    def _bucket_addr(self, key: bytes) -> int:
        return self._buckets + 8 * (self._hash(key) % self.n_buckets)

    # ------------------------------------------------------------------
    # node pool

    def _alloc_node(self) -> int:
        """Pop the free list or bump the cursor; persists allocator
        metadata — the per-operation allocator traffic the paper cites as
        chaining's weakness."""
        region = self.region
        if self._free != NIL:
            node = self._free
            self._free = region.read_u64(node)
            region.write_atomic_u64(self._free_addr, self._free)
            region.persist(self._free_addr, 8)
            return node
        if self._bump >= self.n_cells:
            return NIL
        node = self._pool + self._bump * self.node_size
        self._bump += 1
        region.write_atomic_u64(self._bump_addr, self._bump)
        region.persist(self._bump_addr, 8)
        return node

    def _free_node(self, node: int) -> None:
        region = self.region
        region.write_u64(node, self._free)
        region.persist(node, 8)
        self._free = node
        region.write_atomic_u64(self._free_addr, node)
        region.persist(self._free_addr, 8)

    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        region, spec = self.region, self.spec
        self._begin_op()
        node = self._alloc_node()
        if node == NIL:
            self._commit_op()
            return False
        bucket = self._bucket_addr(key)
        head = region.read_u64(bucket)
        # Prepare the node fully off-list, persist it, then publish with
        # one atomic pointer store: crash-atomic without logging.
        region.write_u64(node, head)
        region.write(node + 8, key + value)
        region.persist(node, 8 + spec.item_size)
        if self.log is not None:
            self.log.record(bucket, 8)
        region.write_atomic_u64(bucket, node)
        region.persist(bucket, 8)
        self._set_count(self._count + 1)
        self._commit_op()
        return True

    def _walk(self, key: bytes) -> tuple[int, int] | None:
        """Return ``(predecessor_ptr_addr, node)`` for ``key``."""
        region, spec = self.region, self.spec
        ptr_addr = self._bucket_addr(key)
        node = region.read_u64(ptr_addr)
        while node != NIL:
            node_key = region.read(node + 8, spec.key_size)
            if node_key == key:
                return ptr_addr, node
            ptr_addr = node
            node = region.read_u64(node)
        return None

    def query(self, key: bytes) -> bytes | None:
        found = self._walk(key)
        if found is None:
            return None
        _, node = found
        return self.region.read(node + 8 + self.spec.key_size, self.spec.value_size)

    def delete(self, key: bytes) -> bool:
        region = self.region
        found = self._walk(key)
        if found is None:
            return False
        ptr_addr, node = found
        self._begin_op()
        successor = region.read_u64(node)
        if self.log is not None:
            self.log.record(ptr_addr, 8)
            self.log.record(node, 8)
        region.write_atomic_u64(ptr_addr, successor)
        region.persist(ptr_addr, 8)
        self._free_node(node)
        self._set_count(self._count - 1)
        self._commit_op()
        return True

    def update(self, key: bytes, value: bytes) -> bool:
        """In-place value update of a chained node (nodes have no header
        word; the value field sits after the next pointer and key)."""
        if len(value) != self.spec.value_size:
            raise ValueError(
                f"value must be {self.spec.value_size} bytes, got {len(value)}"
            )
        found = self._walk(key)
        if found is None:
            return False
        _, node = found
        region = self.region
        self._begin_op()
        value_addr = node + 8 + self.spec.key_size
        if self.log is not None:
            self.log.record(value_addr, self.spec.value_size)
        region.write(value_addr, value)
        region.persist(value_addr, max(1, len(value)))
        self._commit_op()
        return True

    # ------------------------------------------------------------------
    # inventory (chains, not cells)

    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        # Chained nodes have no occupancy headers; recovery and item
        # inventory walk the chains instead.
        return ()

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        region, spec = self.region, self.spec
        for b in range(self.n_buckets):
            node = int.from_bytes(
                region.peek_volatile(self._buckets + 8 * b, 8), "little"
            )
            while node != NIL:
                kv = region.peek_volatile(node + 8, spec.item_size)
                yield kv[: spec.key_size], kv[spec.key_size :]
                node = int.from_bytes(region.peek_volatile(node, 8), "little")

    def reattach(self) -> None:
        super().reattach()
        self._bump = self.region.read_u64(self._bump_addr)
        self._free = self.region.read_u64(self._free_addr)

    def recover(self) -> None:
        """Rollback the log if present, reload allocator state, and
        recount by walking every chain."""
        if self.log is not None:
            self.log.recover()
        self.reattach()
        self._set_count(sum(1 for _ in self.items()))
