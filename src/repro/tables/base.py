"""Abstract persistent hash table and the shared commit discipline.

Every scheme in the repository — the group-hashing contribution and all
baselines — derives from :class:`PersistentHashTable`, which provides:

- a 64-byte metadata block in NVM (magic, ``count``, ``capacity``) — the
  paper's *Global info* region;
- the **uniform commit discipline** used to make the latency comparison
  fair (DESIGN.md decision): an installed item is always committed as

  1. write key+value, ``persist``;
  2. atomically set the cell's bitmap bit, ``persist``;
  3. update the persistent ``count``, ``persist``;

  and a removal as bitmap-clear → persist → kv-clear → persist → count →
  persist (the paper's Algorithm 3 ordering). Baselines reuse these
  helpers for their *point* writes; what they lack (and what the undo log
  retrofits in the ``-L`` variants) is atomicity across *multi-cell*
  operations such as cuckoo displacement or backward-shift deletion.
- a generic post-crash ``recover`` that replays the undo log (if any) and
  rebuilds ``count`` by scanning. Group hashing overrides it with the
  paper's Algorithm 4.
"""

from __future__ import annotations

import abc
import hashlib
import struct
from typing import Iterator

from repro.hashes import HashFamily
from repro.nvm.backend import MemoryBackend
from repro.nvm.memory import CACHELINE
from repro.tables.cell import HEADER_SIZE, OCCUPIED_BIT, CellCodec, ItemSpec
from repro.tables.wal import UndoLog

_MAGIC = struct.Struct("<Q")


class TableFullError(RuntimeError):
    """Raised when an insertion cannot find any eligible empty cell.

    The space-utilization experiment (Figure 7) is defined as the load
    factor at which this is first raised.
    """


class PersistentHashTable(abc.ABC):
    """Base class for all NVM hash tables in this repository."""

    #: short scheme identifier used in reports ("linear", "pfht", ...)
    scheme_name: str = "abstract"

    def __init__(
        self,
        region: MemoryBackend,
        n_cells: int,
        spec: ItemSpec | None = None,
        *,
        log: UndoLog | None = None,
        seed: int = 0x5EED,
    ) -> None:
        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        self.region = region
        self.spec = spec or ItemSpec()
        self.codec = CellCodec(self.spec)
        self.n_cells = n_cells
        self.log = log
        self.family = HashFamily(seed)
        # Global info block (paper Figure 4): magic | count | capacity.
        self._info_addr = region.alloc(
            CACHELINE, align=CACHELINE, label=f"{self.scheme_name}.info"
        )
        self._count_addr = self._info_addr + 8
        self._count = 0
        #: observability hooks (``None`` = disabled; see ``instrument``).
        #: Hot paths guard on a local copy, so the disabled cost is a
        #: couple of attribute loads and None tests per operation.
        self.tracer = None
        self.metrics = None
        region.write_u64(self._info_addr, self._magic())
        region.write_u64(self._count_addr, 0)

    def _magic(self) -> int:
        # 4 bytes of name prefix (human-greppable in a region dump) plus
        # 4 bytes of a hash of the *full* name, so schemes sharing a long
        # prefix stay distinguishable at recovery time.
        name = self.scheme_name.encode()
        digest = hashlib.blake2b(name, digest_size=4).digest()
        return _MAGIC.unpack((name + b"\0" * 4)[:4] + digest)[0]

    def instrument(self, tracer=None, metrics=None) -> None:
        """Attach observability sinks (:class:`~repro.obs.Tracer` /
        :class:`~repro.obs.MetricsRegistry`); pass ``None`` to detach.

        Purely observational: the tracer reads stats snapshots and the
        metrics registry counts in plain Python, so instrumented runs
        issue exactly the same region events as uninstrumented ones.
        Attaching the tracer to the *backend* (``Tracer.attach``) is the
        caller's job — this wires the table-side span emission only.
        Subclasses with child tables (sharding) propagate the sinks."""
        self.tracer = tracer
        self.metrics = metrics
        if self.log is not None:
            self.log.metrics = metrics

    def _finish_layout(self) -> None:
        """Subclasses call this after allocating their cell arrays, once
        ``capacity`` is answerable, to persist the metadata block."""
        self.region.write_u64(self._info_addr + 16, self.capacity)
        self.region.persist(self._info_addr, CACHELINE)

    # ------------------------------------------------------------------
    # public API

    @abc.abstractmethod
    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert an item; returns False (or raises
        :class:`TableFullError` from helpers) when no cell is available.
        Duplicate keys are *not* detected, matching the paper's
        Algorithm 1."""

    @abc.abstractmethod
    def query(self, key: bytes) -> bytes | None:
        """Return the value stored for ``key``, or ``None``."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""

    def _locate(self, key: bytes) -> int | None:
        """Address of the cell holding ``key``, or None.

        Delegates to the scheme's cell-addressed ``_find(key) -> addr``
        when one is defined — every probe-structured scheme has one — so
        an in-place update costs a probe, not a table sweep. The
        inventory scan is only the fallback for schemes without a
        ``_find`` (correct for any layout, O(capacity)). A scheme whose
        ``_find`` returns something other than a cell address (linear
        probing returns an index) must override ``_locate`` itself."""
        find = getattr(self, "_find", None)
        if find is not None:
            return find(key)
        codec, region = self.codec, self.region
        for addr in self._iter_cell_addrs():
            occupied, cell_key = codec.probe(region, addr)
            if occupied and cell_key == key:
                return addr
        return None

    def update(self, key: bytes, value: bytes) -> bool:
        """In-place value update (extension — the paper defines no
        update operation).

        Crash atomicity: when the value field is at most 8 bytes (one
        failure-atomicity unit, naturally aligned because cells are),
        the update is a single word store — a crash leaves the old or
        the new value, never a torn one. Wider values are only
        crash-atomic in the logged (``-L``) variants; unlogged schemes
        should use delete+insert for multi-word values if atomicity
        matters.
        """
        if len(value) != self.spec.value_size:
            raise ValueError(
                f"value must be {self.spec.value_size} bytes, got {len(value)}"
            )
        addr = self._locate(key)
        if addr is None:
            return False
        codec, region = self.codec, self.region
        tr = self.tracer
        self._begin_op()
        if self.log is not None:
            if tr is not None:
                tr.push("undo_log")
            self.log.record(addr, codec.cell_size)
            if tr is not None:
                tr.pop()
        if tr is not None:
            tr.push("value_write")
        value_addr = addr + codec.value_offset
        region.write(value_addr, value)
        region.persist(value_addr, max(1, len(value)))
        if tr is not None:
            tr.pop()
        self._commit_op()
        return True

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Total number of cells (the load-factor denominator)."""

    # ------------------------------------------------------------------
    # concurrency-control geometry (consumed by repro.concurrency)

    @property
    def n_lock_stripes(self) -> int:
        """How many writer-lock stripes a concurrency layer should
        allocate for this table. The default hashes keys over ~one
        stripe per 64 cells; schemes with a natural locking unit (the
        group table's groups) override this."""
        return max(1, self.capacity // 64)

    def lock_stripes(self, key: bytes) -> tuple[int, ...]:
        """The lock stripes a writer must hold to mutate ``key``,
        sorted ascending (ordered acquisition makes writer deadlock
        impossible). The default is a single hash stripe; multi-choice
        schemes override with every candidate location's stripe."""
        h = self.__dict__.get("_lock_hash")
        if h is None:
            h = self._lock_hash = self.family.function(0)
        return (h(key) % self.n_lock_stripes,)

    @abc.abstractmethod
    def _cell_arrays(self) -> tuple[tuple[int, int], ...]:
        """``(base address, n_cells)`` of every packed cell array the
        scheme owns (all levels, buckets, stash...), in scan order."""

    def _iter_cell_addrs(self) -> Iterator[int]:
        """Yield the address of every cell the scheme owns, array by
        array. Used by recovery scans and test inventories."""
        size = self.codec.cell_size
        for base, n in self._cell_arrays():
            yield from range(base, base + n * size, size)

    # ------------------------------------------------------------------
    # shared commit discipline

    def _install(self, addr: int, key: bytes, value: bytes) -> None:
        """Commit one item into the (empty) cell at ``addr``.

        The codec helpers (``write_kv``/``set_occupied``/``kv_span``) are
        inlined here — this commit sequence runs on every insert of every
        scheme — but the region-level access sequence is exactly theirs.
        """
        codec, region = self.codec, self.region
        spec = codec.spec
        if len(key) != spec.key_size or len(value) != spec.value_size:
            raise ValueError(
                f"item must be {spec.key_size}+{spec.value_size} bytes, "
                f"got {len(key)}+{len(value)}"
            )
        tr = self.tracer
        if self.log is not None:
            if tr is not None:
                tr.push("undo_log")
            self.log.record(addr, codec.cell_size)
            if tr is not None:
                tr.pop()
        # 1. key+value, persisted (codec.write_kv + kv_span persist)
        if tr is not None:
            tr.push("kv_write")
        kv_addr = addr + HEADER_SIZE
        region.write(kv_addr, key + value)
        region.persist(kv_addr, spec.item_size)
        # 2. bitmap commit: atomic header store (codec.set_occupied)
        if tr is not None:
            tr.pop()
            tr.push("bitmap_commit")
        region.write_atomic_u64(addr, region.read_u64(addr) | OCCUPIED_BIT)
        region.persist(addr, HEADER_SIZE)
        # 3. persistent count
        if tr is not None:
            tr.pop()
            tr.push("count_commit")
        self._set_count(self._count + 1)
        if tr is not None:
            tr.pop()

    def _remove(self, addr: int) -> None:
        """Commit removal of the item in the cell at ``addr``.

        Bitmap first, then the key-value clear — the paper's Algorithm 3
        ordering, which recovery relies on (a cell with bitmap 0 may hold
        garbage; recovery resets it)."""
        codec, region = self.codec, self.region
        tr = self.tracer
        if self.log is not None:
            if tr is not None:
                tr.push("undo_log")
            self.log.record(addr, codec.cell_size)
            if tr is not None:
                tr.pop()
        if tr is not None:
            tr.push("bitmap_commit")
        codec.set_occupied(region, addr, False)
        region.persist(addr, HEADER_SIZE)
        if tr is not None:
            tr.pop()
            tr.push("kv_clear")
        codec.clear_kv(region, addr)
        region.persist(*codec.kv_span(addr))
        if tr is not None:
            tr.pop()
            tr.push("count_commit")
        self._set_count(self._count - 1)
        if tr is not None:
            tr.pop()

    def _relocate(self, src: int, dst: int, key: bytes, value: bytes) -> None:
        """Move an item between cells (cuckoo displacement / backward
        shift). Not crash-atomic without a log — this is exactly the
        operation the ``-L`` variants exist to protect."""
        codec, region = self.codec, self.region
        if self.log is not None:
            self.log.record(dst, codec.cell_size)
            self.log.record(src, codec.cell_size)
        codec.write_kv(region, dst, key, value)
        region.persist(*codec.kv_span(dst))
        codec.set_occupied(region, dst, True)
        region.persist(dst, HEADER_SIZE)
        codec.set_occupied(region, src, False)
        region.persist(src, HEADER_SIZE)
        codec.clear_kv(region, src)
        region.persist(*codec.kv_span(src))

    def _set_count(self, value: int) -> None:
        """Write-through the persistent occupancy counter."""
        self._count = value
        self.region.write_u64(self._count_addr, value)
        self.region.persist(self._count_addr, 8)

    def _begin_op(self) -> None:
        """Start a logged operation (no-op without a log)."""
        if self.log is not None:
            self.log.begin()

    def _commit_op(self) -> None:
        """Finish a logged operation: truncate the undo log."""
        if self.log is not None:
            self.log.commit()

    # ------------------------------------------------------------------
    # state

    @property
    def count(self) -> int:
        """Number of occupied cells (volatile mirror of the NVM field)."""
        return self._count

    @property
    def load_factor(self) -> float:
        """count / capacity."""
        return self._count / self.capacity

    @property
    def persisted_count(self) -> int:
        """The ``count`` field as read back from the region."""
        return self.region.read_u64(self._count_addr)

    # ------------------------------------------------------------------
    # recovery

    def reattach(self) -> None:
        """Reload volatile mirrors from NVM after a simulated crash.

        Subclasses with extra volatile state must extend this."""
        self._count = self.region.read_u64(self._count_addr)

    def recover(self) -> None:
        """Generic post-crash recovery: undo-log rollback, then rebuild
        ``count`` by scanning every cell. Group hashing overrides this
        with the paper's Algorithm 4 (which additionally resets the
        key/value fields of unoccupied cells)."""
        tr, mx = self.tracer, self.metrics
        if tr is not None:
            tr.push("recover")
        if self.log is not None:
            self.log.recover()
        occupied = 0
        scanned = 0
        for addr in self._iter_cell_addrs():
            scanned += 1
            if self.codec.is_occupied(self.region, addr):
                occupied += 1
        self._set_count(occupied)
        if mx is not None:
            mx.counter("recovery.cells_scanned").inc(scanned)
            mx.counter("recovery.runs").inc()
        if tr is not None:
            tr.pop()

    # ------------------------------------------------------------------
    # test/debug inventory (reads the volatile view without charging costs)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield all stored ``(key, value)`` pairs in cell order. Free of
        simulation cost (one volatile peek per cell array, decoded
        locally); intended for assertions, not for workload code."""
        size = self.codec.cell_size
        key_end = HEADER_SIZE + self.spec.key_size
        item_end = HEADER_SIZE + self.spec.item_size
        for base, n in self._cell_arrays():
            cells = self.region.peek_volatile(base, n * size)
            for off in range(0, n * size, size):
                if cells[off] & OCCUPIED_BIT:
                    yield (
                        cells[off + HEADER_SIZE : off + key_end],
                        cells[off + key_end : off + item_end],
                    )

    def check_count(self) -> bool:
        """Whether the persistent count matches actual occupancy
        (a consistency invariant used throughout the tests)."""
        return sum(1 for _ in self.items()) == self.persisted_count

    def integrity_violations(self) -> list[str]:
        """Structural problems with the recovered table, as human-readable
        strings (empty = sound).

        This is the crash-matrix "invariant" oracle
        (:mod:`repro.nvm.crashpoint`): the persistent ``count`` field must
        match actual occupancy, no key may appear in two cells, and an
        attached undo log must be truncated. Reads use the cost-free peek
        API so diagnostics never perturb simulated statistics. Subclasses
        extend this with scheme-specific postconditions (group hashing
        adds Algorithm 4's unoccupied-cells-are-zero check)."""
        problems: list[str] = []
        keys = [k for k, _ in self.items()]
        if len(set(keys)) != len(keys):
            problems.append(f"duplicate keys in table ({len(keys)} cells)")
        persisted = int.from_bytes(
            self.region.peek_persistent(self._count_addr, 8), "little"
        )
        if persisted != len(keys):
            problems.append(
                f"persistent count {persisted} != occupancy {len(keys)}"
            )
        if self.log is not None and self.log.persisted_tail != 0:
            problems.append(
                f"undo log tail {self.log.persisted_tail} not truncated"
            )
        return problems
