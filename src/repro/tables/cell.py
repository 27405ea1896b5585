"""Fixed-layout hash cell shared by every scheme.

The paper adds "an 1-bit bitmap in each hashing cell"; to make the commit
a naturally aligned 8-byte atomic store, we give each cell an 8-byte
header whose bit 0 is that bitmap (Design decision 3 in DESIGN.md):

    +--------+--------------------+------------------------+
    | header |        key         |         value          |
    |  8 B   |   spec.key_size    |    spec.value_size     |
    +--------+--------------------+------------------------+

Cells are packed contiguously; the codec only does address arithmetic
and (de)serialisation — all memory traffic goes through the owning
table's :class:`~repro.nvm.backend.MemoryBackend` so it is costed and
crash-visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nvm.backend import MemoryBackend

#: header bit 0: the paper's per-cell bitmap (1 = occupied)
OCCUPIED_BIT = 1

HEADER_SIZE = 8


@dataclass(frozen=True)
class ItemSpec:
    """Key/value widths in bytes for one trace's items.

    RandomNum and Bag-of-Words use 8+8 (the paper's 16-byte items);
    Fingerprint uses 16+16 (32-byte items).
    """

    key_size: int = 8
    value_size: int = 8

    def __post_init__(self) -> None:
        if self.key_size <= 0 or self.value_size < 0:
            raise ValueError("key_size must be positive, value_size non-negative")

    @property
    def item_size(self) -> int:
        """Payload bytes per item (the paper's quoted item size)."""
        return self.key_size + self.value_size

    def __deepcopy__(self, memo) -> "ItemSpec":
        """Immutable: a copy is the same object."""
        return self


class CellCodec:
    """Address arithmetic and field access for packed cells."""

    def __init__(self, spec: ItemSpec) -> None:
        self.spec = spec
        self.key_offset = HEADER_SIZE
        self.value_offset = HEADER_SIZE + spec.key_size
        #: full cell footprint, 8-byte aligned so every header is
        #: naturally aligned for the atomic commit store
        self.cell_size = -(-(HEADER_SIZE + spec.item_size) // 8) * 8
        self._empty_kv = bytes(spec.item_size)

    def __deepcopy__(self, memo) -> "CellCodec":
        """Immutable: a copy is the same object."""
        return self

    def addr(self, base: int, index: int) -> int:
        """Byte address of cell ``index`` in an array starting at ``base``."""
        return base + index * self.cell_size

    def array_bytes(self, n_cells: int) -> int:
        """Footprint of ``n_cells`` packed cells."""
        return n_cells * self.cell_size

    # -- reads ---------------------------------------------------------

    def read_header(self, region: MemoryBackend, addr: int) -> int:
        """Load the header word of the cell at ``addr``."""
        return region.read_u64(addr)

    def is_occupied(self, region: MemoryBackend, addr: int) -> bool:
        """Whether the cell's bitmap bit is set."""
        return bool(region.read_u64(addr) & OCCUPIED_BIT)

    def read_key(self, region: MemoryBackend, addr: int) -> bytes:
        """Load the key field."""
        return region.read(addr + self.key_offset, self.spec.key_size)

    def read_value(self, region: MemoryBackend, addr: int) -> bytes:
        """Load the value field."""
        return region.read(addr + self.value_offset, self.spec.value_size)

    def probe(self, region: MemoryBackend, addr: int) -> tuple[bool, bytes]:
        """Load header + key in one access (one or two touched lines,
        but a single simulated load) — the common probe step."""
        raw = region.read(addr, HEADER_SIZE + self.spec.key_size)
        occupied = bool(raw[0] & OCCUPIED_BIT)
        return occupied, raw[HEADER_SIZE:]

    # -- writes (no persistence; callers sequence persists) -------------

    def write_kv(
        self, region: MemoryBackend, addr: int, key: bytes, value: bytes
    ) -> None:
        """Store key and value fields (not the header) in one write."""
        if len(key) != self.spec.key_size or len(value) != self.spec.value_size:
            raise ValueError(
                f"item must be {self.spec.key_size}+{self.spec.value_size} bytes, "
                f"got {len(key)}+{len(value)}"
            )
        region.write(addr + HEADER_SIZE, key + value)

    def clear_kv(self, region: MemoryBackend, addr: int) -> None:
        """Zero the key and value fields (the recovery Reset step)."""
        region.write(addr + HEADER_SIZE, self._empty_kv)

    def set_occupied(self, region: MemoryBackend, addr: int, occupied: bool) -> None:
        """Atomically update the bitmap bit — the commit point of insert
        and delete in every scheme."""
        header = self.read_header(region, addr)
        if occupied:
            header |= OCCUPIED_BIT
        else:
            header &= ~OCCUPIED_BIT & 0xFFFFFFFFFFFFFFFF
        region.write_atomic_u64(addr, header)

    def kv_span(self, addr: int) -> tuple[int, int]:
        """``(addr, size)`` of the key+value fields (for persist calls)."""
        return addr + HEADER_SIZE, self.spec.item_size
