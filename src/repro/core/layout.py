"""Physical storage layout of group hashing (paper Figures 3 and 4).

Two equal levels of ``n_cells_level`` cells each:

- **level 1** (``tab1``) — hash-addressable cells; a key's home cell is
  ``h(key) mod n_cells_level``;
- **level 2** (``tab2``) — collision-resolution cells, *not* addressable
  by the hash function.

Both levels are divided into groups of ``group_size`` cells stored
contiguously; group ``g`` of level 1 overflows exclusively into group
``g`` of level 2. The layout object owns all the address arithmetic so
the table, the recovery scan, and the tests agree on where every cell
lives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tables.cell import CellCodec


@dataclass(frozen=True)
class GroupLayout:
    """Address map for one group hash table."""

    #: cells per level (level 1 and level 2 are the same size)
    n_cells_level: int
    #: cells per group — the paper's tuning knob (Figure 8), default 256
    group_size: int
    #: byte address of level 1's first cell
    tab1_base: int
    #: byte address of level 2's first cell
    tab2_base: int

    def __post_init__(self) -> None:
        if self.n_cells_level <= 0:
            raise ValueError("n_cells_level must be positive")
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if self.n_cells_level % self.group_size:
            raise ValueError(
                f"group_size {self.group_size} must divide the level size "
                f"{self.n_cells_level}"
            )

    def __deepcopy__(self, memo) -> "GroupLayout":
        """Immutable: a copy is the same object."""
        return self

    @property
    def n_groups(self) -> int:
        """Number of groups in each level (equal by construction)."""
        return self.n_cells_level // self.group_size

    @property
    def total_cells(self) -> int:
        """All cells across both levels — the load-factor denominator."""
        return 2 * self.n_cells_level

    def slot(self, hash_value: int) -> int:
        """Level-1 index for a key's hash value."""
        return hash_value % self.n_cells_level

    def group_of(self, index: int) -> int:
        """Group number of a level index."""
        return index // self.group_size

    def group_start(self, index: int) -> int:
        """First index of the group containing ``index`` — the paper's
        ``j = k - k % group_size``."""
        return index - index % self.group_size

    def tab1_addr(self, codec: CellCodec, index: int) -> int:
        """Byte address of level-1 cell ``index``."""
        return codec.addr(self.tab1_base, index)

    def tab2_addr(self, codec: CellCodec, index: int) -> int:
        """Byte address of level-2 cell ``index``."""
        return codec.addr(self.tab2_base, index)
