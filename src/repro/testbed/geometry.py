"""Testbed geometry: the 3×3 cell grid over a 14 m² square area.

The paper states the testbed covers 14 m², is divided into 9 logical
cells, and that the minimum separation between nodes — 1.75 m — equals
the diagonal of a cell.  A square 14 m² area split 3×3 gives cells of
side ``sqrt(14)/3 ≈ 1.247 m`` and diagonal ``≈ 1.764 m``: the numbers
fit, so this is the geometry we implement (a regression test pins the
diagonal to the paper's figure within a centimetre).

Cells are indexed row-major: cell ``k`` sits at row ``k // 3`` and
column ``k % 3``; ``(0, 0)`` is the south-west corner of the area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TestbedGeometry"]


@dataclass(frozen=True)
class TestbedGeometry:
    """The square testbed area and its logical cell grid.

    Args:
        area_m2: total covered area (paper: 14 m²).
        grid: cells per side (paper: 3).
    """

    __test__ = False  # a geometry, not a pytest test class

    area_m2: float = 14.0
    grid: int = 3

    def __post_init__(self) -> None:
        if self.area_m2 <= 0:
            raise ValueError("area must be positive")
        if self.grid < 1:
            raise ValueError("grid must have at least one cell per side")

    @property
    def side_m(self) -> float:
        """Side length of the square area."""
        return math.sqrt(self.area_m2)

    @property
    def cell_size_m(self) -> float:
        """Side length of one logical cell."""
        return self.side_m / self.grid

    @property
    def cell_diagonal_m(self) -> float:
        """The paper's minimum node separation (1.75 m for defaults)."""
        return self.cell_size_m * math.sqrt(2.0)

    @property
    def n_cells(self) -> int:
        return self.grid * self.grid

    def row_of(self, cell: int) -> int:
        self._check(cell)
        return cell // self.grid

    def col_of(self, cell: int) -> int:
        self._check(cell)
        return cell % self.grid

    def cell_center(self, cell: int) -> tuple:
        """Centre coordinates (x, y) of a cell in metres."""
        self._check(cell)
        row, col = self.row_of(cell), self.col_of(cell)
        half = self.cell_size_m / 2.0
        return (col * self.cell_size_m + half, row * self.cell_size_m + half)

    def cells_in_row(self, row: int) -> list:
        if not 0 <= row < self.grid:
            raise ValueError(f"row {row} out of range")
        return [row * self.grid + c for c in range(self.grid)]

    def cells_in_col(self, col: int) -> list:
        if not 0 <= col < self.grid:
            raise ValueError(f"col {col} out of range")
        return [r * self.grid + col for r in range(self.grid)]

    def all_cells(self) -> list:
        return list(range(self.n_cells))

    def distance(self, cell_a: int, cell_b: int) -> float:
        ax, ay = self.cell_center(cell_a)
        bx, by = self.cell_center(cell_b)
        return math.hypot(ax - bx, ay - by)

    def _check(self, cell: int) -> None:
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell {cell} out of range [0, {self.n_cells})")
