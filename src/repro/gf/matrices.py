"""MDS generator matrices over GF(2^8): Cauchy and Vandermonde families.

The secrecy arguments of the protocol hinge on structured matrices:

* A **Cauchy matrix** ``C[i][j] = 1 / (x_i + y_j)`` (with all ``x_i``,
  ``y_j`` distinct) has *every square minor nonsingular* — the
  "superregular" property.  This is the strongest possible MDS-type
  guarantee and is what lets one matrix serve simultaneously as the
  z-combination block (decodability for every terminal, whatever subset
  of y-packets it is missing) and, stacked with the s-block, as a secrecy
  certificate (row spaces intersect trivially).

* A **Vandermonde matrix** ``V[i][j] = a_j ** i`` with distinct ``a_j``
  has every maximal (k x k, k = row count) minor nonsingular, which is
  the textbook MDS generator property — enough for the y-construction on
  a single support pool.

Size limits: a Cauchy matrix over GF(256) needs ``rows + cols <= 256``
distinct field points.  The privacy-amplification layer chunks larger
pools (see :mod:`repro.coding.privacy`), so these builders simply raise
on oversize requests.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import gf_pow
from repro.gf.linalg import GFMatrix
from repro.gf.tables import INV

__all__ = [
    "cauchy_matrix",
    "vandermonde_matrix",
    "is_superregular_sample",
    "MAX_CAUCHY_POINTS",
]

#: A Cauchy matrix needs rows + cols distinct field elements.
MAX_CAUCHY_POINTS = 256


def cauchy_matrix(rows: int, cols: int, offset: int = 0) -> GFMatrix:
    """Build a ``rows x cols`` Cauchy matrix over GF(256).

    Row points are ``offset .. offset+rows-1`` and column points are
    ``offset+rows .. offset+rows+cols-1`` (all reduced mod 256 must stay
    distinct, hence the size check).  Every square submatrix of the result
    is invertible.

    Args:
        rows: number of rows (>= 0).
        cols: number of columns (>= 0).
        offset: starting field point; lets callers derive disjoint
            matrices from the same family deterministically.

    Raises:
        ValueError: if ``rows + cols + offset > 256`` (points would wrap
        and collide) or on negative sizes.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if rows + cols + offset > MAX_CAUCHY_POINTS:
        raise ValueError(
            f"Cauchy matrix needs {rows + cols + offset} <= 256 distinct points; "
            "chunk the pool instead"
        )
    if rows == 0 or cols == 0:
        return GFMatrix.zeros(rows, cols)
    x = np.arange(offset, offset + rows, dtype=np.uint8)
    y = np.arange(offset + rows, offset + rows + cols, dtype=np.uint8)
    # Field addition is XOR; all x_i ^ y_j are nonzero because the point
    # sets are disjoint.
    return GFMatrix(INV[x[:, None] ^ y[None, :]])


def vandermonde_matrix(rows: int, cols: int, start: int = 1) -> GFMatrix:
    """Build a ``rows x cols`` Vandermonde matrix ``V[i][j] = a_j ** i``.

    Evaluation points are ``start .. start+cols-1`` and must be distinct
    and nonzero, so ``start >= 1`` and ``start + cols <= 256``.

    Any ``rows`` columns of the result are linearly independent (for
    ``rows <= cols``), i.e. the matrix generates an MDS code.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if start < 1 or start + cols > 256:
        raise ValueError("Vandermonde points must be distinct nonzero field elements")
    if rows == 0 or cols == 0:
        return GFMatrix.zeros(rows, cols)
    points = np.arange(start, start + cols, dtype=np.uint8)
    data = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        data[i] = gf_pow(points, i)
    return GFMatrix(data)


def is_superregular_sample(
    matrix: GFMatrix, rng: np.random.Generator, trials: int = 50
) -> bool:
    """Spot-check the every-minor-nonsingular property by random sampling.

    Exhaustively checking all minors is exponential; tests use this
    randomised certifier (plus small exhaustive cases) instead.  Returns
    False as soon as any sampled square minor is singular.
    """
    r, c = matrix.shape
    if r == 0 or c == 0:
        return True
    max_k = min(r, c)
    for _ in range(trials):
        k = int(rng.integers(1, max_k + 1))
        row_idx = rng.choice(r, size=k, replace=False)
        col_idx = rng.choice(c, size=k, replace=False)
        minor = matrix.take_rows(sorted(row_idx)).take_cols(sorted(col_idx))
        if not minor.is_invertible():
            return False
    return True
