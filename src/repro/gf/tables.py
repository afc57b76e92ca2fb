"""Construction of the GF(2^8) lookup tables.

The field GF(256) is represented as polynomials over GF(2) modulo the
primitive polynomial 0x11D.  Because the polynomial is primitive, the
element ``2`` (the polynomial ``x``) generates the multiplicative group,
so every nonzero element is ``2**k`` for a unique ``k`` in ``[0, 255)``.
The :data:`EXP` / :data:`LOG` discrete-log tables record that map.

Every product in the library is one lookup in the full multiplication
table :data:`MUL` (``MUL[a, b] == a * b``, 64 KB), and every inverse one
lookup in :data:`INV`; zero operands need no special case.  ``MUL`` is
built from ``EXP``/``LOG`` with one vectorised gather, so importing the
module takes well under a millisecond.
"""

from __future__ import annotations

import numpy as np

#: The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
GF_POLY = 0x11D

#: Field order.
GF_ORDER = 256

#: Generator of the multiplicative group under GF_POLY.
GF_GENERATOR = 2


def build_tables(poly: int = GF_POLY) -> tuple[np.ndarray, np.ndarray]:
    """Build (EXP, LOG) tables for GF(256) under the given primitive poly.

    Returns:
        ``EXP``: shape (510,) uint8 — ``EXP[k] = g**(k mod 255)``.  The
        table is doubled so that ``EXP[LOG[a] + LOG[b]]`` never needs an
        explicit modulo.
        ``LOG``: shape (256,) int32 — ``LOG[a]`` such that
        ``g**LOG[a] == a`` for nonzero ``a``.  Zero has no logarithm;
        ``LOG[0]`` is 0 and callers must treat zero themselves.
    """
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for k in range(255):
        exp[k] = value
        log[value] = k
        value <<= 1
        if value & 0x100:
            value ^= poly
    exp[255:] = exp[:255]
    return exp, log


def build_mul_inv(exp: np.ndarray, log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build (MUL, INV) from the discrete-log tables.

    Returns:
        ``MUL``: shape (256, 256) uint8 — ``MUL[a, b] = a * b``; row and
        column 0 are zero.
        ``INV``: shape (256,) uint8 — ``INV[a] = 1 / a`` for nonzero
        ``a``; ``INV[0]`` is 0 and callers must reject zero themselves.
    """
    logs = log[1:]
    mul = np.zeros((256, 256), dtype=np.uint8)
    mul[1:, 1:] = exp[logs[:, None] + logs[None, :]]
    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[255 - logs]
    return mul, inv


EXP, LOG = build_tables()
MUL, INV = build_mul_inv(EXP, LOG)


def multiplicative_order(element: int, poly: int = GF_POLY) -> int:
    """Order of ``element`` in the multiplicative group of the field.

    Used by tests to certify that the configured polynomial is primitive
    (the generator must have order 255).
    """
    if element == 0:
        raise ValueError("0 has no multiplicative order")
    value = 1
    for k in range(1, 256):
        value = _poly_mul(value, element, poly)
        if value == 1:
            return k
    raise AssertionError("element order not found; polynomial not irreducible?")


def _poly_mul(a: int, b: int, poly: int) -> int:
    """Carry-less polynomial multiplication modulo ``poly`` (reference impl)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return result
