"""Scalar and vectorised arithmetic in GF(2^8).

All functions accept either Python ints or numpy arrays (any shape) of
dtype uint8 and broadcast like ordinary numpy ufuncs.  Addition is XOR;
multiplication, division and powers are lookups in the
:data:`~repro.gf.tables.MUL` / :data:`~repro.gf.tables.INV` tables from
:mod:`repro.gf.tables`, so zero operands need no masking.

The hot paths of the whole library — :func:`gf_matmul` (combining packet
payloads), the row operations of Gaussian elimination, and
:func:`gf_poly_eval` (the MAC) — are all ``MUL`` gathers followed by XOR
reductions, written to stay inside vectorised numpy.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.gf.tables import EXP, GF_GENERATOR, GF_ORDER, GF_POLY, INV, LOG, MUL

GFElement = Union[int, np.ndarray]

__all__ = [
    "GF_ORDER",
    "GF_POLY",
    "GF_GENERATOR",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_matmul",
    "gf_poly_eval",
    "as_gf_array",
]


def as_gf_array(values) -> np.ndarray:
    """Coerce ``values`` to a uint8 numpy array, validating the range.

    Raises:
        ValueError: if any value is outside [0, 255].
    """
    arr = np.asarray(values)
    if arr.dtype != np.uint8:
        if np.any((arr < 0) | (arr > 255)):
            raise ValueError("GF(256) elements must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def _is_scalar(a: GFElement) -> bool:
    return isinstance(a, (int, np.integer))


def gf_add(a: GFElement, b: GFElement) -> GFElement:
    """Field addition (== subtraction): bitwise XOR."""
    if _is_scalar(a) and _is_scalar(b):
        return int(a) ^ int(b)
    return np.bitwise_xor(as_gf_array(a), as_gf_array(b))


def gf_mul(a: GFElement, b: GFElement) -> GFElement:
    """Field multiplication: one lookup in the :data:`MUL` table.

    Array operands broadcast against each other like a numpy ufunc.
    """
    if _is_scalar(a) and _is_scalar(b):
        return int(MUL[a, b])
    return MUL[as_gf_array(a), as_gf_array(b)]


def gf_inv(a: GFElement) -> GFElement:
    """Multiplicative inverse.

    Raises:
        ZeroDivisionError: if ``a`` is zero, or has any zero entry.
    """
    if _is_scalar(a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(INV[a])
    a_arr = as_gf_array(a)
    if np.any(a_arr == 0):
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return INV[a_arr]


def gf_div(a: GFElement, b: GFElement) -> GFElement:
    """Field division ``a / b``; raises ZeroDivisionError when b == 0."""
    if _is_scalar(a) and _is_scalar(b):
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        return int(MUL[a, INV[b]])
    b_arr = as_gf_array(b)
    if np.any(b_arr == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    return MUL[as_gf_array(a), INV[b_arr]]


def gf_pow(a: GFElement, exponent: int) -> GFElement:
    """``a ** exponent`` with the usual conventions (``a**0 == 1``).

    Square-and-multiply through :data:`MUL`, which needs no special case
    for zero.
    """
    if exponent < 0:
        return gf_pow(gf_inv(a), -exponent)
    scalar = _is_scalar(a)
    base = np.uint8(a) if scalar else as_gf_array(a)
    result = np.ones_like(base)
    # a**255 == 1 for every nonzero a, so exponents fold into [1, 255].
    if exponent > 255:
        exponent = (exponent - 1) % 255 + 1
    while exponent:
        if exponent & 1:
            result = MUL[result, base]
        base = MUL[base, base]
        exponent >>= 1
    return int(result) if scalar else result


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256).

    ``a`` has shape (r, k), ``b`` has shape (k, c); the result has shape
    (r, c).  Row by row: one :data:`MUL` gather scales the rows of ``b``
    picked by the row's nonzero coefficients, and one XOR reduction sums
    them.  Memory stays bounded at O(k*c) per row.
    """
    a = as_gf_array(np.atleast_2d(a))
    b = as_gf_array(np.atleast_2d(b))
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for GF matmul: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i, row in enumerate(a):
        nz = row != 0
        if nz.any():
            out[i] = np.bitwise_xor.reduce(MUL[row[nz][:, None], b[nz]], axis=0)
    return out


def gf_poly_eval(coeffs: np.ndarray, x: GFElement) -> GFElement:
    """Evaluate a polynomial with GF(256) coefficients at ``x``.

    ``coeffs`` is highest-degree first; ``x`` is one point or an array
    of points (the result has its shape).  All powers ``x**k`` come from
    one gather in the discrete-log tables, and each point's value is one
    XOR reduction of :data:`MUL` products, so no Python loop runs over
    the coefficients.  Used by the authentication MAC (polynomial
    universal hashing).
    """
    coeffs = as_gf_array(np.atleast_1d(coeffs))
    points = as_gf_array(x)
    flat = points.reshape(-1, 1)
    degrees = np.arange(coeffs.size - 1, -1, -1)
    powers = EXP[LOG[flat] * degrees % 255]
    # Zero has no logarithm: 0**k is 0, except the constant term's 0**0.
    powers[flat[:, 0] == 0, :-1] = 0
    values = np.bitwise_xor.reduce(MUL[coeffs, powers], axis=1).reshape(points.shape)
    return int(values) if _is_scalar(x) else values
