"""One-time Carter-Wegman MAC over GF(2^8).

Unconditionally secure authentication: the tag is a polynomial hash of
the message evaluated at a secret point, masked with a one-time pad::

    tag_j = m_1 * k_j^B  + m_2 * k_j^(B-1) + ... + m_B * k_j  + (B mod 256) + r_j

(symbol-wise over GF(256), with independent evaluation points ``k_j``
and pad symbols ``r_j`` per tag position; a zero key byte is evaluated
as the point 1).  All ``TAG_SYMBOLS`` hashes
are one vectorised polynomial evaluation
(:func:`repro.gf.field.gf_poly_eval`) over the message bytes followed by
the length byte.  For a single use of the key, an attacker who sees
(message, tag) and forges a different message succeeds with probability
at most ``B / 256`` per tag symbol — ``(B/256)^t`` for a t-symbol tag —
*independent of computational power*, which is the property that makes
it the right companion to an information-theoretic secret-agreement
protocol.

Keys are consumed per message: authenticating k messages costs
``k * MAC_KEY_BYTES`` bytes of pool secret.  The evaluation point is
drawn per message too (strict one-time discipline keeps the analysis
simple and the bound airtight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gf.field import gf_poly_eval

__all__ = ["OneTimeMac", "MAC_KEY_BYTES", "TAG_SYMBOLS", "forgery_bound"]

#: Tag length in GF(256) symbols; forgery probability ~ (B/256)^4.
TAG_SYMBOLS = 4

#: Bytes of key consumed per authenticated message: one evaluation
#: point and one pad symbol per tag symbol.
MAC_KEY_BYTES = 2 * TAG_SYMBOLS


def forgery_bound(message_bytes: int) -> float:
    """Upper bound on one-shot forgery probability for a message size."""
    if message_bytes < 0:
        raise ValueError("message size must be non-negative")
    blocks = max(message_bytes, 1)
    per_symbol = min(blocks / 256.0, 1.0)
    return per_symbol**TAG_SYMBOLS


@dataclass(frozen=True)
class OneTimeMac:
    """A one-time MAC instance bound to one 8-byte key.

    Attributes:
        key: ``MAC_KEY_BYTES`` secret bytes — the first ``TAG_SYMBOLS``
            are evaluation points, the rest one-time pad symbols.
    """

    key: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.key) != MAC_KEY_BYTES:
            raise ValueError(f"key must be exactly {MAC_KEY_BYTES} bytes")

    def tag(self, message: bytes) -> bytes:
        """Authenticate ``message``; returns a TAG_SYMBOLS-byte tag."""
        key = np.frombuffer(self.key, dtype=np.uint8)
        # A zero point would keep only the constant term; shift it into
        # the multiplicative group to keep every byte binding.
        points = np.maximum(key[:TAG_SYMBOLS], 1)
        # Binding the length as the constant term stops extensions.
        coeffs = np.frombuffer(bytes(message) + bytes([len(message) % 256]), dtype=np.uint8)
        return (gf_poly_eval(coeffs, points) ^ key[TAG_SYMBOLS:]).tobytes()

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-shape verification (recompute and compare)."""
        if len(tag) != TAG_SYMBOLS:
            return False
        expected = self.tag(message)
        # Bitwise accumulate to avoid early exit on first mismatch.
        diff = 0
        for a, b in zip(expected, tag):
            diff |= a ^ b
        return diff == 0
