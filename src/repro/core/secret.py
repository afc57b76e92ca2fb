"""Secret containers: the group secret and the refreshable key pool.

The paper's motivating use case (§1) is continuous key refresh: secrets
generated "out of thin air" feed a pool from which session keys and
one-time pads are drawn, with no long-lived material to steal.
:class:`SecretPool` implements that consumption model; the
:mod:`repro.auth` extension draws its MAC keys from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["GroupSecret", "SecretPool"]


@dataclass(frozen=True)
class GroupSecret:
    """An agreed secret: L packets of payload_bytes symbols."""

    packets: np.ndarray  # (L, payload_bytes) uint8

    def __post_init__(self) -> None:
        arr = np.asarray(self.packets, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("secret packets must form a 2-D array")
        object.__setattr__(self, "packets", arr)

    @property
    def n_packets(self) -> int:
        return int(self.packets.shape[0])

    @property
    def n_bits(self) -> int:
        return int(self.packets.size) * 8

    def to_bytes(self) -> bytes:
        return self.packets.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSecret):
            return NotImplemented
        return self.packets.shape == other.packets.shape and bool(
            np.all(self.packets == other.packets)
        )

    def __hash__(self) -> int:
        return hash((self.packets.shape, self.packets.tobytes()))


@dataclass
class SecretPool:
    """FIFO pool of secret bytes with strict one-time consumption.

    Bytes handed out by :meth:`consume` are discarded — they can never be
    issued twice, which is what makes pads and Carter-Wegman MAC keys
    drawn from the pool information-theoretically safe to use once.

    A pool made by :meth:`streamed` holds bytes that are not computed
    yet: they are pulled from their stream only as :meth:`consume` needs
    them, and count as available all along.
    """

    # Pool bytes are future pads and MAC keys: never in repr().
    _buffer: bytearray = field(default_factory=bytearray, repr=False)
    consumed_bytes: int = 0
    _stream: Iterator[bytes] = field(default_factory=lambda: iter(()), repr=False)
    _unpulled: int = 0

    @classmethod
    def streamed(cls, blocks: Iterator[bytes], n_bytes: int) -> "SecretPool":
        """A pool of the first ``n_bytes`` that ``blocks`` yields."""
        return cls(_stream=blocks, _unpulled=n_bytes)

    @property
    def available_bytes(self) -> int:
        return len(self._buffer) + self._unpulled

    def _pull(self, n_bytes: int) -> None:
        """Pull stream blocks until ``n_bytes`` are buffered (or none are left)."""
        while len(self._buffer) < n_bytes and self._unpulled:
            block = next(self._stream)[: self._unpulled]
            self._buffer.extend(block)
            self._unpulled -= len(block)

    def deposit(self, secret: GroupSecret) -> None:
        """Fold a freshly agreed secret into the pool."""
        self.deposit_raw(secret.to_bytes())

    def deposit_raw(self, data: bytes) -> None:
        # Deposits queue behind the stream's bytes, so pull those first.
        self._pull(self.available_bytes)
        self._buffer.extend(data)

    def consume(self, n_bytes: int) -> bytes:
        """Withdraw ``n_bytes``; raises when the pool runs dry.

        Raises:
            KeyError-like LookupError: if fewer bytes remain — callers
            must check :attr:`available_bytes` or agree more secrets.
        """
        if n_bytes < 0:
            raise ValueError("cannot consume a negative amount")
        if n_bytes > self.available_bytes:
            raise LookupError(
                f"pool has {self.available_bytes} bytes, {n_bytes} requested"
            )
        self._pull(n_bytes)
        out = bytes(self._buffer[:n_bytes])
        del self._buffer[:n_bytes]
        self.consumed_bytes += n_bytes
        return out

    def one_time_pad(self, message: bytes) -> bytes:
        """Encrypt (or decrypt) a message with pool bytes, consuming them."""
        pad = self.consume(len(message))
        return bytes(m ^ p for m, p in zip(message, pad))
