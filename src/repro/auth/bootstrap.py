"""Authenticated control channel with bootstrap + continuous refresh.

The lifecycle the paper sketches in §1-§2:

1. Terminals share a small bootstrap secret out of band when they first
   communicate ("fundamentally unavoidable").
2. Every protocol control message is authenticated with a one-time MAC
   keyed from the current pool.
3. Freshly agreed group secrets are deposited into the pool, so the
   bootstrap material is consumed once and never reused — subsequent
   secrets "do not depend in any way on the bootstrap information".

:class:`AuthenticatedChannel` models one terminal's view.  Peers stay
in sync because they consume the pool deterministically in message
order (the protocol's reliable broadcasts give all terminals the same
message sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.auth.mac import MAC_KEY_BYTES, OneTimeMac
from repro.core.secret import GroupSecret, SecretPool

__all__ = ["AuthenticatedChannel", "BootstrapError"]


class BootstrapError(RuntimeError):
    """The pool ran out of key material (agree more secrets first)."""


@dataclass
class AuthenticatedChannel:
    """One party's authenticated-messaging state.

    Two channels constructed with the same bootstrap bytes (and fed the
    same deposits in the same order) produce/verify each other's tags.

    Attributes:
        pool: the key pool; seeded with the bootstrap secret.
        sent: number of messages authenticated so far (diagnostic).
    """

    pool: SecretPool = field(default_factory=SecretPool)
    sent: int = 0

    @classmethod
    def from_bootstrap(cls, bootstrap: Union[bytes, SecretPool]) -> "AuthenticatedChannel":
        """A channel keyed by ``bootstrap``: raw bytes, or a pool such as a
        lazily expanded :meth:`SecretPool.streamed` one."""
        if isinstance(bootstrap, SecretPool):
            pool = bootstrap
        else:
            pool = SecretPool(bytearray(bootstrap))
        if pool.available_bytes < MAC_KEY_BYTES:
            raise BootstrapError(
                f"bootstrap must provide at least {MAC_KEY_BYTES} bytes"
            )
        return cls(pool=pool)

    def refresh(self, secret: GroupSecret) -> None:
        """Deposit a protocol-agreed secret into the key pool."""
        self.pool.deposit(secret)

    def _next_mac(self) -> OneTimeMac:
        if self.pool.available_bytes < MAC_KEY_BYTES:
            raise BootstrapError(
                "key pool exhausted: run the secret-agreement protocol"
            )
        return OneTimeMac(self.pool.consume(MAC_KEY_BYTES))

    def authenticate(self, message: bytes) -> bytes:
        """Tag a message, consuming one key; returns the tag."""
        mac = self._next_mac()
        self.sent += 1
        return mac.tag(message)

    def verify_next(self, message: bytes, tag: bytes) -> bool:
        """Verify the next message in sequence, consuming one key.

        Key consumption happens regardless of the verdict: a forged
        message must burn the key it targeted, or the attacker could
        retry against the same key.
        """
        mac = self._next_mac()
        return mac.verify(message, tag)

    @property
    def messages_remaining(self) -> int:
        """How many more messages the current pool can authenticate."""
        return self.pool.available_bytes // MAC_KEY_BYTES
