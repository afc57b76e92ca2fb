"""One-time MAC and the bootstrap/refresh channel."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.auth.bootstrap import AuthenticatedChannel, BootstrapError
from repro.auth.mac import MAC_KEY_BYTES, TAG_SYMBOLS, OneTimeMac, forgery_bound
from repro.core.secret import GroupSecret
from repro.gf.tables import GF_POLY, _poly_mul


def horner_tag(key: bytes, message: bytes) -> bytes:
    """Reference oracle: the MAC as a scalar Horner loop per tag symbol,
    on the carry-less reference multiplication."""
    out = bytearray()
    for j in range(TAG_SYMBOLS):
        point = key[j] or 1
        value = 0
        for c in message or b"\x00":
            value = _poly_mul(value, point, GF_POLY) ^ c
        value = _poly_mul(value, point, GF_POLY) ^ (len(message) % 256)
        out.append(value ^ key[TAG_SYMBOLS + j])
    return bytes(out)


#: Keys with zero evaluation points turn up often.
mac_keys = st.lists(
    st.one_of(st.just(0), st.integers(0, 255)),
    min_size=MAC_KEY_BYTES,
    max_size=MAC_KEY_BYTES,
).map(bytes)
#: Short messages, and messages on both sides of the 256-byte wrap of
#: the length binding.
messages = st.one_of(
    st.binary(max_size=24),
    st.integers(250, 530).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
)


class TestOneTimeMac:
    def test_tag_verify_roundtrip(self, rng):
        key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
        mac = OneTimeMac(key)
        msg = b"hello group"
        assert mac.verify(msg, mac.tag(msg))

    def test_modified_message_rejected(self, rng):
        key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
        mac = OneTimeMac(key)
        tag = mac.tag(b"hello group")
        assert not mac.verify(b"hello grouq", tag)

    def test_truncated_tag_rejected(self, rng):
        key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
        mac = OneTimeMac(key)
        tag = mac.tag(b"x")
        assert not mac.verify(b"x", tag[:-1])

    def test_length_extension_rejected(self, rng):
        key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
        mac = OneTimeMac(key)
        tag = mac.tag(b"ab")
        assert not mac.verify(b"ab\x00", tag)

    def test_empty_message_supported(self, rng):
        key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
        mac = OneTimeMac(key)
        assert mac.verify(b"", mac.tag(b""))

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            OneTimeMac(b"short")

    def test_different_keys_different_tags(self, rng):
        msg = b"same message"
        tags = set()
        for _ in range(16):
            key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
            tags.add(OneTimeMac(key).tag(msg))
        assert len(tags) > 12  # overwhelmingly distinct

    def test_forgery_bound_formula(self):
        assert forgery_bound(1) == pytest.approx((1 / 256) ** TAG_SYMBOLS)
        assert forgery_bound(256) == 1.0 ** TAG_SYMBOLS
        with pytest.raises(ValueError):
            forgery_bound(-1)

    def test_empirical_forgery_rate_below_bound(self, rng):
        """Random forgeries against random keys must succeed at most at
        the analytical rate (here: essentially never for 4-symbol tags)."""
        successes = 0
        trials = 3000
        msg = b"m1"
        forged = b"m2"
        for _ in range(trials):
            key = bytes(rng.integers(0, 256, MAC_KEY_BYTES, dtype=np.uint8))
            mac = OneTimeMac(key)
            tag = mac.tag(msg)
            if mac.verify(forged, tag):
                successes += 1
        assert successes == 0


class TestTagMatchesHorner:
    @given(mac_keys, messages)
    @example(bytes(MAC_KEY_BYTES), b"")
    @example(bytes([0, 7, 0, 9, 1, 2, 3, 4]), bytes(256))
    @example(bytes([0, 0, 0, 0, 5, 6, 7, 8]), b"\xff" * 257)
    @example(bytes(range(1, 9)), b"x" * 255)
    def test_tag_is_byte_identical_to_horner(self, key, message):
        assert OneTimeMac(key).tag(message) == horner_tag(key, message)


class TestAuthenticatedChannel:
    def test_bootstrap_handshake(self):
        boot = bytes(range(32))
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        msg = b"round 0 start"
        assert b.verify_next(msg, a.authenticate(msg))

    def test_bootstrap_too_short(self):
        with pytest.raises(BootstrapError):
            AuthenticatedChannel.from_bootstrap(b"tiny")

    def test_keys_are_single_use(self):
        boot = bytes(range(32))
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        m1, m2 = b"first", b"second"
        t1 = a.authenticate(m1)
        t2 = a.authenticate(m2)
        assert b.verify_next(m1, t1)
        assert b.verify_next(m2, t2)
        # Replaying t1 against the next key slot fails.
        a2 = AuthenticatedChannel.from_bootstrap(boot)
        b2 = AuthenticatedChannel.from_bootstrap(boot)
        t1 = a2.authenticate(m1)
        b2.verify_next(m1, t1)
        assert not b2.verify_next(m1, t1)

    def test_forgery_burns_key(self):
        boot = bytes(range(32))
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        tag = a.authenticate(b"legit")
        assert not b.verify_next(b"forged", tag)
        # The burned key means the legit message now fails too — the
        # sender must re-authenticate with the next key.
        assert not b.verify_next(b"legit", tag)

    def test_exhaustion_and_refresh(self, rng):
        boot = bytes(range(MAC_KEY_BYTES))
        a = AuthenticatedChannel.from_bootstrap(boot)
        assert a.messages_remaining == 1
        a.authenticate(b"only one")
        with pytest.raises(BootstrapError):
            a.authenticate(b"too many")
        secret = GroupSecret(
            rng.integers(0, 256, (2, 16), dtype=np.uint8)
        )
        a.refresh(secret)
        assert a.messages_remaining == 4
        a.authenticate(b"refilled")

    def test_channels_stay_synchronized_after_refresh(self, rng):
        boot = bytes(range(32))
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        secret = GroupSecret(rng.integers(0, 256, (1, 32), dtype=np.uint8))
        a.refresh(secret)
        b.refresh(secret)
        for k in range(5):
            msg = f"epoch {k}".encode()
            assert b.verify_next(msg, a.authenticate(msg))


class TestTagReuse:
    """Negative paths for one-time key discipline: every way a tag can
    be presented against the wrong key must fail — and actual key
    *reuse* must demonstrably leak, which is why the channel never
    allows it."""

    def test_tag_replayed_at_later_position_rejected(self):
        boot = bytes(range(64))
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        msg = b"same message every time"
        t1 = a.authenticate(msg)
        a.authenticate(msg)
        a.authenticate(msg)
        assert b.verify_next(msg, t1)
        # Positions 2 and 3 use fresh keys: the old tag is worthless
        # even for the identical message.
        assert not b.verify_next(msg, t1)
        assert not b.verify_next(msg, t1)

    def test_out_of_order_tags_desynchronise_permanently(self):
        boot = bytes(range(64))
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        t1 = a.authenticate(b"first")
        t2 = a.authenticate(b"second")
        # A reordered delivery burns key 1 against message 2...
        assert not b.verify_next(b"second", t2)
        # ...and the sequence never recovers: the late frame now meets
        # key 2, failing as well.  Strict ordering is load-bearing.
        assert not b.verify_next(b"first", t1)

    def test_verify_on_exhausted_pool_raises(self):
        boot = bytes(range(MAC_KEY_BYTES))  # exactly one key
        a = AuthenticatedChannel.from_bootstrap(boot)
        b = AuthenticatedChannel.from_bootstrap(boot)
        assert b.verify_next(b"only", a.authenticate(b"only"))
        with pytest.raises(BootstrapError):
            b.verify_next(b"more", b"\x00" * TAG_SYMBOLS)

    def test_cross_pair_tag_rejected(self, rng):
        """A tag minted under one bootstrap pool means nothing to a
        channel seeded from a different pool."""
        a = AuthenticatedChannel.from_bootstrap(bytes(range(32)))
        other = AuthenticatedChannel.from_bootstrap(
            bytes(rng.integers(0, 256, 32, dtype=np.uint8))
        )
        msg = b"round 0 start"
        assert not other.verify_next(msg, a.authenticate(msg))

    def test_pad_reuse_enables_forgery(self):
        """Why keys are strictly one-time: tagging two messages with the
        same evaluation points leaks their hash difference (the pads
        cancel under XOR), which converts directly into a forgery
        against any other key sharing those points."""
        points = bytes(range(1, TAG_SYMBOLS + 1))
        pad1 = bytes(range(100, 100 + TAG_SYMBOLS))
        pad2 = bytes(range(200, 200 + TAG_SYMBOLS))
        mac_reused = OneTimeMac(points + pad1)
        mac_victim = OneTimeMac(points + pad2)
        m1, m2 = b"transfer 10 coins", b"transfer 99 coins"
        # The attacker observes both tags under the *reused* key...
        leak = bytes(
            x ^ y for x, y in zip(mac_reused.tag(m1), mac_reused.tag(m2))
        )
        # ...plus one honest tag from the victim key, and forges the
        # victim's tag for the other message without knowing any key.
        forged = bytes(x ^ y for x, y in zip(mac_victim.tag(m1), leak))
        assert mac_victim.verify(m2, forged)


def _shows(text: str, secret: bytes) -> bool:
    """Whether ``text`` spells ``secret`` as a bytes literal or in hex."""
    return repr(secret)[2:-1] in text or secret.hex() in text


class TestKeyMaterialStaysOutOfRepr:
    """Key bytes must not leak through ``repr`` — into logs, tracebacks
    or debugger output."""

    def test_channel_hides_pulled_pool_bytes(self):
        from repro.service.config import ServiceConfig

        channel = AuthenticatedChannel.from_bootstrap(
            ServiceConfig().pair_pool("a", "b")
        )
        channel.authenticate(b"first frame")
        buffered = bytes(channel.pool._buffer)
        assert buffered  # pulled from the stream, not yet used
        future_keys = [
            buffered[i : i + MAC_KEY_BYTES]
            for i in range(0, len(buffered), MAC_KEY_BYTES)
        ]
        for shown in (repr(channel), repr(channel.pool)):
            assert not any(_shows(shown, key) for key in future_keys)

    def test_raw_pool_hides_buffer(self):
        from repro.core.secret import SecretPool

        secret = bytes(range(40, 72))
        assert not _shows(repr(SecretPool(bytearray(secret))), secret)

    def test_mac_hides_key(self):
        key = bytes(range(0x41, 0x41 + MAC_KEY_BYTES))
        assert not _shows(repr(OneTimeMac(key)), key)

    def test_derived_keys_hide_material_and_confirm_root(self):
        from repro.service.derive import DerivedKeys

        material = bytes(range(0x61, 0x71))
        confirm_root = bytes(range(0x30, 0x50))
        shown = repr(DerivedKeys(material=material, confirm_root=confirm_root))
        assert not _shows(shown, material)
        assert not _shows(shown, confirm_root)
