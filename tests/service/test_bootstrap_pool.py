"""The lazily expanded bootstrap pool: same bytes as the eager HKDF
expansion, pulled one 32-byte block at a time."""

import hashlib

import pytest

from repro.core.secret import SecretPool
from repro.service import ServiceConfig
from repro.service.derive import hkdf_expand, hkdf_extract, hkdf_stream

PRK = hkdf_extract(b"salt", b"input keying material")


def counting(blocks, pulled):
    for block in blocks:
        pulled.append(block)
        yield block


class TestStreamedPool:
    @pytest.mark.parametrize("n", [8, 4096, 4100, 8160])
    def test_consume_sequence_matches_eager_expand(self, n):
        pool = SecretPool.streamed(hkdf_stream(PRK, b"bootstrap-pool", n), n)
        assert pool.available_bytes == n
        chunks = []
        while pool.available_bytes >= 8:
            chunks.append(pool.consume(8))
        chunks.append(pool.consume(pool.available_bytes))
        assert b"".join(chunks) == hkdf_expand(PRK, b"bootstrap-pool", n)
        assert pool.consumed_bytes == n
        with pytest.raises(LookupError):
            pool.consume(1)

    def test_blocks_are_pulled_only_when_consumed(self):
        pulled = []
        pool = SecretPool.streamed(
            counting(hkdf_stream(PRK, b"bootstrap-pool", 4096), pulled), 4096
        )
        assert pulled == []
        pool.consume(8)
        assert len(pulled) == 1
        for _ in range(3):
            pool.consume(8)
        assert len(pulled) == 1
        pool.consume(8)
        assert len(pulled) == 2
        assert pool.available_bytes == 4096 - 40

    def test_deposit_queues_behind_the_stream(self):
        pool = SecretPool.streamed(hkdf_stream(PRK, b"p", 40), 40)
        head = pool.consume(8)
        pool.deposit_raw(b"fresh")
        assert head + pool.consume(37) == hkdf_expand(PRK, b"p", 40) + b"fresh"

    def test_pair_pool_is_the_documented_expansion(self):
        config = ServiceConfig()
        pool = config.pair_pool("alice", "bob")
        salt = hashlib.sha256(b"thin-air/pair-pool|alice|bob").digest()
        prk = hkdf_extract(salt, config.bootstrap)
        expected = hkdf_expand(prk, b"bootstrap-pool", config.pool_bytes_per_peer)
        assert pool.consume(pool.available_bytes) == expected

    @pytest.mark.parametrize("length", [-1, 255 * 32 + 1])
    def test_stream_checks_length_before_any_block(self, length):
        with pytest.raises(ValueError):
            hkdf_stream(PRK, b"p", length)
