"""An in-process transport that runs the wire codec on every frame.

``repro.service.MemoryTransport`` passes ``Frame`` objects, so a load
run over it never encodes or decodes a frame.  :class:`CodecMemoryTransport`
puts the codec back in the loop: ``send`` calls ``encode_frame`` and
queues the bytes, ``recv`` feeds them through a ``FrameDecoder`` — the
same stages a TCP peer runs — while every party stays on one asyncio
loop and no link or loopback interface is crossed.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Tuple

from repro.service.config import ServiceConfig
from repro.service.derive import DerivedKeys
from repro.service.errors import TransportClosed
from repro.service.frames import MAX_FRAME_BYTES, Frame, FrameDecoder, encode_frame
from repro.service.peer import run_follower, run_leader
from repro.service.transport import FrameTransport

__all__ = ["CodecMemoryTransport", "run_codec_group"]

#: End-of-stream marker on a queue (frames are never empty on the wire).
_EOF = b""


class CodecMemoryTransport(FrameTransport):
    """One endpoint of a connected in-process byte pipe."""

    def __init__(
        self,
        inbox: asyncio.Queue,
        outbox: asyncio.Queue,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._max_frame_bytes = max_frame_bytes
        self._decoder = FrameDecoder(max_frame_bytes)
        self._pending: Deque[Frame] = deque()
        self._closed = False
        self._peer_closed = False

    @classmethod
    def pair(
        cls, max_frame_bytes: int = MAX_FRAME_BYTES
    ) -> Tuple["CodecMemoryTransport", "CodecMemoryTransport"]:
        ab: asyncio.Queue = asyncio.Queue()
        ba: asyncio.Queue = asyncio.Queue()
        return (
            cls(inbox=ba, outbox=ab, max_frame_bytes=max_frame_bytes),
            cls(inbox=ab, outbox=ba, max_frame_bytes=max_frame_bytes),
        )

    async def send(self, frame: Frame) -> None:
        if self._closed:
            raise TransportClosed("send on a closed codec transport")
        await self._outbox.put(encode_frame(frame, self._max_frame_bytes))

    async def recv(self) -> Frame:
        while not self._pending:
            if self._closed or self._peer_closed:
                raise TransportClosed("recv on a closed codec transport")
            data = await self._inbox.get()
            if data == _EOF:
                self._peer_closed = True
                self._decoder.eof()  # raises FrameTruncated on a torn frame
                raise TransportClosed("peer closed the codec transport")
            self._pending.extend(self._decoder.feed(data))
        return self._pending.popleft()

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self._outbox.put(_EOF)


async def run_codec_group(
    config: ServiceConfig,
    leader: str,
    followers: Tuple[str, ...],
    nonce: int,
) -> Dict[str, DerivedKeys]:
    """One full session over codec transports; every party's keys by
    name.  A failure propagates as the typed ``ServiceError`` that
    ``run_leader``/``run_follower`` raise, after the abort protocol ran."""
    leader_ends: Dict[str, FrameTransport] = {}
    follower_ends: Dict[str, FrameTransport] = {}
    for follower in followers:
        leader_ends[follower], follower_ends[follower] = CodecMemoryTransport.pair(
            config.max_frame_bytes
        )
    try:
        results = await asyncio.gather(
            run_leader(config, leader, leader_ends, nonce),
            *(
                run_follower(config, name, leader, follower_ends[name])
                for name in followers
            ),
        )
    finally:
        for transport in (*leader_ends.values(), *follower_ends.values()):
            await transport.aclose()
    return {leader: results[0], **dict(zip(followers, results[1:]))}
