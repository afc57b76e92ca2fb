"""``service_open``: live key-agreement sessions arriving in an open loop.

Sessions arrive on a seeded schedule at fixed offered rates, whatever
the service's progress — independent users, not callers that wait for
each other: one arrival at a uniformly random point of each ``1/rate``
slot, so the offered rate is exact.  Each handshake is timed from the
moment its session was *due*, so a stall charges every session queued
behind it.  Sessions are a seeded mix of 2- and 3-party groups drawn
from a fixed population of peer names; each gets its own ``loss_seed``
and ``payload_seed``, so no two sessions replay the same erasure traces.
Every party runs on one asyncio loop over :class:`CodecMemoryTransport`,
which encodes and decodes each frame; no link or loopback interface is
crossed.

An untraced run makes ``ROUNDS`` rounds of a ``light`` chunk and a
``heavy`` chunk, near a quarter and two thirds of capacity, so the
host's drift is spread over both.  ``latency_p50_ms`` is the handshake
p50 over all light chunks.  ``throughput_per_s`` is the median over the
heavy chunks of sessions per second the event loop was busy: the
service's capacity, which scales with host speed the way the work does.
Last, one search of the SLO ladder — fixed offered rates 6% apart —
finds the highest rung where the handshake p90 stays within
``SLO_P90_MS``, every session establishes and completions keep pace
with arrivals; it is printed as ``sessions_per_s_at_slo``.

A traced run plays the light and heavy schedules twice, untraced and
then traced, and reports per-layer time plus the tracing overhead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import golden
from perfbench.codec_transport import run_codec_group
from perfbench.common import (
    Checks,
    RunResult,
    derived_seed,
    peak_rss_mb,
    timed_median,
)
from perfbench.layers import count_hook, layer_hooks, layer_metrics
from perfbench.trace import Tracer, current_item
from repro.service.config import ServiceConfig
from repro.service.errors import ServiceError
from repro.service.peer import nearest_rank_ms
from repro.service.reference import reference_keys

import perfbench.codec_transport as codec_transport

#: Peer population sessions draw their groups from.
PEERS = tuple(f"peer{i:02d}" for i in range(8))
#: Share of each phase's sessions with two followers.  The service is
#: run for groups of more than two, so 3-party groups dominate; the
#: 2-party third keeps the pairwise path measured.  The 2:1 weighting
#: itself is an assumption, not taken from a traffic measurement.
THREE_PARTY_SHARE = 2.0 / 3.0
#: The latency limit of the SLO, on the handshake p90.
SLO_P90_MS = 100.0
#: Completions keep pace when the arrivals' span is at least this share
#: of the span from the first due time to the last completion.
PACE_RATIO = 0.9
#: The SLO ladder: fixed offered rates (sessions/s), 6% apart, from 8/s
#: to about 800/s, so the search is never capped by the ladder's top.
LADDER = tuple(round(8.0 * 1.06**k, 2) for k in range(80))
#: LIGHT and HEAVY sit near a quarter and two thirds of capacity on the
#: reference host (2 cores); HEAVY is the rung the SLO search starts at.
LIGHT_RATE = 10.0
HEAVY_INDEX = 20
HEAVY_RATE = LADDER[HEAVY_INDEX]
#: Rungs skipped per step while the search brackets the SLO limit.
COARSE_STEP = 4
#: Light and heavy chunks per run.
ROUNDS = 5
#: Shares of ``--seconds`` given to the light and heavy chunks; the SLO
#: search takes what it needs after them.
LIGHT_SHARE = 0.4
HEAVY_SHARE = 0.3
#: Sessions per SLO probe: fewer leave no p90 with ten samples beyond.
PROBE_SESSIONS = 100
#: Sessions checked against the simulator reference per run.
REFERENCE_SAMPLE = 6
SETUP_REPEATS = 3

# -- percentiles -------------------------------------------------------------

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_SAMPLES_BEYOND = 10

#: Percentiles considered for "the highest supported tail", high first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q / 100.0 * n))


def highest_supported_percentile(
    n: int, candidates: Sequence[float] = TAIL_CANDIDATES
) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it (None if none)."""
    for q in candidates:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def describe_tail(values: Sequence[float], unit: str) -> str:
    """``p50=... pQ=... (n=...)`` with Q the highest supported tail."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return "n=0"
    q = highest_supported_percentile(n)
    text = f"p50={nearest_rank_ms(ordered, 50):.4g} {unit}"
    if q is not None and q > 50:
        text += f" p{q:g}={nearest_rank_ms(ordered, q):.4g} {unit}"
    return text + f" (n={n})"


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    nonce: int
    leader: str
    followers: Tuple[str, ...]
    config: ServiceConfig


@dataclasses.dataclass
class PhaseResult:
    label: str
    rate: float
    sessions: int
    latencies_ms: List[float]
    failures: Dict[str, int]
    lags_ms: List[float]
    arrival_span_s: float
    completion_span_s: float
    busy_s: float
    wall_s: float
    key_bytes: List[int]
    materials: Dict[int, bytes]

    @property
    def established(self) -> int:
        return len(self.latencies_ms)

    @property
    def p90_ms(self) -> float:
        return nearest_rank_ms(sorted(self.latencies_ms), 90) if self.latencies_ms else math.inf

    @property
    def keeps_pace(self) -> bool:
        return self.arrival_span_s >= PACE_RATIO * self.completion_span_s

    @property
    def meets_slo(self) -> bool:
        return (
            self.established == self.sessions
            and self.p90_ms <= SLO_P90_MS
            and self.keeps_pace
        )

    @property
    def sessions_per_busy_s(self) -> float:
        return self.established / self.busy_s

    def describe(self) -> str:
        return (
            f"{self.label} @ {self.rate:g}/s: {describe_tail(self.latencies_ms, 'ms')}"
            f" established {self.established}/{self.sessions},"
            f" pace {self.arrival_span_s / max(self.completion_span_s, 1e-9):.3f},"
            f" loop busy {self.busy_s / max(self.wall_s, 1e-9):.2f}"
            f" ({self.sessions_per_busy_s:.1f} sessions/busy-s),"
            f" gen lag p90 {nearest_rank_ms(sorted(self.lags_ms), 90):.2f} ms"
        )


def make_sessions(seed: int, phase: int, count: int, first_nonce: int) -> List[SessionSpec]:
    """``count`` seeded sessions with their own traces and payloads.

    Every phase holds the same share of 3-party groups, in seeded
    order, so the mix does not vary from run to run."""
    rng = np.random.default_rng(derived_seed(seed, 1, phase))
    base = ServiceConfig()
    sizes = np.full(count, 2)
    sizes[: int(round(count * THREE_PARTY_SHARE))] = 3
    rng.shuffle(sizes)
    specs = []
    for index, size in enumerate(sizes):
        names = [PEERS[i] for i in rng.choice(len(PEERS), size=size, replace=False)]
        loss_seed, payload_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        specs.append(
            SessionSpec(
                nonce=first_nonce + index,
                leader=names[0],
                followers=tuple(names[1:]),
                config=dataclasses.replace(
                    base, loss_seed=loss_seed, payload_seed=payload_seed
                ),
            )
        )
    return specs


def arrival_offsets(seed: int, phase: int, rate: float, count: int) -> np.ndarray:
    """Seeded arrival times (seconds after the phase starts): one
    arrival at a uniformly random point of each ``1/rate`` slot, so the
    offered rate is exact and bursts stay short."""
    rng = np.random.default_rng(derived_seed(seed, 2, phase))
    return (np.arange(count) + rng.random(count)) / rate


class LoopClock:
    """Idle time of one event loop: time spent blocked in its selector."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        selector = loop._selector  # type: ignore[attr-defined]
        self._selector = selector
        self._select = selector.select
        self.idle_s = 0.0

        def select(timeout=None):
            start = time.perf_counter()
            try:
                return self._select(timeout)
            finally:
                self.idle_s += time.perf_counter() - start

        selector.select = select

    def close(self) -> None:
        del self._selector.select


async def _session(spec: SessionSpec, due: float):
    """One session; ``(nonce, due, done, error, material)``."""
    current_item.set(spec.nonce)
    try:
        keys = await run_codec_group(spec.config, spec.leader, spec.followers, spec.nonce)
    except ServiceError as exc:
        return spec.nonce, due, time.perf_counter(), type(exc).__name__, None
    done = time.perf_counter()
    if len({k.material for k in keys.values()}) != 1:
        return spec.nonce, due, done, "KeyMismatch", None
    return spec.nonce, due, done, None, keys[spec.leader].material


async def run_phase(
    label: str,
    specs: Sequence[SessionSpec],
    offsets: np.ndarray,
    rate: float,
    clock: LoopClock,
    tracer: Optional[Tracer] = None,
) -> PhaseResult:
    """Start each session at its due time and wait for all of them."""
    idle_before = clock.idle_s
    entered = time.perf_counter()
    start = entered + 0.002
    tasks = []
    lags = []
    for spec, offset in zip(specs, offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append((time.perf_counter() - due) * 1e3)
        tasks.append(asyncio.ensure_future(_session(spec, due)))
    results = await asyncio.gather(*tasks)
    end = time.perf_counter()
    if tracer is not None:
        tracer.record("harness.phase", start, end, label)
    latencies = []
    failures: Dict[str, int] = {}
    materials = {}
    for nonce, due, done, error, material in results:
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
        else:
            latencies.append((done - due) * 1e3)
            materials[nonce] = material
    first_due = results[0][1]
    last_done = max(done for _, _, done, _, _ in results)
    return PhaseResult(
        label=label,
        rate=rate,
        sessions=len(specs),
        latencies_ms=latencies,
        failures=failures,
        lags_ms=lags,
        arrival_span_s=float(offsets[-1] - offsets[0]),
        completion_span_s=last_done - first_due,
        busy_s=(end - entered) - (clock.idle_s - idle_before),
        wall_s=end - entered,
        key_bytes=[len(m) for m in materials.values()],
        materials=materials,
    )


class Generator:
    """Hands out sessions and schedules for successive phases."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.phase = 0
        self.nonce = 0
        self.specs: Dict[int, SessionSpec] = {}

    def phase_inputs(self, rate: float, count: int):
        self.phase += 1
        specs = make_sessions(self.seed, self.phase, count, self.nonce)
        self.nonce += count
        self.specs.update((s.nonce, s) for s in specs)
        return specs, arrival_offsets(self.seed, self.phase, rate, count)


async def _slo_search(
    gen: Generator, clock: LoopClock, report: List[str], probes: List[PhaseResult]
) -> float:
    """Bracket the SLO limit from the heavy rung in steps of
    ``COARSE_STEP`` rungs, then bisect down to adjacent rungs.  Appends
    each probe to ``probes``; returns the highest passing rate (0 if
    even the lowest rung fails)."""

    async def passes(index: int) -> bool:
        rate = LADDER[index]
        specs, offsets = gen.phase_inputs(rate, PROBE_SESSIONS)
        probe = await run_phase(f"rung {rate:g}", specs, offsets, rate, clock)
        probes.append(probe)
        report.append("  " + probe.describe())
        return probe.meets_slo

    lo: Optional[int] = None  # highest rung known to pass
    hi: Optional[int] = None  # lowest rung known to fail
    index = HEAVY_INDEX
    while lo is None or hi is None:
        if await passes(index):
            lo = index
            if index == len(LADDER) - 1:
                break
            index = min(index + COARSE_STEP, len(LADDER) - 1)
        else:
            hi = index
            if index == 0:
                break
            index = max(index - COARSE_STEP, 0)
    while lo is not None and hi is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        if await passes(mid):
            lo = mid
        else:
            hi = mid
    return 0.0 if lo is None else LADDER[lo]


async def _measure(gen: Generator, seconds: float, clock: LoopClock, report: List[str]):
    """``ROUNDS`` rounds of a light then a heavy chunk, then the SLO
    search; returns the light chunks, the heavy chunks, the probes and
    the SLO rate."""
    light_count = int(round(LIGHT_RATE * seconds * LIGHT_SHARE / ROUNDS))
    heavy_count = int(round(HEAVY_RATE * seconds * HEAVY_SHARE / ROUNDS))
    lights: List[PhaseResult] = []
    heavies: List[PhaseResult] = []
    for _ in range(ROUNDS):
        for label, rate, count, into in (
            ("light", LIGHT_RATE, light_count, lights),
            ("heavy", HEAVY_RATE, heavy_count, heavies),
        ):
            specs, offsets = gen.phase_inputs(rate, count)
            into.append(await run_phase(label, specs, offsets, rate, clock))
            report.append("  " + into[-1].describe())
    probes: List[PhaseResult] = []
    slo = await _slo_search(gen, clock, report, probes)
    return lights, heavies, probes, slo


def _reference_check(checks: Checks, seed: int, phases: Sequence[PhaseResult], specs_by_nonce) -> None:
    """Compare a seeded sample of established sessions with the
    simulator's reference keys (outside every timed region)."""
    nonces = sorted(n for phase in phases for n in phase.materials)
    rng = np.random.default_rng(derived_seed(seed, 3))
    sample = rng.choice(nonces, size=min(REFERENCE_SAMPLE, len(nonces)), replace=False)
    materials = {n: m for phase in phases for n, m in phase.materials.items()}
    for nonce in sorted(int(n) for n in sample):
        spec = specs_by_nonce[nonce]
        ref = reference_keys(spec.config, spec.leader, spec.followers, spec.nonce)
        checks.expect(
            ref.material == materials[nonce],
            f"session {nonce}: live key differs from reference_keys",
        )


def _golden_check(loop: asyncio.AbstractEventLoop, checks: Checks) -> None:
    """Fixed anchor sessions must derive the golden key fingerprints."""
    base = ServiceConfig()
    for (leader, followers, nonce, loss_seed, payload_seed), expected in zip(
        golden.SERVICE_ANCHORS, golden.SERVICE_FINGERPRINTS
    ):
        config = dataclasses.replace(base, loss_seed=loss_seed, payload_seed=payload_seed)
        keys = loop.run_until_complete(run_codec_group(config, leader, followers, nonce))
        checks.equal(
            f"anchor session {nonce} key fingerprint",
            keys[leader].fingerprint(),
            expected,
        )


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunResult:
    loops = []

    def setup():
        loop = asyncio.new_event_loop()
        loop.run_until_complete(asyncio.sleep(0))
        loops.append(loop)
        return loop

    setup_s, loop = timed_median(setup, SETUP_REPEATS)
    for stale in loops[:-1]:
        stale.close()
    gen = Generator(seed)
    checks = Checks()
    report: List[str] = []
    clock = LoopClock(loop)
    try:
        _golden_check(loop, checks)
        if trace:
            return _run_traced(loop, gen, seconds, clock, checks, report)
        lights, heavies, probes, slo = loop.run_until_complete(
            _measure(gen, seconds, clock, report)
        )
    finally:
        clock.close()
        loop.close()
    phases = [*lights, *heavies, *probes]
    _reference_check(checks, seed, phases, gen.specs)

    attempted = sum(p.sessions for p in phases)
    failed = sum(p.sessions - p.established for p in phases)
    checks.expect(failed == 0, f"{failed} of {attempted} sessions failed to establish")
    capacity = statistics.median(p.sessions_per_busy_s for p in heavies)
    light = sorted(lat for p in lights for lat in p.latencies_ms)
    heavy = sorted(lat for p in heavies for lat in p.latencies_ms)
    key_bytes = [b for p in phases for b in p.key_bytes]
    report += [
        f"sessions_per_busy_s = {capacity:.4f} 1/s (median of {len(heavies)} heavy chunks)",
        f"sessions_per_s_at_slo = {slo:.4f} 1/s (p90 <= {SLO_P90_MS:g} ms,"
        f" {len(probes)} probes of {PROBE_SESSIONS})",
        f"handshake_p50_ms.light = {nearest_rank_ms(light, 50):.4f} ms (n={len(light)})",
        f"handshake_p90_ms.light = {nearest_rank_ms(light, 90):.4f} ms (n={len(light)})",
        f"handshake_p50_ms.heavy = {nearest_rank_ms(heavy, 50):.4f} ms (n={len(heavy)})",
        f"handshake_p90_ms.heavy = {nearest_rank_ms(heavy, 90):.4f} ms (n={len(heavy)})",
        f"key_bytes_per_session = {statistics.fmean(key_bytes) if key_bytes else 0.0:.4f} bytes",
        f"failed_frac = {failed / attempted:.4f}",
    ]
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "throughput_per_s": (capacity, "1/s"),
        "latency_p50_ms": (nearest_rank_ms(light, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return RunResult(attempted, failed, metrics, checks, report)


def _run_traced(loop, gen, seconds, clock, checks, report) -> RunResult:
    """Light and heavy schedules, untraced then traced."""
    light = gen.phase_inputs(LIGHT_RATE, int(round(LIGHT_RATE * seconds * LIGHT_SHARE)))
    heavy = gen.phase_inputs(HEAVY_RATE, int(round(HEAVY_RATE * seconds * HEAVY_SHARE)))
    schedules = (("light", LIGHT_RATE, light), ("heavy", HEAVY_RATE, heavy))
    untraced = [
        loop.run_until_complete(run_phase(label, s[0], s[1], rate, clock))
        for label, rate, s in schedules
    ]
    tracer = Tracer()
    tracer.install(
        layer_hooks(
            extra=[
                (
                    codec_transport,
                    "encode_frame",
                    "service.frames.encode",
                    count_hook("service.frames.bytes", lambda a, k, r: len(r)),
                )
            ]
        )
    )
    try:
        traced = [
            loop.run_until_complete(run_phase(label, s[0], s[1], rate, clock, tracer))
            for label, rate, s in schedules
        ]
    finally:
        tracer.restore()
    for phase in (*untraced, *traced):
        report.append("  " + phase.describe())
    for before, after in zip(untraced, traced):
        checks.equal(f"{before.label} keys traced vs untraced", after.materials, before.materials)
    phases = untraced + traced
    attempted = sum(p.sessions for p in phases)
    failed = sum(p.sessions - p.established for p in phases)
    checks.expect(failed == 0, f"{failed} of {attempted} sessions failed to establish")
    wall = sum(p.wall_s for p in traced)
    busy = sum(p.busy_s for p in traced)
    base_busy = sum(p.busy_s for p in untraced)
    lags = sorted(lag for p in traced for lag in p.lags_ms)
    metrics = layer_metrics(
        tracer,
        wall_s=wall,
        busy_wall_s=busy,
        loop_busy_frac=busy / wall if wall > 0 else 0.0,
        gen_lag_p90_ms=nearest_rank_ms(lags, 90),
        overhead_frac=busy / base_busy - 1.0 if base_busy > 0 else 0.0,
    )
    return RunResult(attempted, failed, metrics, checks, report, tracer)
