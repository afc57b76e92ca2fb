"""Tests of the benchmark harness itself (not of the program it measures)."""

import asyncio
import os
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import golden, layers, wl_grid, wl_service
from perfbench.common import Checks, array_digest
from perfbench.wl_service import describe_tail, highest_supported_percentile, samples_beyond
from perfbench.trace import Span, Tracer, current_item, self_times, union_length

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- spans and self time ------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("outer")  # 0 .. 10
    clock.now = 1.0
    a = tracer.begin("a")  # 1 .. 4
    clock.now = 2.0
    leaf = tracer.begin("leaf")  # 2 .. 3
    clock.now = 3.0
    tracer.end(leaf)
    clock.now = 4.0
    tracer.end(a)
    clock.now = 6.0
    b = tracer.begin("b")  # 6 .. 7
    clock.now = 7.0
    tracer.end(b)
    clock.now = 10.0
    tracer.end(outer)

    spans = tracer.spans()
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert self_times(spans) == [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0]
    # Self times partition the root span exactly.
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_clips_children_and_merges_overlaps():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("x", 2.0, 6.0, 0, None),
        Span("y", 5.0, 12.0, 0, None),  # overlaps x and runs past the root
    ]
    assert self_times(spans)[0] == 2.0
    assert union_length([(0, 1), (0.5, 2), (3, 4), (4, 4)]) == 3.0


def test_spans_must_close_innermost_first():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_layer_metrics_count_outermost_calls_and_unattributed_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.record("harness.pass", 0.0, 10.0)
    gf = tracer.begin("gf")
    clock.now = 1.0
    nested = tracer.begin("gf")
    clock.now = 2.0
    tracer.end(nested)
    clock.now = 4.0
    tracer.end(gf)
    metrics = layers.layer_metrics(tracer, wall_s=10.0, busy_wall_s=10.0)
    assert metrics["gf.self_s"] == (4.0, "s")
    assert metrics["unattributed_s"] == (6.0, "s")
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER_METRICS}


# -- wrappers ------------------------------------------------------------------


def _snapshot(owners):
    return [(owner, dict(vars(owner))) for owner in owners]


def test_installing_and_removing_wrappers_leaves_attributes_identical():
    hooks = layers.layer_hooks(
        extra=[(wl_service.codec_transport, "encode_frame", "service.frames.encode", None)]
    )
    owners = list({id(h[0]): h[0] for h in hooks}.values())
    before = _snapshot(owners)
    tracer = Tracer()
    tracer.install(hooks)
    assert any(
        vars(owner).get(attr) is not before_vars.get(attr)
        for (owner, before_vars), (_, attr, *_rest) in zip(before, hooks)
    )
    tracer.restore()
    for owner, saved in before:
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        for name, value in saved.items():
            assert now[name] is value, (owner, name)


def test_wrapper_records_calls_counts_and_items():
    module = SimpleNamespace(work=lambda x: x * 2)
    tracer = Tracer()
    tracer.wrap(
        module,
        "work",
        "layer",
        on_result=layers.count_hook("layer.units", lambda a, k, r: r),
        item_of=lambda args, kwargs: f"item-{args[0]}",
    )
    assert module.work(3) == 6
    tracer.restore()
    assert module.work(4) == 8
    (span,) = tracer.spans()
    assert (span.name, span.item) == ("layer", "item-3")
    assert tracer.counts == {"layer.units": 6}
    assert current_item.get() is None


# -- percentiles -----------------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert highest_supported_percentile(9) is None
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(99) == 75.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(1000) == 99.0
    values = list(range(1, 101))
    assert describe_tail([float(v) for v in values], "ms") == "p50=50 ms p90=90 ms (n=100)"


# -- open loop -------------------------------------------------------------------


def test_open_loop_latency_runs_from_due_time(monkeypatch):
    """A session that blocks the loop delays the next one's start; the
    delay counts in the next session's latency."""

    async def fake_group(config, leader, followers, nonce):
        if nonce == 0:
            time.sleep(0.08)  # holds the loop, as a slow engine step would
        return {name: SimpleNamespace(material=b"key") for name in (leader, *followers)}

    monkeypatch.setattr(wl_service, "run_codec_group", fake_group)
    specs = wl_service.make_sessions(seed=1, phase=1, count=2, first_nonce=0)
    offsets = np.array([0.0, 0.01])
    loop = asyncio.new_event_loop()
    clock = wl_service.LoopClock(loop)
    try:
        result = loop.run_until_complete(
            wl_service.run_phase("test", specs, offsets, 100.0, clock)
        )
    finally:
        clock.close()
        loop.close()
    assert result.established == 2
    late = result.latencies_ms[1]
    assert late >= 60.0  # due at 10 ms, could only start after ~80 ms
    assert max(result.lags_ms) >= 60.0
    assert result.busy_s >= 0.08


def test_sessions_get_their_own_traces():
    specs = wl_service.make_sessions(seed=5, phase=1, count=50, first_nonce=0)
    assert len({s.config.loss_seed for s in specs}) == 50
    assert len({s.config.payload_seed for s in specs}) == 50
    assert {len(s.followers) for s in specs} == {1, 2}


def test_slo_search_finds_the_highest_passing_rung(monkeypatch):
    async def fake_phase(label, specs, offsets, rate, clock):
        p90 = 50.0 if rate <= 30.0 else 150.0
        n = len(specs)
        return wl_service.PhaseResult(
            label, rate, n, [p90] * n, {}, [0.0], 1.0, 1.0, 0.5, 1.0, [], {}
        )

    monkeypatch.setattr(wl_service, "run_phase", fake_phase)
    probes = []
    rate = asyncio.run(
        wl_service._slo_search(wl_service.Generator(1), None, [], probes)
    )
    assert rate == max(r for r in wl_service.LADDER if r <= 30.0)
    assert all(len(p.latencies_ms) == wl_service.PROBE_SESSIONS for p in probes)


def test_codec_transport_session_matches_reference_keys():
    from repro.service.config import ServiceConfig
    from repro.service.reference import reference_keys

    leader, followers, nonce, loss_seed, payload_seed = golden.SERVICE_ANCHORS[1]
    config = ServiceConfig(loss_seed=loss_seed, payload_seed=payload_seed)
    keys = asyncio.run(
        wl_service.run_codec_group(config, leader, followers, nonce)
    )
    expected = reference_keys(config, leader, followers, nonce)
    assert {k.material for k in keys.values()} == {expected.material}
    assert keys[leader].fingerprint() == golden.SERVICE_FINGERPRINTS[1]


# -- golden checks -----------------------------------------------------------------


def test_golden_digest_check_fails_on_a_perturbed_result():
    from repro.sim import CampaignRunner

    grid = wl_grid.anchor_grid()
    cells = grid.scenarios()[:1]
    result = CampaignRunner(seed=3).run(cells).outcomes[0].result
    digest = wl_grid.result_digest([result])

    checks = Checks()
    assert checks.equal("same", wl_grid.result_digest([result]), digest)
    result.secret_packets = result.secret_packets.copy()
    result.secret_packets[0] += 1.0
    assert not checks.equal("perturbed", wl_grid.result_digest([result]), digest)
    assert not checks.ok
    assert array_digest([np.zeros(3)]) != array_digest([np.zeros(4)])


def test_fig2_summary_comparison_rejects_a_perturbed_mean():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    from perfbench import wl_fig2

    view = {"3": [{"mean": 0.5, "minimum": 0.25}, 0.1, 0.12]}
    close = {"3": [{"mean": 0.5 + 1e-17, "minimum": 0.25}, 0.1, 0.12]}
    off = {"3": [{"mean": 0.5000001, "minimum": 0.25}, 0.1, 0.12]}
    assert wl_fig2.views_match(view, close)
    assert not wl_fig2.views_match(view, off)


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    import json

    from perfbench.common import END_TO_END_METRICS
    from perfbench.run import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == sorted(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        END_TO_END_METRICS
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER_METRICS
    )
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
