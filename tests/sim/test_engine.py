"""Batched engine unit behaviour: determinism, budgets, accounting."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.sim.engine import BatchedRoundEngine, _subset_sums, _superset_sums, run_batch
from repro.sim.spec import (
    AdversarySpec,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
)
from repro.theory import group_efficiency


def scenario(**overrides):
    defaults = dict(
        n_terminals=3,
        loss=IIDLossSpec(0.5),
        n_x_packets=120,
        rounds=400,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestLatticeTransforms:
    def test_superset_sums_small(self):
        # r = 2 receivers: patterns {}, {0}, {1}, {0,1} with counts 1..4.
        table = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = _superset_sums(table)
        assert out[0, 0b00] == 10.0  # every pattern is a superset of {}
        assert out[0, 0b01] == 2.0 + 4.0
        assert out[0, 0b10] == 3.0 + 4.0
        assert out[0, 0b11] == 4.0

    def test_subset_sums_small(self):
        table = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = _subset_sums(table)
        assert out[0, 0b00] == 1.0
        assert out[0, 0b01] == 3.0
        assert out[0, 0b10] == 4.0
        assert out[0, 0b11] == 10.0

    def test_transforms_are_inverse_shapes(self):
        rng = np.random.default_rng(0)
        table = rng.random((5, 16))
        assert _superset_sums(table).shape == table.shape
        assert _subset_sums(table).shape == table.shape


class TestDeterminism:
    def test_same_seed_same_batch(self):
        a = run_batch(scenario(), seed=42)
        b = run_batch(scenario(), seed=42)
        assert np.array_equal(a.secret_packets, b.secret_packets)
        assert np.array_equal(a.efficiency, b.efficiency)
        assert np.array_equal(a.reliability, b.reliability)
        assert np.array_equal(a.eve_missed, b.eve_missed)

    def test_different_seed_differs(self):
        a = run_batch(scenario(), seed=42)
        b = run_batch(scenario(), seed=43)
        assert not np.array_equal(a.secret_packets, b.secret_packets)

    def test_shared_generator_advances(self):
        rng = np.random.default_rng(7)
        engine = BatchedRoundEngine(scenario(), rng=rng)
        a = engine.run(100)
        b = engine.run(100)
        assert not np.array_equal(a.secret_packets, b.secret_packets)


class TestOracleAccounting:
    def test_reliability_is_perfect(self):
        result = run_batch(scenario(rounds=500), seed=1)
        assert result.min_reliability == 1.0

    @pytest.mark.parametrize("n,p", [(3, 0.5), (4, 0.3), (6, 0.5)])
    def test_efficiency_tracks_theory_from_below(self, n, p):
        result = run_batch(
            scenario(n_terminals=n, loss=IIDLossSpec(p), n_x_packets=200, rounds=800),
            seed=2,
        )
        optimum = group_efficiency(n, p)
        assert result.mean_efficiency <= optimum + 0.01
        # The Figure-1 LP is a fractional bound; a realised integral
        # allocation cannot reach it (at n = 6, p = 0.5 the per-packet
        # session itself achieves ~0.72x).  The old 0.75x floor only
        # held while the engine clamped the fractional plan — the
        # optimism bug the realised planner removed.
        assert result.mean_efficiency >= 0.65 * optimum

    def test_degenerate_channels_produce_no_secret(self):
        lossless = run_batch(scenario(loss=IIDLossSpec(0.0), rounds=50), seed=3)
        assert np.all(lossless.secret_packets == 0)
        assert np.all(lossless.reliability == 1.0)  # nothing to leak
        dead = run_batch(scenario(loss=IIDLossSpec(1.0), rounds=50), seed=3)
        assert np.all(dead.secret_packets == 0)

    def test_two_terminal_group(self):
        result = run_batch(scenario(n_terminals=2, rounds=300), seed=4)
        assert result.mean_efficiency == pytest.approx(0.25, abs=0.04)
        assert result.min_reliability == 1.0


class TestEstimatorBudgets:
    def test_fixed_fraction_caps_secret(self):
        conservative = run_batch(
            scenario(estimator=FixedFractionEstimatorSpec(0.1), rounds=300), seed=5
        )
        oracle = run_batch(scenario(rounds=300), seed=5)
        assert conservative.secret_packets.mean() <= oracle.secret_packets.mean()

    def test_leave_one_out_without_candidates_certifies_nothing(self):
        # n = 2: the only receiver is inside every decodable subset, so
        # no pretend-Eve evidence exists and the secret must be empty.
        result = run_batch(
            scenario(
                n_terminals=2,
                estimator=LeaveOneOutEstimatorSpec(),
                rounds=100,
            ),
            seed=6,
        )
        assert np.all(result.secret_packets == 0)
        assert np.all(result.reliability == 1.0)

    def test_margin_is_more_conservative(self):
        loose = run_batch(
            scenario(
                n_terminals=5, estimator=LeaveOneOutEstimatorSpec(0.0), rounds=300
            ),
            seed=7,
        )
        tight = run_batch(
            scenario(
                n_terminals=5, estimator=LeaveOneOutEstimatorSpec(0.15), rounds=300
            ),
            seed=7,
        )
        assert tight.secret_packets.mean() <= loose.secret_packets.mean()
        assert tight.mean_reliability >= loose.mean_reliability - 1e-9

    def test_collusion_k1_matches_leave_one_out(self):
        sc_loo = scenario(
            n_terminals=4, estimator=LeaveOneOutEstimatorSpec(0.0), rounds=200
        )
        sc_col = scenario(
            n_terminals=4, estimator=CollusionEstimatorSpec(k=1), rounds=200
        )
        a = run_batch(sc_loo, seed=8)
        b = run_batch(sc_col, seed=8)
        assert np.allclose(a.secret_packets, b.secret_packets)
        assert np.allclose(a.reliability, b.reliability)

    def test_collusion_more_antennas_less_secret(self):
        k1 = run_batch(
            scenario(n_terminals=6, estimator=CollusionEstimatorSpec(k=1), rounds=200),
            seed=9,
        )
        k2 = run_batch(
            scenario(n_terminals=6, estimator=CollusionEstimatorSpec(k=2), rounds=200),
            seed=9,
        )
        assert k2.secret_packets.mean() <= k1.secret_packets.mean() + 1e-9

    def test_combined_takes_minimum(self):
        base = scenario(n_terminals=4, rounds=200)
        fixed = run_batch(
            scenario(
                n_terminals=4,
                estimator=FixedFractionEstimatorSpec(0.05),
                rounds=200,
            ),
            seed=10,
        )
        combined = run_batch(
            scenario(
                n_terminals=4,
                estimator=CombinedEstimatorSpec(
                    children=(
                        OracleEstimatorSpec(),
                        FixedFractionEstimatorSpec(0.05),
                    )
                ),
                rounds=200,
            ),
            seed=10,
        )
        oracle = run_batch(base, seed=10)
        assert combined.secret_packets.mean() <= oracle.secret_packets.mean() + 1e-9
        assert combined.secret_packets.mean() <= fixed.secret_packets.mean() + 1e-9

    def test_max_subset_size_caps_allocation_levels(self):
        # Mirrors SessionConfig.max_subset_size: pair-wise-only planning
        # (cap 1) still produces a secret but is strictly less efficient
        # than unrestricted group planning.
        uncapped = run_batch(scenario(n_terminals=5, rounds=300), seed=21)
        capped = run_batch(
            scenario(n_terminals=5, rounds=300, max_subset_size=1), seed=21
        )
        assert capped.secret_packets.mean() > 0
        assert capped.mean_efficiency < uncapped.mean_efficiency

    def test_overpromising_estimator_degrades_reliability(self):
        # An adversary much better positioned than the terminals makes
        # the leave-one-out evidence optimistic — reliability must drop.
        result = run_batch(
            scenario(
                n_terminals=4,
                loss=IIDLossSpec(0.5),
                adversary=AdversarySpec(loss=0.05),
                estimator=LeaveOneOutEstimatorSpec(0.0),
                rounds=400,
            ),
            seed=11,
        )
        assert result.mean_reliability < 0.7

    def test_secrecy_slack_absorbs_overpromise(self):
        kwargs = dict(
            n_terminals=4,
            loss=IIDLossSpec(0.5),
            adversary=AdversarySpec(loss=0.3),
            estimator=LeaveOneOutEstimatorSpec(0.0),
            rounds=400,
        )
        no_slack = run_batch(scenario(**kwargs), seed=12)
        slack = run_batch(scenario(secrecy_slack=2, **kwargs), seed=12)
        assert slack.mean_reliability >= no_slack.mean_reliability - 1e-9
        assert slack.secret_packets.mean() <= no_slack.secret_packets.mean()


class TestResultViews:
    def test_secret_bits_and_int_floor(self):
        result = run_batch(scenario(rounds=50, payload_bytes=10), seed=13)
        assert np.all(result.secret_packets_int <= result.secret_packets + 1e-9)
        assert result.secret_bits == int(result.secret_packets_int.sum()) * 80

    def test_shape_mismatch_rejected(self):
        engine = BatchedRoundEngine(scenario(), seed=0)
        other = scenario(n_terminals=5)
        from repro.sim.reception import sample_receptions

        batch = sample_receptions(other, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            engine.account(batch)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedRoundEngine(scenario(), seed=0).run(0)
        with pytest.raises(ValueError):
            BatchedRoundEngine(
                Scenario(n_terminals=20, loss=IIDLossSpec(0.5)), seed=0
            )


RESULT_FIELDS = (
    "secret_packets",
    "public_packets",
    "total_rows",
    "efficiency",
    "reliability",
    "eve_missed",
    "terminal_receptions",
    "delivery_rates",
    "hidden_dims",
    "eve_equations",
)

REPLAY_ESTIMATORS = (
    OracleEstimatorSpec(),
    FixedFractionEstimatorSpec(fraction=0.6),
    LeaveOneOutEstimatorSpec(rate_margin=0.05),
    CollusionEstimatorSpec(k=2),
    CombinedEstimatorSpec(
        children=(
            FixedFractionEstimatorSpec(fraction=0.5),
            LeaveOneOutEstimatorSpec(rate_margin=0.05),
        )
    ),
)


def _replay_cells(n):
    """Every loss law, Eve strength, estimator, slack and subset cap of
    one group size (80 cells)."""
    axes = itertools.product(
        (IIDLossSpec(0.4), GilbertElliottLossSpec(0.1, 0.4, 0.8)),
        (1, 3),
        REPLAY_ESTIMATORS,
        (0, 1),
        (None, 2),
    )
    for loss, antennas, estimator, slack, cap in axes:
        yield Scenario(
            n_terminals=n,
            loss=loss,
            adversary=AdversarySpec(antennas=antennas),
            estimator=estimator,
            rounds=12,
            n_x_packets=48,
            secrecy_slack=slack,
            max_subset_size=cap,
        )


def _results_digest(results):
    h = hashlib.sha256()
    for result in results:
        for name in RESULT_FIELDS:
            array = np.ascontiguousarray(getattr(result, name))
            h.update(name.encode())
            h.update(array.dtype.str.encode())
            h.update(repr(array.shape).encode())
            h.update(array.tobytes())
    return h.hexdigest()


# Recorded from the numpy-array accounting path the engine ran before
# it shared the stacked path's scalar kernel; any change to any array
# of any cell (a row, a draw, an ulp of a rate) changes these digests.
REPLAY_DIGESTS = {
    3: "1b9cf84e83b16b60bf3ece73bc7d8f5290f56dd3c200c121faa9b73dc6fea7c5",
    4: "096bb342aa5c1a2236b62e8d2dbbbb3c0886f824f946895995b35d2c1f51a901",
    5: "57894acee38831906e9ee7e1f3b3c44b774e72612204226b88977a4a108a7635",
    6: "2366af4d4801f72945343a9bbef0fad222fbc78777c94509a9500798e21427b6",
}


class TestExactReplay:
    @pytest.mark.parametrize("n", sorted(REPLAY_DIGESTS))
    def test_batch_results_unchanged(self, n):
        results = [
            BatchedRoundEngine(cell, seed=index).run()
            for index, cell in enumerate(_replay_cells(n))
        ]
        assert _results_digest(results) == REPLAY_DIGESTS[n]
