"""Realised per-round planning: the integral support flow + its memo.

The batched engine's honesty contract rests on two properties pinned
here: the transportation flow is a correct, deterministic integral
assignment (subset ``T`` draws only from pattern cells containing it,
supports disjoint, capacities respected), and identical observed-round
keys return the *identical* cached plan object.  The exact-replay corpus
below pins the solver's output bit for bit: campaigns are reproducible
only if every flow matrix and scale stays the same, not merely optimal.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from repro.coding.privacy import TransportNetwork, solve_transport_counts
from repro.theory import (
    clear_realised_flow_cache,
    realised_flow_cache_info,
    realised_support_flow,
)

# A 3-receiver round histogram: pattern bitmask -> packet count.
CELLS = ((0b001, 4), (0b011, 3), (0b101, 2), (0b111, 5))
DEMANDS = ((0b001, 6), (0b011, 4), (0b111, 3))


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_realised_flow_cache()
    yield
    clear_realised_flow_cache()


class TestSolveTransportCounts:
    def test_simple_max_flow_value(self):
        flow = solve_transport_counts(
            demands=[3, 2],
            capacities=[2, 2],
            allowed=[[True, True], [False, True]],
        )
        # Only demand 0 reaches supply 0, so a maximum flow (value 4)
        # must saturate both supplies and route 2 units through (0, 0);
        # how supply 1 splits between the demands is the solver's pick.
        assert flow.sum() == 4
        assert flow[0, 0] == 2
        assert flow[:, 1].sum() == 2

    def test_respects_capacities_and_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            j, k = rng.integers(1, 5, size=2)
            demands = rng.integers(0, 6, size=j)
            capacities = rng.integers(0, 6, size=k)
            allowed = rng.random((j, k)) < 0.6
            flow = solve_transport_counts(
                list(demands), list(capacities), allowed.tolist()
            )
            assert np.all(flow >= 0)
            assert np.all(flow.sum(axis=1) <= demands)
            assert np.all(flow.sum(axis=0) <= capacities)
            assert np.all(flow[~allowed] == 0)

    def test_deterministic_flow_matrix(self):
        # Not merely equally optimal: the same matrix, every time.
        args = ([2, 2, 2], [3, 3], [[True, True]] * 3)
        first = solve_transport_counts(*args)
        for _ in range(5):
            assert np.array_equal(solve_transport_counts(*args), first)

    def test_empty_inputs(self):
        assert solve_transport_counts([], [1], []).shape == (0, 1)
        assert solve_transport_counts([1], [], [[]]).shape == (1, 0)


class TestRealisedSupportFlow:
    def test_supports_disjoint_and_lattice_respecting(self):
        plan = realised_support_flow(CELLS, DEMANDS)
        counts = dict(CELLS)
        for k, cell in enumerate(plan.cells):
            assert plan.flow[:, k].sum() <= counts[cell]
        for j, subset in enumerate(plan.subsets):
            for k, cell in enumerate(plan.cells):
                if plan.flow[j, k]:
                    # Only patterns containing the subset may fund it.
                    assert subset & cell == subset

    def test_feasible_round_meets_demand_at_full_scale(self):
        plan = realised_support_flow(CELLS, DEMANDS)
        wanted = dict(DEMANDS)
        assert plan.scale == 1.0
        for j, subset in enumerate(plan.subsets):
            assert plan.assigned[j] == wanted[subset]

    def test_memo_returns_identical_object(self):
        """The acceptance contract: the same observed-pattern key must
        yield the very same plan object (``is``), not a re-solve."""
        first = realised_support_flow(CELLS, DEMANDS)
        again = realised_support_flow(CELLS, DEMANDS)
        assert again is first
        info = realised_flow_cache_info()
        assert info.misses == 1
        assert info.hits == 1
        # A different observed round is a different key.
        other = realised_support_flow(CELLS, ((0b001, 5),))
        assert other is not first
        assert realised_flow_cache_info().misses == 2

    def test_cached_flow_is_read_only(self):
        plan = realised_support_flow(CELLS, DEMANDS)
        with pytest.raises(ValueError):
            plan.flow[0, 0] = 99

    def test_infeasible_round_scales_down_without_starving(self):
        # Total demand 12 against 4 packets: the plain max flow would
        # meet the total by starving someone; the balanced scale-down
        # must leave every subset with its scaled share.
        plan = realised_support_flow(
            ((0b111, 4),), ((0b001, 4), (0b010, 4), (0b100, 4))
        )
        assert plan.scale < 1.0
        assert plan.flow.sum() <= 4
        scaled = [int(np.floor(plan.scale * 4)) for _ in plan.subsets]
        for j in range(len(plan.subsets)):
            assert plan.assigned[j] == scaled[j]

    def test_top_up_grants_leftover_capacity(self):
        key = (((0b111, 4),), ((0b001, 4), (0b010, 4), (0b100, 4)))
        plain = realised_support_flow(*key, top_up=False)
        topped = realised_support_flow(*key, top_up=True)
        # Oracle-certified rounds may consume the remainder; the scale
        # stays 1.0 because exact budgets bind instead of demand caps.
        assert topped.flow.sum() == 4
        assert topped.flow.sum() > plain.flow.sum()
        assert topped.scale == 1.0


def _random_transport(rng):
    """One transportation instance, empty sides included."""
    j, k = (int(x) for x in rng.integers(0, 7, size=2))
    demands = [int(x) for x in rng.integers(0, 10, size=j)]
    capacities = [int(x) for x in rng.integers(0, 10, size=k)]
    allowed = (rng.random((j, k)) < rng.uniform(0.2, 1.0)).tolist()
    return demands, capacities, allowed


def _lattice_round(rng, n):
    """A realised-round key on the n-terminal pattern lattice.

    The demand scale is drawn per round, so feasible and infeasible
    rounds are both common; some demands are zero.
    """
    masks = np.arange(1, 1 << n)
    n_cells = int(rng.integers(1, min(len(masks), 12) + 1))
    n_subsets = int(rng.integers(1, min(len(masks), 8) + 1))
    cells = sorted(int(p) for p in rng.choice(masks, size=n_cells, replace=False))
    subsets = sorted(int(t) for t in rng.choice(masks, size=n_subsets, replace=False))
    reach = rng.uniform(0.1, 1.2)
    cell_counts = tuple((p, int(rng.integers(1, 12))) for p in cells)
    subset_demands = tuple(
        (t, int(rng.integers(0, int(12 * reach) + 1))) for t in subsets
    )
    return cell_counts, subset_demands


def _transport_corpus():
    rng = np.random.default_rng(20121029)
    corpus = [_random_transport(rng) for _ in range(300)]
    for n in range(3, 7):
        for _ in range(50):
            cell_counts, subset_demands = _lattice_round(rng, n)
            corpus.append(
                (
                    [d for _, d in subset_demands],
                    [c for _, c in cell_counts],
                    [[t & p == t for p, _ in cell_counts] for t, _ in subset_demands],
                )
            )
    return corpus


def _realised_corpus():
    rng = np.random.default_rng(64)
    corpus = [
        ((), ((0b001, 3),)),
        (((0b011, 2),), ()),
        ((), ()),
        (((0b111, 4),), ((0b001, 0), (0b010, 0))),
    ]
    for n in range(3, 7):
        corpus.extend(_lattice_round(rng, n) for _ in range(100))
    return corpus


def _digest(matrices, scales=()):
    h = hashlib.sha256()
    for m in matrices:
        h.update(repr(m.shape).encode())
        h.update(np.ascontiguousarray(m, dtype="<i8").tobytes())
    for scale in scales:
        h.update(repr(float(scale)).encode())
    return h.hexdigest()


# Recorded from the reference solver; any change to a flow matrix or a
# scale, even to another optimal flow, changes these digests.
TRANSPORT_DIGEST = "e74d6d229a8d8efceb26301beef675b576262ae9c03d49463d19d61627e9d83d"
REALISED_DIGESTS = {
    False: "41c48ecefb839c0f420b19b28e09316eb34aa188bc4dca19598fe1c62d9cd40c",
    True: "e2999402ae6b0a179e26c17d24cee99406c4086d93da339d657b5d40ec5a5bbf",
}


class TestExactReplay:
    def test_transport_matrices_unchanged(self):
        flows = [solve_transport_counts(*args) for args in _transport_corpus()]
        assert _digest(flows) == TRANSPORT_DIGEST

    @pytest.mark.parametrize("top_up", [False, True])
    def test_realised_plans_unchanged(self, top_up):
        plans = [realised_support_flow(*key, top_up=top_up) for key in _realised_corpus()]
        if not top_up:
            # The corpus must exercise the scale search, not just full rounds.
            scaled = sum(plan.scale < 1.0 for plan in plans)
            assert 0.2 * len(plans) < scaled < 0.8 * len(plans)
        digest = _digest([p.flow for p in plans], [p.scale for p in plans])
        assert digest == REALISED_DIGESTS[top_up]


def _reference_max_flow_value(demands, capacities, allowed):
    """Max-flow value of the same network, solved by scipy."""
    j, k = len(demands), len(capacities)
    sink = j + k + 1
    arcs = [(0, 1 + a, demands[a]) for a in range(j)]
    arcs += [(1 + j + b, sink, capacities[b]) for b in range(k)]
    arcs += [
        (1 + a, 1 + j + b, demands[a])
        for a in range(j)
        for b in range(k)
        if allowed[a][b]
    ]
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    graph = csr_array(
        (np.array(caps, dtype=np.int32), (tails, heads)), shape=(sink + 1, sink + 1)
    )
    return int(maximum_flow(graph, 0, sink).flow_value)


@st.composite
def transport_instances(draw):
    j = draw(st.integers(0, 6))
    k = draw(st.integers(0, 6))
    demands = draw(st.lists(st.integers(0, 12), min_size=j, max_size=j))
    capacities = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    allowed = draw(
        st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=j, max_size=j)
    )
    return demands, capacities, allowed


class TestTransportProperties:
    @given(transport_instances())
    @settings(max_examples=200, deadline=None)
    def test_flow_is_feasible_and_maximum(self, instance):
        demands, capacities, allowed = instance
        flow = solve_transport_counts(demands, capacities, allowed)
        assert flow.shape == (len(demands), len(capacities))
        assert np.all(flow >= 0)
        assert np.all(flow.sum(axis=1) <= np.array(demands, dtype=np.int64))
        assert np.all(flow.sum(axis=0) <= np.array(capacities, dtype=np.int64))
        mask = np.array(allowed, dtype=bool).reshape(flow.shape)
        assert np.all(flow[~mask] == 0)
        assert flow.sum() == _reference_max_flow_value(demands, capacities, allowed)

    @given(transport_instances(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_reused_network_matches_one_shot_solves(self, instance, data):
        # The realised planner solves one network repeatedly; no solve
        # may leak residual state into the next.
        demands, capacities, allowed = instance
        network = TransportNetwork(allowed, len(capacities))
        for _ in range(3):
            d = [data.draw(st.integers(0, 12)) for _ in demands]
            c = [data.draw(st.integers(0, 12)) for _ in capacities]
            assert np.array_equal(
                network.solve(d, c), solve_transport_counts(d, c, allowed)
            )
