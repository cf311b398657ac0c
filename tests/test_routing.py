"""Allocation kernel tests: worked examples plus feasibility/fairness properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandshare.routing import fill_group, maxmin, proportional, spq


def column(demands):
    """One epoch's demands as an (n, 1) matrix."""
    return np.asarray(demands, dtype=float)[:, None]


def grants_of(matrix):
    return list(matrix[:, 0])


class TestFifo:
    def test_proportional_split(self):
        assert grants_of(proportional(column([10, 30]), 20)) == [5.0, 15.0]

    def test_under_capacity(self):
        assert grants_of(proportional(column([10, 5]), 100)) == [10.0, 5.0]

    def test_zero_demand(self):
        assert grants_of(proportional(column([0, 0]), 20)) == [0.0, 0.0]


class TestFq:
    def test_water_filling(self):
        grants = grants_of(maxmin(column([5, 20, 20]), 30))
        assert grants == pytest.approx([5, 12.5, 12.5])

    def test_equal_saturation(self):
        grants = grants_of(maxmin(column([40, 40, 40]), 30))
        assert grants == pytest.approx([10, 10, 10])

    def test_under_capacity(self):
        assert grants_of(maxmin(column([1, 2, 3]), 30)) == [1.0, 2.0, 3.0]

    def test_matches_sorted_progressive_filling(self):
        # Independent max-min construction, one column at a time: fill in
        # ascending-demand order, each buyer getting min(demand, remaining /
        # buyers left).  Columns carry their own capacities.
        rng = np.random.default_rng(1)
        for _ in range(200):
            n, T = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            demand = rng.uniform(0, 20, size=(n, T))
            c = rng.uniform(0, 40, size=T)
            grants = maxmin(demand, c)
            for t in range(T):
                remaining = c[t]
                for k, i in enumerate(np.argsort(demand[:, t])):
                    g = min(demand[i, t], remaining / (n - k))
                    assert grants[i, t] == pytest.approx(g, abs=1e-9)
                    remaining -= g


class TestSpq:
    def test_highest_bid_first(self):
        assert grants_of(spq(column([1, 1]), [3, 2], 1)) == [1.0, 0.0]

    def test_greedy_fill_in_bid_order(self):
        assert grants_of(spq(column([10, 10, 30]), [3, 2, 1], 25)) == [10.0, 10.0, 5.0]

    def test_equal_keys_share_max_min_fairly(self):
        # The top key is served first; the tied pair splits the remaining 20
        # max-min fairly, so the small demand is met and the rest goes to
        # the other; the lowest key gets nothing.
        grants = grants_of(spq(column([10, 4, 30, 5]), [3, 2, 2, 1], 30))
        assert grants == pytest.approx([10, 4, 16, 0])

    def test_per_column_capacity(self):
        grants = spq(np.array([[3.0, 3.0], [3.0, 3.0]]), [2, 1], np.array([4.0, 2.0]))
        np.testing.assert_array_equal(grants, [[3.0, 2.0], [1.0, 0.0]])

    def test_monotone_in_priority_per_epoch(self):
        # Raising one buyer's key weakly raises her grant, everything else fixed.
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            demand = rng.uniform(0, 15, size=(n, 1))
            pri = list(rng.uniform(0, 10, size=n))
            c = float(rng.uniform(0, 30))
            lo = spq(demand, pri, c)
            pri_hi = list(pri)
            pri_hi[0] += rng.uniform(0.01, 5)
            hi = spq(demand, pri_hi, c)
            assert hi[0, 0] >= lo[0, 0] - 1e-12


@given(
    demands=st.lists(st.floats(0, 50), min_size=1, max_size=8),
    priorities=st.data(),
    c=st.floats(0, 100),
    policy=st.sampled_from(["fifo", "fq", "spq"]),
)
@settings(max_examples=300, deadline=None)
def test_allocation_invariants(demands, priorities, c, policy):
    """Feasibility, demand capping, and work conservation for all kernels."""
    pri = priorities.draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 10),
            min_size=len(demands),
            max_size=len(demands),
        )
    )
    if policy == "fifo":
        grants = grants_of(proportional(column(demands), c))
    elif policy == "fq":
        grants = grants_of(maxmin(column(demands), c))
    else:
        grants = grants_of(spq(column(demands), pri, c))

    total = sum(grants)
    assert total <= c + 1e-6
    for g, d in zip(grants, demands):
        assert -1e-12 <= g <= d + 1e-9
    if sum(demands) <= c:
        assert grants == pytest.approx(demands, abs=1e-9)
    else:
        # Work conservation: over-demanded capacity is fully used.
        assert total == pytest.approx(min(c, sum(demands)), abs=1e-6)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        proportional(column([1.0]), -1)
    with pytest.raises(ValueError):
        maxmin(column([1.0]), -0.5)
    with pytest.raises(ValueError):
        spq(column([1.0]), [0.0], -2)
    with pytest.raises(ValueError):
        maxmin(np.ones((1, 2)), np.array([1.0, -1.0]))


@pytest.mark.parametrize("share", [lambda a, c: a, spq, None])
def test_fill_group_rejects_a_share_other_than_its_two_rules(share):
    # Any other share used to be taken for maxmin: two demands of 5 on 6 KB got 3 and 3.
    grants, remaining = np.full((2, 1), -1.0), np.array([6.0])
    with pytest.raises(ValueError, match="^share must be maxmin or proportional"):
        fill_group(column([5.0, 5.0]), [0, 1], remaining, grants, share=share)
    assert (grants == -1.0).all() and remaining[0] == 6.0
