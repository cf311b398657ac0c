"""Payment mechanism tests: resampling law, rebates, VCG charges, fixed price."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import linprog

from bandshare.demand import DemandSpec
from bandshare.engine import BuyerSpec, Scenario, run_session
from bandshare.payments import (
    MeanCI,
    bks_settle,
    fixed_price_settle,
    resample_bid,
    summarize,
    vmm_epoch_charges,
)
from bandshare.routing import spq


class TestResampleBid:
    def test_keep_branch(self):
        assert resample_bid(10, 2, 0.2, 0.9, 0.5) == (10, False)

    def test_gamma_one_boundary(self):
        key, resampled = resample_bid(10, 2, 0.2, 0.0, 1.0)
        assert resampled
        assert key == pytest.approx(10)

    def test_step_formula(self):
        key, resampled = resample_bid(10, 2, 0.2, 0.0, 0.5)
        assert resampled
        assert key == pytest.approx(2 + 8 * 0.5 ** 1.25)
        assert key == pytest.approx(5.363586, abs=1e-6)

    def test_bid_below_reserve_rejected(self):
        with pytest.raises(ValueError):
            resample_bid(1, 2, 0.2, 0.0, 0.5)

    def test_mu_bounds(self):
        for mu in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                resample_bid(10, 2, mu, 0.0, 0.5)

    @pytest.mark.parametrize("bad", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("which", ["coin", "gamma"])
    def test_coin_and_gamma_outside_unit_interval_rejected(self, which, bad):
        """A coin or gamma outside [0, 1] could put the key outside [r, b]."""
        draws = {"coin": 0.0, "gamma": 0.5, which: bad}
        with pytest.raises(ValueError, match="coin and gamma must be in"):
            resample_bid(10, 2, 0.2, **draws)
        with pytest.raises(ValueError, match="coin and gamma must be in"):
            resample_bid(10, 2, 0.2, **draws, force=False)

    def test_unit_interval_ends_accepted(self):
        for coin in (0.0, 1.0):
            for gamma in (0.0, 1.0):
                key, _ = resample_bid(10, 2, 0.2, coin, gamma)
                assert 2 <= key <= 10

    def test_bid_at_reserve_allowed(self):
        assert resample_bid(2, 2, 0.2, 0.0, 0.3) == (2, True)

    def test_support_and_conditional_cdf(self):
        """b~ stays in [r, b]; conditional on resampling,
        Pr(b~ <= a) = ((a - r)/(b - r))^(1 - mu).  KS test at 1e5 draws."""
        b, r, mu = 10.0, 2.0, 0.2
        rng = np.random.default_rng(123)
        n = 100_000
        draws = []
        while len(draws) < n:
            key, resampled = resample_bid(b, r, mu, rng.random(), rng.random())
            assert r <= key <= b
            assert resampled or key == b
            if resampled:
                draws.append((key - r) / (b - r))
        res = stats.kstest(draws, lambda z: np.power(z, 1 - mu))
        assert res.pvalue > 0.001, res

    def test_force_pins_coin_and_keeps_draws(self):
        key, resampled = resample_bid(10, 2, 0.2, 0.9, 0.5, force=True)
        assert resampled
        assert key == pytest.approx(2 + 8 * 0.5 ** 1.25)
        assert resample_bid(10, 2, 0.2, 0.0, 0.5, force=False) == (10, False)


class TestBksSettle:
    def test_resampled_rebate(self):
        gross, rebate = bks_settle(100, 5, 2, 0.2, True)
        assert gross == 500
        assert rebate == pytest.approx(5 * 100 * 3)  # (1/mu) * x * (b - r)
        assert gross - rebate == pytest.approx(-1000)

    def test_kept_no_rebate(self):
        assert bks_settle(100, 5, 2, 0.2, False) == (500, 0)

    def test_zero_bytes(self):
        assert bks_settle(0, 5, 2, 0.2, True) == (0, 0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            bks_settle(-1, 5, 2, 0.2, False)


def lp_value(bids, demands, c):
    """Value-optimal split of one epoch by linear programming: (value, grants)."""
    if len(bids) == 0:
        return 0.0, np.zeros(0)
    res = linprog(
        -np.asarray(bids),
        A_ub=np.ones((1, len(bids))),
        b_ub=[c],
        bounds=[(0.0, d) for d in demands],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun, res.x


class TestVmmEpochCharges:
    def test_displaced_packet_charged_at_loser_value(self):
        charges = vmm_epoch_charges([[1], [1]], [3, 2], 1)
        assert list(charges) == [2.0, 0.0]

    def test_single_buyer_no_externality(self):
        assert list(vmm_epoch_charges([[17]], [3], 5)) == [0.0]

    def test_capacity_for_all_no_charges(self):
        assert list(vmm_epoch_charges([[1], [1]], [3, 2], 2)) == [0.0, 0.0]

    def test_charges_summed_over_epochs(self):
        # Epoch 1 displaces b's packet, epoch 2 has room for both, and in
        # epoch 3 b presents nothing.
        charges = vmm_epoch_charges([[1, 1, 1], [1, 0.5, 0]], [3, 2], [1, 2, 1])
        assert list(charges) == [2.0, 0.0]

    def test_charges_bounded_by_bid_times_grant(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, T = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            bids = rng.uniform(0, 10, size=n)
            demand = rng.uniform(0, 20, size=(n, T))
            c = float(rng.uniform(0.1, 40))
            charges = vmm_epoch_charges(demand, bids, c)
            # The value-optimal split it charges against.
            value = bids * spq(demand, bids, c).sum(axis=1)
            assert np.all(charges >= 0)
            assert np.all(charges <= value + 1e-9)

    def test_tied_bids_share_marginal_capacity(self):
        # Two equal bids competing for one unit: each gets half, and each is
        # charged the value the other loses (1 * tied bid / 2).
        charges = vmm_epoch_charges([[1], [1]], [2, 2], 1)
        assert list(charges) == pytest.approx([1.0, 1.0])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_vmm_charges_match_lp_oracle(data):
    """Per epoch, the kernel's split is value-optimal and charge_i =
    OPT(without i) - (OPT - b_i x_i), with every optimum solved as a linear
    program and x_i the kernel's own grant (any optimal split defines the
    charge; at a near-tie the solver's own grants may be a different one)."""
    n = data.draw(st.integers(1, 5))
    T = data.draw(st.integers(1, 4))
    bids = np.array(data.draw(st.lists(st.floats(0.5, 10), min_size=n, max_size=n, unique=True)))
    demand = np.array(
        data.draw(st.lists(st.lists(st.floats(0, 20), min_size=T, max_size=T),
                           min_size=n, max_size=n))
    )
    c = data.draw(st.floats(0.1, 40))
    grants = spq(demand, bids, c)
    expected = np.zeros(n)
    for t in range(T):
        opt, _ = lp_value(bids, demand[:, t], c)
        assert bids @ grants[:, t] == pytest.approx(opt, rel=1e-6, abs=1e-6)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            without, _ = lp_value(bids[others], demand[others, t], c)
            expected[i] += without - (opt - bids[i] * grants[i, t])
    charges = vmm_epoch_charges(demand, bids, c)
    assert charges == pytest.approx(expected, rel=1e-6, abs=1e-6)


def refill_charges(demand, bids, c):
    """The VCG charges by their definition, the reference: n + 1 ``spq``
    fills, one with every buyer and one without each."""
    demand, bids = np.asarray(demand, dtype=float), np.asarray(bids, dtype=float)
    n = len(bids)
    values = bids[:, None] * spq(demand, bids, c)
    charges = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        v_without = (bids[others, None] * spq(demand[others], bids[others], c)).sum(axis=0)
        v_with = values[others].sum(axis=0)
        charges[i] = np.maximum(0.0, v_without - v_with).sum()
    return charges


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_vmm_charges_with_tied_bids_and_column_capacities(data):
    """Bids from a small grid, so that ties occur, and one capacity per column,
    0 among them.  The charges match the n + 1-fill definition to 1e-12 of the
    session's value at stake, and the LP oracle as in the test above."""
    n = data.draw(st.integers(1, 5))
    T = data.draw(st.integers(1, 4))
    grid = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    bids = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)))
    demand = np.array(
        data.draw(st.lists(st.lists(st.floats(0, 20), min_size=T, max_size=T),
                           min_size=n, max_size=n))
    )
    c = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0, 40), min_size=T, max_size=T)))
    charges = vmm_epoch_charges(demand, bids, c)
    stake = float(bids @ demand.sum(axis=1))
    assert charges == pytest.approx(refill_charges(demand, bids, c), rel=1e-12, abs=1e-12 * stake)
    grants = spq(demand, bids, c)
    expected = np.zeros(n)
    for t in range(T):
        opt, _ = lp_value(bids, demand[:, t], c[t])
        for i in range(n):
            others = [j for j in range(n) if j != i]
            without, _ = lp_value(bids[others], demand[others, t], c[t])
            expected[i] += without - (opt - bids[i] * grants[i, t])
    assert charges == pytest.approx(expected, rel=1e-6, abs=1e-6)


def fixed_price_scenario(price):
    """Three buyers with room for all; only bids at or above the price, the
    scenario's reserve, take part."""
    return Scenario(
        buyers=tuple(
            BuyerSpec(b, v, DemandSpec.constant(1.0), 1, 5)
            for b, v in (("a", 10.0), ("b", 4.0), ("c", 1.0))
        ),
        capacity=10.0,
        mechanism="fixed",
        reserve=price,
        horizon=5,
    )


def served(outcome):
    return {b for b, x in outcome.bytes.items() if x > 0}


class TestFixedPrice:
    def test_eligibility_all(self):
        assert served(run_session(fixed_price_scenario(1.0), seed=0)) == {"a", "b", "c"}

    def test_eligibility_threshold(self):
        out = run_session(fixed_price_scenario(2.0), seed=0)
        assert served(out) == {"a", "b"}
        assert out.payments["a"].net == 2.0 * 5

    def test_linear_settle(self):
        assert fixed_price_settle(100, 1) == 100
        assert fixed_price_settle(0, 5) == 0


class TestExpectedBksPayment:
    def test_single_uncontested_buyer_pays_zero_in_expectation(self):
        """With no competition and r = 0, allocation is bid-independent, so the
        rebate exactly cancels the gross charge in expectation."""
        mu, b, x = 0.2, 3.0, 50.0
        seeds = np.random.default_rng(7).integers(0, 2**63 - 1, size=40_000)

        def net(s):
            coin, gamma = np.random.default_rng(int(s)).random(2).tolist()
            gross, rebate = bks_settle(x, b, 0.0, mu, resample_bid(b, 0.0, mu, coin, gamma)[1])
            return gross - rebate

        ci = summarize([net(s) for s in seeds])
        assert ci.ci_low <= 0.0 <= ci.ci_high
        assert abs(ci.mean) < 3 * (ci.ci_high - ci.ci_low) / 2 + 1e-9

    def test_degenerate_no_resampling_pays_bid(self):
        ci = summarize([bks_settle(10, 3, 0, 0.2, False)[0] for _ in range(5)])
        assert ci.mean == 30 and (ci.ci_high - ci.ci_low) / 2 == 0

    def test_summarize(self):
        ci = summarize([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.ci_low < 2.0 < ci.ci_high
        with pytest.raises(ValueError):
            summarize([])

    @given(
        samples=st.lists(
            st.floats(-1e6, 1e6).filter(lambda x: x == 0 or abs(x) > 1e-100),
            min_size=1,
            max_size=30,
        ),
        power=st.integers(0, 990),
    )
    @settings(max_examples=200, deadline=None)
    def test_summarize_scales_exactly_by_powers_of_two(self, samples, power):
        """Scaling the samples by 2**power scales the mean and both CI bounds
        by exactly 2**power, so samples near 1e300 keep a finite interval."""
        ci = summarize(samples)
        scaled = summarize([x * 2.0**power for x in samples])
        assert scaled == MeanCI(*(v * 2.0**power for v in (ci.mean, ci.ci_low, ci.ci_high)))
