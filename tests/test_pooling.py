"""Revenue-pool settlement tests: credits, balance, taxes, admissibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandshare.pooling import (
    LedgerRow,
    SellerLedger,
    bootstrap_sampler,
    settle_pool,
    tax_admissibility_estimate,
)


def ledger(seller_id, reserve, rows):
    return SellerLedger(seller_id, reserve, [LedgerRow(*r) for r in rows])


class TestSellerCredit:
    """A seller's first-price credit, bytes * perturbed bid, splits into the
    untaxed reserve revenue and the taxable credit above the reserve."""

    def credit(self, led):
        return led.reserve_revenue() + led.credit_above_reserve()

    def test_single_row(self):
        led = ledger("s", 2, [("b", 100, 6, 5, 0)])
        assert led.reserve_revenue() == 200
        assert led.credit_above_reserve() == 300

    def test_empty(self):
        assert self.credit(ledger("s", 0, [])) == 0

    def test_sum_of_products(self):
        led = ledger("s", 0, [("b1", 100, 6, 5, 0), ("b2", 50, 4, 3, 0)])
        assert self.credit(led) == 650


class TestSettlePool:
    def test_no_resampling_fixed_point(self):
        # Without rebates, buyer payments equal first-price credits: taxes 0,
        # every seller receives exactly her credit.
        rows = [("b", 100, 5, 5, 0)]
        pool = [ledger("s1", 0, rows), ledger("s2", 0, rows)]
        out = settle_pool(pool, np.random.default_rng(0))
        assert out.tax1 == 0 and out.tax2 == 0
        assert out.transfers["s1"] == pytest.approx(500)
        assert out.transfers["s2"] == pytest.approx(500)
        assert out.center_residual == pytest.approx(0, abs=1e-12)

    def test_hand_worked_cap_branch(self):
        # S1 = {A}: one resampled buyer, x=10, b=5, b~=3, R = (1/0.2)*10*5 = 250.
        # S2 = {B}: one kept buyer, x=10, b=5.
        # C1=30, T1=50-250=-200, d1=230; C2=50, T2=50, d2=0.
        # tax1 = 0, tax2 = 230/50 = 4.6 -> capped at 1; B pays her whole credit
        # as tax and the center absorbs the remaining 180.
        a = ledger("A", 0, [("ba", 10, 5, 3, 250)])
        b = ledger("B", 0, [("bb", 10, 5, 5, 0)])
        assert a.credit_above_reserve() == pytest.approx(30)
        assert a.payments_above_reserve() == pytest.approx(-200)
        assert b.credit_above_reserve() == pytest.approx(50)
        assert b.payments_above_reserve() == pytest.approx(50)
        out = settle_pool([a, b], np.random.default_rng(0))  # seed 0 draws S1 = {A}
        assert out.split == (("A",), ("B",))
        assert out.raw_tax1 == 0
        assert out.tax1 == 0
        assert out.raw_tax2 == pytest.approx(4.6)
        assert out.tax2 == 1.0
        assert out.transfers["A"] == pytest.approx(30)
        assert out.transfers["B"] == pytest.approx(0)
        assert out.center_residual == pytest.approx(-180)

    def test_mixed_reserves_rejected(self):
        with pytest.raises(ValueError):
            settle_pool(
                [ledger("a", 0, []), ledger("b", 1, [])], np.random.default_rng(0)
            )

    def test_small_pool_rejected(self):
        with pytest.raises(ValueError):
            settle_pool([ledger("a", 0, [])], np.random.default_rng(0))

    def test_odd_pool_split_sizes(self):
        pool = [ledger(f"s{i}", 0, [("b", 1, 1, 1, 0)]) for i in range(5)]
        out = settle_pool(pool, np.random.default_rng(3))
        assert sorted(map(len, out.split)) == [2, 3]

    def test_reserve_revenue_flows_untaxed(self):
        # All value at the reserve: credits above reserve are 0, sellers keep
        # reserve * bytes whatever the rebates elsewhere.
        rows = [("b", 100, 2, 2, 0)]
        pool = [ledger("s1", 2, rows), ledger("s2", 2, rows)]
        out = settle_pool(pool, np.random.default_rng(1))
        assert out.transfers["s1"] == pytest.approx(200)
        assert out.transfers["s2"] == pytest.approx(200)

    def test_seller_alignment_monotone_transfer(self):
        # Holding everything else fixed (the same seed draws the same split,
        # taxes below 1), a seller with a larger pre-tax credit ends up with a
        # strictly larger transfer.
        base_rows = [("b", 10, 5, 4, 0)]
        others = [ledger(f"o{i}", 0, [("b", 50, 5, 5, 10)]) for i in range(9)]
        lo = settle_pool([ledger("s", 0, base_rows)] + others, np.random.default_rng(2))
        hi = settle_pool(
            [ledger("s", 0, [("b", 12, 5, 4, 0)])] + others, np.random.default_rng(2)
        )
        assert lo.split == hi.split
        assert max(lo.tax1, lo.tax2, hi.tax1, hi.tax2) < 1
        assert hi.transfers["s"] > lo.transfers["s"]


def random_ledger(rng, seller_id, reserve, mu=0.2):
    rows = []
    for j in range(int(rng.integers(0, 5))):
        bid = reserve + float(rng.uniform(0, 8))
        resampled = rng.random() < mu
        perturbed = (
            reserve + (bid - reserve) * float(rng.random()) ** (1 / (1 - mu))
            if resampled
            else bid
        )
        x = float(rng.uniform(0, 300))
        rebate = x * (bid - reserve) / mu if resampled else 0.0
        rows.append(LedgerRow(f"{seller_id}-b{j}", x, bid, perturbed, rebate))
    return SellerLedger(seller_id, reserve, rows)


class TestBudgetBalance:
    def test_exact_balance_on_random_pools(self):
        # Buyers' total net payments == seller transfers + center residual by
        # construction; the substantive check is residual == 0 when no cap binds.
        rng = np.random.default_rng(11)
        for trial in range(300):
            reserve = float(rng.choice([0.0, 1.0, 2.5]))
            n = int(rng.integers(2, 12))
            pool = [random_ledger(rng, f"s{i}", reserve) for i in range(n)]
            out = settle_pool(pool, rng)
            buyer_total = sum(led.buyer_payments() for led in pool)
            transfer_total = sum(out.transfers.values())
            scale = max(1.0, abs(buyer_total), abs(transfer_total))
            assert (
                abs(buyer_total - transfer_total - out.center_residual) / scale < 1e-9
            )
            if out.raw_tax1 <= 1 and out.raw_tax2 <= 1:
                assert abs(out.center_residual) / scale < 1e-9

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_balance_property(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(2, 8))
        pool = [random_ledger(rng, f"s{i}", 0.0) for i in range(n)]
        out = settle_pool(pool, rng)
        buyer_total = sum(led.buyer_payments() for led in pool)
        scale = max(1.0, abs(buyer_total))
        assert (
            abs(buyer_total - sum(out.transfers.values()) - out.center_residual)
            / scale
            < 1e-9
        )


class TestTaxAdmissibility:
    def test_degenerate_single_seller_pools_often_inadmissible(self):
        # One high-rebate seller per half blows through tax = 1 regularly.
        def sampler(rng):
            if rng.random() < 0.5:
                return (30.0, -200.0)  # resampled: credit 30, payments -200
            return (50.0, 50.0)

        p = tax_admissibility_estimate(
            sampler, m=1, n_trials=2000, rng=np.random.default_rng(0)
        )
        assert p > 0.2

    def test_large_pools_admissible(self):
        # E[credit] = 46, E[deficit] = 26: mean tax ~ 0.57, so concentration
        # keeps every trial under 1 once halves hold 100 sellers.
        def sampler(rng):
            if rng.random() < 0.2:
                return (30.0, -100.0)
            return (50.0, 50.0)

        p = tax_admissibility_estimate(
            sampler, m=100, n_trials=500, rng=np.random.default_rng(1)
        )
        assert p == 0.0

    def test_probability_decreases_with_pool_size(self):
        def sampler(rng):
            if rng.random() < 0.2:
                return (30.0, -150.0)
            return (50.0, 50.0)

        probs = [
            tax_admissibility_estimate(
                sampler, m=m, n_trials=2000, rng=np.random.default_rng(2)
            )
            for m in (5, 20, 80)
        ]
        assert probs[0] >= probs[1] >= probs[2]

    def test_all_zero_revenue_tax_is_zero(self):
        p = tax_admissibility_estimate(
            lambda rng: (0.0, 0.0), m=3, n_trials=50, rng=np.random.default_rng(3)
        )
        assert p == 0.0

    def test_bootstrap_sampler_cycles_observations(self):
        sampler = bootstrap_sampler([(1.0, 2.0), (3.0, 4.0)])
        rng = np.random.default_rng(0)
        seen = {sampler(rng) for _ in range(50)}
        assert seen == {(1.0, 2.0), (3.0, 4.0)}
