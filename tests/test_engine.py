"""Session engine tests.

Covers the worked VCG manipulation example, strategy identities, the isolation
and monotonicity properties of strict-priority routing, welfare against the
offline optimum (value-ordered service for memoryless demand, a brute-force
enumerator for stateful demand), Monte Carlo determinism, the tie rule,
parameter checks, the equivalence of the epoch loop's allocator and the
routing kernels and of the vectorized and epoch-loop execution paths, and
world replay under counterfactual bids.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandshare.engine
from bandshare.demand import DemandSpec
from bandshare.engine import (
    BuyerSpec,
    HybridBoost,
    Scenario,
    Strategy,
    _allocate_epoch,
    _bid_records,
    _demand_matrix,
    _groups,
    _run_loop,
    _run_vectorized,
    _world,
    build_ledger,
    replay,
    run_monte_carlo,
    run_seeds,
    run_session,
)
from bandshare.routing import maxmin, proportional, spq


def example1_scenario(horizon=600):
    """One persistent 1-packet/s buyer at $3 and a single-packet buyer at $2
    who keeps retrying, on a 1-packet/s link."""
    return Scenario(
        buyers=(
            BuyerSpec("b1", 3.0, DemandSpec.constant(1.0), 1, horizon),
            BuyerSpec("b2", 2.0, DemandSpec.buffered([1.0]), 1, horizon),
        ),
        capacity=1.0,
        routing="spq",
        mechanism="vmm",
        horizon=horizon,
    )


class TestExample1:
    def test_truthful_pays_per_epoch_externality(self):
        out = run_session(example1_scenario(), seed=0)
        assert out.bytes["b1"] == 600.0
        assert out.payments["b1"].net == 1200.0
        assert out.payments["b2"].net == 0.0
        assert out.bytes["b2"] == 0.0

    def test_underbid_flushes_packet_and_pays_nothing(self):
        out = run_session(example1_scenario(), seed=0, bid_override={"b1": 1.9})
        assert out.bytes["b1"] == 599.0
        assert out.payments["b1"].net == 0.0
        assert out.bytes["b2"] == 1.0

    def test_deviation_is_profitable_under_vmm(self):
        truthful = run_session(example1_scenario(), seed=0)
        deviate = run_session(example1_scenario(), seed=0, bid_override={"b1": 1.9})
        assert deviate.utilities["b1"] > truthful.utilities["b1"]


class TestStrategies:
    def base(self, strategy, mechanism="bks"):
        return Scenario(
            buyers=(
                BuyerSpec("a", 5.0, DemandSpec.constant(8.0), 1, 50, strategy),
                BuyerSpec("c", 2.0, DemandSpec.constant(10.0), 1, 50),
            ),
            capacity=12.0,
            mechanism=mechanism,
            horizon=50,
        )

    def test_zero_pad_is_greedy(self):
        a = run_session(self.base(Strategy("greedy")), seed=3)
        b = run_session(self.base(Strategy("pad", pad=0.0)), seed=3)
        assert a.bytes == b.bytes and a.utilities == b.utilities

    def test_zero_delay_is_greedy(self):
        a = run_session(self.base(Strategy("greedy")), seed=3)
        b = run_session(self.base(Strategy("delay", delay_epochs=0)), seed=3)
        assert a.bytes == b.bytes and a.utilities == b.utilities

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Strategy("pad", pad=-1.0),
            lambda: Strategy("delay", delay_epochs=-1),
            lambda: Strategy("misreport", bid_factor=-0.5),
            lambda: Strategy("greedy", pad=-2.0),
        ],
    )
    def test_negative_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="nonnegative"):
            make()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="bluff"):
            Strategy("bluff")

    def test_misreport_scales_bid(self):
        out = run_session(self.base(Strategy("misreport", bid_factor=0.5), mechanism="vmm"), seed=3)
        assert out.bids["a"] == 2.5

    def test_padding_bills_but_adds_no_value(self):
        # Uncontended buyer: padding consumes spare capacity, is billed, and
        # leaves real traffic untouched.
        scenario = Scenario(
            buyers=(BuyerSpec("a", 5.0, DemandSpec.constant(3.0), 1, 10, Strategy("pad", pad=2.0)),),
            capacity=10.0,
            mechanism="fixed",
            price=1.0,
            horizon=10,
        )
        out = run_session(scenario, seed=0)
        assert out.bytes["a"] == 30.0
        assert out.billed_bytes["a"] == 50.0
        assert out.payments["a"].net == 50.0
        assert out.utilities["a"] == pytest.approx(5 * 30 - 50)

    def test_delay_shifts_presentation(self):
        scenario = Scenario(
            buyers=(
                BuyerSpec(
                    "a", 5.0, DemandSpec.time_varying([4.0, 0.0, 0.0, 0.0]), 1, 4,
                    Strategy("delay", delay_epochs=2),
                ),
            ),
            capacity=10.0,
            mechanism="fixed",
            price=0.0,
            horizon=4,
        )
        out = run_session(scenario, seed=0)
        assert list(out.trace[:, 0]) == [0.0, 0.0, 4.0, 0.0]

    def test_delay_changes_impatient_outcome(self):
        # Delaying the high bidder starves the impatient buyer's early service.
        def scen(strategy):
            return Scenario(
                buyers=(
                    BuyerSpec("hi", 10.0, DemandSpec.constant(8.0), 1, 90, strategy),
                    BuyerSpec("imp", 1.0, DemandSpec.impatient(10.0, 20, 100.0), 1, 120),
                ),
                capacity=12.0,
                mechanism="vmm",
                horizon=120,
            )

        greedy = run_session(scen(Strategy("greedy")), seed=1)
        delayed = run_session(scen(Strategy("delay", delay_epochs=10)), seed=1)
        assert delayed.bytes != greedy.bytes


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scenario((), NAN),
        lambda: Scenario((), 10.0, reserve=NAN),
        lambda: Scenario((), 10.0, mechanism="fixed", price=NAN),
        lambda: BuyerSpec("a", NAN, DemandSpec.constant(1.0)),
        lambda: Strategy("pad", pad=NAN),
        lambda: Strategy("misreport", bid_factor=NAN),
        lambda: HybridBoost("a", NAN, 10),
    ],
    ids=["capacity", "reserve", "price", "value", "pad", "bid_factor", "target_bytes"],
)
def test_nan_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Strategy("delay", delay_epochs=2.5),
        lambda: Strategy("delay", delay_epochs=True),
        lambda: BuyerSpec("a", 1.0, DemandSpec.constant(5.0), arrival=1.5),
        lambda: BuyerSpec("a", 1.0, DemandSpec.constant(5.0), departure=20.0),
        lambda: BuyerSpec("a", 1.0, DemandSpec.constant(5.0), arrival=True),
        lambda: HybridBoost("a", 10.0, 2.5),
        lambda: HybridBoost("a", 10.0, True),
        lambda: Scenario((), 10.0, horizon=2.5),
    ],
    ids=[
        "delay", "delay-bool", "arrival", "departure", "arrival-bool", "deadline", "deadline-bool",
        "horizon",
    ],
)
def test_fractional_epoch_counts_rejected(build):
    # A fractional delay used to present nothing all session, and a
    # fractional arrival or horizon failed later with a TypeError.
    with pytest.raises(ValueError, match="whole epochs"):
        build()


def test_numpy_integer_epoch_counts_accepted():
    buyer = BuyerSpec("a", 1.0, DemandSpec.constant(5.0), np.int64(2), np.int64(20))
    assert Strategy("delay", delay_epochs=np.int64(2)).delay_epochs == 2
    assert (buyer.arrival, buyer.departure) == (2, 20)


class TestIsolation:
    def scen(self, mid_strategy):
        return Scenario(
            buyers=(
                BuyerSpec("hi", 9.0, DemandSpec.constant(5.0), 1, 40),
                BuyerSpec("mid", 5.0, DemandSpec.buffered([3.0] * 40), 1, 40, mid_strategy),
                BuyerSpec("lo", 1.0, DemandSpec.constant(9.0), 1, 40),
            ),
            capacity=10.0,
            mechanism="vmm",
            horizon=40,
        )

    def test_higher_priority_grants_invariant_to_lower_behavior(self):
        base = run_session(self.scen(Strategy("greedy")), seed=7)
        for strat in (
            Strategy("delay", delay_epochs=5),
            Strategy("pad", pad=4.0),
            Strategy("misreport", bid_factor=0.9),
        ):
            alt = run_session(self.scen(strat), seed=7)
            np.testing.assert_array_equal(base.trace[:, 0], alt.trace[:, 0])

    def test_lower_priority_grants_can_change(self):
        base = run_session(self.scen(Strategy("greedy")), seed=7)
        alt = run_session(self.scen(Strategy("delay", delay_epochs=5)), seed=7)
        assert not np.array_equal(base.trace[:, 2], alt.trace[:, 2])

    def test_own_past_consumption_does_not_change_grants(self):
        # Replay with the middle buyer delaying: her *available* capacity
        # (capacity left by the high buyer) is unchanged even though her own
        # history differs.
        base = run_session(self.scen(Strategy("greedy")), seed=7)
        alt = run_session(self.scen(Strategy("delay", delay_epochs=3)), seed=7)
        available_base = 10.0 - base.trace[:, 0]
        available_alt = 10.0 - alt.trace[:, 0]
        np.testing.assert_allclose(available_base, available_alt)


class TestEpochMonotonicity:
    def test_grant_trace_weakly_increases_with_bid(self):
        scenario = Scenario(
            buyers=(
                BuyerSpec("p", 4.0, DemandSpec.constant(10.0), 1, 60),
                BuyerSpec("q", 6.0, DemandSpec.constant(10.0), 1, 60),
            ),
            capacity=15.0,
            mechanism="vmm",
            horizon=60,
        )
        lo = run_session(scenario, seed=2, bid_override={"p": 3.0})
        hi = run_session(scenario, seed=2, bid_override={"p": 7.0})
        assert np.all(hi.trace[:, 0] >= lo.trace[:, 0] - 1e-12)


# Per-epoch generation covers the 40 epochs that the tests below query.
NATURAL_SPECS = [
    DemandSpec.constant(9.0),
    DemandSpec.time_varying([(t % 7) * 2.0 for t in range(1, 41)]),
    DemandSpec.buffered([4.0 if p % 3 else 0.0 for p in range(1, 41)]),
    DemandSpec.impatient(8.0, 12, 40.0),
    DemandSpec.increasing_rate(lambda z: 2.0 + z),
    DemandSpec.increasing_total(lambda x: 1.0 + x / 50.0),
]


class TestBidMonotonicity:
    def test_total_bytes_monotone_in_bid_all_natural_models(self):
        """Small-scale sweep of the allocation-monotonicity property that the
        acceptance suite runs at full size."""
        rng = np.random.default_rng(99)
        for spec in NATURAL_SPECS:
            for trial in range(3):
                comp_bid = float(rng.uniform(1, 9))
                scenario = Scenario(
                    buyers=(
                        BuyerSpec("probe", 5.0, spec, 1, 30),
                        BuyerSpec("comp", comp_bid, DemandSpec.constant(float(rng.uniform(3, 12))), 1, 30),
                    ),
                    capacity=float(rng.uniform(6, 18)),
                    mechanism="bks",
                    mu=0.2,
                    horizon=30,
                )
                seed = int(rng.integers(2**31))
                bids = sorted(rng.uniform(0.5, 12, size=6))
                xs = [
                    run_session(scenario, seed, bid_override={"probe": b}).bytes["probe"]
                    for b in bids
                ]
                for x_lo, x_hi in zip(xs, xs[1:]):
                    assert x_hi >= x_lo - 1e-9, (spec.kind, bids, xs)


class TestGreedyMaximality:
    def test_greedy_maximizes_cumulative_bytes_vs_fixed_capacity_trace(self):
        """Against any fixed capacity trace, greedy forwarding dominates
        padding and delaying at every prefix (for natural demand)."""
        rng = np.random.default_rng(5)
        for spec in NATURAL_SPECS:
            realization = spec.realize(seed=0)
            for trial in range(5):
                T = 40
                cap = rng.uniform(0, 12, size=T + 1)

                def greedy_path():
                    x = 0.0
                    path = []
                    for t in range(1, T + 1):
                        x += min(cap[t], realization.query(t, x))
                        path.append(x)
                    return path

                def delayed_path(k):
                    x = 0.0
                    gen = {}
                    path = []
                    for t in range(1, T + 1):
                        d = realization.query(t, x)
                        gen[t] = d
                        presented = gen.get(t - k, 0.0)
                        consumed = min(cap[t], presented)
                        x += min(consumed, d)  # stale bytes carry no value
                        path.append(x)
                    return path

                def padded_path(pad):
                    x = 0.0
                    path = []
                    for t in range(1, T + 1):
                        d = realization.query(t, x)
                        consumed = min(cap[t], d + pad)
                        x += min(consumed, d)
                        path.append(x)
                    return path

                g = greedy_path()
                for k in (1, 3, 7):
                    d = delayed_path(k)
                    assert all(gi >= di - 1e-9 for gi, di in zip(g, d)), spec.kind
                for pad in (1.0, 5.0):
                    p = padded_path(pad)
                    assert all(gi >= pi - 1e-9 for gi, pi in zip(g, p)), spec.kind


class TestStrategyDominance:
    def scen(self, strategy):
        return Scenario(
            buyers=(
                BuyerSpec("agent", 5.0, DemandSpec.buffered([6.0] * 60), 1, 60, strategy),
                BuyerSpec("rival", 3.0, DemandSpec.constant(7.0), 1, 60),
            ),
            capacity=10.0,
            mechanism="bks",
            mu=0.2,
            horizon=60,
        )

    def test_padding_and_delaying_do_not_beat_greedy(self):
        """Expected utility of greedy >= pad/delay, paired worlds, 95% CI."""
        seeds = np.random.default_rng(21).integers(0, 2**63 - 1, size=400)
        greedy = np.array(
            [run_session(self.scen(Strategy("greedy")), int(s)).utilities["agent"] for s in seeds]
        )
        for strat in (Strategy("pad", pad=3.0), Strategy("delay", delay_epochs=4)):
            other = np.array(
                [run_session(self.scen(strat), int(s)).utilities["agent"] for s in seeds]
            )
            diff = greedy - other
            half = 1.645 * diff.std(ddof=1) / np.sqrt(len(diff))
            assert diff.mean() >= -half, (strat.kind, diff.mean(), half)

    def test_single_uncontended_buyer_mechanics(self):
        for mechanism in ("bks", "vmm", "fixed"):
            scenario = Scenario(
                buyers=(BuyerSpec("solo", 4.0, DemandSpec.constant(10.0), 1, 50),),
                capacity=25.0,
                mechanism=mechanism,
                horizon=50,
            )
            out = run_session(scenario, seed=6)
            assert out.bytes["solo"] == 10.0 * 50
            assert np.all(out.trace[:, 0] == 10.0)  # capacity never binds
            if mechanism == "vmm":
                assert out.payments["solo"].net == 0.0  # no externality


def memoryless_optimum(scenario, seed):
    """Best total value for the memoryless world drawn from ``seed``: each
    epoch's capacity served in order of true value (exact, because demand
    does not depend on past service)."""
    realizations = _world(scenario, seed)[0]
    values = [b.value for b in scenario.buyers]
    grants = spq(_demand_matrix(scenario, realizations), values, scenario.capacity)
    return float((np.array(values)[:, None] * grants).sum())


class TestOfflineOptimum:
    def test_single_buyer(self):
        scenario = Scenario(
            buyers=(BuyerSpec("a", 5.0, DemandSpec.constant(8.0), 1, 20),),
            capacity=6.0,
            mechanism="vmm",
            horizon=20,
        )
        assert memoryless_optimum(scenario, seed=0) == pytest.approx(5.0 * 6.0 * 20)

    def test_memoryless_equals_spq_welfare_with_true_bids(self):
        scenario = Scenario(
            buyers=(
                BuyerSpec("a", 10.0, DemandSpec.flow_trace(10, 120), 1, 120),
                BuyerSpec("b", 4.0, DemandSpec.flow_trace(10, 120), 1, 120),
                BuyerSpec("c", 1.0, DemandSpec.flow_trace(30, 120), 1, 120),
            ),
            capacity=25.0,
            mechanism="vmm",
            horizon=120,
        )
        for seed in (0, 1, 2):
            opt = memoryless_optimum(scenario, seed)
            out = run_session(scenario, seed)
            assert out.welfare == pytest.approx(opt, rel=1e-12)

    def test_stateful_search_beats_spq_on_impatient_instance(self):
        # v=10 constant-demand buyer vs v=8 impatient buyer: serving the
        # impatient one first keeps her alive and wins.
        scenario = Scenario(
            buyers=(
                BuyerSpec("hi", 10.0, DemandSpec.constant(10.0), 1, 6),
                BuyerSpec("imp", 8.0, DemandSpec.impatient(10.0, 2, 15.0), 1, 6),
            ),
            capacity=12.0,
            mechanism="vmm",
            horizon=6,
        )
        # Exhaustive search over per-epoch priority orders.
        demand_hi = DemandSpec.constant(10.0).realize()
        demand_imp = DemandSpec.impatient(10.0, 2, 15.0).realize()
        best = -1.0
        for orders in itertools.product([(0, 1), (1, 0)], repeat=6):
            x = [0.0, 0.0]
            value = 0.0
            for t, order in enumerate(orders, start=1):
                remaining = 12.0
                d = [demand_hi.query(t, x[0]), demand_imp.query(t, x[1])]
                for i in order:
                    take = min(remaining, d[i])
                    value += (10.0, 8.0)[i] * take
                    x[i] += take
                    remaining -= take
            best = max(best, value)
        assert best > run_session(scenario, seed=0).welfare + 1e-9

    def test_efficiency_ratio_on_session(self):
        scenario = Scenario(
            buyers=(
                BuyerSpec("a", 10.0, DemandSpec.flow_trace(10, 80), 1, 80),
                BuyerSpec("b", 4.0, DemandSpec.flow_trace(10, 80), 1, 80),
            ),
            capacity=12.0,
            mechanism="vmm",
            horizon=80,
        )
        out = run_session(scenario, seed=3)
        # SPQ with truthful bids on memoryless demand is value-optimal.
        assert out.welfare / memoryless_optimum(scenario, 3) == pytest.approx(1.0)
        resampled = Scenario(
            buyers=scenario.buyers, capacity=12.0, mechanism="bks", horizon=80
        )
        ratio = run_session(resampled, seed=3).welfare / memoryless_optimum(resampled, 3)
        assert 0.0 <= ratio <= 1.0


class TestHybridRouting:
    def impatient_scenario(self, routing, hybrid=None, capacity=26.0):
        return Scenario(
            buyers=(
                BuyerSpec("b1", 10.0, DemandSpec.constant(10.0), 1, 90),
                BuyerSpec("b2", 4.0, DemandSpec.constant(10.0), 1, 90),
                BuyerSpec("b3", 1.0, DemandSpec.impatient(30.0, 60, 500.0), 1, 600),
            ),
            capacity=capacity,
            routing=routing,
            mechanism="vmm",
            horizon=600,
            hybrid=hybrid,
        )

    def test_zero_target_is_plain_spq(self):
        spq = run_session(self.impatient_scenario("spq"), seed=4)
        hyb = run_session(
            self.impatient_scenario("hybrid", HybridBoost("b3", 0.0, 60)), seed=4
        )
        assert spq.bytes == hyb.bytes
        np.testing.assert_array_equal(spq.trace, hyb.trace)

    def test_boost_for_absent_buyer_has_no_effect(self):
        scenario = Scenario(
            buyers=(
                BuyerSpec("b1", 10.0, DemandSpec.constant(10.0), 1, 90),
                BuyerSpec("late", 1.0, DemandSpec.constant(5.0), 100, 600),
            ),
            capacity=12.0,
            routing="hybrid",
            mechanism="vmm",
            horizon=600,
            hybrid=HybridBoost("late", 500.0, 60),
        )
        spq_version = Scenario(
            buyers=scenario.buyers,
            capacity=12.0,
            routing="spq",
            mechanism="vmm",
            horizon=600,
        )
        a = run_session(scenario, seed=0)
        b = run_session(spq_version, seed=0)
        assert a.bytes == b.bytes

    def test_unknown_boost_buyer_rejected(self):
        with pytest.raises(ValueError):
            self.impatient_scenario("hybrid", HybridBoost("nobody", 10.0, 60))

    def test_paced_boost_keeps_impatient_buyer(self):
        # At capacity 26 plain SPQ leaves b3 below her 500 KB threshold and she
        # quits at t=60; the paced reservation keeps her alive past it.
        spq = run_session(self.impatient_scenario("spq"), seed=4)
        hyb = run_session(
            self.impatient_scenario("hybrid", HybridBoost("b3", 520.0, 60)), seed=4
        )
        assert spq.bytes["b3"] < 500.0
        assert hyb.bytes["b3"] > 500.0
        assert hyb.welfare > spq.welfare


class TestEngineTies:
    def test_tied_buyers_share_equally_on_every_seed(self):
        """The epoch loop follows the routing policy's tie rule: buyers with
        equal keys share what is left max-min fairly, whatever the seed."""
        scenario = Scenario(
            buyers=(
                BuyerSpec("a", 2.0, DemandSpec.constant(10.0), 1, 1),
                BuyerSpec("b", 2.0, DemandSpec.buffered([10.0]), 1, 1),
            ),
            capacity=10.0,
            mechanism="vmm",
            horizon=1,
        )
        for seed in range(50):
            out = run_session(scenario, seed)
            assert (out.bytes["a"], out.bytes["b"]) == (5.0, 5.0), seed


class TestWorkConservation:
    def test_unused_capacity_implies_everyone_served(self):
        g1 = [3.0, 9.0, 2.0, 7.0] * 10
        g2 = [6.0, 6.0, 1.0, 8.0] * 10
        scenario = Scenario(
            buyers=(
                BuyerSpec("a", 5.0, DemandSpec.time_varying(g1), 1, 40),
                BuyerSpec("b", 2.0, DemandSpec.time_varying(g2), 1, 40),
            ),
            capacity=12.0,
            mechanism="vmm",
            horizon=40,
        )
        out = run_session(scenario, seed=0)
        for t in range(40):
            consumed = out.trace[t].sum()
            if consumed < 12.0 - 1e-9:
                assert out.trace[t, 0] == pytest.approx(g1[t])
                assert out.trace[t, 1] == pytest.approx(g2[t])


@st.composite
def memoryless_scenarios(draw):
    """Scenarios the vector path can run: memoryless demand, greedy or
    misreporting buyers, n <= 5, tied or distinct values, any routing,
    mechanism, reserve and windows, and per-epoch demand lists from 1 to
    horizon + 5 epochs long."""
    horizon = draw(st.integers(1, 30))
    n = draw(st.integers(1, 5))
    # A few common values, so that buyers often tie on their routing keys.
    value = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.0, 10.0))
    values = draw(st.lists(value, min_size=n, max_size=n))
    buyers = []
    for k, value in enumerate(values):
        arrival = draw(st.integers(0, horizon + 2))
        departure = draw(st.integers(arrival, horizon + 5))
        demand = draw(st.one_of(
            st.floats(0.0, 30.0).map(DemandSpec.constant),
            # Shorter and longer than the horizon: demand is 0 after the list ends.
            st.lists(st.floats(0.0, 30.0), min_size=1, max_size=horizon + 5).map(
                DemandSpec.time_varying
            ),
            st.floats(0.0, 20.0).map(lambda rate: DemandSpec.flow_trace(rate, horizon)),
        ))
        strategy = draw(st.one_of(
            st.just(Strategy("greedy")),
            st.floats(0.0, 2.0).map(lambda f: Strategy("misreport", bid_factor=f)),
        ))
        buyers.append(BuyerSpec(f"b{k}", value, demand, arrival, departure, strategy))
    return Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(0.5, 60.0)),
        routing=draw(st.sampled_from(["spq", "fq", "fifo"])),
        mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
        mu=draw(st.floats(0.05, 0.95)),
        reserve=draw(st.sampled_from([0.0, 1.0, 4.0])),
        price=draw(st.sampled_from([0.0, 1.0, 4.0])),
        horizon=horizon,
    )


class TestPathEquivalence:
    @given(scenario=memoryless_scenarios(), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_vectorized_matches_loop(self, scenario, seed):
        """The vector path reproduces the epoch loop, the reference semantics,
        on every field of the outcome."""
        realizations, resample_ss = _world(scenario, seed)
        records = _bid_records(scenario, resample_ss, None, None)
        fast = _run_vectorized(scenario, _demand_matrix(scenario, realizations), records)
        slow = _run_loop(scenario, realizations, records)
        close = lambda a: pytest.approx(a, abs=1e-9)
        assert fast.buyer_ids == slow.buyer_ids
        for name in ("bytes", "billed_bytes", "bids", "perturbed_bids", "utilities"):
            assert getattr(fast, name) == close(getattr(slow, name)), name
        for b in fast.buyer_ids:
            f, s = fast.payments[b], slow.payments[b]
            assert (f.buyer_id, f.bytes, f.gross, f.rebate) == close(
                (s.buyer_id, s.bytes, s.gross, s.rebate)
            ), b
        assert fast.welfare == close(slow.welfare)
        assert fast.seller_revenue == close(slow.seller_revenue)
        assert (fast.mechanism, fast.reserve) == (slow.mechanism, slow.reserve)
        np.testing.assert_allclose(fast.trace, slow.trace, rtol=0, atol=1e-9)


@st.composite
def epoch_columns(draw):
    """One epoch of n <= 6 buyers: tied or distinct keys, a random active
    subset, zero or positive demand for the active buyers, and a capacity."""
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(
        st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.0, 5.0)),
        min_size=n, max_size=n,
    ))
    active = sorted(draw(st.sets(st.integers(0, n - 1))))
    demand = st.one_of(st.sampled_from([0.0, 5.0]), st.floats(0.0, 30.0))
    presented = [draw(demand) if i in active else 0.0 for i in range(n)]
    return keys, active, presented, draw(st.floats(0.5, 60.0))


class TestScalarKernels:
    @given(column=epoch_columns(), routing=st.sampled_from(["fifo", "fq", "spq"]))
    @settings(max_examples=300, deadline=None)
    def test_allocate_epoch_matches_routing_kernels(self, column, routing):
        """The epoch loop's allocator is the routing kernels on one column."""
        keys, active, presented, capacity = column
        n = len(keys)
        buyers = tuple(BuyerSpec(f"b{i}", 1.0, DemandSpec.constant(0.0)) for i in range(n))
        scenario = Scenario(buyers, capacity, routing=routing, horizon=1)
        grants = _allocate_epoch(scenario, 1, active, presented, [0.0] * n, _groups(keys))
        demand = np.array(presented)[:, None]
        kernels = {
            "fifo": lambda: proportional(demand, capacity),
            "fq": lambda: maxmin(demand, capacity),
            "spq": lambda: spq(demand, keys, capacity),
        }
        np.testing.assert_allclose(grants, kernels[routing]()[:, 0], rtol=0, atol=1e-12)


def assert_same_outcome(a, b):
    fields_a, fields_b = dict(vars(a)), dict(vars(b))
    np.testing.assert_array_equal(fields_a.pop("trace"), fields_b.pop("trace"))
    assert fields_a == fields_b


REPLAY_SCENARIOS = {
    "buffered": example1_scenario(horizon=40),
    "impatient": Scenario(
        buyers=(
            BuyerSpec("b1", 3.0, DemandSpec.constant(8.0), 1, 30),
            BuyerSpec("b2", 2.0, DemandSpec.impatient(10.0, 8, 40.0), 1, 40),
        ),
        capacity=12.0,
        mechanism="bks",
        horizon=40,
    ),
    "hybrid": Scenario(
        buyers=(
            BuyerSpec("b1", 3.0, DemandSpec.constant(10.0), 1, 40),
            BuyerSpec("b2", 2.0, DemandSpec.impatient(12.0, 20, 100.0), 1, 40),
        ),
        capacity=14.0,
        routing="hybrid",
        mechanism="bks",
        horizon=40,
        hybrid=HybridBoost("b2", 120.0, 20),
    ),
    # b1's override 2.0 ties with b2 and 1.0 / 3.0 do not; both take the vector path.
    "ties": Scenario(
        buyers=(
            BuyerSpec("b1", 3.0, DemandSpec.constant(8.0), 1, 30),
            BuyerSpec("b2", 2.0, DemandSpec.flow_trace(8.0, 30), 1, 30),
        ),
        capacity=10.0,
        mechanism="vmm",
        horizon=30,
    ),
    "vector": Scenario(
        buyers=(
            BuyerSpec("b1", 3.0, DemandSpec.flow_trace(10.0, 50), 1, 50),
            BuyerSpec("b2", 2.0, DemandSpec.flow_trace(10.0, 50), 5, 45),
            BuyerSpec("b3", 1.8, DemandSpec.constant(6.0), 1, 50),
        ),
        capacity=15.0,
        mechanism="bks",
        reserve=1.5,  # b1's override 1.0 makes her ineligible
        horizon=50,
    ),
}


class TestReplay:
    @pytest.mark.parametrize("name", sorted(REPLAY_SCENARIOS))
    def test_replay_equals_run_session_in_mixed_bid_order(self, name):
        """One replayed world gives run_session's outcome on every field,
        whatever bids it was called with before."""
        scenario = REPLAY_SCENARIOS[name]
        calls = [
            (bid, force)
            for bid in (None, 1.0, 2.0, 3.0)
            for force in (None, False, True)
        ] * 2
        random.Random(name).shuffle(calls)
        for seed in (0, 11):
            session = replay(scenario, seed)
            for bid, force in calls:
                override = None if bid is None else {"b1": bid}
                forced = None if force is None else {"b1": force}
                assert_same_outcome(
                    session(override, forced),
                    run_session(scenario, seed, bid_override=override, force_resample=forced),
                )

    def test_world_is_materialized_once(self, monkeypatch):
        scenario = REPLAY_SCENARIOS["vector"]
        counts = {"realize": 0, "matrix": 0}
        realize, matrix = DemandSpec.realize, bandshare.engine._demand_matrix

        def counted_realize(spec, seed=None):
            counts["realize"] += 1
            return realize(spec, seed)

        def counted_matrix(*args):
            counts["matrix"] += 1
            return matrix(*args)

        monkeypatch.setattr(DemandSpec, "realize", counted_realize)
        monkeypatch.setattr(bandshare.engine, "_demand_matrix", counted_matrix)
        session = replay(scenario, 4)
        for bid in (0.5, 1.0, 2.5, 4.0, 0.5):
            session({"b1": bid}, {"b1": True})
        assert counts == {"realize": 3, "matrix": 1}

    def test_run_seeds_are_the_monte_carlo_runs(self):
        scenario = REPLAY_SCENARIOS["vector"]
        seeds = run_seeds(8, 3)
        assert seeds == run_seeds(8, 5)[:3]
        stats = run_monte_carlo(scenario, 3, seed=8)
        welfare = [run_session(scenario, s).welfare for s in seeds]
        assert stats.welfare.mean == pytest.approx(np.mean(welfare), rel=1e-12)


class TestMonteCarlo:
    def scenario(self, mechanism):
        return Scenario(
            buyers=(
                BuyerSpec("a", 10.0, DemandSpec.flow_trace(10, 100), 1, 100),
                BuyerSpec("b", 4.0, DemandSpec.flow_trace(10, 100), 1, 100),
                BuyerSpec("c", 1.0, DemandSpec.flow_trace(30, 100), 1, 100),
            ),
            capacity=25.0,
            mechanism=mechanism,
            horizon=100,
        )

    def test_single_run_equals_run_session(self):
        scenario = self.scenario("bks")
        stats = run_monte_carlo(scenario, 1, seed=5)
        run_seed = int(np.random.default_rng(5).integers(0, 2**63 - 1, size=1)[0])
        out = run_session(scenario, run_seed)
        assert stats.welfare.mean == pytest.approx(out.welfare)

    def test_deterministic_given_seed(self):
        scenario = self.scenario("bks")
        a = run_monte_carlo(scenario, 20, seed=9)
        b = run_monte_carlo(scenario, 20, seed=9)
        assert a.welfare.mean == b.welfare.mean
        assert a.payments == b.payments

    def test_resampling_costs_welfare_vs_vcg_benchmark(self):
        # Same demand worlds: the true-bid priority allocation is optimal for
        # memoryless demand, resampling can only misorder.
        vmm = run_monte_carlo(self.scenario("vmm"), 150, seed=3)
        bks = run_monte_carlo(self.scenario("bks"), 150, seed=3)
        assert vmm.welfare.mean > bks.welfare.mean

    def test_welfare_weakly_decreasing_in_mu(self):
        # More resampling means more misordering; with paired seeds the mean
        # welfare is weakly decreasing across the mu grid.
        from dataclasses import replace

        means = [
            run_monte_carlo(
                replace(self.scenario("bks"), mu=mu), 150, seed=3
            ).welfare.mean
            for mu in (0.05, 0.2, 0.5)
        ]
        assert means[0] >= means[1] >= means[2], means


class TestLedgerBridge:
    def test_build_ledger_carries_payment_rows(self):
        scenario = TestMonteCarlo().scenario("bks")
        out = run_session(scenario, seed=12)
        led = build_ledger("seller-1", out)
        assert led.seller_id == "seller-1"
        assert led.reserve == scenario.reserve
        assert {r.buyer_id for r in led.rows} == {"a", "b", "c"}
        for row in led.rows:
            assert row.bytes == out.payments[row.buyer_id].bytes
            assert row.rebate == out.payments[row.buyer_id].rebate
        # Unpooled seller revenue must equal the ledger's buyer payments.
        assert led.buyer_payments() == pytest.approx(out.seller_revenue)
