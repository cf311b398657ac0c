"""Session engine tests.

Covers the worked VCG manipulation example, strategy identities, the isolation
and monotonicity properties of strict-priority routing (monotonicity in a
buyer's own bid checked exactly per generated world), welfare against the
offline optimum (value-ordered service for memoryless demand, a brute-force
enumerator for stateful demand), Monte Carlo determinism, the tie rule,
parameter checks (NaN, infinities, values and bids whose products overflow,
non-numbers, bools, fractional epoch counts, a strategy field its kind does
not read), numpy scalar capacities, the equivalence of the epoch loop's
allocator and the routing kernels and of the priority sweep (fq, fifo and
hybrid routing, impatient buyers included) with the epoch loop, a certificate
of every allocation against the definitions (the policy per column, the hybrid
reservation, presented demand and real traffic) on the equivalence and
relation tests, that every session takes the sweep, that an ineligible buyer
is absent on every path, that bids reach the allocation only through the
priority groups, three exact relations on every path (doubling every value and
the reserve doubles every payment; doubling every KB quantity doubles traffic
and payments; idle epochs in front shift the trace), settlement by buyer
position against each mechanism's per-buyer definition, a process pool no
larger than the runs, and world replay under counterfactual bids and pinned
coins, any sequence of calls on a replayed world equal to fresh sessions, the
Monte Carlo batch's array keys, flags and buckets against ``_keyed`` and
``_groups``, the batch's worlds, drawn at once, against each seed's world
drawn alone, and the batch's samples and ledger rows, on grids with stateful
buyers and hybrid scenarios too, and on buckets of buffered or impatient buyers
swept across their runs, against each run's replayed sessions.
"""

import itertools
import os
import pathlib
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bandshare.demand
import bandshare.engine
from bandshare.cli import main
from bandshare.config import ConfigError, builtin_config_path, check_runs, load_config
from bandshare.demand import DemandSpec, FieldError
from bandshare.engine import (
    BuyerSpec,
    HybridBoost,
    Probe,
    Scenario,
    Strategy,
    _allocate_epoch,
    _checked,
    _finish,
    _groups,
    _keyed,
    _probe_arrays,
    _run_loop,
    _run_sweep,
    _stateful,
    _streams,
    _window,
    _worlds,
    build_ledger,
    buyer_rows,
    ledger_rows,
    replay,
    run_monte_carlo,
    run_probes,
    run_seeds,
    run_session,
)
from bandshare.payments import resample_bid, vmm_epoch_charges
from bandshare.verify import MONOTONE_MODEL_KINDS
from bandshare.routing import maxmin, priority_groups, proportional, spq


def _bid_records(scenario, draws, bid_override, force_resample):
    """What a replayed session keys its bids by: ``_checked`` bids, keyed."""
    _, bids, forced = _checked(Probe(scenario, bid_override, force_resample))
    return _keyed(scenario, bids, draws, forced)


def world(buyers, seed):
    """The world of one session seed, drawn buyer by buyer: the demand
    realizations and each buyer's resampling (coin, gamma).  The reference
    that ``_worlds``, which draws a batch's worlds at once, is held to."""
    # The first and third children that SeedSequence(seed).spawn(3) would make.
    demand_ss, resample_ss = (np.random.SeedSequence(seed, spawn_key=(k,)) for k in (0, 2))
    n = len(buyers)
    seeds = demand_ss.generate_state(n, dtype=np.uint64)
    realizations = [b.demand.realize(int(s)) for b, s in zip(buyers, seeds)]
    return realizations, np.random.default_rng(resample_ss).random((n, 2)).tolist()


def seeded_worlds(scenario, seeds):
    """``_worlds`` of session ``seeds``, their streams computed for them alone."""
    return _worlds(scenario, _streams(scenario, seeds))


def demand_matrix(scenario, realizations):
    """(n, T) demand matrix of one world, masked to each buyer's active
    window, with a row for every memoryless realization and zeros for the
    others: the per-seed reference of ``_worlds``' stacked matrix."""
    demand = np.zeros((len(scenario.buyers), scenario.horizon))
    for i, (buyer, real) in enumerate(zip(scenario.buyers, realizations)):
        lo, hi = _window(scenario, buyer)
        if lo <= hi and real.memoryless:
            demand[i, lo - 1 : hi] = real.query_epochs(lo, hi)
    return demand


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

    @pytest.mark.parametrize(
        "kind,field,v",
        [
            ("greedy", "pad", 5.0),
            ("greedy", "delay_epochs", 2),
            ("greedy", "bid_factor", 3.0),
            ("pad", "bid_factor", 3.0),
            ("pad", "delay_epochs", 1),
            ("delay", "pad", 1.0),
            ("delay", "bid_factor", 0.5),
            ("misreport", "pad", 2.0),
            ("misreport", "delay_epochs", 3),
        ],
    )
    def test_field_its_kind_does_not_read_rejected(self, kind, field, v):
        # Each was accepted: greedy with a pad played greedy, and pad with a
        # bid factor padded and misreported at once, which no config expresses.
        message = f"^{field} must be .* under strategy '{kind}'"
        with pytest.raises(FieldError, match=message) as info:
            Strategy(kind, **{field: v})
        assert info.value.field == field

    def test_default_of_an_unread_field_accepted(self):
        assert Strategy("pad", pad=2.0, delay_epochs=0, bid_factor=1.0).pad == 2.0
        assert Strategy("misreport", bid_factor=np.float64(2.0), pad=0).bid_factor == 2.0

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
            reserve=1.0,
            horizon=10,
        )
        out = run_session(scenario, seed=0)
        assert out.bytes["a"] == 30.0
        assert out.payments["a"].bytes == 50.0
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
        lambda: BuyerSpec("a", NAN, DemandSpec.constant(1.0)),
        lambda: Strategy("pad", pad=NAN),
        lambda: Strategy("misreport", bid_factor=NAN),
        lambda: HybridBoost("a", NAN, 10),
    ],
    ids=["capacity", "reserve", "value", "pad", "bid_factor", "target_bytes"],
)
def test_nan_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


INF = float("inf")


@pytest.mark.parametrize(
    "message,build",
    [
        ("^value must be finite", lambda: BuyerSpec("a", INF, DemandSpec.constant(1.0))),
        ("^bid_factor must be finite", lambda: Strategy("misreport", bid_factor=INF)),
        ("^capacity must be finite", lambda: Scenario((), INF)),
        ("^reserve must be finite", lambda: Scenario((), 10.0, reserve=INF)),
        ("^pad must be finite", lambda: Strategy("pad", pad=INF)),
        ("^target_bytes must be finite", lambda: HybridBoost("a", INF, 10)),
        ("^constant: k must be finite", lambda: DemandSpec.constant(INF)),
        ("^impatient: m must be finite", lambda: DemandSpec.impatient(5.0, 3, INF)),
        ("^flow_trace: mean_rate must be finite", lambda: DemandSpec.flow_trace(INF, 10)),
        ("generation at epoch 2 must be a finite", lambda: DemandSpec.buffered([1.0, INF])),
    ],
    ids=[
        "value", "bid_factor", "capacity", "reserve", "pad", "target_bytes",
        "constant-k", "impatient-m", "flow_trace-mean_rate", "buffered-generation",
    ],
)
def test_infinite_parameters_rejected(message, build):
    # Each was accepted: an infinite value, price or bid factor gave NaN or
    # infinite utilities, an infinite capacity, reserve or pad played
    # silently, and an infinite constant rate played on the sweep although
    # ``query`` rejects it on the loop.
    with pytest.raises(ValueError, match=message):
        build()


HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize(
    "field,build",
    [
        ("value", lambda: BuyerSpec("a", HUGE, DemandSpec.constant(1.0))),
        ("value", lambda: BuyerSpec("a", Fraction(HUGE), DemandSpec.constant(1.0), 1, 10)),
        ("arrival", lambda: BuyerSpec("a", 1.0, DemandSpec.constant(1.0), HUGE, HUGE)),
        ("capacity", lambda: Scenario((), HUGE)),
        ("mu", lambda: Scenario((), 10.0, mu=HUGE)),
        ("reserve", lambda: Scenario((), 10.0, reserve=HUGE)),
        ("horizon", lambda: Scenario((), 10.0, horizon=HUGE)),
        ("pad", lambda: Strategy("pad", pad=HUGE)),
        ("delay_epochs", lambda: Strategy("delay", delay_epochs=HUGE)),
        ("bid_factor", lambda: Strategy("misreport", bid_factor=HUGE)),
        ("target_bytes", lambda: HybridBoost("a", HUGE, 3)),
        ("deadline", lambda: HybridBoost("a", 1.0, HUGE)),
        ("k", lambda: DemandSpec.constant(HUGE)),
        ("g", lambda: DemandSpec.time_varying([1.0, HUGE])),
        ("g", lambda: DemandSpec.buffered([HUGE])),
        ("k", lambda: DemandSpec.impatient(HUGE, 3, 1.0)),
        ("p", lambda: DemandSpec.impatient(1.0, HUGE, 1.0)),
        ("m", lambda: DemandSpec.impatient(1.0, 3, HUGE)),
        ("g", lambda: DemandSpec.increasing_rate(HUGE)),
        ("g", lambda: DemandSpec.increasing_total(HUGE)),
        ("k", lambda: DemandSpec.cliff(HUGE, 1.0)),
        ("m", lambda: DemandSpec.cliff(1.0, HUGE)),
        ("mean_rate", lambda: DemandSpec.flow_trace(HUGE, 10)),
        ("horizon", lambda: DemandSpec.flow_trace(1.0, HUGE)),
        ("mean_duration", lambda: DemandSpec.flow_trace(1.0, 10, mean_duration=HUGE)),
        ("stddev_duration", lambda: DemandSpec.flow_trace(1.0, 10, stddev_duration=HUGE)),
        ("mean_interarrival", lambda: DemandSpec.flow_trace(1.0, 10, mean_interarrival=HUGE)),
    ],
    ids=[
        "value", "value-fraction", "arrival", "capacity", "mu", "reserve", "horizon",
        "pad", "delay", "bid_factor", "target_bytes", "deadline", "constant", "time_varying",
        "buffered", "impatient-k", "impatient-p", "impatient-m", "increasing_rate", "increasing_total",
        "cliff-k", "cliff-m", "flow_trace-mean_rate", "flow_trace-horizon",
        "flow_trace-mean_duration", "flow_trace-stddev_duration", "flow_trace-mean_interarrival",
    ],
)
def test_int_too_large_for_a_float_is_a_value_error_naming_its_field(field, build):
    # Each was accepted or raised an OverflowError from a float conversion
    # (a Fraction too, as a non-integral rational).
    with pytest.raises(FieldError) as info:
        build()
    assert info.value.field == field


def test_real_fields_are_stored_as_floats():
    # An int value that a float holds still overflows the session's sums; as
    # an int it made the overflow check raise an OverflowError.
    strategy = Strategy("misreport", bid_factor=Fraction(1, 2))
    buyer = BuyerSpec("a", 10**308, DemandSpec.constant(10), 1, 10, strategy)
    assert type(buyer.value) is float and type(buyer.strategy.bid_factor) is float
    with pytest.raises(ValueError, match="^buyer 'a': value or bid overflows"):
        Scenario((buyer,), 12, horizon=10)
    scenario = Scenario((), 12, mu=np.float32(0.5), reserve=np.int64(2))
    assert {type(getattr(scenario, f)) for f in ("capacity", "mu", "reserve")} == {float}


@pytest.mark.parametrize("mechanism", ["bks", "vmm", "fixed"])
@pytest.mark.parametrize(
    "buyer",
    [
        BuyerSpec("a", 1e308, DemandSpec.constant(10.0), 1, 10),
        BuyerSpec(
            "a", 1e300, DemandSpec.constant(10.0), 1, 10, Strategy("misreport", bid_factor=1e8)
        ),
    ],
    ids=["value", "bid"],
)
def test_overflowing_value_or_bid_rejected(buyer, mechanism):
    # Finite but huge: a value of 1e308 beside a second buyer on capacity 1.5
    # played, with utility NaN under bks and infinite welfare on every mechanism.
    other = BuyerSpec("b", 1.0, DemandSpec.constant(10.0), 1, 10)
    with pytest.raises(ValueError, match="^buyer 'a': value or bid overflows"):
        Scenario((buyer, other), 1.5, mechanism=mechanism, horizon=10)
    # A value of 1e300 passes, and the sums of its session stay finite.
    near = replace(buyer, value=1e300, strategy=Strategy("greedy"))
    out = run_session(Scenario((near, other), 1.5, mechanism=mechanism, horizon=10), 0)
    assert all(np.isfinite([out.welfare, out.seller_revenue, *out.utilities.values()]))


@pytest.mark.parametrize(
    "field,build",
    [
        ("pad", lambda: Strategy("pad", pad="a")),
        ("bid_factor", lambda: Strategy("misreport", bid_factor=True)),
        ("value", lambda: BuyerSpec("a", "x", DemandSpec.constant(1.0))),
        ("value", lambda: BuyerSpec("a", True, DemandSpec.constant(1.0))),
        ("target_bytes", lambda: HybridBoost("a", "x", 3)),
        ("capacity", lambda: Scenario((), capacity="5")),
        ("mu", lambda: Scenario((), capacity=5, mu="0.2")),
        ("reserve", lambda: Scenario((), capacity=5, reserve=None)),
    ],
    ids=[
        "pad-str", "bid_factor-bool", "value-str", "value-bool", "target_bytes-str",
        "capacity-str", "mu-str", "reserve-none",
    ],
)
def test_non_numeric_parameters_rejected(field, build):
    # Strings and None used to raise a TypeError from a comparison, and bools
    # were accepted as 0 and 1.
    with pytest.raises(ValueError, match=f"^{field} must be a real number"):
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


@pytest.mark.parametrize(
    "routing, mechanism", [("spq", "bks"), ("fq", "bks"), ("fifo", "fixed"), ("spq", "vmm")]
)
def test_numpy_scalar_capacity_is_one_number(routing, mechanism):
    # The routing kernels used to take a numpy integer capacity for a
    # per-epoch vector: "need 10 capacities >= 0, got 4".
    buyers = (
        BuyerSpec("a", 3.0, DemandSpec.flow_trace(4.0, 10), 1, 10),
        BuyerSpec("b", 2.0, DemandSpec.constant(3.0), 1, 10),
    )
    for capacity in (np.int64(4), np.float32(4.0)):
        scenario = Scenario(buyers, capacity, routing, mechanism, reserve=1.0, horizon=10)
        plain = Scenario(buyers, 4, routing, mechanism, reserve=1.0, horizon=10)
        assert_same_outcome(run_session(scenario, 3), run_session(plain, 3))


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


def probe_models(kind, horizon):
    """Demand models of ``kind`` for the probe of an exact monotonicity check."""
    rate = st.floats(1.0, 15.0)
    series = st.lists(st.floats(0.0, 12.0), min_size=1, max_size=horizon)
    return {
        "constant": rate.map(DemandSpec.constant),
        "time_varying": series.map(DemandSpec.time_varying),
        "buffered": series.map(DemandSpec.buffered),
        "impatient": st.builds(
            DemandSpec.impatient, rate, st.integers(1, horizon), st.floats(0.0, 120.0)
        ),
        "increasing_rate": rate.map(
            lambda k: DemandSpec.increasing_rate(lambda z: min(30.0, k / 3 + 0.5 * z))
        ),
        "increasing_total": rate.map(
            lambda k: DemandSpec.increasing_total(lambda x: k / 3 + min(x, 100.0) / 10.0)
        ),
        "cliff": st.builds(DemandSpec.cliff, rate, st.floats(5.0, 60.0)),
    }[kind]


@st.composite
def probe_worlds(draw):
    """A greedy probe of a natural demand model or the cliff beside 1-3 greedy
    competitors of any model, value, window and pinned or free coin, under
    spq or hybrid routing (boosting any buyer) with bks resampling; the
    probe's coin is pinned off, so her routing key is her bid."""
    horizon = draw(st.integers(5, 40))
    kind = draw(st.sampled_from(MONOTONE_MODEL_KINDS + ("cliff",)))
    arrival = draw(st.integers(0, 3))
    buyers = [BuyerSpec("probe", 5.0, draw(probe_models(kind, horizon)), arrival, horizon)]
    value = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.0, 10.0))
    for j in range(draw(st.integers(1, 3))):
        arrival = draw(st.integers(0, horizon))
        departure = draw(st.integers(arrival, horizon + 2))
        demand = draw(demand_models(horizon))
        buyers.append(BuyerSpec(f"c{j}", draw(value), demand, arrival, departure))
    ids = [b.buyer_id for b in buyers]
    routing = draw(st.sampled_from(["spq", "hybrid"]))
    boost = HybridBoost(
        draw(st.sampled_from(ids)), draw(st.floats(0.0, 200.0)), draw(st.integers(1, horizon))
    )
    scenario = Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(2.0, 40.0)),
        routing=routing,
        mu=draw(st.floats(0.05, 0.6)),
        reserve=draw(st.sampled_from([0.0, 1.0, 3.0])),
        horizon=horizon,
        hybrid=boost if routing == "hybrid" else None,
    )
    pins = draw(st.dictionaries(st.sampled_from(ids[1:]), st.booleans()))
    return scenario, {"probe": False, **pins}


# Below the competitor's key the cliff probe moves 7 KB an epoch and stops at
# 56 KB; above it she moves 10 KB an epoch and stops at 50.
CLIFF_WORLD = (
    Scenario(
        buyers=(
            BuyerSpec("probe", 5.0, DemandSpec.cliff(10.0, 50.0), 1, 40),
            BuyerSpec("c0", 2.0, DemandSpec.constant(3.0), 1, 40),
        ),
        capacity=10.0, horizon=40,
    ),
    {"probe": False, "c0": False},
)
# Hybrid, with a stateful competitor tied with the boosted one.
TIED_HYBRID_WORLD = (
    Scenario(
        buyers=(
            BuyerSpec("probe", 5.0, DemandSpec.constant(6.0), 1, 20),
            BuyerSpec("c0", 3.0, DemandSpec.buffered([5.0] * 10), 1, 20),
            BuyerSpec("c1", 3.0, DemandSpec.constant(4.0), 1, 20),
        ),
        capacity=12.0, routing="hybrid", reserve=1.0, horizon=20,
        hybrid=HybridBoost("c1", 30.0, 10),
    ),
    {"probe": False, "c0": False, "c1": False},
)
# A natural probe against a cliff competitor, boosted to 1 KB by epoch 1.  At
# the tie the probe shares each epoch with her, so the competitor moves 1 KB an
# epoch instead of 2 and still demands 2 KB when 0.5 KB short of her cliff:
# the probe moves 10, 10, 9.5 and 19 KB at bids 0, 0.5, 1 (the tie) and 1.5.
CLIFF_COMPETITOR_WORLD = (
    Scenario(
        buyers=(
            BuyerSpec("probe", 5.0, DemandSpec.constant(2.0), 1, 10),
            BuyerSpec("c0", 1.0, DemandSpec.cliff(2.0, 10.0), 1, 10),
        ),
        capacity=2.0, routing="hybrid", mu=0.5, horizon=10,
        hybrid=HybridBoost("c0", 1.0, 1),
    ),
    {"probe": False, "c0": False},
)
MEMORYLESS_KINDS = {"constant", "time_varying", "flow_trace"}


def test_bytes_monotone_in_own_bid_exactly_per_world():
    """In a fixed world, the probe's bytes change only where her key crosses
    the reserve or a competitor's key, so evaluating her at 0, at the
    reserve, at each eligible competitor key (a tie) and at one bid in each
    gap above them (at most 2m + 3 sessions for m competitors) checks
    monotonicity in her own bid exactly.  A natural probe is monotone
    whenever every competitor is natural too.  The cliff, which is not
    natural, is not monotone in some world as the probe, nor always harmless
    as a competitor (``CLIFF_COMPETITOR_WORLD``).  Bytes may differ by
    rounding where a tie moves a stateful probe from her vector form to the
    epoch stepper, so a drop of 1e-9 relative is allowed."""
    reached, cliff_violations, cliff_competitor_violations = set(), [], []

    @example(world=CLIFF_WORLD, seed=0)
    @example(world=TIED_HYBRID_WORLD, seed=0)
    @example(world=CLIFF_COMPETITOR_WORLD, seed=0)
    @given(world=probe_worlds(), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def monotone(world, seed):
        scenario, pins = world
        session, r = replay(scenario, seed), scenario.reserve
        at_zero = session({"probe": 0.0}, pins)
        keys = [k for b, k in at_zero.perturbed_bids.items() if b != "probe" and k >= r]
        levels = sorted({r, *keys})
        bids = {0.0}
        for lo, hi in zip(levels, levels[1:] + [levels[-1] + 1.0]):
            bids |= {lo, (lo + hi) / 2}
        bids = sorted(bids)
        assert len(bids) <= 2 * (len(scenario.buyers) - 1) + 3
        x = [at_zero.bytes["probe"]] + [
            session({"probe": b}, pins).bytes["probe"] for b in bids[1:]
        ]
        ok = all(hi >= lo - 1e-9 * max(1.0, lo) for lo, hi in zip(x, x[1:]))
        kind = scenario.buyers[0].demand.kind
        if kind == "cliff":
            cliff_violations.append(not ok)
        elif any(b.demand.kind == "cliff" for b in scenario.buyers[1:]):
            cliff_competitor_violations.append(not ok)
        else:
            assert ok, (kind, bids, x)
        reached.add(scenario.routing)
        if len(set(keys)) < len(keys):
            reached.add("tie")
        if any(b.demand.kind not in MEMORYLESS_KINDS for b in scenario.buyers[1:]):
            reached.add("stateful competitor")

    monotone()
    assert any(cliff_violations) and any(cliff_competitor_violations)
    assert reached == {"spq", "hybrid", "tie", "stateful competitor"}


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
    realizations = world(scenario.buyers, seed)[0]
    values = [b.value for b in scenario.buyers]
    grants = spq(demand_matrix(scenario, realizations), values, scenario.capacity)
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

    @pytest.mark.parametrize("routing", ["spq", "fq", "fifo"])
    def test_unknown_boost_buyer_rejected_under_any_routing(self, routing):
        # Boost parameters set beside another routing used to go unchecked.
        with pytest.raises(FieldError, match="^boosted buyer 'nobody' is not in the scenario"):
            self.impatient_scenario(routing, HybridBoost("nobody", 10.0, 60))

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
    """fq and fifo scenarios the sweep fills column-wise: memoryless demand, greedy or
    misreporting buyers, n <= 5, tied or distinct values, fq or fifo routing,
    any mechanism, reserve and windows, and per-epoch demand lists from 1 to
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
        routing=draw(st.sampled_from(["fq", "fifo"])),
        mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
        mu=draw(st.floats(0.05, 0.95)),
        reserve=draw(st.sampled_from([0.0, 1.0, 4.0])),
        horizon=horizon,
    )


def demand_models(horizon, rate=st.floats(0.0, 30.0)):
    """Every demand model, with parameters small enough to contend for
    capacity; ``rate`` draws the rates (a third of one for increasing_*)."""
    sequence = st.lists(rate, min_size=1, max_size=horizon + 5)
    quota = st.one_of(st.sampled_from([0.0, 10.0]), st.floats(0.0, 100.0))
    return st.one_of(
        rate.map(DemandSpec.constant),
        sequence.map(DemandSpec.time_varying),
        st.floats(0.0, 20.0).map(lambda r: DemandSpec.flow_trace(r, horizon)),
        sequence.map(DemandSpec.buffered),
        st.builds(DemandSpec.impatient, rate, st.integers(1, horizon + 2), quota),
        st.builds(DemandSpec.cliff, rate, quota),
        rate.map(lambda k: DemandSpec.increasing_rate(lambda z: min(30.0, k / 3 + 0.5 * z))),
        rate.map(lambda k: DemandSpec.increasing_total(lambda z: k / 3 + min(z, 100.0) / 10.0)),
    )


STRATEGIES = st.one_of(
    st.just(Strategy("greedy")),
    st.floats(0.0, 5.0).map(lambda pad: Strategy("pad", pad=pad)),
    st.integers(0, 4).map(lambda k: Strategy("delay", delay_epochs=k)),
    st.floats(0.0, 2.0).map(lambda f: Strategy("misreport", bid_factor=f)),
)


@st.composite
def priority_scenarios(draw):
    """Strict-priority scenarios: all 8 demand models, all 4 strategies, n <=
    5, windows, reserves, every mechanism.  Memoryless buyers often
    tie on their value; stateful ones rarely do."""
    horizon = draw(st.integers(1, 30))
    n = draw(st.integers(1, 5))
    buyers = []
    for k in range(n):
        demand = draw(demand_models(horizon))
        common = demand.kind in ("constant", "time_varying", "flow_trace")
        value = draw(st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.0, 10.0))
                     if common else st.floats(0.0, 10.0))
        arrival = draw(st.integers(0, horizon + 2))
        departure = draw(st.integers(arrival, horizon + 5))
        buyers.append(BuyerSpec(f"b{k}", value, demand, arrival, departure, draw(STRATEGIES)))
    return Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(0.5, 60.0)),
        routing="spq",
        mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
        mu=draw(st.floats(0.05, 0.95)),
        reserve=draw(st.sampled_from([0.0, 1.0, 4.0])),
        horizon=horizon,
    )


MEMORYLESS_STRATEGIES = st.one_of(
    st.just(Strategy("greedy")),
    st.floats(0.0, 2.0).map(lambda f: Strategy("misreport", bid_factor=f)),
)


def memoryless_models(horizon, rate=st.floats(0.0, 30.0)):
    return st.one_of(
        rate.map(DemandSpec.constant),
        st.lists(rate, min_size=1, max_size=horizon + 5).map(DemandSpec.time_varying),
        st.floats(0.0, 20.0).map(lambda r: DemandSpec.flow_trace(r, horizon)),
    )


@st.composite
def impatient_scenarios(draw):
    """fq and fifo scenarios with 1-3 greedy or misreporting impatient buyers
    (rate, patience epoch, minimum service and window all drawn, patience
    before arrival included) beside up to 3 memoryless ones, with tied or
    distinct values, any mechanism and floor."""
    horizon = draw(st.integers(1, 30))
    n_impatient, n_memoryless = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    quota = st.one_of(st.sampled_from([0.0, 10.0, 60.0]), st.floats(0.0, 200.0))
    impatient = st.builds(
        DemandSpec.impatient, st.floats(0.0, 30.0), st.integers(1, horizon + 2), quota
    )
    models = [draw(impatient) for _ in range(n_impatient)]
    models += [draw(memoryless_models(horizon)) for _ in range(n_memoryless)]
    buyers = []
    for k, demand in enumerate(draw(st.permutations(models))):
        value = draw(st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.0, 10.0)))
        arrival = draw(st.integers(0, horizon + 2))
        departure = draw(st.integers(arrival, horizon + 5))
        strategy = draw(MEMORYLESS_STRATEGIES)
        buyers.append(BuyerSpec(f"b{k}", value, demand, arrival, departure, strategy))
    return Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(0.5, 60.0)),
        routing=draw(st.sampled_from(["fq", "fifo"])),
        mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
        mu=draw(st.floats(0.05, 0.95)),
        reserve=draw(st.sampled_from([0.0, 1.0, 4.0])),
        horizon=horizon,
    )


@st.composite
def hybrid_scenarios(draw):
    """Hybrid scenarios in which every buyer draws any demand model and
    strategy.  The boosted buyer is more often impatient, buffered or
    memoryless and greedy or misreporting; her value often ties with another
    buyer's, and her target, deadline and place in the key order are drawn.
    In half of them she is paced under 1 KB/epoch below a buyer who would
    take all the capacity, so that her reservation binds."""
    horizon = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.0, 10.0))
    rate = st.floats(0.0, 30.0)
    boosted_demand = draw(st.one_of(
        st.builds(DemandSpec.impatient, rate, st.integers(1, horizon + 2), st.floats(0.0, 200.0)),
        st.lists(rate, min_size=1, max_size=horizon + 5).map(DemandSpec.buffered),
        memoryless_models(horizon),
        demand_models(horizon),
    ))
    boosted_strategy = draw(st.one_of(MEMORYLESS_STRATEGIES, STRATEGIES))
    demands = [draw(demand_models(horizon)) for _ in range(draw(st.integers(0, 3)))]
    position = draw(st.integers(0, len(demands)))
    buyers = []
    for k, demand in enumerate(demands[:position] + [boosted_demand] + demands[position:]):
        arrival = draw(st.integers(0, horizon + 2))
        departure = draw(st.integers(arrival, horizon + 5))
        strategy = boosted_strategy if k == position else draw(STRATEGIES)
        buyers.append(BuyerSpec(f"b{k}", draw(value), demand, arrival, departure, strategy))
    deadline = draw(st.integers(1, horizon + 3))
    target = draw(st.one_of(st.sampled_from([0.0, 50.0]), st.floats(0.0, 400.0)))
    if draw(st.booleans()):
        buyers.append(BuyerSpec(f"b{len(buyers)}", 10.0, DemandSpec.constant(60.0)))
        target = draw(st.floats(0.0, 1.0, exclude_max=True)) * deadline
    return Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(0.5, 60.0)),
        routing="hybrid",
        mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
        mu=draw(st.floats(0.05, 0.95)),
        reserve=draw(st.sampled_from([0.0, 1.0, 4.0])),
        horizon=horizon,
        hybrid=HybridBoost(f"b{position}", target, deadline),
    )


def assert_close_outcome(fast, slow):
    """Every field of two outcomes agrees to 1e-9."""
    close = lambda a: pytest.approx(a, abs=1e-9)
    assert fast.buyer_ids == slow.buyer_ids
    for name in ("bytes", "bids", "perturbed_bids", "utilities"):
        assert getattr(fast, name) == close(getattr(slow, name)), name
    for b in fast.buyer_ids:
        f, s = fast.payments[b], slow.payments[b]
        assert (f.buyer_id, f.bytes, f.gross, f.rebate) == close(
            (s.buyer_id, s.bytes, s.gross, s.rebate)
        ), b
    assert fast.welfare == close(slow.welfare)
    assert fast.seller_revenue == close(slow.seller_revenue)
    assert fast.reserve == slow.reserve
    np.testing.assert_allclose(fast.trace, slow.trace, rtol=0, atol=1e-9)


def assert_certified(scenario, realizations, bids, out, grants, shown):
    """A session's allocation checked against the definitions, with no engine
    or routing code.  In each epoch of her window an eligible buyer presents
    her true demand d(t, X) at her real traffic X so far, plus her pad, or
    what she generated ``delay`` epochs before; her reported bytes are X, the
    sum of min(grant, d) in epoch order (exactly so if she pads or delays).
    Column by column only the eligible rows are served, no row gets more than
    it presents, and then
    * fifo: each row gets g = p min(1, c / sum p);
    * fq: one group of every eligible row; spq: groups of equal routing key,
      highest first, each from what the groups above left.  A group takes
      at most what is left, all of it unless it presents less (work
      conservation), and a row that gets less than it presents gets the most
      in its group (the max-min bottleneck condition);
    * hybrid: spq after the boosted buyer's reservation, which in each epoch
      t up to the deadline in which her X is below the target is
      min((target - X) / (deadline - t + 1), presented, c).
    """
    c, T = scenario.capacity, scenario.horizon
    tol = 1e-9 * max(1.0, c)
    eligible = [i for i, b in enumerate(bids.bid) if b >= scenario.reserve]
    others = [i for i in range(len(grants)) if i not in eligible]
    assert not grants[others].any() and not shown[others].any(), "an ineligible row is served"
    assert (grants >= 0).all() and (grants <= shown + tol).all(), "a grant exceeds its demand"
    boost = scenario.hybrid if scenario.routing == "hybrid" else None
    reserved = np.zeros_like(grants)
    for i in eligible:
        buyer, real = scenario.buyers[i], realizations[i]
        lo, hi = max(1, buyer.arrival), min(T, buyer.departure)
        for rows in (grants, shown):
            assert not rows[i, : lo - 1].any() and not rows[i, hi:].any(), f"row {i} idle"
        if lo > hi:
            continue
        g, p = grants[i, lo - 1 : hi], shown[i, lo - 1 : hi]
        if real.memoryless:
            truth = real.query_epochs(lo, hi)
        else:
            truth, x = np.empty(len(g)), 0.0
            for j in range(len(g)):
                truth[j] = real.query(lo + j, x)
                x += min(g[j], truth[j])
        moved = np.cumsum(np.minimum(g, truth))
        wait, pad = buyer.strategy.delay_epochs, buyer.strategy.pad
        presented = np.concatenate((np.zeros(wait), truth))[: len(truth)] + pad
        assert (abs(p - presented) <= tol + 1e-9 * presented).all(), f"row {i} presents"
        x, exact = out.bytes[buyer.buyer_id], buyer.strategy.kind in ("pad", "delay")
        ok = x == moved[-1] if exact else abs(x - moved[-1]) <= tol + 1e-9 * x
        assert ok, f"row {i} moves"
        if boost is not None and buyer.buyer_id == boost.buyer_id:
            t, before = np.arange(lo, hi + 1), np.concatenate(([0.0], moved[:-1]))
            due = (t <= boost.deadline) & (before < boost.target_bytes)
            pace = (boost.target_bytes - before) / np.maximum(boost.deadline - t + 1, 1)
            reserved[i, lo - 1 : hi] = np.where(due, np.minimum(np.minimum(pace, p), c), 0.0)
    assert (grants >= reserved - tol).all(), "the boosted buyer gets less than her reservation"
    if not eligible:
        return
    if scenario.routing == "fifo":
        scale = c / np.maximum(shown.sum(axis=0), c)  # min(1, c / sum p), as c > 0
        np.testing.assert_allclose(grants, shown * scale, rtol=0, atol=tol, err_msg="fifo")
        return
    tied = scenario.routing == "fq"  # every key ties
    keys = [0.0 if tied else bids.perturbed_bid[i] for i in eligible]
    left = c - reserved.sum(axis=0)
    for key in sorted(set(keys), reverse=True):
        rows = [i for i, k in zip(eligible, keys) if k == key]
        g, p = grants[rows] - reserved[rows], shown[rows] - reserved[rows]
        served = g.sum(axis=0)
        assert (served <= left + tol).all(), f"group {rows} takes more than is left"
        assert (served >= np.minimum(left, p.sum(axis=0)) - tol).all(), f"group {rows} idles"
        assert ((g >= p - tol) | (g >= g.max(axis=0) - tol)).all(), f"group {rows} not max-min"
        left = left - served


def settled(scenario, records, path, *args):
    """A path's allocation, settled by ``_finish`` as a replayed session
    settles it and certified; ``args[0]`` holds the world's realizations."""
    played = path(scenario, *args)
    out = _finish(scenario, records, *played)
    assert_certified(scenario, args[0], records, out, *played[:2])
    return out


def certified_run(scenario, seed):
    """``run_session``, its allocation certified from the grants and the
    presented demand that a spy on ``_finish`` reads."""
    spied, finish = [], bandshare.engine._finish
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            bandshare.engine, "_finish", lambda *args: spied.append(args) or finish(*args)
        )
        out = run_session(scenario, seed)
    ((_, bids, grants, shown, _),) = spied
    assert_certified(scenario, world(scenario.buyers, seed)[0], bids, out, grants, shown)
    return out


def contest_scenarios():
    """The strict-priority scenarios of the builtin contest configs."""
    impatient = load_config(builtin_config_path("impatient_deviation"))
    return {
        name: load_config(builtin_config_path(name)).scenario
        for name in ("packet_contest_resampling", "packet_contest_vcg")
    } | {"impatient_deviation": next(v for v in impatient.variants if v.name == "spq").scenario}


def exact_cases():
    """The contest configs' strict-priority scenarios, and impatient_deviation's
    fq and hybrid variants at every capacity of its sweep."""
    impatient = load_config(builtin_config_path("impatient_deviation"))
    cases = {name: [scenario] for name, scenario in contest_scenarios().items()}
    for variant in impatient.variants:
        if variant.name != "spq":
            cases[f"impatient_deviation-{variant.name}"] = [
                impatient.sweep.apply(variant.scenario, c) for c in impatient.sweep.values
            ]
    return cases


class TestPathEquivalence:
    @given(scenario=memoryless_scenarios(), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_vectorized_matches_loop(self, scenario, seed):
        """The sweep's column-wise fill of memoryless fq and fifo sessions
        reproduces the epoch loop, the reference semantics, on every field of
        the outcome, and both meet the policy's definition."""
        realizations, draws = world(scenario.buyers, seed)
        records = _bid_records(scenario, draws, None, None)
        groups = _groups(scenario, records)
        assert path_reached(scenario, seed) == "vector"
        stateful = [_stateful(b, r) for b, r in zip(scenario.buyers, realizations)]
        demand = demand_matrix(scenario, realizations)
        fast = settled(scenario, records, _run_sweep, realizations, demand, groups, stateful)
        assert_close_outcome(fast, settled(scenario, records, _run_loop, realizations, groups))

    @given(scenario=priority_scenarios(), seed=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_loop(self, scenario, seed):
        """The priority sweep reproduces the epoch loop on every field of the
        outcome, tied stateful groups included, and both meet the definition
        of strict priority."""
        realizations, draws = world(scenario.buyers, seed)
        records = _bid_records(scenario, draws, None, None)
        groups = _groups(scenario, records)
        stateful = [_stateful(b, r) for b, r in zip(scenario.buyers, realizations)]
        demand = demand_matrix(scenario, realizations)
        fast = settled(scenario, records, _run_sweep, realizations, demand, groups, stateful)
        assert_close_outcome(fast, settled(scenario, records, _run_loop, realizations, groups))

    @given(scenario=impatient_scenarios(), seed=st.integers(0, 2**32), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_impatient_fq_fifo_match_loop(self, scenario, seed, data):
        """The sweep plays fq and fifo with impatient buyers as the loop does,
        on every field of the outcome, and both meet the policy's definition.
        Half the examples set one
        impatient buyer's minimum service to exactly the traffic she has moved
        by her patience epoch, so she must quit: the test is strict."""
        realizations, draws = world(scenario.buyers, seed)
        records = _bid_records(scenario, draws, None, None)
        groups = _groups(scenario, records)
        tested = [
            i for i, b in enumerate(scenario.buyers) if b.demand.kind == "impatient"
            and b.demand.params["p"] < min(b.departure, scenario.horizon)
        ]
        if tested and data.draw(st.booleans()):
            i = data.draw(st.sampled_from(tested))
            k, p = (scenario.buyers[i].demand.params[name] for name in "kp")
            moved = np.cumsum(_run_loop(scenario, realizations, groups)[0][i, :p])[-1]
            buyers = list(scenario.buyers)
            buyers[i] = replace(buyers[i], demand=DemandSpec.impatient(k, p, float(moved)))
            scenario = replace(scenario, buyers=tuple(buyers))
            realizations = world(scenario.buyers, seed)[0]
        stateful = [_stateful(b, r) for b, r in zip(scenario.buyers, realizations)]
        assert path_reached(scenario, seed) in ("vector", "vector-impatient")
        demand = demand_matrix(scenario, realizations)
        fast = settled(scenario, records, _run_sweep, realizations, demand, groups, stateful)
        assert_close_outcome(fast, settled(scenario, records, _run_loop, realizations, groups))

    @staticmethod
    def vector_and_loop(scenario, seed=0):
        realizations, draws = world(scenario.buyers, seed)
        records = _bid_records(scenario, draws, None, None)
        groups = _groups(scenario, records)
        stateful = [_stateful(b, r) for b, r in zip(scenario.buyers, realizations)]
        demand = demand_matrix(scenario, realizations)
        fast = settled(scenario, records, _run_sweep, realizations, demand, groups, stateful)
        return fast, settled(scenario, records, _run_loop, realizations, groups)

    def test_impatient_buyers_are_tested_in_patience_order(self):
        """"late" moves more than her minimum by epoch 4 only because "early"
        quits at epoch 2: 5 + 5 + 10 + 10 = 30 > 25 KB, against 20 KB if
        "early" were still there."""
        scenario = Scenario(
            buyers=(
                BuyerSpec("early", 1.0, DemandSpec.impatient(10.0, 2, 1000.0), 1, 12),
                BuyerSpec("late", 1.0, DemandSpec.impatient(10.0, 4, 25.0), 1, 12),
            ),
            capacity=10.0, routing="fq", mechanism="fixed", horizon=12,
        )
        fast, loop = self.vector_and_loop(scenario)
        assert_same_outcome(fast, loop)
        assert loop.bytes == {"early": 10.0, "late": 110.0}

    def test_impatient_test_sums_in_epoch_order(self):
        """A minimum service equal to the traffic moved by the patience epoch,
        summed in epoch order as the loop sums it, makes the buyer quit.
        Here her eight grants of 10/3 KB sum pairwise to one ulp more."""
        others = tuple(BuyerSpec(b, 1.0, DemandSpec.constant(30.0), 1, 12) for b in "ab")
        scenario = Scenario(others, 10.0, routing="fq", mechanism="fixed", horizon=12)
        probe = BuyerSpec("imp", 1.0, DemandSpec.impatient(30.0, 8, 0.0), 1, 12)
        moved = self.vector_and_loop(replace(scenario, buyers=(probe, *others)))[1].trace[:8, 0]
        assert moved.sum() > np.cumsum(moved)[-1]
        boundary = replace(probe, demand=DemandSpec.impatient(30.0, 8, np.cumsum(moved)[-1]))
        fast, loop = self.vector_and_loop(replace(scenario, buyers=(boundary, *others)))
        assert_same_outcome(fast, loop)
        assert not loop.trace[8:, 0].any()

    @given(scenario=hybrid_scenarios(), seed=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_hybrid_sweep_matches_loop(self, scenario, seed):
        """The priority sweep plays every hybrid session as the loop does, on
        every field of the outcome, ties with the boosted buyer and stateful
        buyers above, beside and below her included."""
        realizations, draws = world(scenario.buyers, seed)
        records = _bid_records(scenario, draws, None, None)
        groups = _groups(scenario, records)
        stateful = [_stateful(b, r) for b, r in zip(scenario.buyers, realizations)]
        demand = demand_matrix(scenario, realizations)
        fast = settled(scenario, records, _run_sweep, realizations, demand, groups, stateful)
        assert_close_outcome(fast, settled(scenario, records, _run_loop, realizations, groups))

    @pytest.mark.parametrize("name", sorted(exact_cases()))
    def test_contest_configs_sweep_exactly_as_loop(self, name):
        """On the builtin contest configs, impatient_deviation's fq and hybrid
        variants at each capacity of its sweep included, the fast paths are
        the loop, bit for bit, with truthful bids and under the bid-1.9
        deviation."""
        for scenario in exact_cases()[name]:
            first = scenario.buyers[0].buyer_id
            for seed in run_seeds(7, 40):
                session = replay(scenario, seed)
                realizations, draws = world(scenario.buyers, seed)
                for override in (None, {first: 1.9}):
                    records = _bid_records(scenario, draws, override, None)
                    groups = _groups(scenario, records)
                    loop = settled(scenario, records, _run_loop, realizations, groups)
                    assert_same_outcome(session(override), loop)


@pytest.mark.parametrize("routing", ["spq", "fq"])
def test_failing_query_names_buyer_and_epoch(routing):
    """A demand query that raises stops the session, on the sweep and in the loop alike."""
    # Steps of 1 KB per epoch reach x = 10 at epoch 11, between the spec's probe points.
    g = lambda z: 1.0 / 0.0 if 9.5 < z < 10.5 else 1.0
    buyer = BuyerSpec("a", 1.0, DemandSpec.increasing_total(g))
    scenario = Scenario((buyer,), capacity=5.0, routing=routing, horizon=20)
    with pytest.raises(RuntimeError, match="buyer 'a' at epoch 11: float division by zero"):
        run_session(scenario, 0)


def builtin_commands():
    """(command, builtin config) for every CLI command that plays sessions."""
    configs = pathlib.Path(builtin_config_path("welfare_capacity")).parent
    for path in sorted(configs.glob("*.yaml")):
        config = load_config(str(path))
        yield from [(command, path.stem) for command, block in (
            ("simulate", True), ("sweep", config.sweep), ("pool", config.pool)
        ) if block]


BUILTIN_COMMANDS = list(builtin_commands())


class TestPathChoice:
    """Every session takes the priority sweep: none reaches the loop, which is
    only the reference the tests hold the sweep to."""

    @pytest.mark.parametrize("name", sorted(contest_scenarios()))
    def test_strict_priority_contests_never_loop(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("the session fell back to the epoch loop")

        monkeypatch.setattr(bandshare.engine, "_run_loop", refuse)
        scenario = contest_scenarios()[name]
        for seed in range(20):
            run_session(scenario, seed)
            run_session(scenario, seed, bid_override={scenario.buyers[0].buyer_id: 1.9})

    @staticmethod
    def loop_calls(monkeypatch, scenario, **overrides):
        calls = []
        loop = bandshare.engine._run_loop

        def counted(*args):
            calls.append(args)
            return loop(*args)

        monkeypatch.setattr(bandshare.engine, "_run_loop", counted)
        run_session(scenario, 0, **overrides)
        return len(calls)

    @pytest.mark.parametrize("command, name", BUILTIN_COMMANDS)
    def test_builtin_configs_never_loop(self, monkeypatch, tmp_path, command, name):
        """No session of any builtin config's simulate, sweep or pool run
        reaches the epoch loop."""
        def refuse(*args):
            raise AssertionError("the session fell back to the epoch loop")

        monkeypatch.setattr(bandshare.engine, "_run_loop", refuse)
        argv = [command, "--config", builtin_config_path(name), "--out-dir", str(tmp_path)]
        assert main(argv + (["--runs", "3"] if command != "pool" else [])) == 0

    def test_hybrid_scans_only_the_reserved_epochs(self, monkeypatch):
        """A hybrid session on the sweep steps epochs one by one only while the
        boosted buyer's reservation can hold: in impatient_deviation, up to
        her 60-epoch deadline, not over the 600-epoch horizon, also when her
        target is out of reach."""
        impatient = load_config(builtin_config_path("impatient_deviation"))
        scenario = next(v for v in impatient.variants if v.name == "hybrid").scenario
        epochs = []
        allocate = bandshare.engine._allocate_epoch
        monkeypatch.setattr(
            bandshare.engine, "_allocate_epoch", lambda *a: epochs.append(a[1]) or allocate(*a)
        )
        for target in (520.0, 5000.0):
            boosted = replace(scenario, hybrid=replace(scenario.hybrid, target_bytes=target))
            for seed in range(5):
                epochs.clear()
                run_session(boosted, seed)
                assert epochs and max(epochs) <= scenario.hybrid.deadline

    def test_stateful_fq_loops_and_hybrid_sweeps(self, monkeypatch):
        """fq with buffered demand has no column-wise form: the sweep plays its
        one group with ``_play`` from the full capacity, which is the loop bit
        for bit.  Hybrid with a stateful buyer keyed above the boosted one
        plays them both with ``_play`` too; neither reaches the loop."""
        impatient = load_config(builtin_config_path("impatient_deviation"))
        base = impatient.sweep.apply(
            next(v for v in impatient.variants if v.name == "hybrid").scenario, 20
        )
        hi = replace(base.buyers[0], demand=DemandSpec.buffered([10.0] * 90))
        stateful_above = replace(base, buyers=(hi, *base.buyers[1:]))
        buffered_fq = replace(stateful_above, routing="fq")
        for scenario in (stateful_above, buffered_fq, base):
            assert self.loop_calls(monkeypatch, scenario) == 0
        assert path_reached(buffered_fq, 0) == "loop"
        realizations, draws = world(buffered_fq.buyers, 0)
        records = _bid_records(buffered_fq, draws, None, None)
        groups = _groups(buffered_fq, records)
        loop = settled(buffered_fq, records, _run_loop, realizations, groups)
        assert_same_outcome(run_session(buffered_fq, 0), loop)

    def test_tied_stateful_group_sweeps(self, monkeypatch):
        scenario = Scenario(
            buyers=(
                BuyerSpec("a", 2.0, DemandSpec.constant(5.0)),
                BuyerSpec("b", 2.0, DemandSpec.buffered([3.0] * 10)),
            ),
            capacity=6.0,
            mechanism="vmm",
            horizon=20,
        )
        # The world fixes the path: tied keys and distinct ones both take the sweep.
        assert self.loop_calls(monkeypatch, scenario) == 0
        assert self.loop_calls(monkeypatch, scenario, bid_override={"a": 3.0}) == 0

    @staticmethod
    def monte_carlo_sweeps(monkeypatch, grid):
        """How a 4-run Monte Carlo of ``grid`` plays: its number of
        ``_mc_batch`` calls, and the routing and the runs of each sweep."""
        batches, spans = batch_sizes(monkeypatch), sweep_spans(monkeypatch)
        run_monte_carlo(grid, 4, seed=1)
        return len(batches), spans

    @pytest.mark.parametrize("name", ["impatient_deviation", "packet_contest_vcg"])
    def test_stateful_or_hybrid_grids_play_run_by_run(self, monkeypatch, name):
        """impatient_deviation has an impatient buyer and a hybrid variant,
        packet_contest_vcg a buffered buyer: their runs play on the batch,
        several to a batch.  Each sweep of the hybrid variant plays one run;
        the impatient and buffered buyers have vector forms, so the spq and fq
        sweeps span their buckets' runs, each scenario's covering its 4 runs."""
        cfg = load_config(builtin_config_path(name))
        grid = [v.scenario for v in cfg.variants]
        batches, spans = self.monte_carlo_sweeps(monkeypatch, grid)
        assert 0 < batches < 4
        by_routing = {}
        for routing, runs in spans:
            by_routing.setdefault(routing, []).append(runs)
        assert {r: sum(runs) for r, runs in by_routing.items()} == {s.routing: 4 for s in grid}
        assert by_routing.pop("hybrid", [1] * 4) == [1] * 4
        assert all(max(runs) > 1 for runs in by_routing.values())

    def test_one_hybrid_scenario_or_stateful_buyer_unbatches_a_grid(self, monkeypatch):
        """A plain grid's sweeps span several runs.  Beside a hybrid scenario
        they still do, and each sweep of the hybrid scenario plays one run; a
        buyer who pads or delays makes every sweep play one run."""
        plain = BATCH_GRIDS["welfare_capacity"][:4]
        _, spans = self.monte_carlo_sweeps(monkeypatch, plain)
        assert max(runs for _, runs in spans) > 1
        hi = plain[0].buyers[0]
        hybrid = replace(plain[1], routing="hybrid", hybrid=HybridBoost(hi.buyer_id, 50.0, 30))
        monkeypatch.undo()
        _, spans = self.monte_carlo_sweeps(monkeypatch, plain + [hybrid])
        assert {runs for routing, runs in spans if routing == "hybrid"} == {1}
        assert max(runs for routing, runs in spans if routing != "hybrid") > 1
        for strategy in (Strategy("pad", pad=1.0), Strategy("delay", delay_epochs=2)):
            buyers = (replace(hi, strategy=strategy), *plain[0].buyers[1:])
            monkeypatch.undo()
            grid = [replace(s, buyers=buyers) for s in plain]
            batches, spans = self.monte_carlo_sweeps(monkeypatch, grid)
            assert batches and {runs for _, runs in spans} == {1}


class TestEligibility:
    """A buyer whose bid misses the reserve (the auction reserve under vmm,
    the posted price under fixed) is served on no path: she gets no bytes, no
    trace and no charge, and the others play exactly as if she were absent.
    Demand is deterministic, so dropping her moves no random draw."""

    PATHS = {  # case: (routing, buyers with stateful demand, its kind, ``path_reached``)
        "sweep": ("spq", "", None, "sweep"),
        "sweep-stateful": ("spq", "low b", "buffered", "sweep"),
        "sweep-hybrid": ("hybrid", "b", "impatient", "sweep-hybrid"),  # the boosted buyer
        "vector": ("fq", "", None, "vector"),
        "vector-impatient": ("fq", "low b", "impatient", "vector-impatient"),
        "loop-fq": ("fq", "low b", "buffered", "loop"),
        "sweep-hybrid-stateful": ("hybrid", "a low b", "buffered", "sweep-hybrid-stateful"),
    }
    DEMANDS = {
        None: DemandSpec.constant,
        "buffered": lambda k: DemandSpec.buffered([k] * 12),
        "impatient": lambda k: DemandSpec.impatient(k, 6, 10.0),
    }

    @classmethod
    def scenario(cls, routing, stateful, kind, mechanism, ineligible):
        demand = lambda buyer, k: cls.DEMANDS[kind if buyer in stateful.split() else None](k)
        buyers = (
            BuyerSpec("a", 3.0, demand("a", 4.0), 1, 12),
            BuyerSpec("low", 0.5, demand("low", 6.0), 1, 12),
            BuyerSpec("b", 2.0, demand("b", 5.0), 2, 12),
        )
        return Scenario(
            buyers=buyers if ineligible else (buyers[0], buyers[2]),
            capacity=7.0,
            routing=routing,
            mechanism=mechanism,
            horizon=12,
            hybrid=HybridBoost("b", 30.0, 8) if routing == "hybrid" else None,
            reserve=1.0,
        )

    @pytest.mark.parametrize("mechanism", ["vmm", "fixed"])
    @pytest.mark.parametrize("case", sorted(PATHS))
    def test_ineligible_buyer_is_absent(self, case, mechanism):
        routing, stateful, kind, path = self.PATHS[case]
        scenarios = [self.scenario(routing, stateful, kind, mechanism, e) for e in (True, False)]
        assert [path_reached(scenario, 0) for scenario in scenarios] == [path, path]
        out, alone = (run_session(scenario, 0) for scenario in scenarios)
        assert out.bytes["low"] == 0.0 and out.payments["low"].net == 0.0
        assert not out.trace[:, 1].any()
        for name in ("bytes", "payments", "utilities"):
            assert {b: v for b, v in getattr(out, name).items() if b != "low"} == getattr(alone, name)
        np.testing.assert_array_equal(np.delete(out.trace, 1, axis=1), alone.trace)
        assert (out.welfare, out.seller_revenue) == (alone.welfare, alone.seller_revenue)
        assert alone.bytes["b"] > 0 and alone.payments["a"].bytes > 0


@st.composite
def same_groups_bids(draw, path):
    """A scenario of 2-4 buyers whose sessions reach ``path`` (see
    ``REACHES``), and two bid overrides that give the same eligible priority
    groups.  Each buyer draws a rank; rank 0 (when the floor is above 0) bids
    anything below the floor, and ranks 1-3 bid three increasing levels at or
    above it, drawn afresh for each override, so ties and order agree and
    every bid moves.  On the loop path, b1 is buffered and eligible."""
    horizon = draw(st.integers(1, 20))
    rate = st.floats(0.0, 20.0)
    memoryless = rate.map(DemandSpec.constant)
    buffered = st.lists(rate, min_size=1, max_size=horizon).map(DemandSpec.buffered)
    impatient = st.builds(
        DemandSpec.impatient, rate, st.integers(1, horizon + 1), st.floats(0.0, 80.0)
    )
    anything = st.one_of(memoryless, buffered, impatient)
    routings, models = {
        "sweep": (["spq"], [anything] * 4),
        "boost": (["hybrid"], [anything] * 4),  # b0 is the boosted buyer
        "vector": (["fq", "fifo"], [st.one_of(memoryless, impatient)] * 4),
        "loop": (["fq", "fifo"], [anything, buffered] + [anything] * 2),
    }[path]
    routing = draw(st.sampled_from(routings))
    buyers = []
    for k in range(draw(st.integers(2, 4))):
        arrival = draw(st.integers(0, 3))
        departure = draw(st.integers(arrival, horizon + 2))
        buyers.append(BuyerSpec(f"b{k}", 1.0, draw(models[k]), arrival, departure))
    mechanism = draw(st.sampled_from(["bks", "vmm", "fixed"]))
    floor = draw(st.sampled_from([0.0, 1.0, 3.0]))
    scenario = Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(0.5, 40.0)),
        routing=routing,
        mechanism=mechanism,
        reserve=floor,
        horizon=horizon,
        hybrid=HybridBoost("b0", draw(st.floats(0.0, 150.0)), draw(st.integers(1, horizon + 2)))
        if routing == "hybrid" else None,
    )
    ranks = [draw(st.integers(0 if floor > 0 and (path, k) != ("loop", 1) else 1, 3))
             for k in range(len(buyers))]

    def bids():
        levels = sorted(draw(st.lists(
            st.floats(floor, floor + 10.0), min_size=3, max_size=3, unique=True
        )))
        below = st.floats(0.0, floor, exclude_max=True)
        return {b.buyer_id: levels[r - 1] if r else draw(below) for b, r in zip(buyers, ranks)}

    return scenario, bids(), bids()


# What ``path_reached`` reads for the sessions of each ``same_groups_bids`` path.
REACHES = {
    "sweep": {"sweep"},
    "boost": {"sweep-hybrid", "sweep-hybrid-stateful"},
    "vector": {"vector", "vector-impatient"},
    "loop": {"loop"},
}


class TestBidBlindAllocation:
    """Bids reach the allocation only through the eligible priority groups:
    on one world, two bid overrides that give the same groups give the same
    trace and the same real and billed bytes on every path; only payments and
    utilities may differ.  Under bks every resampling coin is forced off, so
    the routing keys are the bids, and both overrides play on one replay."""

    @pytest.mark.parametrize("path", ["sweep", "boost", "vector", "loop"])
    @given(data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_same_groups_give_the_same_allocation(self, path, data, seed):
        scenario, first, second = data.draw(same_groups_bids(path))
        realizations, draws = world(scenario.buyers, seed)
        forced = {b.buyer_id: False for b in scenario.buyers}
        assert path_reached(scenario, seed, first, forced) in REACHES[path]
        records = [_bid_records(scenario, draws, bids, forced) for bids in (first, second)]
        assert _groups(scenario, records[0]) == _groups(scenario, records[1])
        session = replay(scenario, seed)
        one, two = (session(bids, forced) for bids in (first, second))
        np.testing.assert_array_equal(one.trace, two.trace)
        assert one.bytes == two.bytes
        assert {b: p.bytes for b, p in one.payments.items()} == {
            b: p.bytes for b, p in two.payments.items()
        }


def sizable(hi):
    """0, a small whole number or a float in [1e-50, hi].  Products of a few
    of these stay far from the subnormals, such as 5e-324, where doubling a
    product is not exact."""
    return st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]), st.floats(1e-50, hi))


@st.composite
def money_scenarios(draw):
    """Scenarios of every routing policy, mechanism, demand model and strategy,
    whose money (values, bid factors, reserve), rates, pads and boost
    target are ``sizable``.  Half of them keep every buyer memoryless and
    greedy or misreporting, so that fq and fifo reach the column-wise fill.
    In half the hybrid ones the boosted buyer is paced under 1 KB/epoch below
    a buyer who would take all the capacity, so that her reservation binds."""
    horizon = draw(st.integers(1, 20))
    plain = draw(st.booleans())
    models = (memoryless_models if plain else demand_models)(horizon, sizable(30.0))
    buyers = []
    for k in range(n := draw(st.integers(1, 4))):
        arrival = draw(st.integers(0, horizon + 2))
        departure = draw(st.integers(arrival, horizon + 5))
        strategy = draw(MEMORYLESS_STRATEGIES if plain else STRATEGIES)
        if strategy.kind == "misreport":
            strategy = Strategy("misreport", bid_factor=draw(sizable(2.0)))
        elif strategy.kind == "pad":
            strategy = Strategy("pad", pad=draw(sizable(5.0)))
        value = draw(sizable(10.0))
        buyers.append(BuyerSpec(f"b{k}", value, draw(models), arrival, departure, strategy))
    routing = draw(st.sampled_from(["spq", "hybrid", "fq", "fifo"]))
    boost = HybridBoost(
        f"b{draw(st.integers(0, n - 1))}", draw(sizable(400.0)),
        draw(st.integers(1, horizon + 3)),
    )
    if routing == "hybrid" and draw(st.booleans()):
        buyers.append(BuyerSpec(f"b{n}", 10.0, DemandSpec.constant(60.0)))
        pace = draw(st.floats(1e-50, 1.0, exclude_max=True))
        boost = replace(boost, target_bytes=pace * boost.deadline)
    return Scenario(
        buyers=tuple(buyers),
        capacity=draw(st.floats(0.5, 60.0)),
        routing=routing,
        mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
        mu=draw(st.floats(0.05, 0.95)),
        reserve=draw(sizable(10.0)),
        horizon=horizon,
        hybrid=boost if routing == "hybrid" else None,
    )


PATHS = {"sweep", "sweep-hybrid-stateful", "vector", "vector-impatient", "loop"}
# One scenario per path, with buyers who pad or delay from the first epoch
# where the path plays them, so that every run reaches every path.
PATH_EXAMPLES = [
    Scenario(
        buyers=(
            BuyerSpec("b0", 2.0, DemandSpec.time_varying([3.0, 7.0, 1.0]), 1, 9),
            BuyerSpec("b1", 1.0, DemandSpec.constant(4.0), 2, 10),
        ),
        capacity=6.0, routing="fifo", mechanism="vmm", horizon=10,
    ),
    Scenario(
        buyers=(
            BuyerSpec("b0", 3.0, DemandSpec.constant(6.0), 1, 8),
            BuyerSpec("b1", 2.0, DemandSpec.buffered([4.0, 0.0, 5.0]), 2, 9,
                      Strategy("delay", delay_epochs=1)),
        ),
        capacity=7.5, routing="spq", mechanism="vmm", horizon=10,
    ),
    Scenario(
        buyers=(
            BuyerSpec("b0", 3.0, DemandSpec.time_varying([5.0, 9.0, 2.0]), 1, 6),
            BuyerSpec("b1", 1.5, DemandSpec.impatient(4.0, 3, 6.0), 1, 8),
        ),
        capacity=7.0, routing="fq", mechanism="bks", horizon=10,
    ),
    Scenario(
        buyers=(
            BuyerSpec("b0", 2.0, DemandSpec.constant(5.0), 1, 9, Strategy("pad", pad=1.5)),
            BuyerSpec("b1", 2.0, DemandSpec.cliff(6.0, 20.0), 0, 10,
                      Strategy("delay", delay_epochs=2)),
        ),
        capacity=8.0, routing="fifo", mechanism="fixed", reserve=1.0, horizon=10,
    ),
    Scenario(
        buyers=(
            BuyerSpec("b0", 1.0, DemandSpec.impatient(6.0, 4, 10.0), 1, 10),
            BuyerSpec("b1", 4.0, DemandSpec.buffered([6.0] * 5), 1, 10,
                      Strategy("delay", delay_epochs=1)),
            BuyerSpec("b2", 2.0, DemandSpec.constant(3.0), 3, 10, Strategy("pad", pad=1.0)),
        ),
        capacity=8.0, routing="hybrid", mechanism="bks", reserve=0.5, horizon=10,
        hybrid=HybridBoost("b0", 30.0, 6),
    ),
]


def on_every_path(**arguments):
    """Add each of ``PATH_EXAMPLES`` at seed 0, with ``arguments``, to a
    hypothesis test's examples."""
    def add(test):
        for scenario in PATH_EXAMPLES:
            test = example(scenario=scenario, seed=0, **arguments)(test)
        return test
    return add


def path_reached(scenario, seed, bid_override=None, force_resample=None):
    """How the priority sweep serves a session of ``scenario``, read from its
    eligible buyers.  The one fq or fifo group is filled column-wise
    (``vector``), with greedy impatient buyers (``vector-impatient``), or
    played by ``_play`` from the full capacity, as the loop plays it
    (``loop``).  Hybrid sessions are told apart by whether a buyer besides the
    boosted one is stateful."""
    buyers = scenario.buyers
    realizations, draws = world(buyers, seed)
    bids = _bid_records(scenario, draws, bid_override, force_resample)
    held = [
        buyers[i] for rows in _groups(scenario, bids) for i in rows
        if _stateful(buyers[i], realizations[i])
    ]
    if scenario.routing in ("fq", "fifo"):
        greedy = ("greedy", "misreport")
        if any(b.demand.kind != "impatient" or b.strategy.kind not in greedy for b in held):
            return "loop"
        return "vector-impatient" if held else "vector"
    if scenario.routing == "spq":
        return "sweep"
    boosted = scenario.hybrid.buyer_id
    others = any(b.buyer_id != boosted for b in held)
    return "sweep-hybrid-stateful" if others else "sweep-hybrid"


def test_doubling_money_doubles_every_payment_on_every_path():
    """Doubling every value and the reserve leaves the allocation
    as it is and exactly doubles every bid and payment, utility, welfare and
    revenue.  The relation needs no reference path; the examples reach spq,
    hybrid with a stateful buyer besides the boosted one, and fq or fifo
    filled column-wise, with impatient buyers and played by ``_play``.  Every
    session is certified."""
    reached = set()

    @on_every_path()
    @given(scenario=money_scenarios(), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def doubles(scenario, seed):
        buyers = tuple(replace(b, value=2 * b.value) for b in scenario.buyers)
        doubled = replace(scenario, buyers=buyers, reserve=2 * scenario.reserve)
        one, two = certified_run(scenario, seed), certified_run(doubled, seed)
        np.testing.assert_array_equal(two.trace, one.trace)
        assert two.bytes == one.bytes
        for name in ("bids", "perturbed_bids", "utilities"):
            assert getattr(two, name) == {b: 2 * v for b, v in getattr(one, name).items()}, name
        for b, p in one.payments.items():
            q = two.payments[b]
            assert (q.bytes, q.gross, q.rebate, q.net) == (
                p.bytes, 2 * p.gross, 2 * p.rebate, 2 * p.net
            ), b
        assert (two.welfare, two.seller_revenue) == (2 * one.welfare, 2 * one.seller_revenue)
        reached.add(path_reached(scenario, seed))

    doubles()
    assert PATHS <= reached


def test_settlement_follows_the_per_buyer_definitions(monkeypatch):
    """Each buyer is settled on her own row, under bid overrides and pinned
    coins.  Her routing key and resampling flag are ``resample_bid`` on her
    own (coin, gamma), pinned only under bks at an eligible bid.  She is billed
    her grants' row total x, her gross and rebate are (b x, x (b - r) / mu if
    resampled) under bks, (p x, 0) under fixed and (her row of
    ``vmm_epoch_charges``, 0) under vmm, and welfare and revenue are the sums
    in buyer order.  ``_finish`` is spied on for the grants and the presented
    demand; the rest is formed here from the scenario and the world.  Pins and
    overrides are drawn for the ids ``money_scenarios`` can give and kept for
    the buyers the scenario has; the example makes a resampled bks buyer
    certain."""
    spied, finish = [], bandshare.engine._finish
    monkeypatch.setattr(
        bandshare.engine, "_finish", lambda *args: spied.append(args) or finish(*args)
    )
    reached = set()
    some = st.sampled_from([f"b{k}" for k in range(5)])
    resampled = Scenario((BuyerSpec("b0", 2.0, DemandSpec.constant(5.0), 1, 10),), 10.0,
                         mechanism="bks", reserve=0.5, horizon=10)

    @example(scenario=resampled, seed=0, override={}, forced={"b0": True})
    @given(scenario=money_scenarios(), seed=st.integers(0, 2**32),
           override=st.dictionaries(some, sizable(10.0)),
           forced=st.dictionaries(some, st.booleans()))
    @settings(max_examples=150, deadline=None)
    def settles(scenario, seed, override, forced):
        ids = [b.buyer_id for b in scenario.buyers]
        override = {i: v for i, v in override.items() if i in ids}
        forced = {i: v for i, v in forced.items() if i in ids}
        spied.clear()
        out = replay(scenario, seed)(override, forced)
        ((_, bids, grants, shown, played),) = spied
        np.testing.assert_array_equal(out.trace, grants.T)
        r, mu, mechanism = scenario.reserve, scenario.mu, scenario.mechanism
        buyers, draws = scenario.buyers, world(scenario.buyers, seed)[1]
        submitted = [float(override.get(i, b.submitted_bid())) for i, b in zip(ids, buyers)]
        charges = vmm_epoch_charges(shown, submitted, scenario.capacity)
        welfare = revenue = 0.0
        for k, (i, b, (coin, gamma)) in enumerate(zip(ids, submitted, draws)):
            pin = forced.get(i) if mechanism == "bks" and b >= r else False
            key, flag = resample_bid(b, min(r, b), mu, coin, gamma, pin)
            assert (bids.bid[k], bids.perturbed_bid[k], bids.resampled[k]) == (b, key, flag), i
            assert (out.bids[i], out.perturbed_bids[i]) == (b, key), i
            x = grants[k].sum()
            gross, rebate = {
                "bks": (b * x, x * (b - r) / mu if flag else 0.0),
                "fixed": (r * x, 0.0),
                "vmm": (charges[k], 0.0),
            }[mechanism]
            paid = out.payments[i]
            assert (paid.buyer_id, paid.bytes, paid.gross, paid.rebate) == (i, x, gross, rebate), i
            real = played.get(k, x)
            assert out.bytes[i] == real, i
            value = buyers[k].value
            assert out.utilities[i] == value * real - (gross - rebate), i
            welfare += value * real
            revenue += gross - rebate
            reached.add((mechanism, flag and x > 0 and b > r))
        assert (out.welfare, out.seller_revenue) == (welfare, revenue)

    settles()
    assert {(m, False) for m in ("bks", "vmm", "fixed")} | {("bks", True)} <= reached


def untraced(scenario, seed):
    """``scenario`` with each flow_trace demand replaced by its realization in
    ``seed``'s world as a time_varying series: a Poisson draw per horizon
    cannot be scaled or shifted, but the numbers it drew can."""
    buyers = [
        replace(b, demand=DemandSpec.time_varying(
            b.demand.realize(seed).query_epochs(1, scenario.horizon).tolist()
        )) if b.demand.kind == "flow_trace" else b
        for b in scenario.buyers
    ]
    return replace(scenario, buyers=tuple(buyers))


def doubled_kb(spec):
    """``spec`` with every KB quantity doubled: rates, series and quotas, and
    for increasing_* a g' with g'(2z) = 2 g(z), as x doubles."""
    params = dict(spec.params)
    if callable(g := params.get("g")):
        params["g"] = lambda z: 2 * g(z / 2)
    elif g is not None:
        params["g"] = [2 * v for v in g]
    params.update({name: 2 * params[name] for name in ("k", "m") if name in params})
    return DemandSpec(spec.kind, params)


def test_doubling_kb_doubles_traffic_and_payments_on_every_path():
    """Doubling the capacity, every demand quantity in KB, each pad and the
    hybrid target exactly doubles the trace, every buyer's real and billed
    bytes, every payment, utility, welfare and revenue, and leaves the bids
    as they are, on every path.  Every session is certified."""
    reached = set()

    @on_every_path()
    @given(scenario=money_scenarios(), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def doubles(scenario, seed):
        scenario = untraced(scenario, seed)
        buyers = tuple(
            replace(b, demand=doubled_kb(b.demand),
                    strategy=replace(b.strategy, pad=2 * b.strategy.pad))
            for b in scenario.buyers
        )
        hybrid = scenario.hybrid and replace(
            scenario.hybrid, target_bytes=2 * scenario.hybrid.target_bytes
        )
        doubled = replace(scenario, buyers=buyers, capacity=2 * scenario.capacity, hybrid=hybrid)
        one, two = certified_run(scenario, seed), certified_run(doubled, seed)
        np.testing.assert_array_equal(two.trace, 2 * one.trace)
        assert two.bytes == {b: 2 * x for b, x in one.bytes.items()}
        assert (two.bids, two.perturbed_bids) == (one.bids, one.perturbed_bids)
        assert two.utilities == {b: 2 * u for b, u in one.utilities.items()}
        for b, p in one.payments.items():
            q = two.payments[b]
            assert (q.bytes, q.gross, q.rebate, q.net) == (
                2 * p.bytes, 2 * p.gross, 2 * p.rebate, 2 * p.net
            ), b
        assert (two.welfare, two.seller_revenue) == (2 * one.welfare, 2 * one.seller_revenue)
        reached.add(path_reached(scenario, seed))

    doubles()
    assert PATHS <= reached


def shifted(buyer, k):
    """``buyer`` arriving, departing and losing patience ``k`` epochs later,
    with ``k`` zeros in front of her series.  Arrival 0 acts as 1, and a buyer
    who departs at 0 is never active and stays as she is."""
    if not buyer.departure:
        return buyer
    params = dict(buyer.demand.params)
    if isinstance(params.get("g"), tuple):
        params["g"] = (0.0,) * k + params["g"]
    if "p" in params:
        params["p"] += k
    return replace(buyer, demand=DemandSpec(buyer.demand.kind, params),
                   arrival=max(1, buyer.arrival) + k, departure=buyer.departure + k)


def test_shifting_time_shifts_the_trace_on_every_path():
    """Putting ``k`` idle epochs in front of a session (arrivals, departures,
    patience epochs, the hybrid deadline and the horizon k later, series
    prefixed by k zeros) shifts its trace exactly and leaves the bids and the
    real traffic of every buyer who pads or delays, which ``_play`` sums in
    epoch order, exactly as they are.  The pairwise row totals regroup, so
    billed bytes, the other real bytes, charges, rebates and welfare agree to
    1e-9 relative.  increasing_rate reads x / t, which a shift changes.  Every
    session is certified."""
    reached = set()

    @on_every_path(k=3)
    @given(scenario=money_scenarios(), seed=st.integers(0, 2**32), k=st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def shifts(scenario, seed, k):
        scenario = untraced(scenario, seed)
        assume(all(b.demand.kind != "increasing_rate" for b in scenario.buyers))
        hybrid = scenario.hybrid and replace(
            scenario.hybrid, deadline=scenario.hybrid.deadline + k
        )
        later = replace(scenario, buyers=tuple(shifted(b, k) for b in scenario.buyers),
                        horizon=scenario.horizon + k, hybrid=hybrid)
        one, two = certified_run(scenario, seed), certified_run(later, seed)
        np.testing.assert_array_equal(two.trace[k:], one.trace)
        assert not two.trace[:k].any()
        assert (two.bids, two.perturbed_bids) == (one.bids, one.perturbed_bids)
        close = lambda a: pytest.approx(a, rel=1e-9, abs=0)
        for b in scenario.buyers:
            i = b.buyer_id
            p, q = one.payments[i], two.payments[i]
            assert (q.bytes, q.gross, q.rebate) == close((p.bytes, p.gross, p.rebate)), i
            if b.strategy.kind in ("pad", "delay"):
                assert two.bytes[i] == one.bytes[i], i
            else:
                assert two.bytes[i] == close(one.bytes[i]), i
        assert two.welfare == close(one.welfare)
        reached.add(path_reached(scenario, seed))

    shifts()
    assert PATHS <= reached


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
        # Under fq and fifo every key ties: one group of every buyer.
        groups = priority_groups(keys if routing == "spq" else [0.0] * n)
        grants, left = _allocate_epoch(
            scenario, 1, capacity, active, presented, [0.0] * n, groups
        )
        assert left == pytest.approx(max(0.0, capacity - sum(grants)), abs=1e-9)
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
    # b1's override 2.0 ties with b2 and 1.0 / 3.0 do not; both fill column-wise.
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


@st.composite
def world_buyers(draw):
    """A scenario horizon and 1-4 buyers with arrival and departure windows
    that may reach past it: flow_trace ones whose own horizon may differ from
    the scenario's, with arrivals so rare that a trace often has none or
    durations longer than the horizon, beside constant, buffered and
    impatient ones."""
    horizon = draw(st.integers(1, 60))
    flow_trace = st.builds(
        DemandSpec.flow_trace,
        mean_rate=st.sampled_from([0.0, 0.5, 10.0]) | st.floats(0.0, 40.0),
        horizon=st.integers(1, 80),
        mean_duration=st.sampled_from([1.0, 30.0, 500.0]) | st.floats(0.5, 200.0),
        stddev_duration=st.floats(0.0, 100.0),
        mean_interarrival=st.sampled_from([0.5, 30.0, 1e9]) | st.floats(0.5, 1e4),
    )
    others = st.one_of(
        st.builds(DemandSpec.constant, st.floats(0.0, 20.0)),
        st.builds(DemandSpec.buffered, st.lists(st.floats(0.0, 20.0), min_size=1, max_size=70)),
        st.builds(DemandSpec.impatient, st.floats(0.0, 20.0), st.integers(1, 70),
                  st.floats(0.0, 100.0)),
    )
    buyers = []
    for i in range(draw(st.integers(1, 4))):
        arrival = draw(st.integers(0, horizon + 5))
        departure = draw(st.integers(arrival, horizon + 10))
        demand = draw(flow_trace | others)
        buyers.append(BuyerSpec(f"b{i}", 1.0 + i, demand, arrival, departure))
    return Scenario(tuple(buyers), capacity=10.0, horizon=horizon)


def assert_same_realization(batched, reference, horizon):
    """Same model and vector forms, and the same demand bit for bit: every
    epoch of a memoryless one, and of a stateful one at several x."""
    assert (batched.model_id, batched.memoryless, batched.serves) == (
        reference.model_id, reference.memoryless, reference.serves)
    epochs = range(1, horizon + 5)
    if reference.memoryless:
        assert batched.query_epochs(1, epochs[-1]).tobytes() == (
            reference.query_epochs(1, epochs[-1]).tobytes())
    for t, x in itertools.product(epochs, (0.0, 7.5, 1e3)):
        assert batched.query(t, x) == reference.query(t, x)


class TestWorlds:
    """``_worlds`` draws a batch's worlds at once, stream for stream: each
    run's realizations, (coin, gamma) draws and demand matrix are those of
    its seed drawn alone (``world`` and ``demand_matrix``) bit for bit."""

    @given(scenario=world_buyers(), seed=st.integers(0, 2**32), runs=st.sampled_from([1, 2, 5]),
           batch=st.sampled_from([1, 2, 5]))
    @example(  # no arrivals, and a flow longer than the horizon, beside a constant buyer
        scenario=Scenario(
            (BuyerSpec("b0", 1.0, DemandSpec.flow_trace(5.0, 30, mean_interarrival=1e9), 0, 40),
             BuyerSpec("b1", 2.0, DemandSpec.flow_trace(5.0, 50, 400.0, 10.0, 5.0), 3, 20),
             BuyerSpec("b2", 3.0, DemandSpec.constant(4.0), 10, 12)),
            capacity=10.0, horizon=40),
        seed=3, runs=5, batch=2)
    @settings(max_examples=120, deadline=None)
    def test_batched_worlds_are_the_per_seed_worlds(self, scenario, seed, runs, batch):
        """On streams computed for all the runs at once and sliced into
        batches of ``batch`` runs, as ``run_probes`` slices them."""
        seeds = run_seeds(seed, runs)
        streams = _streams(scenario, seeds)
        flows = sum(b.demand.kind == "flow_trace" for b in scenario.buyers)
        assert streams.shape == (runs, 1 + flows, 4) and streams.dtype == np.uint64
        for lo in range(0, runs, batch):
            part = seeds[lo : lo + batch]
            realizations, draws, demand = _worlds(scenario, streams[lo : lo + batch])
            assert len(realizations) == len(part)
            assert draws.shape == (len(part), len(scenario.buyers), 2)
            assert demand.shape == (len(scenario.buyers), len(part), scenario.horizon)
            for k, s in enumerate(part):
                reference, drawn = world(scenario.buyers, s)
                for batched, own in zip(realizations[k], reference, strict=True):
                    assert_same_realization(batched, own, scenario.horizon)
                assert draws[k].tobytes() == np.array(drawn).reshape(-1, 2).tobytes()
                assert demand[:, k].tobytes() == demand_matrix(scenario, reference).tobytes()

    @pytest.mark.parametrize("name", ["packet_contest_resampling", "impatient_deviation"])
    def test_only_a_world_with_a_flow_trace_buyer_builds_its_demand_stream(
        self, monkeypatch, name
    ):
        """packet_contest_resampling has no flow_trace buyer, so its streams
        hash no ``spawn_key=(0,)`` demand stream, which nothing would read:
        the one ``seed_words`` call hashes only the resampling stream, and
        each world, (coin, gamma) draws included, is ``world``'s over 200
        seeds.  impatient_deviation's flow_trace buyers read theirs (20
        seeds): keys 2 and 0 in one call, then the realization streams."""
        scenario = contest_scenarios()[name]
        flows = sum(b.demand.kind == "flow_trace" for b in scenario.buyers)
        assert (flows > 0) == (name == "impatient_deviation")
        seeds = run_seeds(3, 20 if flows else 200)
        calls, kernel = [], bandshare.engine.seed_words

        def spied(seeds, words, spawn_keys=()):
            calls.append((tuple(spawn_keys), len(seeds)))
            return kernel(seeds, words, spawn_keys)

        monkeypatch.setattr(bandshare.engine, "seed_words", spied)
        realizations, draws, _ = _worlds(scenario, _streams(scenario, seeds))
        monkeypatch.undo()
        B = len(seeds)
        assert calls == ([((2, 0), B), ((), flows * B)] if flows else [((2,), B)])
        for k, seed in enumerate(seeds):
            reference, drawn = world(scenario.buyers, seed)
            assert draws[k].tolist() == drawn
            for batched, own in zip(realizations[k], reference, strict=True):
                assert_same_realization(batched, own, scenario.horizon)

    def test_any_int_seed_draws_numpys_world(self):
        """Session seeds past 64 bits are several words of entropy, as
        ``SeedSequence`` hashes them, and a negative one raises as it does."""
        scenario = REPLAY_SCENARIOS["vector"]
        seeds = [0, 2**63 - 2, 2**64 - 1, 2**64, 2**200 + 5]
        realizations, draws, demand = seeded_worlds(scenario, seeds)
        for k, seed in enumerate(seeds):
            reference, drawn = world(scenario.buyers, seed)
            for batched, own in zip(realizations[k], reference, strict=True):
                assert_same_realization(batched, own, scenario.horizon)
            assert draws[k].tolist() == drawn
            assert demand[:, k].tobytes() == demand_matrix(scenario, reference).tobytes()
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_session(scenario, -1)

    def test_a_batch_of_long_flows_draws_them_a_row_at_a_time(self):
        """A batch's flow_trace rows are traced together only while their flows
        stay within the cap that a spec's own expected flows are held to: here
        every row expects 800 000 flows, so four runs take no more memory at
        their peak than one.  (At a horizon of 10 a batch holds 819 runs.)"""
        spec = DemandSpec.flow_trace(1.0, 10, mean_duration=1e4, mean_interarrival=0.25)
        scenario = Scenario((BuyerSpec("b1", 1.0, spec, 1, 10),), capacity=1.0, horizon=10)
        peaks = []
        for runs in (1, 4):
            tracemalloc.start()
            try:
                seeded_worlds(scenario, run_seeds(0, runs))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


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

    def test_world_draws_each_coin_and_gamma_once(self):
        """``_worlds`` draws buyer i's (coin, gamma) in run k as uniforms 2i and
        2i + 1 of run k's resampling stream, the numbers two scalar draws per
        buyer give, so every call of a replayed world sees the same coins."""
        scenario = REPLAY_SCENARIOS["vector"]
        seeds = (0, 4, 11)
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
            draws = [[rng.random(), rng.random()] for _ in range(3)]
            assert seeded_worlds(scenario, seeds)[1][k].tolist() == draws

    @pytest.mark.parametrize(
        "overrides",
        [{"bid_override": {"B1": 1.9, "b1": 1.9, "b9": 1.0}}, {"force_resample": {"B1": True}}],
        ids=["bid_override", "force_resample"],
    )
    def test_unknown_buyer_ids_rejected(self, overrides):
        # A misspelled id used to be ignored, and the session ran truthfully.
        scenario = contest_scenarios()["packet_contest_vcg"]
        with pytest.raises(ValueError, match="no buyer 'B1'"):
            run_session(scenario, 0, **overrides)

    @pytest.mark.parametrize(
        "bid", ["3", -1.0, float("nan"), float("inf"), True, 1e308, 10**400],
        ids=["str", "negative", "nan", "inf", "bool", "overflow", "huge-int"],
    )
    def test_bad_bid_override_rejected(self, bid):
        # These used to play: "3" as 3, -1 as an ineligible bid, inf and
        # 1e308 as NaN or infinite utilities under vmm and True as 1; NaN
        # failed with a message about the perturbed bid that named no buyer,
        # and an int too large for a float with an OverflowError.
        scenario = contest_scenarios()["packet_contest_vcg"]
        with pytest.raises(ValueError, match="bid override for buyer 'b1'"):
            run_session(scenario, 0, bid_override={"b1": bid})

    @pytest.mark.parametrize("coin", ["no", None, 0, 1.0])
    def test_bad_force_resample_rejected(self, coin):
        # These used to play: "no" and 1.0 as a forced resample, None and 0
        # as no pin.
        scenario = contest_scenarios()["packet_contest_resampling"]
        with pytest.raises(ValueError, match="force_resample for buyer 'b1'"):
            run_session(scenario, 0, force_resample={"b1": coin})

    def test_numpy_bool_pins_a_coin(self):
        scenario = contest_scenarios()["packet_contest_resampling"]
        assert_same_outcome(
            run_session(scenario, 0, force_resample={"b1": np.True_}),
            run_session(scenario, 0, force_resample={"b1": True}),
        )

    @staticmethod
    def counted_worlds(monkeypatch):
        """Patch ``_worlds``, which draws every world and its demand matrix, to
        record the realizations each call draws, and ``demand._flow_traces``,
        which every flow_trace realization is drawn by, wherever it is drawn,
        to record its rows."""
        drawn, traced = [], []
        worlds, flow_traces = bandshare.engine._worlds, bandshare.demand._flow_traces

        def counted(scenario, streams):
            out = worlds(scenario, streams)
            drawn.append(sum(map(len, out[0])))
            return out

        def counted_traces(streams, params):
            traced.append(len(streams))
            return flow_traces(streams, params)

        monkeypatch.setattr(bandshare.engine, "_worlds", counted)
        monkeypatch.setattr(bandshare.demand, "_flow_traces", counted_traces)
        return drawn, traced

    def test_world_is_materialized_once(self, monkeypatch):
        """The vector scenario's world, 2 flow_trace buyers and a constant one,
        is drawn once however often it is played."""
        scenario = REPLAY_SCENARIOS["vector"]
        drawn, traced = self.counted_worlds(monkeypatch)
        session = replay(scenario, 4)
        for bid in (0.5, 1.0, 2.5, 4.0, 0.5):
            session({"b1": bid}, {"b1": True})
        counts = {"realize": sum(drawn), "flow_trace": sum(traced), "matrix": len(drawn)}
        assert counts == {"realize": 3, "flow_trace": 2, "matrix": 1}

    @pytest.mark.parametrize(
        "argv,realized",
        [
            (["sweep", "--config", builtin_config_path("welfare_capacity"), "--runs", "3"], 9),
            (["verify", "--suite", "truthfulness", "--runs", "4"], 12),
        ],
        ids=["sweep", "truthfulness"],
    )
    def test_cli_draws_each_world_once(self, argv, realized, monkeypatch, tmp_path):
        """A sweep plays its 16 scenarios, and the truthfulness suite probes
        its 3 buyers, on one world of 3 flow_trace realizations per run seed."""
        from bandshare.cli import OUT_DIR_ENV, main

        drawn, traced = self.counted_worlds(monkeypatch)
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert main(argv) in (0, 2)
        assert (sum(drawn), sum(traced)) == (realized, realized)

    def test_run_seeds_are_the_monte_carlo_runs(self):
        scenario = REPLAY_SCENARIOS["vector"]
        seeds = run_seeds(8, 3)
        assert seeds == run_seeds(8, 5)[:3]
        stats = run_monte_carlo([scenario], 3, seed=8)[0]
        welfare = [run_session(scenario, s).welfare for s in seeds]
        assert stats.welfare.mean == pytest.approx(np.mean(welfare), rel=1e-12)


CALL = st.tuples(st.integers(0, 4), st.none() | sizable(10.0), st.none() | st.booleans())
PROBE_CALLS = [(0, None, None), (0, 0.0, True), (0, 9.0, False), (0, None, None), (0, 0.0, True)]
# More groupings than buyers, each played again: b1 ineligible, first, between
# b2 and b3, last, tied with b2 (see REPLAY_SCENARIOS["vector"]), then again.
RANK_CALLS = [(0, bid, False) for bid in (1.0, 2.5, 1.9, 1.7, 2.0, 1.0, 2.5, 1.9, 1.7, 2.0)]
# Eight groupings: b2 and b3 move too.
FREE_CALLS = RANK_CALLS[:5] + [(1, 1.0, False), (1, 1.7, False), (2, 1.0, False)]


def test_replay_calls_equal_fresh_sessions():
    """Any sequence of bid overrides and pinned coins on a replayed world gives
    what a fresh ``run_session`` gives, on every path and with buyers who pad
    or delay, whose real traffic is kept with the grants, also when a call
    repeats an earlier call's priority grouping, and a write into a returned
    trace reaches no later call."""
    reached = set()

    @on_every_path(probe=1, free=False, calls=PROBE_CALLS)
    @example(scenario=REPLAY_SCENARIOS["hybrid"], seed=0, probe=0, free=False, calls=PROBE_CALLS)
    @example(scenario=REPLAY_SCENARIOS["vector"], seed=0, probe=0, free=False, calls=RANK_CALLS)
    @example(scenario=REPLAY_SCENARIOS["vector"], seed=0, probe=0, free=True, calls=FREE_CALLS)
    @given(scenario=money_scenarios(), seed=st.integers(0, 2**32), probe=st.integers(0, 4),
           free=st.booleans(), calls=st.lists(CALL, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def fresh_each_call(scenario, seed, probe, free, calls):
        ids = [b.buyer_id for b in scenario.buyers]
        draws = world(scenario.buyers, seed)[1]
        session = replay(scenario, seed)
        seen = []
        for k, bid, coin in calls:
            buyer = ids[(k if free else probe) % len(ids)]
            override = {} if bid is None else {buyer: bid}
            forced = {} if coin is None else {buyer: coin}
            out = session(override, forced)
            assert_same_outcome(out, run_session(scenario, seed, bid_override=override,
                                                 force_resample=forced))
            out.trace[:] = np.nan
            groups = _groups(scenario, _bid_records(scenario, draws, override, forced))
            if groups in seen:
                kinds = {scenario.buyers[i].strategy.kind for rows in groups for i in rows}
                reached.add(path_reached(scenario, seed, override, forced))
                reached.update(kinds & {"pad", "delay"})
            else:
                seen.append(groups)

    fresh_each_call()
    assert PATHS | {"sweep-hybrid", "pad", "delay"} <= reached


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
        stats = run_monte_carlo([scenario], 1, seed=5)[0]
        run_seed = int(np.random.default_rng(5).integers(0, 2**63 - 1, size=1)[0])
        out = run_session(scenario, run_seed)
        assert stats.welfare.mean == pytest.approx(out.welfare)

    def test_deterministic_given_seed(self):
        scenario = self.scenario("bks")
        a = run_monte_carlo([scenario], 20, seed=9)[0]
        b = run_monte_carlo([scenario], 20, seed=9)[0]
        assert a.welfare.mean == b.welfare.mean
        assert a.payments == b.payments

    def test_resampling_costs_welfare_vs_vcg_benchmark(self):
        # Same demand worlds: the true-bid priority allocation is optimal for
        # memoryless demand, resampling can only misorder.
        vmm, bks = run_monte_carlo([self.scenario("vmm"), self.scenario("bks")], 150, seed=3)
        assert vmm.welfare.mean > bks.welfare.mean

    def test_welfare_weakly_decreasing_in_mu(self):
        # More resampling means more misordering; with paired seeds the mean
        # welfare is weakly decreasing across the mu grid.
        grid = [replace(self.scenario("bks"), mu=mu) for mu in (0.05, 0.2, 0.5)]
        means = [stats.welfare.mean for stats in run_monte_carlo(grid, 150, seed=3)]
        assert means[0] >= means[1] >= means[2], means

    @pytest.mark.parametrize(
        "name", ["welfare_capacity", "reserve_sweep", "impatient_deviation"]
    )
    def test_grid_equals_one_scenario_at_a_time(self, name):
        """A config's whole grid played on one world per run seed gives every
        scenario exactly the statistics of its own Monte Carlo."""
        cfg = load_config(builtin_config_path(name))
        grid = [
            cfg.sweep.apply(variant.scenario, value)
            for value in cfg.sweep.values
            for variant in cfg.variants
        ]
        alone = [run_monte_carlo([scenario], 4, seed=6)[0] for scenario in grid]
        assert run_monte_carlo(grid, 4, seed=6) == alone

    @pytest.mark.parametrize("field", ["buyers", "horizon"])
    def test_grid_rejects_scenarios_that_do_not_share_a_world(self, field):
        base = self.scenario("bks")
        other = replace(base, **{field: base.buyers[:2] if field == "buyers" else 90})
        with pytest.raises(ValueError, match="share their buyers and horizon"):
            run_monte_carlo([base, other], 3, seed=1)

    @pytest.mark.parametrize("mechanism", ["bks", "vmm", "fixed"])
    def test_confidence_intervals_stay_finite_near_the_overflow_bound(self, mechanism):
        # A buyer valued at 1e300 passes the per-session overflow bound, but
        # squaring its welfare deviations overflowed: ci_low = -inf.
        scenario = Scenario(
            buyers=(
                BuyerSpec("a", 1e300, DemandSpec.flow_trace(8.0, 10), 1, 10),
                BuyerSpec("b", 1.0, DemandSpec.constant(10.0), 1, 10),
            ),
            capacity=1.5,
            mechanism=mechanism,
            horizon=10,
        )
        with np.errstate(over="raise"):
            stats = run_monte_carlo([scenario], 20, seed=0)[0]
        for ci in [stats.welfare, stats.seller_revenue, stats.utilities["a"], stats.payments["a"]]:
            assert np.isfinite([ci.ci_low, ci.mean, ci.ci_high]).all(), ci
            assert ci.ci_low <= ci.mean <= ci.ci_high
        assert stats.welfare.ci_low < stats.welfare.ci_high

    @pytest.mark.parametrize(
        "n_runs, jobs, workers", [(3, 32, 3), (5, 2, 2), (2, 3, 2), (6, 5000, 4)]
    )
    def test_pool_asks_for_no_more_workers_than_runs(self, monkeypatch, n_runs, jobs, workers):
        """A pool forks all its workers at the first submit, so it is sized to
        the runs it has and to the 4 CPUs the process is told it may use; the
        stand-in executor maps in this process and starts none.  Its results
        are those of the serial loop."""
        asked = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

        class InProcess:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(bandshare.engine, "ProcessPoolExecutor", InProcess)
        scenario = self.scenario("bks")
        pooled = run_monte_carlo([scenario], n_runs, seed=4, jobs=jobs)
        assert asked == [workers]
        assert pooled == run_monte_carlo([scenario], n_runs, seed=4)

    @pytest.mark.parametrize("n_runs,n_scenarios", [(0, 1), (-2, 1), (3, 0)])
    def test_needs_a_run_and_a_scenario(self, n_runs, n_scenarios):
        with pytest.raises(ValueError, match="at least one run and one scenario"):
            run_monte_carlo([self.scenario("bks")] * n_scenarios, n_runs, seed=1)


@st.composite
def batch_grids(draw):
    """Up to 6 scenarios on n <= 4 buyers with windows and often tied values,
    under any policy and mechanism, with reserves that often exceed some
    bids; a hybrid scenario boosts any buyer, often beside plain ones.  In
    half the grids every buyer is memoryless and greedy or misreporting, so
    that a plain scenario's runs share their sweeps; in the others a buyer
    may pad or delay and draw any demand model (buffered, impatient, cliff,
    increasing_*), and every run is swept on its own."""
    horizon = draw(st.integers(1, 25))
    plain = draw(st.booleans())
    buyers = []
    for k in range(n := draw(st.integers(1, 4))):
        value = draw(st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.0, 10.0)))
        arrival = draw(st.integers(0, horizon + 2))
        departure = draw(st.integers(arrival, horizon + 5))
        demand = draw((memoryless_models if plain else demand_models)(horizon))
        strategy = draw(MEMORYLESS_STRATEGIES if plain else STRATEGIES)
        buyers.append(BuyerSpec(f"b{k}", value, demand, arrival, departure, strategy))
    grid = []
    for _ in range(draw(st.integers(1, 6))):
        routing = draw(st.sampled_from(["spq", "fq", "fifo", "hybrid"]))
        boost = HybridBoost(f"b{draw(st.integers(0, n - 1))}", draw(st.floats(0.0, 400.0)),
                            draw(st.integers(1, horizon + 3)))
        grid.append(Scenario(
            buyers=tuple(buyers),
            capacity=draw(st.floats(0.5, 60.0)),
            routing=routing,
            mechanism=draw(st.sampled_from(["bks", "vmm", "fixed"])),
            mu=draw(st.sampled_from([0.2, 0.5, 0.9])),
            reserve=draw(st.sampled_from([0.0, 1.0, 2.0, 4.0])),
            horizon=horizon,
            hybrid=boost if routing == "hybrid" else None,
        ))
    return grid


BATCH_GRIDS = {
    name: [cfg.sweep.apply(v.scenario, x) for x in cfg.sweep.values for v in cfg.variants]
    for name in ("welfare_capacity", "reserve_sweep")
    for cfg in [load_config(builtin_config_path(name))]
}


def mixed_grids():
    """welfare_capacity's first four scenarios beside a hybrid one, and the
    same grid with a buyer who pads, one who delays and one whose demand is
    buffered."""
    plain = BATCH_GRIDS["welfare_capacity"][:4]
    hi, mid, lo = plain[0].buyers
    hybrid = replace(plain[1], routing="hybrid", hybrid=HybridBoost(mid.buyer_id, 300.0, 90))
    buyers = (replace(hi, strategy=Strategy("pad", pad=2.0)),
              replace(mid, strategy=Strategy("delay", delay_epochs=3)),
              replace(lo, demand=DemandSpec.buffered([8.0] * 200)))
    return [plain + [hybrid], [replace(s, buyers=buyers) for s in plain + [hybrid]]]


def checked(scenarios):
    """Each of ``scenarios`` as a checked probe with no override or pin."""
    return [_checked(Probe(s)) for s in scenarios]


def replayed(probes, seeds):
    """The (probe, metric, run) samples of ``replay(scenario, seed)(bid_override,
    force_resample)`` for each probe and each of ``seeds``: welfare, revenue,
    then bytes, net payments and utilities by buyer, as ``run_probes`` lays
    them out.  The probes of one scenario share its replayed session."""
    sessions = {}

    def row(probe, seed):
        key = (id(probe.scenario), seed)
        if key not in sessions:
            sessions[key] = replay(probe.scenario, seed)
        out = sessions[key](probe.bid_override, probe.force_resample)
        ids = out.buyer_ids
        return [out.welfare, out.seller_revenue, *(out.bytes[b] for b in ids),
                *(out.payments[b].net for b in ids), *(out.utilities[b] for b in ids)]

    return np.array([[row(p, s) for s in seeds] for p in probes], dtype=float).transpose(0, 2, 1)


def batch_sizes(monkeypatch):
    """The number of runs of each ``_mc_batch`` call, as the calls are made."""
    sizes, batch = [], bandshare.engine._mc_batch

    def counted(probes, realizations, *arrays):
        sizes.append(len(realizations))
        return batch(probes, realizations, *arrays)

    monkeypatch.setattr(bandshare.engine, "_mc_batch", counted)
    return sizes


def sweep_spans(monkeypatch):
    """The routing and the number of runs of each ``_run_sweep`` call, as the
    calls are made."""
    spans, sweep = [], bandshare.engine._run_sweep

    def counted(scenario, realizations, demand, *args):
        spans.append((scenario.routing, demand.shape[1] // scenario.horizon))
        return sweep(scenario, realizations, demand, *args)

    monkeypatch.setattr(bandshare.engine, "_run_sweep", counted)
    return spans


def stream_bytes(monkeypatch):
    """The bytes of stream words that each ``_streams`` call returns, as the
    calls are made."""
    held, streams = [], bandshare.engine._streams

    def counted(scenario, seeds):
        out = streams(scenario, seeds)
        held.append(out.nbytes)
        return out

    monkeypatch.setattr(bandshare.engine, "_streams", counted)
    return held


class TestBatchedMonteCarlo:
    """A grid's runs, played side by side on the batch, one sweep per
    grouping over the union of their runs or one per run, give bit for bit
    what each scenario's ``replay`` session gives in each run."""

    @given(grid=batch_grids(), seed=st.integers(0, 2**32), runs=st.integers(1, 12))
    @example(grid=mixed_grids()[0], seed=4, runs=3)
    @example(grid=mixed_grids()[1], seed=4, runs=3)
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_one_run_at_a_time(self, grid, seed, runs):
        seeds = run_seeds(seed, runs)
        batch = bandshare.engine._mc_batch(_probe_arrays(checked(grid)),
                                           *seeded_worlds(grid[0], seeds))
        assert batch.tobytes() == replayed([Probe(s) for s in grid], seeds).tobytes()

    @pytest.mark.parametrize("name", sorted(BATCH_GRIDS))
    def test_builtin_grids_batch_exactly(self, name):
        """welfare_capacity (vmm, bks, fq and fifo) and reserve_sweep (bids
        below the reserve) at 13 runs, whose bks runs fall in many groupings."""
        grid = BATCH_GRIDS[name]
        seeds = run_seeds(11, 13)
        batch = bandshare.engine._mc_batch(_probe_arrays(checked(grid)),
                                           *seeded_worlds(grid[0], seeds))
        assert batch.tobytes() == replayed([Probe(s) for s in grid], seeds).tobytes()

    def test_tied_bids_and_a_reserve_above_some(self):
        """Tied values, misreports tying with them, windows and a reserve
        that shuts out two buyers, under every mechanism and policy."""
        buyers = (
            BuyerSpec("a", 2.0, DemandSpec.flow_trace(8.0, 40), 1, 40),
            BuyerSpec("b", 2.0, DemandSpec.constant(6.0), 5, 30),
            BuyerSpec("c", 4.0, DemandSpec.flow_trace(9.0, 40), 3, 38,
                      Strategy("misreport", bid_factor=0.5)),
            BuyerSpec("d", 1.0, DemandSpec.time_varying([5.0] * 20), 0, 60),
            BuyerSpec("e", 3.0, DemandSpec.constant(4.0), 10, 12,
                      Strategy("misreport", bid_factor=0.25)),
        )
        grid = [
            Scenario(buyers, capacity=c, routing=routing, mechanism=mechanism, reserve=r,
                     horizon=40, mu=0.5)
            for routing in ("spq", "fq", "fifo")
            for mechanism in ("bks", "vmm", "fixed")
            for c, r in ((9.0, 0.0), (14.0, 1.5))
        ]
        seeds = run_seeds(3, 17)
        batch = bandshare.engine._mc_batch(_probe_arrays(checked(grid)),
                                           *seeded_worlds(grid[0], seeds))
        assert batch.tobytes() == replayed([Probe(s) for s in grid], seeds).tobytes()

    def test_a_grid_with_no_buyers(self):
        grid = [
            Scenario((), capacity=5.0, routing=routing, mechanism=mechanism, horizon=10)
            for routing in ("spq", "fq", "fifo")
            for mechanism in ("bks", "vmm", "fixed")
        ]
        seeds = run_seeds(2, 3)
        batch = bandshare.engine._mc_batch(_probe_arrays(checked(grid)),
                                           *seeded_worlds(grid[0], seeds))
        assert batch.shape == (9, 2, 3)
        assert batch.tobytes() == replayed([Probe(s) for s in grid], seeds).tobytes()

    @pytest.mark.parametrize("runs, size", [(7, 3), (10, 4), (5, 1), (9, 9), (6, 20)])
    def test_batch_sizes_that_do_not_divide_the_runs(self, monkeypatch, runs, size):
        """``BATCH_BYTES`` caps a batch at ``size`` runs of welfare_capacity's
        3 x 600 matrix; the runs split into batches that differ by one at
        most, and the statistics are those of one run per batch."""
        grid = BATCH_GRIDS["welfare_capacity"]
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", size * 8 * 3 * 600 + 7)
        sizes = batch_sizes(monkeypatch)
        batched = run_monte_carlo(grid, runs, seed=5)
        count = -(-runs // size)
        assert sum(sizes) == runs and len(sizes) == count and max(sizes) - min(sizes) <= 1
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 1)
        assert batched == run_monte_carlo(grid, runs, seed=5)

    def test_batch_bytes_bound_the_batch_not_the_runs(self, monkeypatch):
        """A batch holds at least one run, however large its matrix, and no
        more than ``BATCH_BYTES`` of matrix, however many runs there are."""
        sizes = batch_sizes(monkeypatch)
        scenario = TestMonteCarlo().scenario("vmm")  # 3 buyers x 100 epochs
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 100)
        run_monte_carlo([scenario], 3, seed=1)
        assert sizes == [1, 1, 1]
        sizes.clear()
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 8 * 3 * 100 * 4)
        run_monte_carlo([scenario], 41, seed=1)
        assert len(sizes) == 11 and max(sizes) <= 4

    def test_a_bucket_of_some_runs_leaves_the_batch_demand_intact(self, monkeypatch):
        """A bucket that holds only some of a batch's runs sweeps its own
        gather of their demand in place (no second copy); the batch's matrix,
        which the other buckets read, is left as ``_worlds`` drew it.  Here
        welfare_capacity's bks runs fall in buckets of some runs, and its
        scenario at fixed prices above some values in buckets of all of
        them, whose sweeps zero the rows of the bids below the price."""
        base, seeds = BATCH_GRIDS["welfare_capacity"], run_seeds(11, 13)
        grid = base + [replace(base[0], mechanism="fixed", reserve=b.value)
                       for b in base[0].buyers]
        realizations, draws, demand = seeded_worlds(grid[0], seeds)
        drawn = demand.copy()
        spans = sweep_spans(monkeypatch)
        arrays = _probe_arrays(checked(grid))
        batch = bandshare.engine._mc_batch(arrays, realizations, draws, demand)
        assert {runs < len(seeds) for _, runs in spans} == {True, False}, spans
        assert demand.tobytes() == drawn.tobytes()
        assert batch.tobytes() == replayed([Probe(s) for s in grid], seeds).tobytes()

    def test_stream_words_are_held_a_bounded_span_of_batches_at_a_time(self, monkeypatch):
        """``run_probes`` computes the stream words (``_streams``) of whole
        batches whose words take at most ``STREAM_BYTES``, or of one batch,
        and the samples do not depend on how the runs are spanned."""
        grid = BATCH_GRIDS["welfare_capacity"]
        per_run = 32 * (1 + sum(b.demand.kind == "flow_trace" for b in grid[0].buyers))
        probes = [Probe(s) for s in grid]
        whole = run_probes(probes, 17, seed=5)
        # 6 batches of at most 3 runs each
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 8 * 3 * 600 * 3)
        held = stream_bytes(monkeypatch)
        for bound, most in ((6 * per_run, 6), (1, 3), (2**20, 17)):
            held.clear()
            monkeypatch.setattr(bandshare.engine, "STREAM_BYTES", bound)
            assert run_probes(probes, 17, seed=5).tobytes() == whole.tobytes()
            assert sum(held) == 17 * per_run and max(held) <= most * per_run, held

    def test_at_the_sample_cap_the_stream_words_stay_bounded(self, monkeypatch):
        """One flow_trace buyer over one epoch with her utilities kept: 8
        bytes of samples per run, so the 1 GiB cap allows 2**27 runs, whose
        stream words, 64 bytes per run, would take 8 GiB at once.  The first
        span holds ``STREAM_BYTES`` of them, two batches of 8192 runs, and a
        deadline that has passed stops the call after one batch.  The session
        seeds are a ``range`` here, since the list ``run_seeds`` returns is
        not held to the cap."""
        spec = DemandSpec.flow_trace(2.0, 1)
        scenario = Scenario((BuyerSpec("a", 1.0, spec, 1, 1),), capacity=1.0, horizon=1)
        runs = check_runs(2**27, 8, "runs")
        with pytest.raises(ConfigError):
            check_runs(runs + 1, 8, "runs")
        monkeypatch.setattr(bandshare.engine, "run_seeds", lambda seed, n: range(n))
        held = stream_bytes(monkeypatch)
        with pytest.raises(TimeoutError, match=f"after 8192 of {runs} runs"):
            run_probes([Probe(scenario)], runs, 0, deadline=time.monotonic() - 1,
                       metric="utilities")
        assert held == [bandshare.engine.STREAM_BYTES]

    def test_jobs_give_identical_csv_across_batches(self, monkeypatch, tmp_path):
        """A sweep split into several batches writes the same bytes serially
        and under a pool of at most 2 workers (fewer if the process may use
        fewer CPUs), whose tasks are batches of near-equal size."""
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 8 * 3 * 600 * 2)
        config = builtin_config_path("welfare_capacity")
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            argv = ["sweep", "--config", config, "--runs", "9", "--jobs", jobs]
            argv += ["--out-dir", str(out)]
            assert main(argv) == 0
            written.append((out / "welfare_capacity_sweep_capacity.csv").read_bytes())
        assert written[0] == written[1]


@st.composite
def keyed_probes(draw):
    """A grid of ``batch_grids`` at several mu, and up to 10 checked
    probes on it, each overriding and pinning any subset of the buyers: bids
    tie a value or the reserve, fall below it, or are -0.0."""
    grid = [replace(s, mu=draw(st.sampled_from([0.2, 0.5, 0.9]) | st.floats(0.01, 0.99)))
            for s in draw(batch_grids())]
    buyers = [b.buyer_id for b in grid[0].buyers]
    bids = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 4.0] + [b.value for b in grid[0].buyers])
    probes = []
    for _ in range(draw(st.integers(1, 10))):
        override = draw(st.dictionaries(st.sampled_from(buyers), bids | st.floats(0.0, 10.0)))
        pins = draw(st.dictionaries(st.sampled_from(buyers), st.booleans()))
        probes.append(_checked(Probe(draw(st.sampled_from(grid)), override, pins)))
    return probes


class TestBatchKeys:
    """The batch keys, flags and groups every (probe, run) pair with arrays,
    as ``_keyed`` and ``_groups`` key and group one replayed session."""

    @staticmethod
    def batch(probes, seed, runs):
        _, draws, _ = seeded_worlds(probes[0][0], run_seeds(seed, runs))
        arrays = _probe_arrays(probes)
        return draws.tolist(), arrays, *bandshare.engine._batch_keys(arrays, draws)

    @given(probes=keyed_probes(), seed=st.integers(0, 2**32), runs=st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_keys_and_flags_are_those_of_keyed_bit_for_bit(self, probes, seed, runs):
        draws, _, keys, flags = self.batch(probes, seed, runs)
        assert keys.shape == flags.shape == (len(probes), runs, len(probes[0][1]))
        for p, (scenario, bids, forced) in enumerate(probes):
            for k, drawn in enumerate(draws):
                keyed = _keyed(scenario, bids, drawn, forced)
                assert keys[p, k].tobytes() == np.array(keyed.perturbed_bid).tobytes()
                assert flags[p, k].tolist() == keyed.resampled

    @given(probes=keyed_probes(), seed=st.integers(0, 2**32), runs=st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_every_pair_in_a_bucket_has_its_groups(self, probes, seed, runs):
        draws, arrays, keys, flags = self.batch(probes, seed, runs)
        seen = []
        for scenario, groups, members in bandshare.engine._buckets(arrays, keys, flags):
            for k, p in ((k, p) for k, ps in members.items() for p in ps):
                own, bids, forced = probes[p]
                assert own is scenario
                assert _groups(scenario, _keyed(scenario, bids, draws[k], forced)) == groups
                seen.append((p, k))
        assert sorted(seen) == list(itertools.product(range(len(probes)), range(runs)))


def assert_probes_replay(probes, runs, seed):
    """``run_probes``' samples of each probe equal those of ``replay(scenario,
    seed)(bid_override, force_resample)`` bit for bit in every run."""
    samples = run_probes(probes, runs, seed)
    assert samples.tobytes() == replayed(probes, run_seeds(seed, runs)).tobytes()
    return samples


@st.composite
def probe_sets(draw):
    """A grid of ``batch_grids`` and up to 8 probes on it, each naming
    one buyer with a bid, often one that ties another's value, is below the
    reserve or is -0.0, and a pinned coin."""
    grid = draw(batch_grids())
    buyers = grid[0].buyers
    bids = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 4.0] + [b.value for b in buyers]),
                     st.floats(0.0, 10.0))
    probes = []
    for _ in range(draw(st.integers(1, 8))):
        buyer = draw(st.sampled_from(buyers)).buyer_id
        probes.append(Probe(draw(st.sampled_from(grid)), {buyer: draw(bids)},
                            {buyer: draw(st.booleans())}))
    return probes


class TestProbes:
    """``run_probes`` plays counterfactual bids and pinned coins on each run's
    world as ``replay`` does, on the batch, whatever the scenarios."""

    @given(probes=probe_sets(), seed=st.integers(0, 2**32), runs=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_batched_probes_equal_their_replays(self, probes, seed, runs):
        assert_probes_replay(probes, runs, seed)

    def scenario(self, **kwargs):
        buyers = (
            BuyerSpec("a", 2.0, DemandSpec.constant(6.0), 1, 30),
            BuyerSpec("b", 2.0, DemandSpec.flow_trace(5.0, 30), 1, 30),
            BuyerSpec("c", 1.0, DemandSpec.constant(4.0), 3, 25),
        )
        return Scenario(buyers, capacity=9.0, mechanism="bks", mu=0.3, horizon=30,
                        **{"reserve": 1.5, **kwargs})

    def test_a_probed_key_that_ties_a_competitor(self, monkeypatch):
        """Pinning both coins unresampled makes a's probed bid tie b's key in
        every run, a tie the batch groups as the replay does."""
        sizes = batch_sizes(monkeypatch)
        scenario = self.scenario()
        probes = [Probe(scenario, {"a": 2.0}, {"a": False, "b": False}),
                  Probe(scenario, {"c": 2.0}, {"c": False, "b": False})]
        assert_probes_replay(probes, 5, seed=8)
        assert sizes
        for run_seed in run_seeds(8, 5):
            out = replay(scenario, run_seed)({"a": 2.0}, {"a": False, "b": False})
            assert out.perturbed_bids["a"] == out.perturbed_bids["b"] == 2.0

    def test_a_bid_below_the_reserve_is_not_served(self, monkeypatch):
        sizes = batch_sizes(monkeypatch)
        scenario = self.scenario()
        probes = [Probe(scenario, {"c": 1.0}, {"c": coin}) for coin in (False, True)]
        samples = assert_probes_replay(probes, 4, seed=2)
        assert sizes and not samples[:, buyer_rows("bytes", 3)][:, 2].any()  # c's bytes

    @pytest.mark.parametrize("kind", ["buffered", "pad", "hybrid"])
    def test_a_refused_scenario_plays_run_by_run(self, monkeypatch, kind):
        """With a buyer who pads, or under hybrid routing, the probes play on
        the batch and each sweep plays one run.  A lone greedy buffered buyer
        has a vector form: her buckets are swept over their runs at once."""
        base = self.scenario(reserve=0.0)
        a = base.buyers[0]
        if kind == "hybrid":
            scenario = replace(base, routing="hybrid", hybrid=HybridBoost("c", 40.0, 20))
        else:
            changed = (replace(a, demand=DemandSpec.buffered([6.0] * 30)) if kind == "buffered"
                       else replace(a, strategy=Strategy("pad", pad=2.0)))
            scenario = replace(base, buyers=(changed, *base.buyers[1:]))
        sizes, spans = batch_sizes(monkeypatch), sweep_spans(monkeypatch)
        probes = [Probe(scenario, {buyer: bid}, {buyer: coin})
                  for buyer in ("a", "c") for bid in (0.5, 2.0) for coin in (False, True)]
        assert_probes_replay(probes, 3, seed=5)
        assert sum(sizes) == 3 and spans
        if kind == "buffered":
            assert max(runs for _, runs in spans) > 1
        else:
            assert {runs for _, runs in spans} == {1}

    @pytest.mark.parametrize("metric", ["bytes", "payments", "utilities"])
    @pytest.mark.parametrize("demand", ["constant", "buffered"])
    def test_a_metric_keeps_only_its_rows(self, metric, demand):
        """On the batch and, with a buffered buyer, run by run."""
        scenario = self.scenario()
        if demand == "buffered":
            a = replace(scenario.buyers[0], demand=DemandSpec.buffered([6.0] * 30))
            scenario = replace(scenario, buyers=(a, *scenario.buyers[1:]))
        probes = [Probe(scenario), Probe(scenario, {"a": 1.0}, {"a": True})]
        full = run_probes(probes, 5, seed=3)
        kept = run_probes(probes, 5, seed=3, metric=metric)
        assert kept.shape == (2, 3, 5)
        assert kept.tobytes() == np.ascontiguousarray(full[:, buyer_rows(metric, 3)]).tobytes()

    def test_metric_rows_are_those_of_the_monte_carlo_statistics(self):
        """``buyer_rows`` names the rows that ``run_monte_carlo`` reads its
        per-buyer statistics from, and each run's session numbers sit there."""
        scenario = self.scenario()
        ids = [b.buyer_id for b in scenario.buyers]
        samples = run_probes([Probe(scenario)], 4, seed=6)
        stats = run_monte_carlo([scenario], 4, seed=6)[0]
        assert samples.shape == (1, 2 + 3 * len(ids), 4)
        for k, run_seed in enumerate(run_seeds(6, 4)):
            out = run_session(scenario, run_seed)
            assert list(samples[0, :2, k]) == [out.welfare, out.seller_revenue]
            for metric, got in (("bytes", out.bytes), ("utilities", out.utilities),
                                ("payments", {b: p.net for b, p in out.payments.items()})):
                assert list(samples[0, buyer_rows(metric, len(ids)), k]) == [got[b] for b in ids]
        for metric in ("bytes", "payments", "utilities"):
            means = samples[0, buyer_rows(metric, len(ids))].mean(axis=-1)
            assert [getattr(stats, metric)[b].mean for b in ids] == pytest.approx(means)

    @pytest.mark.parametrize(
        "probe, message",
        [({"bid_override": {"z": 1.0}}, "no buyer 'z'"),
         ({"bid_override": {"a": -1.0}}, "must be >= 0"),
         ({"bid_override": {"a": True}}, "must be >= 0"),
         ({"force_resample": {"a": 1}}, "must be a bool")],
    )
    def test_each_probe_is_checked_before_any_run(self, monkeypatch, probe, message):
        monkeypatch.setattr(bandshare.engine, "_worlds", lambda *a: pytest.fail("world drawn"))
        with pytest.raises(ValueError, match=message):
            run_probes([Probe(self.scenario()), Probe(self.scenario(), **probe)], 3, seed=1)


class TestStatefulBucketsSpanTheirRuns:
    """A bucket whose stateful buyers the sweep serves in vector form is swept
    once over the union of its runs, at 6 runs to a batch, and each (probe,
    run) pair still gets its replayed session's numbers bit for bit: a lone
    greedy buffered or impatient buyer under spq, and under fq and fifo a tied
    group of greedy impatient buyers whose quit epochs differ.  The impatient
    buyers quit in some runs and not in others."""

    @staticmethod
    def scenario(models, routing, reserve=0.0):
        """A flow_trace buyer above the stateful ones (keyed apart under spq)
        and a constant one below them."""
        stateful = tuple(BuyerSpec(f"s{j}", 2.0 - 0.5 * j, model, 2 + j, 38)
                         for j, model in enumerate(models))
        buyers = (BuyerSpec("a", 3.0, DemandSpec.flow_trace(6.0, 40), 1, 40), *stateful,
                  BuyerSpec("c", 0.5, DemandSpec.constant(5.0), 1, 40))
        return Scenario(buyers, capacity=9.0, routing=routing, mechanism="bks", mu=0.5,
                        reserve=reserve, horizon=40)

    @staticmethod
    def quits(scenario):
        """The distinct patterns, over 6 runs, of which stateful buyers move
        nothing after epoch 20 (those who quit)."""
        return {tuple(not run_session(scenario, s).trace[20:, j].any()
                      for j in range(1, len(scenario.buyers) - 1))
                for s in run_seeds(7, 6)}

    @staticmethod
    def assert_spans(monkeypatch, probes):
        """``probes`` replay bit for bit at 6 runs in one batch, and a sweep
        spans several runs."""
        sizes, spans = batch_sizes(monkeypatch), sweep_spans(monkeypatch)
        assert_probes_replay(probes, 6, seed=7)
        assert sizes == [6] and max(runs for _, runs in spans) > 1

    @pytest.mark.parametrize("model", [DemandSpec.buffered([4.0, 0.0, 6.0] * 10),
                                       DemandSpec.impatient(5.0, 10, 25.0)],
                             ids=["buffered", "impatient"])
    @pytest.mark.parametrize("reserve", [0.0, 1.0])
    def test_a_lone_stateful_buyer_under_spq(self, monkeypatch, model, reserve):
        scenario = self.scenario([model], "spq", reserve)
        if model.kind == "impatient":
            assert self.quits(scenario) == {(True,), (False,)}
        probes = [Probe(scenario), Probe(scenario, {"s0": 3.5}), Probe(scenario, {"s0": 0.5}),
                  Probe(scenario, {"a": 1.5, "c": 2.5}, {"a": False, "c": True})]
        self.assert_spans(monkeypatch, probes)

    @pytest.mark.parametrize("routing", ["fq", "fifo"])
    def test_a_tied_impatient_group_under_fq_and_fifo(self, monkeypatch, routing):
        models = [DemandSpec.impatient(4.0, 8, 20.0), DemandSpec.impatient(6.0, 15, 50.0)]
        scenario = self.scenario(models, routing)
        assert len(self.quits(scenario)) > 1
        probes = [Probe(scenario), Probe(replace(scenario, reserve=1.0), {"s0": 0.5})]
        self.assert_spans(monkeypatch, probes)


class TestLedgerRows:
    """``run_probes(metric="ledger")`` keeps what ``build_ledger`` reads of
    each run's session, and ``ledger_rows`` makes its rows from them, bit for
    bit: under bid overrides and pinned coins, buyers who pad or delay,
    stateful models, hybrid routing and every mechanism."""

    @given(probes=probe_sets(), seed=st.integers(0, 2**32), runs=st.integers(1, 6))
    @example(probes=[Probe(s) for s in mixed_grids()[1]], seed=4, runs=3)
    @example(probes=[Probe(s, {"hi": 1.0}, {"hi": True}) for s in mixed_grids()[1]],
             seed=5, runs=2)
    @settings(max_examples=150, deadline=None)
    def test_ledger_rows_are_those_of_build_ledger(self, probes, seed, runs):
        samples = run_probes(probes, runs, seed, metric="ledger")
        assert samples.shape == (len(probes), 4 * len(probes[0].scenario.buyers), runs)
        for probe, sample in zip(probes, samples):
            sessions = [replay(probe.scenario, s)(probe.bid_override, probe.force_resample)
                        for s in run_seeds(seed, runs)]
            expected = [list(build_ledger("s", out).rows) for out in sessions]
            assert repr(ledger_rows(probe.scenario, sample)) == repr(expected)

    def test_ledger_rows_leave_the_default_samples_alone(self):
        """Asking for the ledger rows changes no other call's samples, and a
        scenario with no buyers has none."""
        scenario = TestProbes().scenario()
        before = run_probes([Probe(scenario)], 5, seed=3)
        assert run_probes([Probe(scenario)], 5, seed=3, metric="ledger").shape == (1, 12, 5)
        assert run_probes([Probe(scenario)], 5, seed=3).tobytes() == before.tobytes()
        empty = Scenario((), capacity=5.0, horizon=10)
        samples = run_probes([Probe(empty)], 3, seed=1, metric="ledger")
        assert samples.shape == (1, 0, 3) and ledger_rows(empty, samples[0]) == [[], [], []]

    def test_a_generator_seed_draws_the_runs_from_it_in_place(self):
        """A ``Generator`` seed gives the runs of the seeds it would give k
        draws of one seed each, and is left where they leave it."""
        scenario = TestProbes().scenario()
        rng, single = np.random.default_rng(42), np.random.default_rng(42)
        samples = run_probes([Probe(scenario)], 7, rng)
        seeds = [run_seeds(single, 1)[0] for _ in range(7)]
        assert samples.tobytes() == replayed([Probe(scenario)], seeds).tobytes()
        assert rng.bit_generator.state == single.bit_generator.state


class TestDeadline:
    """``run_monte_carlo`` reads the clock after each batch, and under the pool
    after each task, and stops with a ``TimeoutError`` once the deadline has
    passed.  The clock is a stand-in that moves past it at a chosen reading."""

    @staticmethod
    def clock(monkeypatch, expire_at):
        """``time.monotonic`` reads 0 until its ``expire_at``-th reading, 100 from then on."""
        readings = []
        monkeypatch.setattr(
            bandshare.engine.time, "monotonic",
            lambda: readings.append(None) or (100.0 if len(readings) >= expire_at else 0.0),
        )
        return readings

    @staticmethod
    def counted(monkeypatch, name):
        calls, fn = [], getattr(bandshare.engine, name)
        monkeypatch.setattr(bandshare.engine, name, lambda *a: calls.append(a) or fn(*a))
        return calls

    def test_serial_batches_stop_at_the_deadline(self, monkeypatch):
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 8 * 3 * 100 * 2)
        batches = self.counted(monkeypatch, "_mc_batch")
        readings = self.clock(monkeypatch, expire_at=3)
        with pytest.raises(TimeoutError, match="after 6 of 10 runs"):
            run_monte_carlo([TestMonteCarlo().scenario("bks")], 10, seed=2, deadline=50.0)
        assert len(batches) == 3 and len(readings) == 3

    def test_serial_runs_stop_at_the_deadline(self, monkeypatch):
        """A grid with a stateful buyer stops on the batch as a plain one
        does, here at one run per batch."""
        base = TestMonteCarlo().scenario("bks")
        scenario = replace(base, buyers=(
            replace(base.buyers[0], demand=DemandSpec.buffered([5.0] * 50)), *base.buyers[1:]
        ))
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 8 * 3 * 100)
        batches = self.counted(monkeypatch, "_mc_batch")
        self.clock(monkeypatch, expire_at=4)
        with pytest.raises(TimeoutError, match="after 4 of 9 runs"):
            run_monte_carlo([scenario], 9, seed=2, deadline=50.0)
        assert len(batches) == 4

    def test_no_deadline_hit_leaves_the_results_alone(self, monkeypatch):
        scenario = TestMonteCarlo().scenario("vmm")
        free = run_monte_carlo([scenario], 6, seed=4)
        self.clock(monkeypatch, expire_at=10**9)
        assert run_monte_carlo([scenario], 6, seed=4, deadline=50.0) == free

    def test_pool_stops_between_tasks_and_cancels_the_rest(self, monkeypatch):
        """The stand-in pool plays its tasks lazily in this process and starts
        no worker; the tasks after the expired one are cancelled unplayed."""
        played, shut = [], []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        class InProcess:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return (played.append(len(seeds)) or fn(seeds) for seeds in tasks)

            def shutdown(self, wait=True, cancel_futures=False):
                shut.append((wait, cancel_futures))

        monkeypatch.setattr(bandshare.engine, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(bandshare.engine, "BATCH_BYTES", 8 * 3 * 100 * 3)
        self.clock(monkeypatch, expire_at=2)
        with pytest.raises(TimeoutError, match="after 6 of 12 runs"):
            run_monte_carlo([TestMonteCarlo().scenario("vmm")], 12, seed=2, jobs=2, deadline=50.0)
        assert played == [3, 3] and shut == [(False, True)]


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
