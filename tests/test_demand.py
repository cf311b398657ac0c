"""Demand model tests: pointwise oracles, naturalness, trace statistics, and a
flow_trace realization against one row's own arithmetic."""

import math
import numbers
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import bandshare.demand
from bandshare.demand import DemandSpec, FieldError, check_natural, generator, seed_words


class TestConstant:
    def test_basic(self):
        d = DemandSpec.constant(10).realize()
        assert d.query(1, 0) == 10
        assert d.query(500, 4000) == 10

    def test_zero(self):
        d = DemandSpec.constant(0).realize()
        assert d.query(3, 7.5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DemandSpec.constant(-1)

    def test_flags(self):
        d = DemandSpec.constant(10).realize()
        assert d.memoryless


class TestBuffered:
    def test_accumulates(self):
        d = DemandSpec.buffered([5.0, 5.0, 5.0]).realize()
        assert d.query(3, 0) == 15  # 5 + 5 + 5
        # Past the end of the sequence: total generation - x, clamped at 0.
        assert d.query(4, 0) == 15
        assert d.query(50, 6) == 9
        assert d.query(50, 15) == 0
        assert d.query(50, 40) == 0

    def test_served_buffer_empty(self):
        d = DemandSpec.buffered([5.0] * 3).realize()
        assert d.query(3, 15) == 0

    def test_clamped_at_zero_when_overserved(self):
        # x > cumulative generation is reachable only under padding; clamp.
        d = DemandSpec.buffered([5.0] * 3).realize()
        assert d.query(3, 20) == 0

    def test_sequence_generation(self):
        d = DemandSpec.buffered([1.0, 0.0, 0.0]).realize()
        assert d.query(1, 0) == 1
        assert d.query(5, 0) == 1  # beyond the sequence nothing new is generated
        assert d.query(5, 1) == 0

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError, match="epoch 2"):
            DemandSpec.buffered([1.0, -1.0])

    def test_not_memoryless(self):
        assert not DemandSpec.buffered([5.0]).realize().memoryless


class TestImpatient:
    def test_branches(self):
        d = DemandSpec.impatient(10, 60, 500).realize()
        assert d.query(30, 0) == 10  # t <= p
        assert d.query(61, 501) == 10  # x > m
        assert d.query(61, 400) == 0

    def test_threshold_is_strict(self):
        d = DemandSpec.impatient(10, 60, 500).realize()
        assert d.query(61, 500) == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DemandSpec.impatient(10, 0, 500)
        with pytest.raises(ValueError):
            DemandSpec.impatient(-1, 60, 500)


class TestFunctionalModels:
    def test_time_varying_passthrough(self):
        d = DemandSpec.time_varying([float(t) for t in range(1, 11)]).realize()
        assert d.query(7, 0) == 7
        assert d.query(7, 999) == 7
        assert d.query(11, 0) == 0  # nothing is generated after the sequence

    def test_increasing_total_passthrough(self):
        d = DemandSpec.increasing_total(lambda x: x / 100).realize()
        assert d.query(1, 200) == 2
        assert d.query(50, 200) == 2

    def test_increasing_rate(self):
        d = DemandSpec.increasing_rate(lambda z: 2 * z).realize()
        assert d.query(4, 8) == 4  # g(8/4) = g(2) = 4

    def test_nonmonotone_rejected(self):
        with pytest.raises(ValueError):
            DemandSpec.increasing_rate(lambda z: -z)
        with pytest.raises(ValueError):
            DemandSpec.increasing_total(lambda x: np.sin(x))


class TestFlowTrace:
    def _spec(self, rate=10.0, horizon=600):
        return DemandSpec.flow_trace(
            mean_rate=rate,
            horizon=horizon,
            mean_duration=30,
            stddev_duration=30,
            mean_interarrival=30,
        )

    def test_deterministic_given_seed(self):
        a = self._spec().realize(7)
        b = self._spec().realize(7)
        assert [a.query(t, 0) for t in range(1, 601)] == [
            b.query(t, 0) for t in range(1, 601)
        ]

    def test_independent_of_x(self):
        d = self._spec().realize(3)
        assert d.memoryless
        for t in (1, 100, 599):
            assert d.query(t, 0) == d.query(t, 12345.6)

    def test_zero_rate_zero_trace(self):
        d = self._spec(rate=0.0).realize(11)
        assert all(d.query(t, 0) == 0 for t in range(1, 601))

    def test_mean_matches_flow_rate(self):
        # Time-average over many seeds approaches the mean flow rate (5% band).
        totals = []
        for seed in range(120):
            d = self._spec().realize(seed)
            totals.append(np.mean([d.query(t, 0) for t in range(1, 601)]))
        mean = float(np.mean(totals))
        assert abs(mean - 10.0) / 10.0 < 0.05

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            self._spec().realize()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DemandSpec.flow_trace(mean_rate=10, horizon=600, mean_duration=0)
        with pytest.raises(ValueError):
            DemandSpec.flow_trace(mean_rate=10, horizon=0)

    @pytest.mark.parametrize("gap", [1e-9, 1e-13])
    def test_expected_flow_count_is_bounded(self, gap):
        # About (600 + 20 x 30) / gap arrivals: the array draws would take
        # that much memory at realization.  Built only, never realized.
        with pytest.raises(FieldError, match=r"mean_interarrival must be >= 0\.0012, ") as info:
            DemandSpec.flow_trace(mean_rate=10, horizon=600, mean_interarrival=gap)
        assert info.value.field == "mean_interarrival"
        DemandSpec.flow_trace(mean_rate=10, horizon=600, mean_interarrival=0.0012)

    @pytest.mark.parametrize("params", [
        dict(mean_rate=1.0, horizon=10, mean_duration=1, stddev_duration=1e155),
        dict(mean_rate=10.0, horizon=600, mean_duration=1e-300, stddev_duration=1e10,
             mean_interarrival=1.0),
    ])
    def test_duration_spread_must_square_to_a_float(self, params):
        # The lognormal's sigma^2 is log(1 + (stddev / mean)^2): at realization
        # the first spec overflowed and the second cast NaNs to flow counts.
        message = r"stddev_duration must be at most 1\.34078e\+154 mean durations, "
        with pytest.raises(FieldError, match=message) as info:
            DemandSpec.flow_trace(**params)
        assert info.value.field == "stddev_duration"

    def test_a_wide_duration_spread_still_realizes(self):
        spec = DemandSpec.flow_trace(1.0, 10, mean_duration=1, stddev_duration=1e153)
        assert len(spec.realize(0).query_epochs(1, 10)) == 10

    @given(
        seed=st.integers(0, 2**64 - 1),
        mean_rate=st.sampled_from([0.0, 0.5, 10.0]) | st.floats(0.0, 40.0),
        horizon=st.integers(1, 120),
        mean_duration=st.sampled_from([1.0, 30.0, 500.0]) | st.floats(0.5, 200.0),
        stddev_duration=st.floats(0.0, 100.0),
        mean_interarrival=st.sampled_from([0.5, 30.0, 1e9]) | st.floats(0.5, 1e4),
    )
    @settings(max_examples=150, deadline=None)
    def test_realize_is_the_per_row_law_bit_for_bit(self, seed, **params):
        """A realization, the one-row case of the rows drawn together, is the
        trace that one row's arithmetic gives on its own draws: with no
        arrivals, with flows longer than the horizon, at any parameters."""
        trace = DemandSpec.flow_trace(**params).realize(seed).query_epochs(1, params["horizon"])
        assert trace.tobytes() == per_row_flow_trace(seed, **params).tobytes()


def per_row_flow_trace(seed, mean_rate, horizon, mean_duration, stddev_duration,
                       mean_interarrival):
    """Reference arithmetic of one flow_trace row: its four draws from its own
    generator, with the row's edges counted on their own."""
    rng = np.random.default_rng(seed)
    sigma2 = math.log(1.0 + (stddev_duration / mean_duration) ** 2)
    mu = math.log(mean_duration) - sigma2 / 2.0
    warmup = 20 * mean_duration
    count = rng.poisson((horizon + warmup) / mean_interarrival)
    arrived = np.floor(rng.uniform(-warmup, horizon, count))
    duration = np.ceil(rng.lognormal(mu, math.sqrt(sigma2), count))
    start = np.maximum(1.0, arrived + 1)
    stop = np.maximum(np.minimum(horizon, arrived + duration) + 1, start)
    edges = [np.bincount(e.astype(np.intp), minlength=horizon + 2) for e in (start, stop)]
    active = np.cumsum(edges[0] - edges[1])[1 : horizon + 1]
    return rng.poisson(mean_rate * active).astype(float)


def loop_flow_trace(seed, mean_rate, horizon, mean_duration=30.0, stddev_duration=30.0,
                    mean_interarrival=30.0, warmup=None):
    """Reference generator: the per-flow loop that ``flow_trace`` replaced.

    One exponential gap, one lognormal duration and one Poisson block per
    flow, from a warm-up of 20 mean durations unless ``warmup`` is given."""
    rng = np.random.default_rng(seed)
    sigma2 = math.log(1.0 + (stddev_duration / mean_duration) ** 2)
    mu, sigma = math.log(mean_duration) - sigma2 / 2.0, math.sqrt(sigma2)
    demand = np.zeros(horizon + 1)  # index by epoch, entry 0 unused
    t_arr = -(20.0 * mean_duration if warmup is None else warmup)
    while True:
        t_arr += rng.exponential(mean_interarrival)
        if t_arr > horizon:
            return demand[1:]
        duration = math.ceil(rng.lognormal(mu, sigma))
        start = max(1, math.floor(t_arr) + 1)
        end = min(horizon, math.floor(t_arr) + duration)
        if end >= start:
            demand[start : end + 1] += rng.poisson(mean_rate, size=end - start + 1)


def trace_statistics(traces):
    """Per-trace mean, idle fraction, variance and first-epoch demand: one
    sample per trace, since the epochs of one trace are correlated."""
    traces = np.asarray(traces)
    return {
        "mean": traces.mean(axis=1),
        "idle": (traces == 0).mean(axis=1),
        "variance": traces.var(axis=1),
        "epoch 1": traces[:, 0],
    }


FLOW_TRACE_LAWS = {
    "default": dict(mean_rate=10.0, horizon=600),
    # A mean of 2 flows that last 100 epochs: most demand at epoch 1 comes
    # from flows that arrived during the warm-up.
    "long flows": dict(mean_rate=3.0, horizon=300, mean_duration=100.0, stddev_duration=100.0,
                       mean_interarrival=50.0),
    "short horizon": dict(mean_rate=10.0, horizon=20),
}
TRACES = 2000


@pytest.mark.parametrize("law", sorted(FLOW_TRACE_LAWS))
def test_flow_trace_has_the_law_of_the_per_flow_loop(law):
    """The array draws and the reference loop give traces with the same law:
    each per-trace statistic has the same mean (within 4 standard errors)
    and passes a two-sample KS test, over fixed seeds."""
    params = FLOW_TRACE_LAWS[law]
    spec = DemandSpec.flow_trace(**params)
    horizon = params["horizon"]
    drawn = trace_statistics([spec.realize(s).query_epochs(1, horizon) for s in range(TRACES)])
    loop = trace_statistics([loop_flow_trace(10**6 + s, **params) for s in range(TRACES)])
    for name in drawn:
        a, b = drawn[name], loop[name]
        se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) <= 4 * se, (law, name, a.mean(), b.mean())
        assert stats.ks_2samp(a, b).pvalue > 0.01, (law, name)


def test_flow_trace_law_check_rejects_a_trace_without_warm_up():
    # The check has power where warm-up matters: without it, the loop's
    # first epochs see almost no flows.
    params = FLOW_TRACE_LAWS["long flows"]
    spec = DemandSpec.flow_trace(**params)
    drawn = trace_statistics([spec.realize(s).query_epochs(1, 300) for s in range(TRACES)])
    cold = [loop_flow_trace(10**6 + s, **params, warmup=0.0) for s in range(TRACES)]
    cold = trace_statistics(cold)
    assert stats.ks_2samp(drawn["epoch 1"], cold["epoch 1"]).pvalue < 1e-6


class TestCheckNatural:
    GRID_T = range(1, 80, 7)
    GRID_X = [0, 1, 5, 10, 50, 100, 499, 500, 501, 600, 1000]
    GRID_C = [0, 1, 5, 10, 25, 100]

    def test_constant_passes(self):
        d = DemandSpec.constant(10).realize()
        assert check_natural(d, self.GRID_T, self.GRID_X, self.GRID_C)

    def test_impatient_passes_across_threshold(self):
        d = DemandSpec.impatient(10, 60, 500).realize()
        res = check_natural(d, self.GRID_T, self.GRID_X, self.GRID_C)
        assert res.passed and res.witness is None

    def test_cliff_fails_with_witness(self):
        d = DemandSpec.cliff(10, 500).realize()
        res = check_natural(d, self.GRID_T, self.GRID_X, self.GRID_C)
        assert not res.passed
        t, x_hi, x_lo, c = res.witness
        # The witness really violates the inequality.
        assert x_hi >= x_lo
        lhs = x_hi + min(c, d.query(t, x_hi))
        rhs = x_lo + min(c, d.query(t, x_lo))
        assert lhs < rhs

    def test_all_builtin_models_natural_on_random_grids(self):
        rng = np.random.default_rng(42)
        models = [
            DemandSpec.constant(7.5).realize(),
            DemandSpec.time_varying([(t % 13) * 1.5 for t in range(1, 200)]).realize(),
            DemandSpec.buffered([(p % 5) * 2.0 for p in range(1, 200)]).realize(),
            DemandSpec.impatient(10, 20, 150).realize(),
            DemandSpec.increasing_rate(lambda z: 3 * z + 1).realize(),
            DemandSpec.increasing_total(lambda x: np.sqrt(x)).realize(),
        ]
        for d in models:
            for _ in range(1000):
                t = int(rng.integers(1, 200))
                x_lo, x_hi = sorted(rng.uniform(0, 2000, size=2))
                c = float(rng.uniform(0, 100))
                lhs = x_hi + min(c, d.query(t, x_hi))
                rhs = x_lo + min(c, d.query(t, x_lo))
                assert lhs >= rhs - 1e-9, (d.model_id, t, x_hi, x_lo, c)


class TestMemorylessFlags:
    def test_expected_flags(self):
        flagged = {
            "constant": DemandSpec.constant(1).realize(),
            "time_varying": DemandSpec.time_varying([1.0]).realize(),
            "flow_trace": DemandSpec.flow_trace(mean_rate=10, horizon=10).realize(1),
        }
        unflagged = {
            "buffered": DemandSpec.buffered([1.0]).realize(),
            "impatient": DemandSpec.impatient(1, 5, 3).realize(),
            "increasing_rate": DemandSpec.increasing_rate(lambda z: z).realize(),
            "increasing_total": DemandSpec.increasing_total(lambda x: x).realize(),
        }
        assert all(d.memoryless for d in flagged.values())
        assert not any(d.memoryless for d in unflagged.values())

    def test_memoryless_means_x_invariant(self):
        d = DemandSpec.flow_trace(mean_rate=10, horizon=50).realize(9)
        for t in range(1, 51):
            assert d.query(t, 0.0) == d.query(t, 777.7)


class TestDemandSpec:
    def test_realize_dispatch(self):
        assert DemandSpec.constant(4).realize().query(9, 9) == 4
        assert DemandSpec.impatient(10, 60, 500).realize().query(61, 400) == 0

    def test_flow_trace_seed_override(self):
        spec = DemandSpec.flow_trace(mean_rate=10, horizon=100)
        a = spec.realize(seed=5)
        b = spec.realize(seed=5)
        c = spec.realize(seed=6)
        series_a = [a.query(t, 0) for t in range(1, 101)]
        assert series_a == [b.query(t, 0) for t in range(1, 101)]
        assert series_a != [c.query(t, 0) for t in range(1, 101)]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DemandSpec("nope", {}).realize()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: DemandSpec.constant(-3), id="constant-negative"),
            pytest.param(lambda: DemandSpec.constant(float("nan")), id="constant-nan"),
            pytest.param(lambda: DemandSpec.time_varying([1.0, -2.0]), id="time_varying"),
            pytest.param(lambda: DemandSpec.buffered([-1.0]), id="buffered"),
            pytest.param(lambda: DemandSpec.impatient(10, 0, 500), id="impatient-patience"),
            pytest.param(lambda: DemandSpec.impatient(10, 60, -1), id="impatient-min"),
            pytest.param(lambda: DemandSpec.increasing_rate([1.0, 2.0]), id="increasing_rate"),
            pytest.param(lambda: DemandSpec.increasing_total(lambda x: -x), id="increasing_total"),
            pytest.param(lambda: DemandSpec.cliff(10, -1), id="cliff"),
            pytest.param(lambda: DemandSpec.flow_trace(mean_rate=-1, horizon=10), id="flow_trace-rate"),
            pytest.param(
                lambda: DemandSpec.flow_trace(mean_rate=1, horizon=10, stddev_duration=-1),
                id="flow_trace-stddev",
            ),
            pytest.param(
                lambda: DemandSpec.flow_trace(mean_rate=1, horizon=10, mean_interarrival=0),
                id="flow_trace-interarrival",
            ),
        ],
    )
    def test_constructors_check_parameters(self, build):
        # Raised when the spec is built, not when a session realizes it.
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "build, model",
        [
            (lambda: DemandSpec("constant", {"k": -3}), "constant"),
            (lambda: DemandSpec("constant", {"q": 1}), "constant"),
            (lambda: DemandSpec("impatient", {"k": 1, "p": 0, "m": 1}), "impatient"),
            (lambda: DemandSpec("flow_trace", {"mean_rate": 1}), "flow_trace"),
            (lambda: DemandSpec.time_varying(lambda t: 1.0), "time_varying"),
            (lambda: DemandSpec.buffered(lambda p: 1.0), "buffered"),
            (lambda: DemandSpec("constant", {"k": "a"}), "constant"),
            (lambda: DemandSpec.constant(True), "constant"),
            (lambda: DemandSpec.cliff("x", 1), "cliff"),
            (lambda: DemandSpec.time_varying([None]), "time_varying"),
            (lambda: DemandSpec.buffered([1.0, False]), "buffered"),
            (lambda: DemandSpec.impatient(1, 2.5, 3), "impatient"),
            (lambda: DemandSpec.flow_trace(1, 10.5), "flow_trace"),
        ],
        ids=[
            "negative", "unknown-key", "impatient", "missing-keys", "callable-tv", "callable-buf",
            "string", "bool", "cliff-string", "none-tv", "bool-buf", "fractional-patience",
            "fractional-horizon",
        ],
    )
    def test_raw_specs_checked(self, build, model):
        # The dataclass constructor checks what the static constructors check.
        with pytest.raises(ValueError, match=model):
            build()

    def test_raw_spec_stores_sequence_as_floats(self):
        spec = DemandSpec("buffered", {"g": [1, 2]})
        assert spec.params["g"] == (1.0, 2.0)
        assert spec == DemandSpec.buffered((1.0, 2.0))

    @staticmethod
    def generation_by_entry(kind, g):
        """The per-entry check of a ``g`` sequence, the reference for the
        one-pass check: its tuple of floats, or its error message."""
        for p, v in enumerate(g, start=1):
            ok = isinstance(v, numbers.Real) and not isinstance(v, bool)
            if not (ok and bandshare.demand._finite(v) and v >= 0):
                return f"{kind}: generation at epoch {p} must be a finite number >= 0, got {v}"
        return tuple(float(v) for v in g)

    ENTRIES = st.one_of(
        st.floats(0.0, 1e6),
        st.integers(0, 2**70),
        st.sampled_from([-0.0, 0, 2**1100, -1, -1e-300, math.nan, math.inf, -math.inf, True,
                         False, None, "2", 1 + 0j, np.float64(3.0), np.float64(-3.0),
                         np.int64(7), Fraction(1, 3), [1.0]]),
    )

    @given(kind=st.sampled_from(["buffered", "time_varying"]),
           g=st.lists(ENTRIES, min_size=1, max_size=12), as_array=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sequence_checked_as_entry_by_entry(self, kind, g, as_array):
        """Every entry that is a bool, not a real number, NaN, infinite or
        negative is rejected with the message and first epoch of the per-entry
        check, whether it comes in a list or a numpy array."""
        if as_array:
            try:
                g = np.array(g)
            except (ValueError, OverflowError):
                assume(False)
        expected = self.generation_by_entry(kind, g)
        if isinstance(expected, str):
            with pytest.raises(FieldError, match=f"^{re.escape(expected)}$"):
                DemandSpec(kind, {"g": g})
        else:
            stored = DemandSpec(kind, {"g": g}).params["g"]
            assert type(stored) is tuple and all(type(v) is float for v in stored)
            assert np.array(stored).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf, -2.0, "x", 2**1100])
    def test_bad_entry_deep_in_a_long_sequence(self, bad):
        g = [3.0] * 70_000
        g[65_535] = bad
        message = f"at epoch 65536 must be a finite number >= 0, got {re.escape(str(bad))}$"
        with pytest.raises(FieldError, match=message):
            DemandSpec.buffered(g)

    def test_monotone_probe_runs_once_at_build(self):
        calls = []

        def g(z):
            calls.append(z)
            return z

        spec = DemandSpec.increasing_rate(g)
        probed = len(calls)
        assert probed > 0
        spec.realize(1)
        spec.realize(2)
        assert len(calls) == probed

    def test_public_names(self):
        assert sorted(bandshare.demand.__all__) == [
            "DemandRealization", "DemandSpec", "FieldError", "NaturalCheck", "check_natural",
            "generator", "seed_words",
        ]

    def test_query_validation(self):
        d = DemandSpec.constant(1).realize()
        with pytest.raises(ValueError):
            d.query(0, 0)
        with pytest.raises(ValueError):
            d.query(1, -1)


# Seeds at the edges of one and two 32-bit words, and past two.
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]
LONG_SEEDS = [2**64, 2**96 + 7, 2**128 - 1, 2**128, 2**200 + 12345, 3**150]
SPAWN_KEYS = [(), (0,), (2,)]


def numpy_words(seed, key, words):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(words, np.uint64)


class TestSeedWords:
    """``seed_words`` is numpy's SeedSequence hash on many seeds at once,
    and ``generator`` the ``default_rng`` that its words seed, bit for bit."""

    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(SEED_EDGES),
                       min_size=1, max_size=12),
        key=st.sampled_from(SPAWN_KEYS),
        words=st.integers(1, 8),
        as_array=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_words_are_numpys(self, seeds, key, words, as_array):
        got = seed_words(np.array(seeds, dtype=np.uint64) if as_array else seeds, words, key)
        assert got.dtype == np.uint64 and got.shape == (*[1] * len(key), len(seeds), words)
        want = np.array([numpy_words(seed, key, words) for seed in seeds])
        assert got.reshape(want.shape).tobytes() == want.tobytes()

    @given(
        seeds=st.lists(st.integers(0, 2**300) | st.sampled_from(SEED_EDGES + LONG_SEEDS),
                       min_size=1, max_size=8),
        key=st.sampled_from(SPAWN_KEYS),
        words=st.integers(1, 8),
    )
    @example(seeds=SEED_EDGES + LONG_SEEDS, key=(2,), words=8)
    @example(seeds=SEED_EDGES + LONG_SEEDS, key=(), words=4)
    @settings(max_examples=150, deadline=None)
    def test_seeds_of_more_than_two_words_are_numpys(self, seeds, key, words):
        """Seeds of 2**64 and up are several words of entropy, as
        ``run_session`` and ``DemandSpec.realize`` accept them; in one call
        with shorter seeds, each row hashes its own count of words."""
        want = np.array([numpy_words(seed, key, words) for seed in seeds])
        assert seed_words(seeds, words, key).reshape(want.shape).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seeds, words", [([2**700 + 3, 9], 4), ([5, 2**70], 40)])
    def test_hash_constants_past_the_tables(self, seeds, words):
        """A seed of 22 words and 40 state words use more hash constants than
        the tables the module keeps."""
        for key in SPAWN_KEYS:
            want = np.array([numpy_words(seed, key, words) for seed in seeds])
            assert seed_words(seeds, words, key).reshape(want.shape).tobytes() == want.tobytes()

    def test_several_spawn_keys_at_once(self):
        seeds = SEED_EDGES + [12345, 2**62 + 3]
        got = seed_words(seeds, 5, (2, 0, 7))
        assert got.shape == (3, len(seeds), 5)
        for j, key in enumerate((2, 0, 7)):
            want = np.array([numpy_words(seed, (key,), 5) for seed in seeds])
            assert got[j].tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**64 - 1) | st.sampled_from(SEED_EDGES + LONG_SEEDS),
           key=st.sampled_from(SPAWN_KEYS))
    @settings(max_examples=150, deadline=None)
    def test_generator_is_default_rngs(self, seed, key):
        """A generator set from the words has PCG64's state and draws what
        ``default_rng`` draws, draw for draw."""
        (words,) = seed_words([seed], 4, key).reshape(1, 4)
        rng = generator(words)
        reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state
        assert rng.bit_generator.state == state
        draws = [lambda g: g.random(3), lambda g: g.poisson(4.5, 3), lambda g: g.poisson(3e3),
                 lambda g: g.uniform(-2.0, 7.0, 3), lambda g: g.lognormal(0.3, 1.2, 3)]
        for draw in draws:
            assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(reference)).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("words", [np.zeros(3, np.uint64), np.zeros((2, 4), np.uint64)])
    def test_a_generator_takes_four_words(self, words):
        """PCG64 reads its 4 words through a pointer, so no other count reaches it."""
        with pytest.raises(ValueError, match="4 uint64 words"):
            generator(words)

    @pytest.mark.parametrize("seed", [-1, -(2**64), np.int64(-3)])
    def test_a_negative_seed_raises_as_numpy_does(self, seed):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(seed)
        for key in SPAWN_KEYS:
            with pytest.raises(ValueError) as ours:
                seed_words([5, seed], 4, key)
            assert str(ours.value) == str(numpy_error.value)

    def test_a_seed_that_is_not_an_integer_raises_as_numpy_does(self):
        for seed in (1.5, "3", np.float64(2.0)):
            with pytest.raises(TypeError):
                np.random.SeedSequence(seed)
            with pytest.raises(TypeError):
                seed_words([seed], 4)

    def test_a_flow_trace_realization_draws_from_its_seeds_generator(self):
        """``DemandSpec.realize`` seeds a flow_trace row through the kernel:
        the one-row trace is the reference arithmetic on ``default_rng``."""
        params = dict(mean_rate=3.0, horizon=50, mean_duration=8.0, stddev_duration=5.0,
                      mean_interarrival=2.0)
        for seed in SEED_EDGES + LONG_SEEDS:
            trace = DemandSpec.flow_trace(**params).realize(seed).query_epochs(1, 50)
            assert trace.tobytes() == per_row_flow_trace(seed, **params).tobytes()
