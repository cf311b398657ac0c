"""Buyer demand models.

A demand model answers "how many KB does this buyer want to move in epoch t,
given that she has moved x KB so far?".  A model is named by a
:class:`DemandSpec`, built with one of its static constructors, which check
the model's parameters when called.  ``DemandSpec.realize(seed)`` draws a
fixed :class:`DemandRealization` whose randomness (if any) is drawn once from
the seed, so repeated queries are deterministic and a realization can be
replayed across counterfactual simulations.

Units: one epoch is one second; demand and rates are KB per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DemandRealization",
    "DemandSpec",
    "NaturalCheck",
    "check_natural",
]

GenFn = Callable[[int], float]
Gen = Union[GenFn, Sequence[float]]

# Probe grid used to spot-check monotonicity of user-supplied rate functions.
_MONOTONE_PROBE_MAX = 1e4
_MONOTONE_PROBE_POINTS = 512


@dataclass(frozen=True)
class DemandRealization:
    """A fixed draw of a demand function d(t, x).

    ``query(t, x)`` returns the demand (KB) for epoch ``t >= 1`` given
    cumulative real traffic ``x >= 0``.  ``memoryless`` is True when d(t, x)
    does not depend on x at all.
    """

    model_id: str
    memoryless: bool
    _fn: Callable[[int, float], float] = field(repr=False)
    _bulk: Optional[Callable[[int, int], np.ndarray]] = field(default=None, repr=False)

    def query(self, t: int, x: float) -> float:
        if t < 1:
            raise ValueError(f"epoch index must be >= 1, got {t}")
        if x < 0:
            raise ValueError(f"cumulative bytes must be >= 0, got {x}")
        d = float(self._fn(t, x))
        if not math.isfinite(d) or d < 0:
            raise ValueError(
                f"model {self.model_id!r} produced invalid demand {d} at (t={t}, x={x})"
            )
        return d

    def query_epochs(self, lo: int, hi: int) -> np.ndarray:
        """Demand at x = 0 for every epoch in [lo, hi].

        Only meaningful for memoryless models (where demand does not depend on
        x); a vectorized shortcut is used when the model provides one.
        """
        if not self.memoryless:
            raise ValueError(f"model {self.model_id!r} depends on cumulative traffic")
        if lo < 1 or hi < lo:
            raise ValueError(f"bad epoch range [{lo}, {hi}]")
        if self._bulk is not None:
            return self._bulk(lo, hi)
        return np.array([self.query(t, 0.0) for t in range(lo, hi + 1)])


def _check(ok: bool, message: str) -> None:
    # Written as a positive condition so that NaN parameters fail it too.
    if not ok:
        raise ValueError(message)


def _generation(g: Gen, name: str) -> Gen:
    """A per-epoch generation callable as is, or a sequence as a float tuple.

    Sequences are 1-indexed by epoch and yield 0 beyond their end (the
    generation process has stopped); their entries must be >= 0.
    """
    if callable(g):
        return g
    seq = tuple(float(v) for v in g)
    for p, v in enumerate(seq, start=1):
        _check(v >= 0, f"{name}: generation at epoch {p} is negative ({v})")
    return seq


def _gen_fn(g: Gen) -> GenFn:
    if callable(g):
        return g
    return lambda p: g[p - 1] if 1 <= p <= len(g) else 0.0


def _weakly_increasing(g: Callable[[float], float], name: str) -> Callable[[float], float]:
    """g, if a probe grid reveals no decrease.

    For callables this is a spot check, not a proof; sequences passed to the
    increasing variants are rejected outright (the argument is continuous).
    """
    _check(callable(g), f"{name}: g must be callable on a continuous argument")
    zs = np.linspace(0.0, _MONOTONE_PROBE_MAX, _MONOTONE_PROBE_POINTS)
    vals = [float(g(z)) for z in zs]
    for a, b in zip(vals, vals[1:]):
        _check(b >= a - 1e-12, f"{name}: rate function is not weakly increasing")
    return g


# -- models: parameters are checked by the DemandSpec constructors -----------


def _constant(k: float) -> DemandRealization:
    return DemandRealization(
        "constant",
        memoryless=True,
        _fn=lambda t, x: k,
        _bulk=lambda lo, hi: np.full(hi - lo + 1, float(k)),
    )


def _time_varying(g: Gen) -> DemandRealization:
    fn = _gen_fn(g)
    return DemandRealization("time_varying", memoryless=True, _fn=lambda t, x: fn(t))


def _buffered(g: Gen) -> DemandRealization:
    fn = _gen_fn(g)
    prefix: list[float] = [0.0]  # lazy prefix sums of the generation

    def cum(t: int) -> float:
        while len(prefix) <= t:
            p = len(prefix)
            v = float(fn(p))
            _check(v >= 0, f"buffered: generation at epoch {p} is negative ({v})")
            prefix.append(prefix[-1] + v)
        return prefix[t]

    return DemandRealization(
        "buffered", memoryless=False, _fn=lambda t, x: max(0.0, cum(t) - x)
    )


def _impatient(k: float, p: int, m: float) -> DemandRealization:
    def fn(t: int, x: float) -> float:
        if t <= p:
            return k
        return k if x > m else 0.0

    return DemandRealization("impatient", memoryless=False, _fn=fn)


def _increasing_rate(g: Callable[[float], float]) -> DemandRealization:
    return DemandRealization("increasing_rate", memoryless=False, _fn=lambda t, x: g(x / t))


def _increasing_total(g: Callable[[float], float]) -> DemandRealization:
    return DemandRealization("increasing_total", memoryless=False, _fn=lambda t, x: g(x))


def _cliff(k: float, m: float) -> DemandRealization:
    return DemandRealization("cliff", memoryless=False, _fn=lambda t, x: k if x < m else 0.0)


def _flow_trace(
    seed: int,
    mean_rate: float,
    horizon: int,
    mean_duration: float,
    stddev_duration: float,
    mean_interarrival: float,
) -> DemandRealization:
    rng = np.random.default_rng(seed)
    # Underlying normal parameters for a lognormal with the given moments.
    sigma2 = math.log(1.0 + (stddev_duration / mean_duration) ** 2)
    mu = math.log(mean_duration) - sigma2 / 2.0
    sigma = math.sqrt(sigma2)

    # Warm-start margin: generous multiple of the mean duration so flows that
    # straddle epoch 1 are represented.
    warmup = 20.0 * mean_duration
    demand = np.zeros(horizon + 1)  # index by epoch, entry 0 unused

    t_arr = -warmup
    while True:
        t_arr += rng.exponential(mean_interarrival)
        if t_arr > horizon:
            break
        duration = math.ceil(rng.lognormal(mu, sigma))  # whole epochs, >= 1
        start = max(1, math.floor(t_arr) + 1)  # first whole epoch after arrival
        end = min(horizon, math.floor(t_arr) + duration)
        if end < start or mean_rate == 0:
            continue
        demand[start : end + 1] += rng.poisson(mean_rate, size=end - start + 1)

    def fn(t: int, x: float) -> float:
        if t > horizon:
            return 0.0
        return float(demand[t])

    def bulk(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo + 1)
        top = min(hi, horizon)
        if top >= lo:
            out[: top - lo + 1] = demand[lo : top + 1]
        return out

    return DemandRealization("flow_trace", memoryless=True, _fn=fn, _bulk=bulk)


_MODELS: dict[str, Callable[..., DemandRealization]] = {
    "constant": _constant,
    "time_varying": _time_varying,
    "buffered": _buffered,
    "impatient": _impatient,
    "increasing_rate": _increasing_rate,
    "increasing_total": _increasing_total,
    "cliff": _cliff,
    "flow_trace": _flow_trace,
}


@dataclass(frozen=True)
class NaturalCheck:
    """Result of a naturalness check; ``witness`` is (t, x, x_prime, c) on failure."""

    passed: bool
    witness: Optional[tuple[int, float, float, float]] = None

    def __bool__(self) -> bool:
        return self.passed


def check_natural(
    d: DemandRealization,
    t_range: Iterable[int],
    x_grid: Sequence[float],
    c_grid: Sequence[float],
    tol: float = 1e-9,
) -> NaturalCheck:
    """Verify x + min(c, d(t, x)) >= x' + min(c, d(t, x')) on the given grids.

    Checks every t in ``t_range``, every ordered pair x >= x' from ``x_grid``,
    and every c in ``c_grid``.  Returns the first violating (t, x, x', c) as a
    witness.
    """
    xs = sorted(float(x) for x in x_grid)
    cs = [float(c) for c in c_grid]
    if any(c < 0 for c in cs):
        raise ValueError("capacity grid must be nonnegative")
    for t in t_range:
        dvals = [d.query(t, x) for x in xs]
        for j, x_hi in enumerate(xs):
            for i in range(j + 1):
                x_lo = xs[i]
                for c in cs:
                    lhs = x_hi + min(c, dvals[j])
                    rhs = x_lo + min(c, dvals[i])
                    if lhs < rhs - tol:
                        return NaturalCheck(False, (t, x_hi, x_lo, c))
    return NaturalCheck(True)


@dataclass(frozen=True)
class DemandSpec:
    """Tag + parameters naming a demand model; ``realize`` draws a realization.

    Build specs with the static constructors, one per model; each checks its
    parameters and raises ``ValueError`` when called.  Every model but
    ``flow_trace`` is deterministic and ignores the realization seed.
    """

    kind: str
    params: Mapping[str, object]

    def __post_init__(self) -> None:
        _check(self.kind in _MODELS, f"unknown demand model {self.kind!r}")

    def realize(self, seed: Optional[int] = None) -> DemandRealization:
        params = self.params
        if self.kind == "flow_trace":
            _check(seed is not None, "flow_trace needs a seed to fix the realization")
            params = {"seed": int(seed), **params}
        return _MODELS[self.kind](**params)

    @staticmethod
    def constant(k: float) -> "DemandSpec":
        """A buyer that wants to send at a constant rate k."""
        _check(k >= 0, f"constant rate must be >= 0, got {k}")
        return DemandSpec("constant", {"k": k})

    @staticmethod
    def time_varying(g: Gen) -> "DemandSpec":
        """Data generated by g(t) that must be sent immediately: d(t, x) = g(t)."""
        return DemandSpec("time_varying", {"g": _generation(g, "time_varying")})

    @staticmethod
    def buffered(g: Gen) -> "DemandSpec":
        """Data generated by g(t) and buffered until sent: d(t, x) = sum_{p<=t} g(p) - x.

        Clamped at 0 when x exceeds cumulative generation (reachable only under
        padding strategies, where billed traffic outruns real traffic).
        """
        return DemandSpec("buffered", {"g": _generation(g, "buffered")})

    @staticmethod
    def impatient(k: float, p: int, m: float) -> "DemandSpec":
        """A buyer who sends at rate k until epoch p, then gives up unless she has
        received strictly more than m KB of service by then."""
        _check(k >= 0, f"rate must be >= 0, got {k}")
        _check(p >= 1, f"patience epoch must be >= 1, got {p}")
        _check(m >= 0, f"minimum service must be >= 0, got {m}")
        return DemandSpec("impatient", {"k": k, "p": p, "m": m})

    @staticmethod
    def increasing_rate(g: Callable[[float], float]) -> "DemandSpec":
        """Demand growing with the achieved average rate: d(t, x) = g(x / t), g weakly increasing."""
        return DemandSpec("increasing_rate", {"g": _weakly_increasing(g, "increasing_rate")})

    @staticmethod
    def increasing_total(g: Callable[[float], float]) -> "DemandSpec":
        """Demand growing with the total already moved: d(t, x) = g(x), g weakly increasing."""
        return DemandSpec("increasing_total", {"g": _weakly_increasing(g, "increasing_total")})

    @staticmethod
    def cliff(k: float, m: float) -> "DemandSpec":
        """Deliberately unnatural fixture: full rate k while x < m, then nothing.

        The buyer demands a whole epoch of rate k even when only a sliver short of
        her quota m, so extra service early can strictly reduce her achievable
        total.  This is the (t, x)-expressible stand-in for history-dependent
        give-up behavior; it violates the naturalness inequality with an easy
        witness (x = m, x' = m - eps, c = k).
        """
        _check(k >= 0 and m >= 0, "rate and quota must be >= 0")
        return DemandSpec("cliff", {"k": k, "m": m})

    @staticmethod
    def flow_trace(
        mean_rate: float,
        horizon: int,
        mean_duration: float = 30.0,
        stddev_duration: float = 30.0,
        mean_interarrival: float = 30.0,
    ) -> "DemandSpec":
        """Stochastic demand built from flows: Poisson arrivals, lognormal
        durations, and per-epoch Poisson demand for each active flow.

        Durations and the inter-arrival gap are in epochs, the rate in
        KB/epoch.  Each seed draws the whole trace at realization (one array
        entry per epoch), so queries are O(1) and independent of x.  Arrivals
        start well before epoch 1 so the flow population is in steady state
        over the whole horizon; the time-averaged demand then matches the mean
        flow rate.
        """
        _check(mean_duration > 0, "mean flow duration must be > 0")
        _check(stddev_duration >= 0, "flow duration stddev must be >= 0")
        _check(mean_interarrival > 0, "mean inter-arrival must be > 0")
        _check(mean_rate >= 0, "mean flow rate must be >= 0")
        _check(horizon >= 1, "horizon must be >= 1 epoch")
        return DemandSpec(
            "flow_trace",
            {
                "mean_rate": mean_rate,
                "horizon": horizon,
                "mean_duration": mean_duration,
                "stddev_duration": stddev_duration,
                "mean_interarrival": mean_interarrival,
            },
        )
