"""Buyer demand models.

A demand model answers "how many KB does this buyer want to move in epoch t,
given that she has moved x KB so far?".  A model is named by a
:class:`DemandSpec`, built with one of its static constructors; a spec's
parameters are checked when it is built.  ``DemandSpec.realize(seed)`` draws a
fixed :class:`DemandRealization` whose randomness (if any) is drawn once from
the seed, so repeated queries are deterministic and a realization can be
replayed across counterfactual simulations.

Units: one epoch is one second; demand and rates are KB per epoch.
"""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DemandRealization",
    "DemandSpec",
    "NaturalCheck",
    "check_natural",
]

# Probe grid used to spot-check monotonicity of user-supplied rate functions.
_MONOTONE_PROBE_MAX = 1e4
_MONOTONE_PROBE_POINTS = 512


@dataclass(frozen=True)
class DemandRealization:
    """A fixed draw of a demand function d(t, x).

    ``query(t, x)`` returns the demand (KB) for epoch ``t >= 1`` given
    cumulative real traffic ``x >= 0``.  A model is memoryless when d(t, x)
    does not depend on x at all; exactly those models answer ``query_epochs``.
    The buffered and impatient models also ``serve`` a greedy buyer a whole
    window of epochs at once.
    """

    model_id: str
    _fn: Callable[[int, float], float] = field(repr=False)
    _bulk: Optional[Callable[[int, int], np.ndarray]] = field(default=None, repr=False)
    _serve: Optional[Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray]]] = field(
        default=None, repr=False
    )

    @property
    def memoryless(self) -> bool:
        return self._bulk is not None

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

        Only meaningful for memoryless models, where demand does not depend on
        x; they answer it in one vectorized call.
        """
        if not self.memoryless:
            raise ValueError(f"model {self.model_id!r} depends on cumulative traffic")
        if lo < 1 or hi < lo:
            raise ValueError(f"bad epoch range [{lo}, {hi}]")
        return self._bulk(lo, hi)

    def serve(self, residual: np.ndarray, lo: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Presented demand and grants, epoch by epoch, of a greedy buyer who
        arrives at epoch ``lo`` with nothing moved and may take up to
        ``residual[j]`` KB in epoch ``lo + j``.

        The same numbers as presenting ``query(t, x)`` and taking the smaller
        of it and the residual in each epoch, up to rounding.  None for a
        model without this vector form.
        """
        return None if self._serve is None else self._serve(residual, lo)


def _check(ok: bool, message: str) -> None:
    # Written as a positive condition so that NaN parameters fail it too.
    if not ok:
        raise ValueError(message)


# -- models: parameters are checked when a DemandSpec is built ---------------


def _constant(k: float) -> DemandRealization:
    return DemandRealization(
        "constant",
        _fn=lambda t, x: k,
        _bulk=lambda lo, hi: np.full(hi - lo + 1, float(k)),
    )


def _series(model_id: str, d: np.ndarray, values: Sequence[float]) -> DemandRealization:
    """Memoryless demand d[t - 1] at epoch t, and 0 after the end of ``d``;
    scalar queries read ``values``, which holds the same numbers as ``d``."""
    n = len(d)

    def bulk(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo + 1)
        part = d[lo - 1 : hi]
        out[: len(part)] = part
        return out

    return DemandRealization(
        model_id,
        _fn=lambda t, x: values[t - 1] if t <= n else 0.0,
        _bulk=bulk,
    )


def _time_varying(g: Sequence[float]) -> DemandRealization:
    return _series("time_varying", np.array(g, dtype=float), g)  # a tuple indexes faster


def _buffered(g: Sequence[float]) -> DemandRealization:
    cum = list(itertools.accumulate(g, initial=0.0))  # cum[t]: generated by epoch t
    last, total = len(g), cum[-1]
    generated = np.array(g, dtype=float)

    def serve(residual: np.ndarray, lo: int) -> Tuple[np.ndarray, np.ndarray]:
        # The backlog left after epoch t follows Lindley's recursion
        # B_t = max(0, B_{t-1} + g_t - r_t), from the data B_{lo-1} generated
        # before arrival.  Its closed form is W_t - min(0, min_{s<=t} W_s)
        # with W_t = B_{lo-1} + sum_{s=lo..t} (g_s - r_s).
        presented = np.zeros(len(residual))
        part = generated[lo - 1 : lo - 1 + len(residual)]
        presented[: len(part)] = part
        before = cum[min(lo - 1, last)]
        walk = before + np.cumsum(presented - residual)
        backlog = walk - np.minimum(0.0, np.minimum.accumulate(walk))
        presented[0] += before
        presented[1:] += backlog[:-1]  # B_{t-1} + g_t
        return presented, np.minimum(presented, residual)

    return DemandRealization(
        "buffered",
        _fn=lambda t, x: max(0.0, (cum[t] if t <= last else total) - x),
        _serve=serve,
    )


def _impatient(k: float, p: int, m: float) -> DemandRealization:
    def fn(t: int, x: float) -> float:
        if t <= p:
            return k
        return k if x > m else 0.0

    def serve(residual: np.ndarray, lo: int) -> Tuple[np.ndarray, np.ndarray]:
        # Rate k up to the patience epoch p; after it, rate k on if the
        # traffic moved by then (summed in epoch order) exceeds m, else 0.
        presented = np.full(len(residual), float(k))
        grants = np.minimum(presented, residual)
        patient = max(0, p - lo + 1)
        moved = float(np.cumsum(grants[:patient])[-1]) if patient else 0.0
        if not moved > m:
            presented[patient:] = 0.0
            grants[patient:] = 0.0
        return presented, grants

    return DemandRealization("impatient", _fn=fn, _serve=serve)


def _increasing_rate(g: Callable[[float], float]) -> DemandRealization:
    return DemandRealization("increasing_rate", _fn=lambda t, x: g(x / t))


def _increasing_total(g: Callable[[float], float]) -> DemandRealization:
    return DemandRealization("increasing_total", _fn=lambda t, x: g(x))


def _cliff(k: float, m: float) -> DemandRealization:
    return DemandRealization("cliff", _fn=lambda t, x: k if x < m else 0.0)


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

    return _series("flow_trace", demand[1:], demand[1:])  # no list copy: most reads are bulk


# A spec's parameters are the parameters of its model's function (except the
# realization seed, which flow_trace takes from ``realize``).
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

    Build specs with the static constructors, one per model.  The parameters
    are checked when a spec is built, however it is built, and a bad one
    raises ``ValueError`` naming the model.  Every model but ``flow_trace`` is
    deterministic and ignores the realization seed.
    """

    kind: str
    params: Mapping[str, object]

    def __post_init__(self) -> None:
        """Check the parameters of the model; store sequences as float tuples."""
        kind = self.kind
        _check(kind in _MODELS, f"unknown demand model {kind!r}; one of {', '.join(_MODELS)}")
        names = [n for n in inspect.signature(_MODELS[kind]).parameters if n != "seed"]
        params = dict(self.params)
        _check(set(params) == set(names), f"{kind}: takes parameters {names}, got {list(params)}")
        for name, v in params.items():
            if name != "g":
                whole = name in ("p", "horizon")  # the parameters that count epochs
                ok = isinstance(v, numbers.Integral if whole else numbers.Real)
                what = "an integer" if whole else "a real number"
                _check(ok and not isinstance(v, bool), f"{kind}: {name} must be {what}, got {v!r}")
        g = params.get("g")
        if kind in ("time_varying", "buffered"):
            is_sequence = isinstance(g, (list, tuple, np.ndarray))
            _check(is_sequence, f"{kind}: generation must be a sequence, got {type(g).__name__}")
            for p, v in enumerate(g, start=1):
                ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and v >= 0
                _check(ok, f"{kind}: generation at epoch {p} must be a number >= 0, got {v}")
            params["g"] = tuple(float(v) for v in g)
        elif kind in ("increasing_rate", "increasing_total"):
            # A spot check of g on a probe grid, not a proof of monotonicity.
            _check(callable(g), f"{kind}: g must be callable on a continuous argument")
            zs = np.linspace(0.0, _MONOTONE_PROBE_MAX, _MONOTONE_PROBE_POINTS)
            vals = [float(g(z)) for z in zs]
            for a, b in zip(vals, vals[1:]):
                _check(b >= a - 1e-12, f"{kind}: rate function is not weakly increasing")
        elif kind == "constant":
            _check(params["k"] >= 0, f"constant: rate must be >= 0, got {params['k']}")
        elif kind == "impatient":
            _check(params["k"] >= 0, f"impatient: rate must be >= 0, got {params['k']}")
            _check(params["p"] >= 1, f"impatient: patience epoch must be >= 1, got {params['p']}")
            _check(params["m"] >= 0, f"impatient: minimum service must be >= 0, got {params['m']}")
        elif kind == "cliff":
            _check(params["k"] >= 0 and params["m"] >= 0, "cliff: rate and quota must be >= 0")
        else:  # flow_trace
            _check(params["mean_duration"] > 0, "flow_trace: mean flow duration must be > 0")
            _check(params["stddev_duration"] >= 0, "flow_trace: flow duration stddev must be >= 0")
            _check(params["mean_interarrival"] > 0, "flow_trace: mean inter-arrival must be > 0")
            _check(params["mean_rate"] >= 0, "flow_trace: mean flow rate must be >= 0")
            _check(params["horizon"] >= 1, "flow_trace: horizon must be >= 1 epoch")
        object.__setattr__(self, "params", params)

    def realize(self, seed: Optional[int] = None) -> DemandRealization:
        params = self.params
        if self.kind == "flow_trace":
            _check(seed is not None, "flow_trace needs a seed to fix the realization")
            params = {"seed": int(seed), **params}
        return _MODELS[self.kind](**params)

    @staticmethod
    def constant(k: float) -> "DemandSpec":
        """A buyer that wants to send at a constant rate k."""
        return DemandSpec("constant", {"k": k})

    @staticmethod
    def time_varying(g: Sequence[float]) -> "DemandSpec":
        """Per-epoch data g that must be sent immediately: d(t, x) = g[t - 1], 0 after g ends."""
        return DemandSpec("time_varying", {"g": g})

    @staticmethod
    def buffered(g: Sequence[float]) -> "DemandSpec":
        """Data generated in epochs 1, 2, ... by the sequence g (nothing after its
        end) and buffered until sent: d(t, x) = sum_{p<=t} g[p - 1] - x.

        Clamped at 0 when x exceeds cumulative generation (reachable only under
        padding strategies, where billed traffic outruns real traffic).
        """
        return DemandSpec("buffered", {"g": g})

    @staticmethod
    def impatient(k: float, p: int, m: float) -> "DemandSpec":
        """A buyer who sends at rate k until epoch p, then gives up unless she has
        received strictly more than m KB of service by then."""
        return DemandSpec("impatient", {"k": k, "p": p, "m": m})

    @staticmethod
    def increasing_rate(g: Callable[[float], float]) -> "DemandSpec":
        """Demand growing with the achieved average rate: d(t, x) = g(x / t), g weakly increasing."""
        return DemandSpec("increasing_rate", {"g": g})

    @staticmethod
    def increasing_total(g: Callable[[float], float]) -> "DemandSpec":
        """Demand growing with the total already moved: d(t, x) = g(x), g weakly increasing."""
        return DemandSpec("increasing_total", {"g": g})

    @staticmethod
    def cliff(k: float, m: float) -> "DemandSpec":
        """Deliberately unnatural fixture: full rate k while x < m, then nothing.

        The buyer demands a whole epoch of rate k even when only a sliver short of
        her quota m, so extra service early can strictly reduce her achievable
        total.  This is the (t, x)-expressible stand-in for history-dependent
        give-up behavior; it violates the naturalness inequality with an easy
        witness (x = m, x' = m - eps, c = k).
        """
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
