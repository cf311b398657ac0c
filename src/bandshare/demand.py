"""Buyer demand models.

A demand model answers "how many KB does this buyer want to move in epoch t,
given that she has moved x KB so far?".  A model is named by a
:class:`DemandSpec`, built with one of its static constructors; a spec's
parameters are checked when it is built.  ``DemandSpec.realize(seed)`` draws a
fixed :class:`DemandRealization` whose randomness (if any) is drawn once from
the seed, so repeated queries are deterministic and a realization can be
replayed across counterfactual simulations.  ``DemandSpec.realize_runs``
draws the realizations of several buyers in several runs at once, each bit
for bit as ``realize`` draws it from its own seed.

``seed_words`` is numpy's ``SeedSequence`` hash as one array program over
many seeds, and ``generator`` builds the generator that ``default_rng``
would build from such a SeedSequence, so that a Monte Carlo seeds all its
streams at once, bit for bit.

Units: one epoch is one second; demand and rates are KB per epoch.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "DemandRealization",
    "DemandSpec",
    "FieldError",
    "NaturalCheck",
    "check_natural",
    "generator",
    "seed_words",
]

# Probe grid used to spot-check monotonicity of user-supplied rate functions.
_MONOTONE_PROBE_MAX = 1e4
_MONOTONE_PROBE_POINTS = 512
# flow_trace: warm-up before epoch 1 in mean durations; the most flows a spec may expect.
_WARMUP_DURATIONS = 20
_MAX_FLOWS = 10**6
# flow_trace: the largest stddev / mean duration whose square is a finite float.
_MAX_SPREAD = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class DemandRealization:
    """A fixed draw of a demand function d(t, x).

    ``query(t, x)`` returns the demand (KB) for epoch ``t >= 1`` given
    cumulative real traffic ``x >= 0``.  A model is memoryless when d(t, x)
    does not depend on x at all; exactly those models answer ``query_epochs``.
    The buffered and impatient models also ``serve`` a greedy buyer a whole
    window of epochs at once, and exactly those ``serves``.
    """

    model_id: str
    _fn: Callable[[int, float], float] = field(repr=False)
    _bulk: Optional[Callable[[int, int], np.ndarray]] = field(default=None, repr=False)
    _serve: Optional[Callable[[np.ndarray, int, float], Tuple[np.ndarray, np.ndarray]]] = field(
        default=None, repr=False
    )

    @property
    def memoryless(self) -> bool:
        return self._bulk is not None

    @property
    def serves(self) -> bool:
        return self._serve is not None

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

    def serve(
        self, residual: np.ndarray, lo: int, x0: float = 0.0
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Presented demand and grants, epoch by epoch, of a greedy buyer who
        has moved ``x0`` KB before epoch ``lo`` and may take up to
        ``residual[j]`` KB in epoch ``lo + j``.

        The same numbers as presenting ``query(t, x)``, with x the running sum
        ``x0 + g_lo + ...`` of her grants, and taking the smaller of it and
        the residual in each epoch, up to rounding; each row of a (runs,
        epochs) ``residual`` bit for bit as one run.  None without this form.
        """
        return None if self._serve is None else self._serve(residual, lo, x0)


class FieldError(ValueError):
    """A bad value of one field of a spec; ``field`` names it as the spec's
    constructor spells it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field

    @classmethod
    def check(cls, ok: bool, field: str, rule: str, v: object, label: str = "") -> None:
        """Unless ``ok``, raise "<label><field> must be <rule>, got <v>"; ``ok``
        is a positive condition, so that NaN values fail it too."""
        if not ok:
            raise cls(field, f"{label}{field} must be {rule}, got {v!r}")

    @classmethod
    def number(cls, field: str, v: object, label: str = "", integer: bool = False) -> None:
        """Reject ``v`` unless it is a finite real number (an integer if
        ``integer``); a bool is neither."""
        wanted = numbers.Integral if integer else numbers.Real
        ok = isinstance(v, wanted) and not isinstance(v, bool)
        cls.check(ok, field, "an integer" if integer else "a real number", v, label)
        cls.check(_finite(v), field, "finite", v, label)


def _generation(kind: str, g: Sequence[object]) -> Tuple[float, ...]:
    """``g`` as a tuple of floats if every entry is a real number, not a
    bool, finite and >= 0; else a ``FieldError`` names the first bad epoch.
    Entries that are all floats and ints, or an array of real numbers, are
    checked in one pass through numpy; anything else, or a failure there,
    is checked entry by entry."""
    if isinstance(g, np.ndarray):
        plain = g.dtype.kind in "fiu"
    else:
        plain = set(map(type, g)) <= {float, int}
    if plain:
        try:
            values = np.asarray(g, dtype=float)
        except OverflowError:  # an int too large for a float
            values = np.array([np.nan])
        if values.ndim == 1 and np.isfinite(values).all() and (values >= 0).all():
            return tuple(values.tolist())
    for p, v in enumerate(g, start=1):
        ok = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not (ok and _finite(v) and v >= 0):
            what = f"{kind}: generation at epoch {p}"
            raise FieldError("g", f"{what} must be a finite number >= 0, got {v}")
    return tuple(float(v) for v in g)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _finite(v: numbers.Real) -> bool:
    """Whether ``v`` is a finite float; a rational too large for a float is not."""
    return abs(v) <= sys.float_info.max if isinstance(v, numbers.Rational) else math.isfinite(v)


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

    def serve(residual: np.ndarray, lo: int, x0: float) -> Tuple[np.ndarray, np.ndarray]:
        # The backlog left after epoch t follows Lindley's recursion
        # B_t = max(0, B_{t-1} + g_t - r_t), from the data B_{lo-1} generated
        # before epoch lo and not yet moved.  Its closed form is
        # W_t - min(0, min_{s<=t} W_s) with W_t = B_{lo-1} + sum_{s=lo..t} (g_s - r_s).
        presented = np.zeros(residual.shape)
        part = generated[lo - 1 : lo - 1 + residual.shape[-1]]
        presented[..., : len(part)] = part
        before = max(0.0, cum[min(lo - 1, last)] - x0)
        walk = before + np.cumsum(presented - residual, axis=-1)
        backlog = walk - np.minimum(0.0, np.minimum.accumulate(walk, axis=-1))
        presented[..., 0] += before
        presented[..., 1:] += backlog[..., :-1]  # B_{t-1} + g_t
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

    def serve(residual: np.ndarray, lo: int, x0: float) -> Tuple[np.ndarray, np.ndarray]:
        # Rate k up to the patience epoch p; after it, rate k on if the
        # traffic moved by then (x0 first, then the grants in epoch order)
        # exceeds m, else 0.  ``quit`` is 0-d on one run's epochs.
        presented = np.full(residual.shape, float(k))
        grants = np.minimum(presented, residual)
        patient = max(0, p - lo + 1)
        moved = np.concatenate((np.full((*residual.shape[:-1], 1), x0), grants[..., :patient]), -1)
        quit = ~(np.cumsum(moved, axis=-1)[..., -1] > m)
        presented[quit, patient:] = grants[quit, patient:] = 0.0
        return presented, grants

    return DemandRealization("impatient", _fn=fn, _serve=serve)


def _increasing_rate(g: Callable[[float], float]) -> DemandRealization:
    return DemandRealization("increasing_rate", _fn=lambda t, x: g(x / t))


def _increasing_total(g: Callable[[float], float]) -> DemandRealization:
    return DemandRealization("increasing_total", _fn=lambda t, x: g(x))


def _cliff(k: float, m: float) -> DemandRealization:
    return DemandRealization("cliff", _fn=lambda t, x: k if x < m else 0.0)


# -- seeding: numpy's SeedSequence hash over many seeds at once --------------

# The constants of O'Neill's seed_seq hash as numpy's SeedSequence uses it, on
# 32-bit words: the entropy is hashed into a pool of 4 words with INIT_A and
# MULT_A, each pool word is mixed into the 3 others, and the state words are
# hashed out of the pool with INIT_B and MULT_B.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init x mult^j mod 2^32 for j = 0..count, as a (count + 1, 1) column:
    the hash constant of each step, which XORs a word with its own and
    multiplies it by the next."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A, _HASH_B = _powers(_INIT_A, _MULT_A, 64), _powers(_INIT_B, _MULT_B, 64)


def _cross(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (4, 1) constants that pool word s is hashed with, from step 4 + 3s
    on, one for each other pool word, which it is mixed into; its own row's
    are unused."""
    steps = np.zeros((2, _POOL, 1), dtype=np.uint32)
    for r, d in enumerate(d for d in range(_POOL) if d != s):
        steps[:, d] = _HASH_A[4 + 3 * s + r : 6 + 3 * s + r]
    return steps[0], steps[1]


_CROSS = [_cross(s) for s in range(_POOL)]


def _digits(seed: int) -> List[int]:
    """The 32-bit words of an int >= 0, least significant first, at least one."""
    words = [seed & 0xFFFFFFFF]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & 0xFFFFFFFF)
    return words


def _entropy(seeds: Sequence[int], keys: Sequence[int]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The entropy words that ``SeedSequence(seed, spawn_key=(key,))`` hashes,
    for each key (no key when ``keys`` is empty) and then each seed, as a
    (words, rows) uint32 array, and each row's count of words, or None when
    every row counts them all.  A seed's words are its digits (``_digits``);
    a key follows them, after zeros up to the pool's 4 words.  Fewer than 4
    words hash as if padded with zeros.  A seed that is not an int >= 0
    raises as ``SeedSequence`` raises."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = [operator.index(seed) for seed in seeds]  # a float is a TypeError
        _check(min(seeds, default=0) >= 0, "expected non-negative integer")
        if max(seeds, default=0) >> 64:  # rows of different lengths
            rows = [_digits(seed) for seed in seeds]
            if keys:
                rows = [[*row, *[0] * (_POOL - len(row)), key] for key in keys for row in rows]
            lengths = np.array([max(_POOL, len(row)) for row in rows])
            words = np.zeros((lengths.max(), len(rows)), dtype=np.uint32)
            for k, row in enumerate(rows):
                words[: len(row), k] = row
            return words, lengths
        seeds = np.array(seeds, dtype=np.uint64)
    words = np.zeros((_POOL + bool(keys), max(1, len(keys)), len(seeds)), dtype=np.uint32)
    words[0] = seeds  # the low word: an assignment keeps the low 32 bits
    words[1] = seeds >> np.uint64(32)
    if keys:
        words[_POOL] = np.array(keys, dtype=np.uint32)[:, None]
    return words.reshape(len(words), -1), None


def seed_words(seeds: Sequence[int], words: int, spawn_keys: Sequence[int] = ()) -> np.ndarray:
    """``SeedSequence(seed).generate_state(words, np.uint64)`` for each of
    ``seeds`` (ints >= 0, or a uint64 array), bit for bit, as an (m, words)
    uint64 array; with ``spawn_keys``, a (keys, m, words) array whose [j, k]
    row is that of ``SeedSequence(seeds[k], spawn_key=(spawn_keys[j],))``.

    numpy's SeedSequence hashes one seed at a time in 32-bit integer steps
    whose constants do not depend on the data, so each step here runs on
    every row at once: the entropy is hashed into the 4 pool words, each
    pool word in turn is hashed with three constants and mixed into the
    other three, any words past the pool are mixed into all four, and the
    state words are hashed out of the pool, word i from pool word i mod 4."""
    entropy, lengths = _entropy(seeds, spawn_keys)
    steps = 4 * len(entropy) + 1  # hash constants used on the pool, one past the last
    a = _HASH_A if steps <= len(_HASH_A) else _powers(_INIT_A, _MULT_A, steps)
    pool = entropy[:_POOL] ^ a[:_POOL]
    pool *= a[1 : _POOL + 1]
    pool ^= pool >> _SHIFT
    for src, (xor, mult) in enumerate(_CROSS):  # word src into the other three
        h = pool[src] ^ xor
        h *= mult
        h ^= h >> _SHIFT
        x = pool * _MIX_L - h * _MIX_R
        x ^= x >> _SHIFT
        x[src] = pool[src]
        pool = x
    for t in range(_POOL, len(entropy)):  # from step 4t, one constant per pool word
        h = entropy[t] ^ a[4 * t : 4 * t + 4]
        h *= a[4 * t + 1 : 4 * t + 5]
        h ^= h >> _SHIFT
        x = pool * _MIX_L - h * _MIX_R
        x ^= x >> _SHIFT
        pool = x if lengths is None else np.where(t < lengths, x, pool)
    n = 2 * words
    b = _HASH_B if n < len(_HASH_B) else _powers(_INIT_B, _MULT_B, n)
    state = pool[np.arange(n) % _POOL] ^ b[:n]  # word i from pool word i mod 4
    state *= b[1 : n + 1]
    state ^= state >> _SHIFT
    out = (state[1::2].astype(np.uint64) << np.uint64(32) | state[0::2]).T.copy()
    return out.reshape(len(spawn_keys), -1, words) if spawn_keys else out


class _Words(ISeedSequence):
    """A SeedSequence's ``generate_state(4, np.uint64)`` words in its place:
    a PCG64 seeds itself from them (numpy's ``pcg64_set_seed``) as it
    would from the SeedSequence, which it asks for exactly these."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        # PCG64 reads the 4 words through a pointer to the array's data.
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        ok = n_words == 4 and np.dtype(dtype) == np.uint64 and words.shape == (4,)
        _check(ok, "PCG64 seeds from 4 uint64 words")
        return words


def generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng(s)`` for the SeedSequence s whose ``seed_words`` are
    ``words`` (4 of them), bit for bit, without building s."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


def _flow_traces(
    streams: np.ndarray, params: Sequence[Mapping[str, float]]
) -> List[DemandRealization]:
    """The flow_trace realization of each row, the 4 ``seed_words`` of a
    seed and a spec's parameters with the last epoch that the row's caller
    reads, its ``end``.  Each row's own generator, ``default_rng(seed)`` bit
    for bit (``generator``), makes its four draws in order (the arrival
    count, the arrival times, the durations, then the per-epoch demand,
    which ``_drawn`` draws through the end first); the arithmetic between
    them is done for several rows at once (``_chunk_traces``), so that each
    row is the one-row trace bit for bit.  Rows go together while their
    flows and their padded epochs come to at most ``_MAX_FLOWS``, or one row
    alone, so the working memory is at most what the largest valid row
    takes by itself, however many rows there are."""
    traces: List[DemandRealization] = []
    chunk: list = []  # (generator, parameters, arrival times, durations) by row
    flows = longest = 0
    for words, p in zip(streams, params):
        rng = generator(words)
        # Underlying normal parameters for a lognormal with the given moments.
        sigma2 = math.log(1.0 + (p["stddev_duration"] / p["mean_duration"]) ** 2)
        mu = math.log(p["mean_duration"]) - sigma2 / 2.0
        # A Poisson process of arrivals on (-warmup, horizon]: a Poisson count, each uniform.
        warmup = _WARMUP_DURATIONS * p["mean_duration"]
        count = rng.poisson((p["horizon"] + warmup) / p["mean_interarrival"])
        flows, longest = flows + count, max(longest, p["horizon"])
        if chunk and flows + (len(chunk) + 1) * (longest + 2) > _MAX_FLOWS:
            traces += _chunk_traces(chunk)
            chunk, flows, longest = [], count, p["horizon"]
        arrivals = rng.uniform(-warmup, p["horizon"], count)
        chunk.append((rng, p, arrivals, rng.lognormal(mu, math.sqrt(sigma2), count)))
    return traces + _chunk_traces(chunk) if chunk else traces


def _chunk_traces(chunk: Sequence[tuple]) -> List[DemandRealization]:
    """The realizations of ``_flow_traces``' rows whose flows are drawn: the
    active flows of every row, elementwise and on integer counts, then each
    row's per-epoch draw from its own generator (``_drawn``).  A lone row is
    its own stretch."""
    rows, longest = len(chunk), max(p["horizon"] for _, p, _, _ in chunk)
    if rows == 1:
        ((_, _, arrived, duration),) = chunk
        offset = 0
    else:
        arrived = np.concatenate([a for _, _, a, _ in chunk])
        duration = np.concatenate([d for _, _, _, d in chunk])
    # A flow is active from the first whole epoch after its arrival for
    # ``duration`` epochs (whole epochs, >= 1), clipped to [1, horizon];
    # ``stop`` is one past its last.  Clipped to the longest horizon instead,
    # a stop past a row's own horizon falls after every epoch that the row reads.
    arrived, duration = np.floor(arrived), np.ceil(duration)
    start = np.maximum(1.0, arrived + 1)
    stop = np.maximum(np.minimum(longest, arrived + duration) + 1, start)
    # Row r counts its flows' edges in its own stretch of one bincount.
    width = longest + 2
    if rows > 1:
        offset = np.repeat(np.arange(0, rows * width, width), [len(a) for _, _, a, _ in chunk])
    edges = [np.bincount(e.astype(np.intp) + offset, minlength=rows * width) for e in (start, stop)]
    active = np.cumsum((edges[0] - edges[1]).reshape(rows, width), axis=1)
    # Each active flow sends Poisson(mean_rate) KB per epoch, independently:
    # one Poisson(mean_rate x active) draw per epoch has the same law.
    return [
        _drawn(rng, p["mean_rate"], flows[1 : p["horizon"] + 1], min(p["horizon"], p["end"]))
        for (rng, p, _, _), flows in zip(chunk, active)
    ]


def _drawn(
    rng: np.random.Generator, rate: float, flows: np.ndarray, end: int
) -> DemandRealization:
    """The flow_trace realization of ``flows`` active flows in epochs 1, 2,
    ..., whose per-epoch Poisson demand, the last draw of ``rng``, is drawn
    through epoch ``end`` at once and after it only when an epoch past it is
    first read: a draw continues its generator, so the two draws make the
    numbers of one draw over every epoch."""
    head = rng.poisson(rate * flows[:end]).astype(float)
    cut = _series("flow_trace", head, head)  # no list copy: most reads are bulk
    if end >= len(flows):
        return cut

    @functools.cache
    def whole() -> DemandRealization:
        d = np.concatenate([head, rng.poisson(rate * flows[end:]).astype(float)])
        return _series("flow_trace", d, d)

    return DemandRealization(
        "flow_trace",
        _fn=lambda t, x: cut._fn(t, x) if t <= end else whole()._fn(t, x),
        _bulk=lambda lo, hi: cut._bulk(lo, hi) if hi <= end else whole()._bulk(lo, hi),
    )


def _flow_trace(
    seed: int,
    mean_rate: float,
    horizon: int,
    mean_duration: float,
    stddev_duration: float,
    mean_interarrival: float,
) -> DemandRealization:
    params = dict(mean_rate=mean_rate, horizon=horizon, mean_duration=mean_duration,
                  stddev_duration=stddev_duration, mean_interarrival=mean_interarrival,
                  end=horizon)
    (realization,) = _flow_traces(seed_words([seed], 4), [params])
    return realization


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

# Every parameter but g is a number >= 0, and these are > 0.  The ones that
# count epochs are integers, the rest are stored as floats.
_EPOCHS = ("p", "horizon")
_POSITIVE = (*_EPOCHS, "mean_duration", "mean_interarrival")


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
    raises a ``FieldError`` naming the model and the parameter.  Every model
    but ``flow_trace`` is deterministic and ignores the realization seed.
    """

    kind: str
    params: Mapping[str, object]

    def __post_init__(self) -> None:
        """Check the parameters of the model; store real ones as floats and
        sequences as float tuples."""
        kind = self.kind
        _check(kind in _MODELS, f"unknown demand model {kind!r}; one of {', '.join(_MODELS)}")
        names = [n for n in inspect.signature(_MODELS[kind]).parameters if n != "seed"]
        params = dict(self.params)
        _check(set(params) == set(names), f"{kind}: takes parameters {names}, got {list(params)}")
        for name in (n for n in names if n != "g"):
            v = params[name]
            FieldError.number(name, v, f"{kind}: ", integer=name in _EPOCHS)
            ok, rule = (v > 0, "> 0") if name in _POSITIVE else (v >= 0, ">= 0")
            FieldError.check(ok, name, rule, v, f"{kind}: ")
            params[name] = v if name in _EPOCHS else float(v)
        g = params.get("g")
        if kind in ("time_varying", "buffered"):
            ok = isinstance(g, (list, tuple, np.ndarray)) and len(g) > 0
            FieldError.check(ok, "g", "a nonempty sequence of generated KB", g, f"{kind}: ")
            params["g"] = _generation(kind, g)
        elif kind in ("increasing_rate", "increasing_total"):
            # A spot check of g on a probe grid, not a proof of monotonicity.
            FieldError.check(callable(g), "g", "callable on a continuous argument", g, f"{kind}: ")
            zs = np.linspace(0.0, _MONOTONE_PROBE_MAX, _MONOTONE_PROBE_POINTS)
            vals = [float(g(z)) for z in zs]
            if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
                raise FieldError("g", f"{kind}: rate function is not weakly increasing")
        elif kind == "flow_trace":
            least = (params["horizon"] + _WARMUP_DURATIONS * params["mean_duration"]) / _MAX_FLOWS
            v, rule = params["mean_interarrival"], f">= {least:g}, for at most {_MAX_FLOWS} flows"
            FieldError.check(v >= least, "mean_interarrival", rule, v, f"{kind}: ")
            v, rule = params["stddev_duration"], f"at most {_MAX_SPREAD:g} mean durations"
            ok = v / params["mean_duration"] <= _MAX_SPREAD
            FieldError.check(ok, "stddev_duration", rule, v, f"{kind}: ")
        object.__setattr__(self, "params", params)

    def realize(self, seed: Optional[int] = None) -> DemandRealization:
        params = self.params
        if self.kind == "flow_trace":
            _check(seed is not None, "flow_trace needs a seed to fix the realization")
            params = {"seed": int(seed), **params}
        return _MODELS[self.kind](**params)

    @staticmethod
    def realize_runs(
        specs: Sequence[DemandSpec], streams: np.ndarray, ends: Sequence[int]
    ) -> List[List[DemandRealization]]:
        """Each run's realizations of ``specs``, one run per row of the (B, f, 4)
        ``streams``, the ``seed_words`` of each run's realization seed of each
        of the f flow_trace specs in order: ``specs[i].realize(seed)`` bit for
        bit, with every flow_trace row of every run drawn together
        (``_flow_traces``).  ``ends[i]`` (>= 0) is the last epoch of
        ``specs[i]`` that the caller reads: a flow_trace row draws its
        per-epoch demand that far, and the rest only if an epoch past it is
        read.  A realization that ignores its seed is made once and shared
        by the runs."""
        B = len(streams)
        params = [
            p for spec, end in zip(specs, ends) if spec.kind == "flow_trace"
            for p in [{**spec.params, "end": end}] * B
        ]
        traces = iter(_flow_traces(streams.transpose(1, 0, 2).reshape(-1, 4), params))
        columns = [  # by buyer, her realization in each run
            list(itertools.islice(traces, B)) if spec.kind == "flow_trace"
            else [spec.realize()] * B
            for spec in specs
        ]
        return [[column[k] for column in columns] for k in range(B)]

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
        KB/epoch.  Each seed draws the whole trace at realization: a Poisson
        count of arrivals, uniform on the horizon and a warm-up of 20 mean
        durations before it (so the flow population is in steady state from
        epoch 1), a lognormal duration each, in whole epochs, and one Poisson
        draw per epoch with mean ``mean_rate`` times the active flows.  At most
        10**6 arrivals may be expected.  Queries are O(1) and independent of x.
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
