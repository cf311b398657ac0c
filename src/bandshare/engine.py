"""Discrete-epoch session driver.

``run_session`` plays out one seller's market for ``horizon`` epochs: buyers
arrive and depart, query their demand realizations, push traffic through the
configured routing policy, and settle payments under the configured mechanism.

This module owns the random-number layout.  A session seed spawns two live
streams, the first and third children of ``SeedSequence(seed)``: demand
(one realization seed per buyer, in scenario order, hashed only when a
flow_trace buyer reads it) and bid resampling (a coin and a gamma uniform
per buyer, in scenario order, drawn once per world whatever the bids), so a
world depends only on the buyers and the seed.  ``_streams`` hashes the
words that seed every stream of many runs at once with ``seed_words``,
numpy's SeedSequence hash as an array program, bit for bit; ``_worlds``
draws those runs' worlds from them, each stream from a generator of its own
(``generator``, as ``default_rng``): ``DemandSpec.realize_runs`` draws every
run's realizations together, and their demand is written straight into one
stacked (n, runs, T) matrix.  ``replay(scenario, seed)`` materializes one
world this way and returns
``session(bid_override=None, force_resample=None)``, which plays it under any
counterfactual bids or pinned resampling coins; ``run_session`` is
``replay(scenario, seed)(bid_override, force_resample)``.

``run_probes`` plays a list of probes, each a scenario with an optional bid
override and pinned coins, on one world and demand matrix per session seed
(``run_seeds(seed, n)`` for n runs), and returns every run's numbers;
``run_monte_carlo`` is ``run_probes`` on a grid of scenarios, each a probe
with neither, and the truthfulness suite's estimator is ``run_probes`` on
its (buyer, bid, coin) probes.  A probe's overrides are checked once, before
any run, and the stream words of up to ``STREAM_BYTES`` of runs are hashed
at once.  Every run is played in a batch (``_mc_batch``), the one Monte Carlo
path: the runs' demand matrices lie side by side on the epoch axis, and
every (probe, run) pair is keyed at once on (probe, run, buyer) arrays by
``_batch_keys``, the batch's array twin of ``_keyed``, bit for bit.
``_buckets`` sorts the pairs by the rank signature of their keys, and
``_groups`` groups one pair of each bucket; the pairs of one scenario that
share a priority grouping, across all probes, are filled by one sweep over
the union of their runs' columns, since every kernel and vector form (below)
serves each run's epoch columns on their own.  A bucket with a group that
``_play`` steps, or under hybrid routing, is swept run by run instead.
Either way each pair gets its own session's numbers bit for bit, from its
own world and streams.  What the batch reads of the probes (``ProbeArrays``)
is made once per call.  A batch holds at most ``BATCH_BYTES`` of stacked
demand (64 KiB, 4 runs of 3 buyers x 600 epochs), and at least one run, so
that its working memory does not grow with the runs or the horizon; the
samples returned take 8 x probes x (2 + 3n) bytes per run for n buyers, or
8 x probes x n for one ``metric`` (``buyer_rows`` gives their layout), or
8 x probes x 4n for the ledger rows that ``ledger_rows`` reads (the pools
and the admissibility suite play their sessions so).  A deadline, if given,
is checked between batches.

One path, the priority sweep (``_run_sweep``), plays every session.  It visits
the priority groups in descending key order and serves each from the capacity
the groups above it left; under fq and fifo every key ties, so the eligible
buyers are one group, shared max-min fairly or in proportion to demand.  A
buyer is stateful when she pads or delays or her demand model is not memoryless
(buffered, impatient, increasing_*, cliff).  ``_forms`` decides how a group is
served.  One whose stateful buyers, if any, are greedy impatient ones is
filled column-wise by ``routing.fill_group``, and again, in the runs where one
of them quits, after her patience epoch.  Under spq and hybrid a lone greedy
buffered or impatient buyer is served through her model's vector form
(``DemandRealization.serve``), one realization for every run, as neither
model reads its seed.  Any other group is played epoch by epoch, one run at
a time, by ``_play``, which allocates each epoch with ``_allocate_epoch``, the
scalar form of ``fill_group``.  Under hybrid routing ``_boost`` first serves
the groups down to the boosted buyer's: it scans her reserved epochs in scalar,
after which hybrid is strict priority, or plays them all with ``_play`` when
they hold a stateful buyer other than her, lone and greedy with a vector form.
The epoch loop (``_run_loop``), ``_play`` on every group at full capacity, is
the reference semantics the tests hold the sweep to; no session calls it.

A session call decides bids, eligibility and priority order once, by buyer
position: ``_checked`` lists the bids in scenario order, ``_keyed`` their
routing keys and resampling flags, and ``_groups`` groups the eligible
buyers by key.  The sweep and the loop see only those groups, never a bid,
and return grants, presented demand and the real traffic of buyers who pad
or delay; ``_finish`` settles each buyer on her grants' pairwise row total,
which is her real traffic if she does neither.
"""

from __future__ import annotations

import itertools
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from bandshare.demand import DemandRealization, DemandSpec, FieldError, generator, seed_words
from bandshare.payments import (
    MeanCI,
    PaymentOutcome,
    bks_settle,
    fixed_price_settle,
    resample_bid,
    summarize,
    vmm_epoch_charges,
)
from bandshare.pooling import LedgerRow, SellerLedger
from bandshare.routing import fill_group, maxmin, priority_groups, proportional

__all__ = [
    "BuyerSpec",
    "HybridBoost",
    "MonteCarloStats",
    "Probe",
    "Scenario",
    "SessionOutcome",
    "Strategy",
    "build_ledger",
    "buyer_rows",
    "deadline_passed",
    "ledger_rows",
    "replay",
    "run_monte_carlo",
    "run_probes",
    "run_seeds",
    "run_session",
]

ROUTING_POLICIES = ("spq", "fq", "fifo", "hybrid")
MECHANISMS = ("bks", "vmm", "fixed")
# The field that each strategy kind reads, if any; it leaves the others at their defaults.
STRATEGY_FIELDS = {"greedy": None, "pad": "pad", "delay": "delay_epochs", "misreport": "bid_factor"}
Played = Tuple[np.ndarray, np.ndarray, Dict[int, float]]  # see _finish
Worlds = Tuple[List[List[DemandRealization]], np.ndarray, np.ndarray]  # see _worlds


def _numbers(spec, positive: Sequence[str] = ()) -> None:
    """Check each numeric field of ``spec`` by its declared type: an ``int`` is
    a whole number of epochs, a ``float`` a real number, stored as a float.
    Either is finite and nonnegative, and > 0 if it is named ``positive``."""
    for f in fields(spec):
        v = getattr(spec, f.name)
        if f.type == "int":
            ok = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            FieldError.check(ok, f.name, "whole epochs", v)
        if f.type in ("int", "float"):
            FieldError.number(f.name, v)
            if f.type == "float":
                object.__setattr__(spec, f.name, v := float(v))
            ok, sign = (v > 0, "positive") if f.name in positive else (v >= 0, "nonnegative")
            FieldError.check(ok, f.name, sign, v)


@dataclass(frozen=True)
class Strategy:
    """How a buyer maps true demand and value to router-visible behavior.

    greedy    -- present the full true demand each epoch, bid truthfully.
    pad       -- present demand plus fake traffic; padding consumes capacity
                 and is billed, but carries no value and does not advance the
                 demand model's cumulative-traffic argument.
    delay     -- withhold each epoch's demand and re-present it after a fixed
                 number of epochs (demand withheld past departure is lost).
    misreport -- greedy demand behavior with the bid scaled by a factor.

    Whatever the strategy, bytes consumed in an epoch count as real (valued,
    demand-advancing) traffic only up to that epoch's true demand; padding and
    stale re-presented data are billed junk.
    """

    kind: str
    pad: float = 0.0  # KB per epoch
    delay_epochs: int = 0
    bid_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_FIELDS:
            kinds = tuple(STRATEGY_FIELDS)
            raise FieldError("kind", f"unknown strategy {self.kind!r}; one of {kinds}")
        _numbers(self)
        for f in fields(self)[1:]:
            v = getattr(self, f.name)
            ok = f.name == STRATEGY_FIELDS[self.kind] or v == f.default
            FieldError.check(ok, f.name, f"{f.default} under strategy {self.kind!r}", v)


@dataclass(frozen=True)
class BuyerSpec:
    """One buyer: true per-KB value, demand model, allocation period, strategy."""

    buyer_id: str
    value: float
    demand: DemandSpec
    arrival: int = 1
    departure: int = 600
    strategy: Strategy = Strategy("greedy")

    def __post_init__(self) -> None:
        _numbers(self)
        if not self.arrival <= self.departure:
            raise ValueError(
                "need 0 <= arrival <= departure in whole epochs, "
                f"got [{self.arrival}, {self.departure}]"
            )

    def submitted_bid(self) -> float:
        return self.value * self.strategy.bid_factor


@dataclass(frozen=True)
class HybridBoost:
    """Threshold-hybrid routing: pace one buyer to a byte target by a deadline.

    Until the designated buyer has accumulated ``target_bytes`` (or the
    deadline passes), she receives a top-priority reservation each epoch equal
    to the remaining target spread evenly over the epochs left; all other
    capacity is allocated by plain strict priority, in which she competes
    normally for anything beyond the reservation.
    """

    buyer_id: str
    target_bytes: float
    deadline: int

    def __post_init__(self) -> None:
        _numbers(self, positive=("deadline",))


@dataclass(frozen=True)
class Scenario:
    """A complete market configuration for one seller.  ``reserve`` is its per-KB
    floor: a bid below it is not served, and under ``fixed`` it is the charge per KB."""

    buyers: Tuple[BuyerSpec, ...]
    capacity: float
    routing: str = "spq"
    mechanism: str = "bks"
    mu: float = 0.2
    reserve: float = 0.0
    horizon: int = 600
    hybrid: Optional[HybridBoost] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "buyers", tuple(self.buyers))
        _numbers(self, positive=("capacity", "mu", "horizon"))
        FieldError.check(self.mu < 1, "mu", "in (0, 1)", self.mu)
        for name, choices in (("routing", ROUTING_POLICIES), ("mechanism", MECHANISMS)):
            v = getattr(self, name)
            if v not in choices:
                raise FieldError(name, f"unknown {name} {v!r}; one of {', '.join(choices)}")
        ids = [b.buyer_id for b in self.buyers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate buyer ids")
        if self.routing == "hybrid" and self.hybrid is None:
            raise ValueError("hybrid routing needs boost parameters")
        if self.hybrid is not None and self.hybrid.buyer_id not in ids:
            message = f"boosted buyer {self.hybrid.buyer_id!r} is not in the scenario"
            raise FieldError("hybrid", message)
        for b in self.buyers:
            if not _fits(self, max(b.value, b.submitted_bid())):
                raise ValueError(f"buyer {b.buyer_id!r}: value or bid overflows the session's sums")


def _fits(scenario: Scenario, per_kb: float) -> bool:
    """Whether ``per_kb`` >= 0 keeps a session's sums finite: a charge or rebate
    is at most per_kb x capacity x horizon / mu, a utility adds three, welfare n.
    An int too large for a float does not, and is never multiplied."""
    n = 3 * len(scenario.buyers)
    return 0 <= per_kb <= sys.float_info.max and (
        per_kb * scenario.capacity * scenario.horizon / scenario.mu * n < np.inf
    )


@dataclass
class SessionOutcome:
    """Everything observable from one simulated session."""

    buyer_ids: List[str]
    bytes: Dict[str, float]  # real (valued) traffic per buyer
    bids: Dict[str, float]  # submitted
    perturbed_bids: Dict[str, float]  # routing keys (equal to bids outside bks)
    payments: Dict[str, PaymentOutcome]  # .bytes is billed traffic, padding included
    utilities: Dict[str, float]
    welfare: float
    seller_revenue: float
    trace: np.ndarray  # (horizon, n) consumed KB per epoch, column order = buyer_ids
    reserve: float


def run_seeds(seed: Union[int, np.random.Generator], n: int) -> List[int]:
    """Session seeds of runs 0..n-1 of a Monte Carlo from master ``seed``.

    A ``Generator`` is drawn from in place, so callers that share one stream
    with other draws take their session seeds from it in turn.
    """
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=n)]


def _streams(scenario: Scenario, seeds: Sequence[int]) -> np.ndarray:
    """The ``seed_words`` that seed the streams of session ``seeds``, B of
    them, as a (B, 1 + f, 4) uint64 array for f flow_trace buyers: each
    run's resampling stream, ``SeedSequence(seed, spawn_key=(2,))``, then
    each flow_trace buyer's realization stream, in buyer order, seeded by
    her word of the run's demand stream, ``SeedSequence(seed,
    spawn_key=(0,))``; these are the third and first children that
    ``SeedSequence(seed).spawn(3)`` would make.  The demand stream is hashed
    only when a flow_trace buyer reads it, in the same ``seed_words`` call
    as the resampling stream, and the realization streams in one more."""
    traced = [i for i, b in enumerate(scenario.buyers) if b.demand.kind == "flow_trace"]
    B, f = len(seeds), len(traced)
    spawned = seed_words(seeds, max(4, traced[-1] + 1) if traced else 4, (2, 0) if traced else (2,))
    streams = np.empty((B, 1 + f, 4), dtype=np.uint64)
    streams[:, 0] = spawned[0, :, :4]
    if traced:
        streams[:, 1:] = seed_words(spawned[1][:, traced].ravel(), 4).reshape(B, f, 4)
    return streams


def _worlds(scenario: Scenario, streams: np.ndarray) -> Worlds:
    """The worlds of B runs drawn at once from their ``_streams``: each
    run's demand realizations, its buyers' resampling (coin, gamma) as a
    (B, n, 2) array, and the (n, B, T) demand matrix, masked to each buyer's
    active window, with a row for every memoryless realization and zeros for
    the others.  Each stream is a generator of its own, built from its words
    (``generator``) and drawn in buyer order whatever the bids, so a world
    depends only on the buyers and its seed."""
    buyers = scenario.buyers
    B, n = len(streams), len(buyers)
    draws = np.empty((B, n, 2))
    for k, words in enumerate(streams[:, 0]):
        generator(words).random(out=draws[k])
    realizations = DemandSpec.realize_runs([b.demand for b in buyers], streams[:, 1:])
    demand = np.zeros((n, B, scenario.horizon))
    for i, buyer in enumerate(buyers):
        lo, hi = _window(scenario, buyer)
        for k, run in enumerate(realizations):
            if lo <= hi and run[i].memoryless:
                demand[i, k, lo - 1 : hi] = run[i].query_epochs(lo, hi)
    return realizations, draws, demand


class Bids(NamedTuple):
    """Submitted bids, routing keys and resampling flags by buyer position."""

    bid: List[float]
    perturbed_bid: List[float]  # equal to bid unless resampled
    resampled: List[bool]


class Probe(NamedTuple):
    """A scenario played on each run's world under counterfactual bids and
    pinned resampling coins, as ``replay``'s session takes them; a Monte Carlo
    grid's scenario is a probe with neither."""

    scenario: Scenario
    bid_override: Optional[Mapping[str, float]] = None
    force_resample: Optional[Mapping[str, bool]] = None


Checked = Tuple[Scenario, List[float], Mapping[str, bool]]  # see _checked


def _checked(probe: Probe) -> Checked:
    """A probe's scenario, submitted bids in scenario order and pinned coins,
    checked once for all the runs that play it: an unknown id, a bid override
    that is not a number >= 0 whose products with the session's traffic stay
    finite, or a pin that is not a bool is a ``ValueError``."""
    scenario = probe.scenario
    override, forced = probe.bid_override or {}, probe.force_resample or {}
    unknown = sorted(set(override).union(forced) - {b.buyer_id for b in scenario.buyers})
    if unknown:
        raise ValueError(f"no buyer {', '.join(map(repr, unknown))} in the scenario")
    for buyer_id, bid in override.items():
        if isinstance(bid, bool) or not (isinstance(bid, numbers.Real) and _fits(scenario, bid)):
            raise ValueError(
                f"bid override for buyer {buyer_id!r} must be >= 0 and not overflow, got {bid!r}"
            )
    for buyer_id, coin in forced.items():
        if not isinstance(coin, (bool, np.bool_)):
            raise ValueError(f"force_resample for buyer {buyer_id!r} must be a bool, got {coin!r}")
    bids = [float(override.get(b.buyer_id, b.submitted_bid())) for b in scenario.buyers]
    return scenario, bids, forced


def _keyed(
    scenario: Scenario,
    bids: List[float],
    draws: Sequence[Sequence[float]],
    forced: Mapping[str, bool],
) -> Bids:
    """The bids, routing keys and resampling flags of ``_checked`` bids: under
    bks a bid that meets the reserve is resampled by its (coin, gamma) draw,
    or as ``forced`` pins its coin.  ``_groups`` decides eligibility and
    priority from them; no draw is made here."""
    r, bks = scenario.reserve, scenario.mechanism == "bks"
    keyed = [
        resample_bid(bid, min(r, bid), scenario.mu, coin, gamma,
                     forced.get(buyer.buyer_id) if bks and bid >= r else False)
        for buyer, bid, (coin, gamma) in zip(scenario.buyers, bids, draws)
    ]
    return Bids(bids, [key for key, _ in keyed], [flag for _, flag in keyed])


def _groups(scenario: Scenario, bids: Bids) -> List[List[int]]:
    """Positions of the eligible buyers, whose bid meets the reserve under
    every mechanism, grouped by equal routing key, highest key first.  An
    eligible key is at least that floor and an ineligible one, her bid, is
    below it, so a group's first buyer decides for all of it.  Under fq and
    fifo every eligible key ties, at 1 above the ineligible ones' 0."""
    floor, tied = scenario.reserve, scenario.routing in ("fq", "fifo")
    keys = [float(b >= floor) for b in bids.bid] if tied else bids.perturbed_bid
    return [rows for rows in priority_groups(keys) if bids.bid[rows[0]] >= floor]


def _stateful(buyer: BuyerSpec, realization: DemandRealization) -> bool:
    """Whether what a buyer presents depends on her history, so that she
    cannot be read from the world's demand matrix."""
    return not realization.memoryless or buyer.strategy.kind in ("pad", "delay")


def replay(scenario: Scenario, seed: int) -> Callable[..., SessionOutcome]:
    """The world drawn from ``seed``, replayable under counterfactual bids.

    Materializes the demand realizations and resampling draws once and
    returns ``session(bid_override=None, force_resample=None)``.
    ``bid_override`` replaces buyers' submitted bids by numbers >= 0 whose
    products with the session's traffic stay finite, and ``force_resample``
    pins buyers' resampling coins with bools (keeping their gamma draws); every
    call sees the same world, and an unknown id or a non-bool pin is a ``ValueError``.
    ``seed`` is an int >= 0 of any size, as ``SeedSequence`` takes it.
    """
    (realizations,), draws, demand = _worlds(scenario, _streams(scenario, [seed]))
    draws, demand = draws[0].tolist(), demand[:, 0]
    stateful = [_stateful(b, r) for b, r in zip(scenario.buyers, realizations)]

    def session(
        bid_override: Optional[Mapping[str, float]] = None,
        force_resample: Optional[Mapping[str, bool]] = None,
    ) -> SessionOutcome:
        _, bids, forced = _checked(Probe(scenario, bid_override, force_resample))
        keyed = _keyed(scenario, bids, draws, forced)
        played = _run_sweep(scenario, realizations, demand, _groups(scenario, keyed), stateful)
        return _finish(scenario, keyed, *played)

    return session


def run_session(
    scenario: Scenario,
    seed: int,
    *,
    bid_override: Optional[Mapping[str, float]] = None,
    force_resample: Optional[Mapping[str, bool]] = None,
) -> SessionOutcome:
    """Simulate one session.  Deterministic in (scenario, seed, overrides);
    see :func:`replay` for the overrides."""
    return replay(scenario, seed)(bid_override, force_resample)


def _run_loop(
    scenario: Scenario,
    realizations: Sequence[DemandRealization],
    groups: List[List[int]],
) -> Played:
    """Every eligible buyer played epoch by epoch at full capacity, with the
    demand they present recorded for the VMM charges; the tests' reference."""
    n, T = len(scenario.buyers), scenario.horizon
    grants, shown = np.zeros((2, n, T))
    capacity = np.full(T, float(scenario.capacity))
    played = _play(scenario, realizations, groups, capacity, grants, shown)
    return grants, shown, played


def _play(
    scenario: Scenario,
    realizations: Sequence[DemandRealization],
    groups: List[List[int]],
    capacity: np.ndarray,
    grants: np.ndarray,
    shown: np.ndarray,
) -> Dict[int, float]:
    """The eligible buyers in ``groups`` played epoch by epoch through ``query``.

    Each epoch ``t`` splits ``capacity[t - 1]`` among them with
    ``_allocate_epoch``, which serves ``groups`` in order under strict
    priority.  Writes their grants and the demand they present (``shown``) in
    the epochs they are active, leaves in ``capacity`` what they did not
    take, and returns the real traffic of those who pad or delay; any other
    buyer's real traffic is her grants' total.
    """
    buyers = scenario.buyers
    n = len(buyers)
    rows = sorted(i for g in groups for i in g)
    arrivals = [b.arrival for b in buyers]
    departures = [b.departure for b in buyers]
    strategies = [b.strategy for b in buyers]
    kinds = [s.kind for s in strategies]
    queries = [r.query for r in realizations]
    cap = capacity.tolist()
    x_real = [0.0] * n
    gen_history: List[Dict[int, float]] = [dict() for _ in range(n)]
    for t in range(1, scenario.horizon + 1):
        active: List[int] = []
        presented = [0.0] * n
        truth = [0.0] * n
        for i in rows:
            if t < arrivals[i] or t > departures[i]:
                continue
            active.append(i)
            try:
                d = queries[i](t, x_real[i])
            except Exception as exc:
                raise RuntimeError(
                    f"demand query failed for buyer {buyers[i].buyer_id!r} at epoch {t}: {exc}"
                ) from exc
            truth[i] = d
            kind = kinds[i]
            if kind == "delay":
                gen_history[i][t] = d
                presented[i] = gen_history[i].get(t - strategies[i].delay_epochs, 0.0)
            elif kind == "pad":
                presented[i] = d + strategies[i].pad
            else:
                presented[i] = d
        granted, cap[t - 1] = _allocate_epoch(
            scenario, t, cap[t - 1], active, presented, x_real, groups
        )
        for i in active:
            consumed = granted[i]
            # Only traffic backed by current true demand carries value and
            # advances the demand model; padded or stale bytes are billed but
            # worthless.
            x_real[i] += consumed if consumed <= truth[i] else truth[i]
            grants[i, t - 1] = consumed
            shown[i, t - 1] = presented[i]
    capacity[:] = cap
    return {i: x_real[i] for i in rows if kinds[i] in ("pad", "delay")}


def _allocate_epoch(
    scenario: Scenario,
    t: int,
    c: float,
    active: List[int],
    presented: List[float],
    x_real: List[float],
    groups: List[List[int]],
) -> Tuple[List[float], float]:
    """Grants of ``c`` in epoch ``t`` by buyer position, zero outside
    ``active``, and the capacity left.

    The scalar form of ``routing.fill_group`` for a single column, rounded as
    it rounds: ``groups`` are served in order after the hybrid reservation,
    each shared max-min fairly, or in proportion to demand under fifo.
    """
    grants = [0.0] * len(presented)
    remaining, fifo = c, scenario.routing == "fifo"
    boost = scenario.hybrid if scenario.routing == "hybrid" else None
    if boost is not None and t <= boost.deadline:
        buyers = scenario.buyers
        bi = next((i for i in active if buyers[i].buyer_id == boost.buyer_id), None)
        if bi is not None and x_real[bi] < boost.target_bytes:
            pace = (boost.target_bytes - x_real[bi]) / (boost.deadline - t + 1)
            grants[bi] = min(pace, presented[bi], remaining)
            remaining -= grants[bi]
    for rows in groups:
        if len(rows) == 1 and not fifo:
            i = rows[0]
            need = presented[i] - grants[i]
            take = need if need <= remaining else remaining
            grants[i] += take
            remaining -= take
        else:
            unmet = [p - g for p, g in zip(presented, grants)]
            remaining = (_prorate if fifo else _share)(rows, unmet, remaining, grants)
    return grants, remaining


def _share(rows: List[int], need: Sequence[float], c: float, grants: List[float]) -> float:
    """``routing.maxmin`` on one column: adds max-min fair shares of ``c`` to
    ``grants`` for ``rows``, served in stable ascending order of ``need``, each
    taking the smaller of its need and an equal share of what is left.  Returns
    what is left."""
    left = len(rows)
    for i in sorted(rows, key=need.__getitem__):
        take = min(need[i], c / left)
        grants[i] += take
        c -= take
        left -= 1
    return c


def _prorate(rows: List[int], need: Sequence[float], c: float, grants: List[float]) -> float:
    """``routing.proportional`` on one column: adds ``need`` to ``grants`` for
    ``rows``, scaled down to ``c`` if they need more.  Returns what is left."""
    total = sum(need[i] for i in rows)
    for i in rows:
        grants[i] += need[i] if total <= c else need[i] * (c / total)
    return max(0.0, c - total)


def _window(scenario: Scenario, buyer: BuyerSpec) -> Tuple[int, int]:
    """First and last epoch in which ``buyer`` is active; empty when lo > hi."""
    return max(1, buyer.arrival), min(scenario.horizon, buyer.departure)


def _run_sweep(
    scenario: Scenario,
    realizations: Sequence[DemandRealization],
    demand: np.ndarray,
    groups: List[List[int]],
    stateful: Sequence[bool],
    own: bool = False,
) -> Played:
    """Priority played one of ``groups`` at a time, highest key first, each as
    ``_forms`` says, as the module docstring sets out.  ``residual`` holds the
    capacity that the groups above have left in each epoch, and a group's
    grants depend only on it and the group's own history.  By increasing
    patience epoch p (equal p together, as zeroing after p leaves the columns
    up to p), an impatient buyer who has moved no more than m by p is zeroed
    after it, and her run is refilled after p.  ``demand`` may hold several
    runs' epochs side by side when no group plays and the routing is not hybrid.
    The presented demand is written over a copy of ``demand``, which
    counterfactual replays and other buckets share, or over ``demand``
    itself when it is ``own``, a copy made for this sweep."""
    buyers, share = scenario.buyers, proportional if scenario.routing == "fifo" else maxmin
    shown = demand if own else demand.copy()
    for i in set(range(len(shown))).difference(*groups):  # the rows in no group
        shown[i] = 0.0
    grants, residual = np.zeros(shown.shape), np.full(shown.shape[1], float(scenario.capacity))
    forms = _forms(scenario, realizations, groups, stateful)
    if any(stateful):  # (n, runs, T) views of the columns by run, for the vector forms
        shown_r, grants_r = (a.reshape(len(a), -1, scenario.horizon) for a in (shown, grants))
    top, played = -1, {}  # played: real traffic of the buyers who pad or delay
    if scenario.routing == "hybrid":
        top, played = _boost(scenario, realizations, groups, stateful, residual, grants, shown)
    for rows, form in zip(groups[top + 1 :], forms[top + 1 :]):
        if form == "fill":
            fill_group(shown, rows, residual, grants, share)
        elif form == "play":
            played.update(_play(scenario, realizations, [rows], residual, grants, shown))
        elif form == "serve":
            (i,) = rows
            lo, hi = _window(scenario, buyers[i])
            if lo <= hi:
                left = residual.reshape(-1, scenario.horizon)[:, lo - 1 : hi]  # a view by run
                served = realizations[i].serve(left, lo)
                shown_r[i, :, lo - 1 : hi], grants_r[i, :, lo - 1 : hi] = served
                left -= served[1]
        else:
            tests = []  # (p, buyer, m) of the impatient buyers present after p
            for i in (i for i in rows if stateful[i]):
                params, (lo, hi) = buyers[i].demand.params, _window(scenario, buyers[i])
                shown_r[i, :, lo - 1 : hi] = params["k"]
                if params["p"] < hi:
                    tests.append((params["p"], i, params["m"]))
            above = residual.copy()
            fill_group(shown, rows, residual, grants, share)
            for p, batch in itertools.groupby(sorted(tests), key=lambda test: test[0]):
                quits = [(i, ~(np.cumsum(grants_r[i, :, :p], -1)[:, -1] > m)) for _, i, m in batch]
                hit = np.logical_or.reduce([quit for _, quit in quits])  # runs with a quitter
                if hit.any():
                    for i, quit in quits:
                        shown_r[i, quit, p:] = 0.0
                    cols = np.arange(len(residual)).reshape(-1, scenario.horizon)[hit, p:].ravel()
                    after, refilled = above[cols], grants[:, cols]
                    fill_group(shown[:, cols], rows, after, refilled, share)
                    grants[:, cols], residual[cols] = refilled, after
    return grants, shown, played


def _forms(scenario: Scenario, realizations: Sequence[DemandRealization],
           groups: List[List[int]], stateful: Sequence[bool]) -> List[str]:
    """How ``_run_sweep`` serves each of ``groups``: "fill" one column-wise
    when none of its buyers is stateful; under spq and hybrid "serve" a lone
    greedy buyer by her model's vector form; "impatient" when its stateful
    buyers are greedy impatient ones; else "play" it epoch by epoch.  Every
    form but "play" serves many runs' columns at once."""
    if not any(stateful):
        return ["fill"] * len(groups)
    buyers, strict, forms = scenario.buyers, scenario.routing in ("spq", "hybrid"), []
    for rows in groups:
        held = [i for i in rows if stateful[i]]
        greedy = all(buyers[i].strategy.kind in ("greedy", "misreport") for i in held)
        if not held:
            forms.append("fill")
        elif len(rows) == 1 and strict and greedy and realizations[rows[0]].serves:
            forms.append("serve")
        else:
            impatient = greedy and all(buyers[i].demand.kind == "impatient" for i in held)
            forms.append("impatient" if impatient else "play")
    return forms


def _boost(
    scenario: Scenario,
    realizations: Sequence[DemandRealization],
    groups: List[List[int]],
    stateful: Sequence[bool],
    residual: np.ndarray,
    grants: np.ndarray,
    shown: np.ndarray,
) -> Tuple[int, Dict[int, float]]:
    """Serve a hybrid session's groups down to the boosted buyer's; return the
    index of hers (-1 when she is in none, and the session is plain spq) and
    the real traffic that ``_play`` kept for the buyers who pad or delay.

    Once her reservation is gone (target met, deadline or departure past)
    hybrid is strict priority.  So when those groups hold no stateful buyer
    but her, lone, greedy and with a vector form, they are filled as under
    spq, her reserved epochs are scanned and overwritten with
    ``_allocate_epoch``, and after them she is served from the traffic she
    has moved.  Otherwise ``_play`` plays them over the whole horizon.
    """
    buyers, boost = scenario.buyers, scenario.hybrid
    b = next(i for i, buyer in enumerate(buyers) if buyer.buyer_id == boost.buyer_id)
    top = next((k for k, rows in enumerate(groups) if b in rows), -1)
    if top < 0:
        return -1, {}
    upper = groups[: top + 1]
    forms = _forms(scenario, realizations, upper, stateful)
    if set(forms[:-1]) - {"fill"} or forms[-1] not in ("fill", "serve"):
        return top, _play(scenario, realizations, upper, residual, grants, shown)
    for rows in upper:
        fill_group(shown, rows, residual, grants)
    lo, hi = _window(scenario, buyers[b])
    c, x = float(scenario.capacity), [0.0] * len(buyers)
    taken, offered = [], []
    for t, col in enumerate(shown[:, lo - 1 : min(hi, boost.deadline)].T.tolist(), start=lo):
        if stateful[b]:
            col[b] = realizations[b].query(t, x[b])
        if not x[b] < boost.target_bytes:
            break
        g, residual[t - 1] = _allocate_epoch(scenario, t, c, [b], col, x, upper)
        x[b] += g[b] if g[b] <= col[b] else col[b]
        taken.append(g)
        offered.append(col[b])
    end = lo - 1 + len(taken)  # the last epoch scanned
    grants[:, lo - 1 : end], shown[b, lo - 1 : end] = np.array(taken).T, offered
    if stateful[b] and end < hi:
        served = realizations[b].serve(residual[end:hi], end + 1, x[b])
        shown[b, end:hi], grants[b, end:hi] = served
        residual[end:hi] -= served[1]
    return top, {}


def _finish(
    scenario: Scenario,
    bids: Bids,
    grants: np.ndarray,
    shown: np.ndarray,
    played: Mapping[int, float],
) -> SessionOutcome:
    """Settle every buyer at departure by position and build the outcome, whose
    trace is ``grants`` transposed.  VMM charges depend only on the bids and the
    (n, T) matrix ``shown`` of presented demand, never on the grants; a buyer in
    no group has no row in either and pays nothing.  A buyer is billed her grants'
    pairwise row total, her real traffic too unless she pads or delays (``played``)."""
    buyers, r, mu = scenario.buyers, scenario.reserve, scenario.mu
    ids = [b.buyer_id for b in buyers]
    billed = grants.sum(axis=1).tolist()
    if scenario.mechanism == "bks":
        settled = [bks_settle(x, b, r, mu, f) for x, b, f in zip(billed, bids.bid, bids.resampled)]
    elif scenario.mechanism == "vmm":
        settled = [(g, 0.0) for g in vmm_epoch_charges(shown, bids.bid, scenario.capacity).tolist()]
    else:
        settled = [(fixed_price_settle(x, r), 0.0) for x in billed]
    real = [float(played[i]) if i in played else x for i, x in enumerate(billed)]
    worth = [b.value * x for b, x in zip(buyers, real)]
    return SessionOutcome(
        buyer_ids=ids,
        bytes=dict(zip(ids, real)),
        bids=dict(zip(ids, bids.bid)),
        perturbed_bids=dict(zip(ids, bids.perturbed_bid)),
        payments={i: PaymentOutcome(i, x, g, rb) for i, x, (g, rb) in zip(ids, billed, settled)},
        utilities={i: w - (g - rb) for i, w, (g, rb) in zip(ids, worth, settled)},
        welfare=sum(worth),
        seller_revenue=sum([g - rb for g, rb in settled]),
        trace=grants.T,
        reserve=r,
    )


def build_ledger(seller_id: str, outcome: SessionOutcome) -> SellerLedger:
    """Accounting-period ledger rows for one seller from a settled session."""
    rows = [
        LedgerRow(
            buyer_id=bid,
            bytes=outcome.payments[bid].bytes,
            bid=outcome.bids[bid],
            perturbed_bid=outcome.perturbed_bids[bid],
            rebate=outcome.payments[bid].rebate,
        )
        for bid in outcome.buyer_ids
    ]
    return SellerLedger(seller_id, outcome.reserve, rows)


def ledger_rows(scenario: Scenario, samples: np.ndarray) -> List[List[LedgerRow]]:
    """Each run's ledger rows, by buyer in scenario order, from one probe's
    (4n, run) samples of ``run_probes(..., metric="ledger")`` on
    ``scenario``: those ``build_ledger`` builds from the run's session, bit
    for bit."""
    ids = [b.buyer_id for b in scenario.buyers]
    runs = samples.reshape(4, len(ids), samples.shape[-1]).transpose(2, 1, 0)
    return [[LedgerRow(i, *row) for i, row in zip(ids, run.tolist())] for run in runs]


# -- Monte Carlo -------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloStats:
    """Aggregates over independent seeded sessions."""

    welfare: MeanCI
    seller_revenue: MeanCI
    bytes: Dict[str, MeanCI]
    payments: Dict[str, MeanCI]
    utilities: Dict[str, MeanCI]


# The byte size of one batch's stacked (n, runs, T) demand matrix, which holds
# at least one run: a batch's other arrays are a few times it, so the memory a
# Monte Carlo takes does not grow with its runs or its horizon.  welfare_capacity
# (3 x 600) plays 4 runs per batch, whose worlds ``_worlds`` draws at once; the
# truthfulness suite's 30 probes over 60 runs took 21 ms against 27 ms at 2 runs
# per batch drawn run by run (2-vCPU Xeon).  8 runs were faster still, but the
# bench's sweep_trace peak RSS, which grows with the blocks a run completes,
# rose by up to 10%.
BATCH_BYTES = 2**16
# The byte size of the stream words (``_streams``) that ``run_probes`` holds
# at once, for whole batches, at least one: 8192 runs of 3 flow_trace buyers.
STREAM_BYTES = 2**20


class ProbeArrays(NamedTuple):
    """``_checked`` probes and what ``_mc_batch`` reads of them as arrays, made
    once per ``run_probes`` call: (P, 1, n) by probe and buyer, or (P, 1, 1) by
    probe, so that they broadcast over a batch's (P, B, n) (probe, run) pairs."""

    checked: List[Checked]
    bid: np.ndarray  # submitted
    eligible: np.ndarray  # the bid meets the reserve
    by_coin: np.ndarray  # resampled when her coin falls below mu
    always: np.ndarray  # resampled by a pinned coin
    reserve: np.ndarray
    mu: np.ndarray
    bks: np.ndarray
    fixed: np.ndarray
    tied: np.ndarray  # fq or fifo: every eligible key ties
    scenario: np.ndarray  # the scenario's position among the distinct ones, by identity
    exponent: np.ndarray  # (P,) the position of 1 / (1 - mu) in ``exponents``
    exponents: List[float]
    value: np.ndarray  # (n,)


def _codes(values: Iterable) -> Tuple[List[int], list]:
    """Each value's position among the distinct ``values``, and those in order."""
    seen: Dict = {}
    return [seen.setdefault(v, len(seen)) for v in values], list(seen)


def _probe_arrays(checked: List[Checked]) -> ProbeArrays:
    """The ``ProbeArrays`` of ``checked`` probes, which share their buyers."""
    scenarios = [scenario for scenario, _, _ in checked]
    buyers = scenarios[0].buyers
    P, n = len(checked), len(buyers)

    def rows(values: list, width: int = 1, dtype: type = float) -> np.ndarray:
        return np.array(values, dtype=dtype).reshape(P, 1, width)

    def mask(test: Callable[[Scenario], bool]) -> np.ndarray:
        return rows([test(s) for s in scenarios], dtype=bool)

    bid, reserve = rows([bids for _, bids, _ in checked], n), rows([s.reserve for s in scenarios])
    bks = mask(lambda s: s.mechanism == "bks")
    eligible = bid >= reserve
    resamples = bks & eligible  # as _keyed lets them
    pins = [[forced.get(b.buyer_id) for b in buyers] for _, _, forced in checked]
    pinned = rows([[pin is not None for pin in row] for row in pins], n, bool)
    pin = rows([[bool(pin) for pin in row] for row in pins], n, bool)
    exponent, exponents = _codes(1.0 / (1.0 - s.mu) for s in scenarios)  # as resample_bid takes it
    return ProbeArrays(
        checked, bid, eligible, resamples & ~pinned, resamples & pinned & pin, reserve,
        rows([s.mu for s in scenarios]), bks, mask(lambda s: s.mechanism == "fixed"),
        mask(lambda s: s.routing in ("fq", "fifo")),
        rows(_codes(map(id, scenarios))[0], dtype=int), np.array(exponent, dtype=int), exponents,
        np.array([b.value for b in buyers]),
    )


def _batch_keys(probes: ProbeArrays, draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``_keyed``'s routing keys and resampling flags of every (probe, run)
    pair, as (P, B, n) arrays, from the runs' (B, n, 2) (coin, gamma) draws,
    bit for bit: gamma^(1/(1-mu)) is Python's ``**``, once per run, buyer
    and distinct mu, as ``resample_bid`` takes it (numpy's ``power`` rounds
    some otherwise), and r + (b - r) * g is numpy's, which rounds as Python's."""
    coin, gamma = draws[..., 0], draws[..., 1].tolist()
    g = np.array([[[x**e for x in run] for run in gamma] for e in probes.exponents])
    g = g.reshape(len(probes.exponents), *coin.shape)[probes.exponent]
    resampled = (probes.by_coin & (coin < probes.mu)) | probes.always
    b, r = probes.bid, probes.reserve
    return np.where(resampled, r + (b - r) * g, b), resampled


def _buckets(
    probes: ProbeArrays, keys: np.ndarray, flags: np.ndarray
) -> List[Tuple[Scenario, List[List[int]], Dict[int, List[int]]]]:
    """The (probe, run) pairs of ``_batch_keys``' keys and flags bucketed by
    scenario and priority grouping: (scenario, groups, the probes of each
    run) per bucket.  Pairs whose keys rank alike share their groups, so a
    pair's rank signature (its scenario, a stable ``argsort`` of -key, the
    ties between neighbours in that order and their eligibility) decides its
    bucket, and ``_groups`` groups one pair of each."""
    P, B, n = keys.shape
    rank = np.where(probes.tied, probes.eligible, keys)
    order = np.argsort(-rank, axis=-1, kind="stable")
    ranked = np.take_along_axis(rank, order, -1)
    eligible = np.take_along_axis(np.broadcast_to(probes.eligible, keys.shape), order, -1)
    scenario = np.broadcast_to(probes.scenario, (P, B, 1))
    signature = np.concatenate(
        [scenario, order, ranked[..., 1:] == ranked[..., :-1], eligible], axis=-1
    ).reshape(P * B, -1)
    members: Dict[tuple, Dict[int, List[int]]] = {}  # by signature, the probes of each run
    for pair, row in enumerate(signature.tolist()):
        members.setdefault(tuple(row), {}).setdefault(pair % B, []).append(pair // B)
    buckets = []
    for runs in members.values():
        k, (p, *_) = next(iter(runs.items()))
        scenario, bids, _ = probes.checked[p]
        groups = _groups(scenario, Bids(bids, keys[p, k].tolist(), flags[p, k].tolist()))
        buckets.append((scenario, groups, runs))
    return buckets


def _mc_batch(
    probes: ProbeArrays,
    realizations: Sequence[Sequence[DemandRealization]],
    draws: np.ndarray,
    demand: np.ndarray,
    metric: Optional[str] = None,
) -> np.ndarray:
    """Each probe's samples in every run of ``_worlds``' worlds, as a (probe,
    metric, run) array: welfare, revenue, then bytes, net payments and
    utilities by buyer, those of the run's ``replay`` session bit for bit,
    or the rows of ``run_probes``' ``metric``.

    The runs' demand matrices lie stacked (n, B, T).  Every (probe, run) pair
    is keyed (``_batch_keys``) and the pairs are bucketed by scenario and
    priority grouping across all probes (``_buckets``): only bks keys and bid
    overrides vary the grouping.  Each bucket is one ``_run_sweep`` of the
    (n, B' x T) view of the union of its runs, since the kernels fill each
    column from its own capacity and the vector forms serve each run's own,
    so each pair gets the grants of its own session; when a group plays
    (``_forms``), or under hybrid routing, it is one ``_run_sweep`` per run, on
    that run's realizations and (n, T) slice.  The pairs then settle as
    ``_finish`` settles them, on (probe, n, B) arrays, with ``_play``'s real
    traffic for the buyers who pad or delay; only ``metric``'s rows are formed."""
    n, B, T = demand.shape
    P = len(probes.checked)
    keys, flags = _batch_keys(probes, draws)
    # A buyer's statefulness and vector form depend on her model and strategy, not the draw.
    stateful = [_stateful(b, r) for b, r in zip(probes.checked[0][0].buyers, realizations[0])]
    billed, charges = np.zeros((2, P, n, B))
    kept = []  # (probes, buyer, run, real traffic) of the buyers who pad or delay
    for scenario, groups, members in _buckets(probes, keys, flags):
        ks = sorted(members)
        forms = _forms(scenario, realizations[0], groups, stateful)
        if scenario.routing == "hybrid" or "play" in forms:
            swept = [_run_sweep(scenario, realizations[k], demand[:, k], groups, stateful)
                     for k in ks]
            grants = np.stack([g for g, _, _ in swept], axis=1)
            shown = np.stack([s for _, s, _ in swept], axis=1)
            kept += [(members[k], i, k, x) for k, (_, _, played) in zip(ks, swept)
                     for i, x in played.items()]
        else:
            own = len(ks) < B  # a gather of some runs is a copy of its own
            view = (demand[:, ks] if own else demand).reshape(n, len(ks) * T)
            grants, shown, _ = _run_sweep(
                scenario, realizations[ks[0]], view, groups, stateful, own
            )
            grants, shown = grants.reshape(n, len(ks), T), shown.reshape(n, len(ks), T)
        totals = grants.sum(-1)
        pairs = [(p, k, j) for j, k in enumerate(ks) for p in members[k]]
        ps, at, js = map(list, zip(*pairs))
        billed[ps, :, at] = totals[:, js].T
        if scenario.mechanism == "vmm":  # under each probe's own bids
            for p in dict.fromkeys(ps):
                mine = [j for q, _, j in pairs if q == p]
                own = vmm_epoch_charges(shown[:, mine], probes.checked[p][1], scenario.capacity)
                charges[p][:, [ks[j] for j in mine]] = own
    bid, r, mu = probes.bid.transpose(0, 2, 1), probes.reserve, probes.mu  # to (P, n, B)
    # As bks_settle, fixed_price_settle and vmm_epoch_charges settle one buyer.
    gross = np.where(probes.bks, bid * billed, np.where(probes.fixed, r * billed, charges))
    resampled = flags.transpose(0, 2, 1)
    rebate = np.where(resampled, billed * (bid - r) / mu, 0.0)  # only bks resamples
    if metric == "ledger":  # as ``build_ledger`` reads them from the session
        bids = np.broadcast_to(bid, billed.shape)
        return np.concatenate([billed, bids, keys.transpose(0, 2, 1), rebate], axis=1)
    net = gross - rebate
    real = billed.copy()
    for ps, i, k, x in kept:
        real[ps, i, k] = x
    worth = probes.value[:, None] * real
    if metric is not None:
        return {"bytes": real, "payments": net, "utilities": worth - net}[metric]
    out = np.empty((P, 2 + 3 * n, B))
    # Summed over buyers as ``_finish`` sums them, by Python's ``sum``.
    out[:, 0], out[:, 1] = (
        [[sum(run) for run in runs] for runs in m.transpose(0, 2, 1).tolist()] for m in (worth, net)
    )
    out[:, 2:] = np.concatenate([real, net, worth - net], axis=1)
    return out


def _mc_task(probes: ProbeArrays, metric: Optional[str], streams: np.ndarray) -> np.ndarray:
    """One batch: ``_mc_batch``'s samples of ``metric`` in the worlds of
    ``streams``, its runs' rows of ``_streams``."""
    return _mc_batch(probes, *_worlds(probes.checked[0][0], streams), metric)


def deadline_passed(deadline: Optional[float]) -> bool:
    """Whether ``deadline``, a ``time.monotonic()`` reading or None for no
    deadline, has passed."""
    return deadline is not None and time.monotonic() > deadline


# The metrics of ``run_probes``' samples past welfare and revenue, each by buyer.
_PER_BUYER = ("bytes", "payments", "utilities")


def buyer_rows(metric: str, n: int) -> slice:
    """The rows of ``run_probes``' metric axis that hold ``metric`` ("bytes",
    "payments", net, or "utilities") by buyer in scenario order, for n buyers;
    rows 0 and 1 are welfare and revenue."""
    k = 2 + _PER_BUYER.index(metric) * n
    return slice(k, k + n)


def run_probes(
    probes: Sequence[Probe],
    n_runs: int,
    seed: Union[int, "np.random.Generator"],
    jobs: int = 1,
    deadline: Optional[float] = None,
    metric: Optional[str] = None,
) -> np.ndarray:
    """Per-run samples of each probe, as a (probe, metric, run) array whose
    metrics are welfare, revenue, then bytes, net payments and utilities by
    buyer (see ``buyer_rows``), each run's numbers those of
    ``replay(scenario, seed)(bid_override, force_resample)`` bit for bit.
    A ``metric`` ("bytes", "payments" or "utilities") keeps only its
    ``buyer_rows``, by buyer in scenario order, so that the samples kept
    grow by 8 x probes x n bytes per run, not 8 x probes x (2 + 3n).
    ``metric="ledger"`` keeps instead what each buyer's ``build_ledger``
    row holds past her id: billed bytes, submitted bid, routing key and
    rebate, each by buyer (8 x probes x 4n bytes per run), which
    ``ledger_rows`` turns into ``LedgerRow``s.

    The probes' scenarios must share their buyers and horizon: each run
    draws its world once and plays every probe on it.  Run seeds are
    ``run_seeds(seed, n_runs)``: a ``Generator`` ``seed`` is drawn from in
    place, as ``n_runs`` draws of one seed each would draw from it.  The
    samples do not depend on ``jobs``.  Each probe is checked once, before
    any world is drawn.

    The runs are played in batches of up to ``BATCH_BYTES`` of demand matrix
    (``_mc_batch``), serially or one batch per pool task, each drawing its
    worlds from its runs' rows of ``_streams``.  Those are hashed for as
    many whole batches at once as take at most ``STREAM_BYTES`` (32 x (1 +
    f) bytes per run for f flow_trace buyers), or for one batch, so that
    they do not grow with the runs either.  ``deadline``, a
    ``time.monotonic()`` reading, is checked after each batch, and under the
    pool after each completed task, which then cancels the pending ones; once
    it has passed, a ``TimeoutError`` is raised.
    """
    if n_runs < 1 or not probes:
        raise ValueError("need at least one run and one scenario")
    shared = (probes[0].scenario.buyers, probes[0].scenario.horizon)
    if any((p.scenario.buyers, p.scenario.horizon) != shared for p in probes):
        raise ValueError("the scenarios of one Monte Carlo must share their buyers and horizon")
    buyers, horizon = shared
    checked = [_checked(p) for p in probes]
    n = len(buyers)
    if metric == "ledger":
        width = 4 * n
    else:
        rows = slice(0, 2 + 3 * n) if metric is None else buyer_rows(metric, n)
        width = rows.stop - rows.start
    seeds = run_seeds(seed, n_runs)
    # The pool forks all its workers at the first submit: no more than the
    # runs, nor than the CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, n_runs, cpus or 1)
    size = max(1, BATCH_BYTES // (8 * max(1, n * horizon)))
    count = max(workers, -(-n_runs // size))  # batches of near-equal size
    bounds = [n_runs * k // count for k in range(count + 1)]
    spans = list(zip(bounds, bounds[1:]))
    # The batches whose stream words are held at once: (1 + f) x 4 words per run.
    flows = sum(b.demand.kind == "flow_trace" for b in buyers)
    held = max(1, STREAM_BYTES // (32 * (1 + flows) * -(-n_runs // count)))
    task = partial(_mc_task, _probe_arrays(checked), metric)
    samples = np.empty((len(probes), width, n_runs))  # probe, metric, run
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for group in (spans[g : g + held] for g in range(0, count, held)):
            start = group[0][0]
            streams = _streams(probes[0].scenario, np.array(seeds[start : group[-1][1]], np.uint64))
            batches = [streams[lo - start : hi - start] for lo, hi in group]
            for (lo, hi), block in zip(group, (map if pool is None else pool.map)(task, batches)):
                samples[:, :, lo:hi] = block
                if deadline_passed(deadline):
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                    raise TimeoutError(f"deadline passed after {hi} of {n_runs} runs")
    return samples


def run_monte_carlo(
    scenarios: Sequence[Scenario],
    n_runs: int,
    seed: int,
    jobs: int = 1,
    deadline: Optional[float] = None,
) -> List[MonteCarloStats]:
    """Mean and 95% CI of welfare, revenue, and per-buyer outcomes, per scenario.

    The samples are those of ``run_probes`` with each scenario a probe, under
    the same seed, ``jobs`` and ``deadline``; the aggregation folds in
    run-index order, so results are identical for any ``jobs``.
    """
    samples = run_probes([Probe(s) for s in scenarios], n_runs, seed, jobs, deadline)
    ids = [b.buyer_id for b in scenarios[0].buyers]
    n = len(ids)
    stats, summary = [], summarize(samples)
    for means, lows, highs in zip(summary.mean, summary.ci_low, summary.ci_high):
        cis = [MeanCI(*v) for v in zip(means, lows, highs)]
        per_buyer = [dict(zip(ids, cis[buyer_rows(m, n)])) for m in _PER_BUYER]
        stats.append(MonteCarloStats(cis[0], cis[1], *per_buyer))
    return stats
