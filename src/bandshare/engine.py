"""Discrete-epoch session driver.

``run_session`` plays out one seller's market for ``horizon`` epochs: buyers
arrive and depart, query their demand realizations, push traffic through the
configured routing policy, and settle payments under the configured mechanism.

This module owns the random-number layout.  A session seed spawns two live
streams: demand (one realization seed per buyer, in scenario order) and bid
resampling (two uniforms per buyer, in scenario order, whatever the bids).
``replay(scenario, seed)`` materializes that world once and returns
``session(bid_override=None, force_resample=None)``, which plays it under any
counterfactual bids or pinned resampling coins; ``run_session`` is
``replay(scenario, seed)(bid_override, force_resample)``.  A Monte Carlo
over ``n`` runs from a master seed uses the session seeds ``run_seeds(seed,
n)``.

The path is chosen once per world.  Memoryless worlds with straightforward
buyers run through a vectorized path that applies the ``routing`` kernels to
the whole (n, T) demand matrix; anything stateful (buffered or impatient
demand, padding, delaying, the threshold-hybrid policy) takes the epoch loop,
which allocates one epoch at a time with ``_allocate_epoch``, the scalar form
of the same kernels.  Both produce identical results.  VMM charges depend only
on bids and presented demand, so the loop records the demand it presents and
both paths charge VMM once, after allocation.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from bandshare.demand import DemandRealization, DemandSpec
from bandshare.payments import (
    BidRecord,
    MeanCI,
    PaymentOutcome,
    bks_settle,
    fixed_price_settle,
    resample_bid,
    summarize,
    vmm_epoch_charges,
)
from bandshare.pooling import LedgerRow, SellerLedger
from bandshare.routing import maxmin, proportional, spq

__all__ = [
    "BuyerSpec",
    "HybridBoost",
    "MonteCarloStats",
    "Scenario",
    "SessionOutcome",
    "Strategy",
    "build_ledger",
    "replay",
    "run_monte_carlo",
    "run_seeds",
    "run_session",
]

ROUTING_POLICIES = ("spq", "fq", "fifo", "hybrid")
MECHANISMS = ("bks", "vmm", "fixed")
_STRATEGY_KINDS = ("greedy", "pad", "delay", "misreport")


def _whole(*values) -> bool:
    """Whether every value is a whole number of epochs: an integer, not a bool."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


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
        if self.kind not in _STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; one of {_STRATEGY_KINDS}")
        if not _whole(self.delay_epochs):
            raise ValueError(f"delay must be whole epochs, got {self.delay_epochs!r}")
        # Checks are written as positive conditions so that NaN fails them too.
        if not (self.pad >= 0 and self.delay_epochs >= 0 and self.bid_factor >= 0):
            raise ValueError(
                "pad, delay and bid factor must be nonnegative, got "
                f"{self.pad}, {self.delay_epochs}, {self.bid_factor}"
            )


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
        if not self.value >= 0:
            raise ValueError(f"value must be >= 0, got {self.value}")
        if not (_whole(self.arrival, self.departure) and 0 <= self.arrival <= self.departure):
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
        if not self.target_bytes >= 0:
            raise ValueError("boost target must be >= 0")
        if not (_whole(self.deadline) and self.deadline >= 1):
            raise ValueError(f"boost deadline must be whole epochs >= 1, got {self.deadline!r}")


@dataclass(frozen=True)
class Scenario:
    """A complete market configuration for one seller."""

    buyers: Tuple[BuyerSpec, ...]
    capacity: float
    routing: str = "spq"
    mechanism: str = "bks"
    mu: float = 0.2
    reserve: float = 0.0
    price: float = 0.0
    horizon: int = 600
    hybrid: Optional[HybridBoost] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "buyers", tuple(self.buyers))
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if not (_whole(self.horizon) and self.horizon >= 1):
            raise ValueError(f"horizon must be whole epochs >= 1, got {self.horizon!r}")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.routing!r}")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must be in (0, 1), got {self.mu}")
        if not (self.reserve >= 0 and self.price >= 0):
            raise ValueError("reserve and price must be >= 0")
        ids = [b.buyer_id for b in self.buyers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate buyer ids")
        if self.routing == "hybrid":
            if self.hybrid is None:
                raise ValueError("hybrid routing needs boost parameters")
            if self.hybrid.buyer_id not in ids:
                raise ValueError(f"boosted buyer {self.hybrid.buyer_id!r} is not in the scenario")


@dataclass
class SessionOutcome:
    """Everything observable from one simulated session."""

    buyer_ids: List[str]
    bytes: Dict[str, float]  # real (valued) traffic per buyer
    billed_bytes: Dict[str, float]  # includes padding
    bids: Dict[str, float]  # submitted
    perturbed_bids: Dict[str, float]  # routing keys (equal to bids outside bks)
    payments: Dict[str, PaymentOutcome]
    utilities: Dict[str, float]
    welfare: float
    seller_revenue: float
    trace: np.ndarray  # (horizon, n) consumed KB per epoch, column order = buyer_ids
    mechanism: str
    reserve: float


def run_seeds(seed: Union[int, np.random.Generator], n: int) -> List[int]:
    """Session seeds of runs 0..n-1 of a Monte Carlo from master ``seed``.

    A ``Generator`` is drawn from in place, so callers that share one stream
    with other draws take their session seeds from it in turn.
    """
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=n)]


def _world(
    scenario: Scenario, seed: int
) -> Tuple[List[DemandRealization], np.random.SeedSequence]:
    """Demand realizations and resampling stream of ``seed``."""
    # The unused middle child keeps the resampling stream where it has always been.
    demand_ss, _, resample_ss = np.random.SeedSequence(seed).spawn(3)
    seeds = demand_ss.generate_state(len(scenario.buyers), dtype=np.uint64)
    realizations = [b.demand.realize(int(s)) for b, s in zip(scenario.buyers, seeds)]
    return realizations, resample_ss


def _bid_records(
    scenario: Scenario,
    resample_ss: np.random.SeedSequence,
    bid_override: Optional[Mapping[str, float]],
    force_resample: Optional[Mapping[str, bool]],
) -> Dict[str, BidRecord]:
    """Submitted and (for bks) perturbed bids, one record per buyer.

    Resampling draws are consumed for every buyer in scenario order, even the
    excluded ones, so counterfactual replays against the same seed see the
    same coins.  ``force_resample`` overrides the coin while keeping the gamma
    draw (Rao-Blackwellized estimators rely on this).
    """
    override = bid_override or {}
    forced = force_resample or {}
    rng = np.random.default_rng(resample_ss)
    records = {}
    for buyer in scenario.buyers:
        bid = float(override.get(buyer.buyer_id, buyer.submitted_bid()))
        if scenario.mechanism == "bks" and bid >= scenario.reserve:
            records[buyer.buyer_id] = resample_bid(
                buyer.buyer_id, bid, scenario.reserve, scenario.mu, rng,
                forced.get(buyer.buyer_id),
            )
        else:
            if scenario.mechanism == "bks":
                rng.random()
                rng.random()
            records[buyer.buyer_id] = BidRecord(
                buyer.buyer_id, bid, bid, False, min(scenario.reserve, bid), scenario.mu
            )
    return records


def _eligible(scenario: Scenario, bid: float) -> bool:
    if scenario.mechanism == "fixed":
        return bid >= scenario.price
    return bid >= scenario.reserve


def _settle(
    scenario: Scenario,
    records: Dict[str, BidRecord],
    x_billed: Sequence[float],
    shown: Optional[np.ndarray],
) -> Dict[str, PaymentOutcome]:
    """Settle every buyer at departure.

    VMM charges depend only on the bids and the (n, T) matrix ``shown`` of
    demand presented to the router, never on the grants, so they are computed
    once per session after allocation.
    """
    buyers = scenario.buyers
    if scenario.mechanism == "vmm":
        bids = [records[b.buyer_id].bid for b in buyers]
        charges = vmm_epoch_charges(shown, bids, scenario.capacity)
    payments = {}
    for i, buyer in enumerate(buyers):
        x = float(x_billed[i])
        if scenario.mechanism == "bks":
            payment = bks_settle(records[buyer.buyer_id], x)
        elif scenario.mechanism == "vmm":
            payment = PaymentOutcome(buyer.buyer_id, x, float(charges[i]), 0.0)
        else:
            payment = PaymentOutcome(
                buyer.buyer_id, x, fixed_price_settle(x, scenario.price), 0.0
            )
        payments[buyer.buyer_id] = payment
    return payments


def _can_vectorize(scenario: Scenario, realizations: Sequence[DemandRealization]) -> bool:
    if scenario.routing == "hybrid":
        return False
    if any(not r.memoryless for r in realizations):
        return False
    if any(b.strategy.kind in ("pad", "delay") for b in scenario.buyers):
        return False
    return True


def replay(scenario: Scenario, seed: int) -> Callable[..., SessionOutcome]:
    """The world drawn from ``seed``, replayable under counterfactual bids.

    Materializes the demand realizations once and returns
    ``session(bid_override=None, force_resample=None)``.  ``bid_override``
    replaces buyers' submitted bids and ``force_resample`` pins buyers'
    resampling coins (keeping their draws); every call sees the same demand
    and resampling streams.  The path is chosen once per world: a world the
    vector path can run gets its demand matrix here and plays every call on
    that path, and any other world plays every call in the epoch loop.
    """
    realizations, resample_ss = _world(scenario, seed)
    vectorizable = _can_vectorize(scenario, realizations)
    demand = _demand_matrix(scenario, realizations) if vectorizable else None

    def session(
        bid_override: Optional[Mapping[str, float]] = None,
        force_resample: Optional[Mapping[str, bool]] = None,
    ) -> SessionOutcome:
        records = _bid_records(scenario, resample_ss, bid_override, force_resample)
        if demand is not None:
            return _run_vectorized(scenario, demand, records)
        return _run_loop(scenario, realizations, records)

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
    records: Dict[str, BidRecord],
) -> SessionOutcome:
    buyers = scenario.buyers
    n = len(buyers)
    T = scenario.horizon

    elig = [_eligible(scenario, records[b.buyer_id].bid) for b in buyers]
    groups = _groups([records[b.buyer_id].perturbed_bid for b in buyers])
    arrivals = [b.arrival for b in buyers]
    departures = [b.departure for b in buyers]
    strategies = [b.strategy for b in buyers]
    kinds = [s.kind for s in strategies]
    queries = [r.query for r in realizations]
    x_real = [0.0] * n
    x_billed = [0.0] * n
    gen_history: List[Dict[int, float]] = [dict() for _ in range(n)]
    trace = np.zeros((T, n))
    # Presented demand, recorded only for the VMM charges after the loop.
    shown = np.zeros((n, T)) if scenario.mechanism == "vmm" else None

    for t in range(1, T + 1):
        active: List[int] = []
        presented = [0.0] * n
        truth = [0.0] * n
        for i in range(n):
            if not elig[i] or t < arrivals[i] or t > departures[i]:
                continue
            active.append(i)
            try:
                d = queries[i](t, x_real[i])
            except Exception as exc:
                raise RuntimeError(
                    f"demand query failed for buyer {buyers[i].buyer_id!r} "
                    f"at epoch {t}: {exc}"
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

        if active:
            grants = _allocate_epoch(scenario, t, active, presented, x_real, groups)
            if shown is not None:
                shown[:, t - 1] = presented
            row = trace[t - 1]
            for i in active:
                consumed = grants[i]
                # Only traffic backed by current true demand carries value and
                # advances the demand model; padded or stale bytes are billed
                # but worthless.
                real = consumed if consumed <= truth[i] else truth[i]
                x_real[i] += real
                x_billed[i] += consumed
                row[i] = consumed

    return _finish(scenario, records, x_real, x_billed, shown, trace)


def _groups(keys: Sequence[float]) -> List[List[int]]:
    """Buyer positions grouped by equal key, highest first, as ``routing.spq`` groups rows."""
    order = sorted(range(len(keys)), key=lambda i: -keys[i])
    return [list(rows) for _, rows in itertools.groupby(order, key=keys.__getitem__)]


def _allocate_epoch(
    scenario: Scenario,
    t: int,
    active: List[int],
    presented: List[float],
    x_real: List[float],
    groups: List[List[int]],
) -> List[float]:
    """Grants for one epoch by buyer position, zero outside ``active``.

    The scalar form of the ``routing`` kernels for a single column.  Strict
    priority serves ``groups`` after the hybrid reservation, as ``spq`` does.
    """
    c = scenario.capacity
    grants = [0.0] * len(presented)
    routing = scenario.routing
    if routing == "fifo":
        total = sum(presented[i] for i in active)
        for i in active:
            grants[i] = presented[i] if total <= c else c * presented[i] / total
        return grants
    if routing == "fq":
        _share(active, presented, c, grants)
        return grants

    # spq / hybrid
    remaining = c
    boost = scenario.hybrid if routing == "hybrid" else None
    if boost is not None and t <= boost.deadline:
        buyers = scenario.buyers
        bi = next((i for i in active if buyers[i].buyer_id == boost.buyer_id), None)
        if bi is not None and x_real[bi] < boost.target_bytes:
            pace = (boost.target_bytes - x_real[bi]) / (boost.deadline - t + 1)
            grants[bi] = min(pace, presented[bi], remaining)
            remaining -= grants[bi]
    for rows in groups:
        if len(rows) == 1:
            i = rows[0]
            need = presented[i] - grants[i]
            take = need if need <= remaining else remaining
            grants[i] += take
            remaining -= take
        else:
            unmet = [p - g for p, g in zip(presented, grants)]
            remaining = _share(rows, unmet, remaining, grants)
    return grants


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


def _demand_matrix(
    scenario: Scenario, realizations: Sequence[DemandRealization]
) -> np.ndarray:
    """(n, T) demand matrix of memoryless realizations, masked to each buyer's
    active window (eligibility is applied separately)."""
    T = scenario.horizon
    demand = np.zeros((len(scenario.buyers), T))
    for i, (buyer, real) in enumerate(zip(scenario.buyers, realizations)):
        lo = max(1, buyer.arrival)
        hi = min(T, buyer.departure)
        if lo <= hi:
            demand[i, lo - 1 : hi] = real.query_epochs(lo, hi)
    return demand


def _run_vectorized(
    scenario: Scenario, demand: np.ndarray, records: Dict[str, BidRecord]
) -> SessionOutcome:
    """Vector path: memoryless demand, greedy presentation, static priorities.

    ``demand`` is the world's ``_demand_matrix``; it is left unchanged, so
    counterfactual replays can share it.
    """
    buyers = scenario.buyers
    priorities = [records[b.buyer_id].perturbed_bid for b in buyers]
    demand = demand.copy()
    for i, b in enumerate(buyers):
        if not _eligible(scenario, records[b.buyer_id].bid):
            demand[i] = 0.0

    c = scenario.capacity
    if scenario.routing == "spq":
        grants = spq(demand, priorities, c)
    elif scenario.routing == "fifo":
        grants = proportional(demand, c)
    else:  # fq
        grants = maxmin(demand, c)
    x = [float(v) for v in grants.sum(axis=1)]
    return _finish(scenario, records, x, x, demand, grants.T.copy())


def _finish(
    scenario: Scenario,
    records: Dict[str, BidRecord],
    x_real: Sequence[float],
    x_billed: Sequence[float],
    shown: Optional[np.ndarray],
    trace: np.ndarray,
) -> SessionOutcome:
    buyers = scenario.buyers
    payments = _settle(scenario, records, x_billed, shown)
    ids = [b.buyer_id for b in buyers]
    real = {b.buyer_id: float(x_real[i]) for i, b in enumerate(buyers)}
    billed = {b.buyer_id: float(x_billed[i]) for i, b in enumerate(buyers)}
    utilities = {
        b.buyer_id: b.value * real[b.buyer_id] - payments[b.buyer_id].net for b in buyers
    }
    welfare = sum(b.value * real[b.buyer_id] for b in buyers)
    revenue = sum(p.net for p in payments.values())
    return SessionOutcome(
        buyer_ids=ids,
        bytes=real,
        billed_bytes=billed,
        bids={bid: rec.bid for bid, rec in records.items()},
        perturbed_bids={bid: rec.perturbed_bid for bid, rec in records.items()},
        payments=payments,
        utilities=utilities,
        welfare=welfare,
        seller_revenue=revenue,
        trace=trace,
        mechanism=scenario.mechanism,
        reserve=scenario.reserve,
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


# -- Monte Carlo -------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloStats:
    """Aggregates over independent seeded sessions."""

    n_runs: int
    welfare: MeanCI
    seller_revenue: MeanCI
    bytes: Dict[str, MeanCI]
    payments: Dict[str, MeanCI]
    utilities: Dict[str, MeanCI]


def _mc_worker(args: tuple) -> tuple:
    scenario, run_seed = args
    out = run_session(scenario, run_seed)
    return (
        out.welfare,
        out.seller_revenue,
        {b: out.bytes[b] for b in out.buyer_ids},
        {b: out.payments[b].net for b in out.buyer_ids},
        {b: out.utilities[b] for b in out.buyer_ids},
    )


def run_monte_carlo(
    scenario: Scenario, n_runs: int, seed: int, jobs: int = 1
) -> MonteCarloStats:
    """Mean and 95% CI of welfare, revenue, and per-buyer outcomes.

    Run seeds derive deterministically from ``seed``; the aggregation folds in
    run-index order, so results are identical for any ``jobs``.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    tasks = [(scenario, s) for s in run_seeds(seed, n_runs)]
    if jobs > 1 and n_runs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_mc_worker, tasks, chunksize=max(1, n_runs // (jobs * 8))))
    else:
        rows = [_mc_worker(t) for t in tasks]

    ids = [b.buyer_id for b in scenario.buyers]
    welfare = summarize([r[0] for r in rows])
    revenue = summarize([r[1] for r in rows])
    return MonteCarloStats(
        n_runs=n_runs,
        welfare=welfare,
        seller_revenue=revenue,
        bytes={b: summarize([r[2][b] for r in rows]) for b in ids},
        payments={b: summarize([r[3][b] for r in rows]) for b in ids},
        utilities={b: summarize([r[4][b] for r in rows]) for b in ids},
    )
