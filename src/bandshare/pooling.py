"""Multi-seller revenue pooling over an accounting period.

Sellers that share the same reserve price form a pool.  Each seller is
credited first-price revenue at the perturbed bids (bytes * perturbed bid),
while buyers pay the rebate-adjusted amounts, which leaves the center with a
deficit.  The pool is split randomly into two halves; each half's deficit is
recovered by taxing the *other* half's above-reserve credits at a uniform
rate.  The construction is exactly budget balanced, and in large pools the
tax rate stays below 1 with high probability.

Tax rates are capped at 1, with the center absorbing any shortfall as a
(negative) residual.  Reserve-price revenue (reserve * bytes) passes to
sellers untaxed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LedgerRow",
    "PoolSettlement",
    "SellerLedger",
    "settle_pool",
    "tax_admissibility_estimate",
]

_SAME_RESERVE_TOL = 1e-12


@dataclass(frozen=True)
class LedgerRow:
    """One buyer served by a seller during the accounting period."""

    buyer_id: str
    bytes: float
    bid: float
    perturbed_bid: float
    rebate: float

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise ValueError("bytes must be >= 0")
        if self.rebate < 0:
            raise ValueError("rebate must be >= 0")


@dataclass(frozen=True)
class SellerLedger:
    seller_id: str
    reserve: float
    rows: Tuple[LedgerRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.reserve < 0:
            raise ValueError("reserve must be >= 0")

    def credit_above_reserve(self) -> float:
        """sum bytes * (perturbed bid - reserve), the taxable credit."""
        return sum(r.bytes * (r.perturbed_bid - self.reserve) for r in self.rows)

    def payments_above_reserve(self) -> float:
        """sum (bid - reserve) * bytes - rebate, what buyers paid above reserve."""
        return sum((r.bid - self.reserve) * r.bytes - r.rebate for r in self.rows)

    def reserve_revenue(self) -> float:
        return sum(self.reserve * r.bytes for r in self.rows)

    def buyer_payments(self) -> float:
        """Total net payments collected from this seller's buyers."""
        return sum(r.bid * r.bytes - r.rebate for r in self.rows)


@dataclass(frozen=True)
class PoolSettlement:
    """Outcome of one accounting-period settlement.

    ``tax1``/``tax2`` are the effective (capped) rates applied to each half's
    above-reserve credits; the raw rates are kept for diagnostics.
    ``center_residual`` is total buyer payments minus total seller transfers:
    0 when no cap binds, negative when the center absorbs a capped shortfall.
    """

    split: Tuple[Tuple[str, ...], Tuple[str, ...]]
    raw_tax1: float
    raw_tax2: float
    tax1: float
    tax2: float
    transfers: Dict[str, float]
    center_residual: float


def _tax_rate(own_credit: float, other_deficit: float) -> tuple[float, float]:
    """(raw, capped) tax rate; zero-credit halves tax at 0 or 1 by convention."""
    if own_credit > 0:
        raw = other_deficit / own_credit
        return raw, min(raw, 1.0)
    # No taxable credit: nothing can be collected.  Report 0 when there is no
    # deficit to recover, else the capped rate 1 (of zero credit).
    if other_deficit <= 0:
        return 0.0, 0.0
    return float("inf"), 1.0


def _split_taxes(
    credit: Sequence[float], paid: Sequence[float], rng: np.random.Generator
) -> Tuple[Tuple[List[int], List[int]], Tuple[float, float], Tuple[float, float]]:
    """Split sellers 0..n-1 into halves by one permutation (its first n // 2,
    then the rest) and tax each half's above-reserve ``credit`` to recover the
    other half's deficit, its credit minus what its buyers ``paid`` above
    reserve.  Returns the halves and each half's (raw, capped) tax rate."""
    order = rng.permutation(len(credit)).tolist()
    halves = order[: len(order) // 2], order[len(order) // 2 :]
    credits = [sum(credit[i] for i in half) for half in halves]
    deficits = [c - sum(paid[i] for i in half) for c, half in zip(credits, halves)]
    return halves, _tax_rate(credits[0], deficits[1]), _tax_rate(credits[1], deficits[0])


def settle_pool(ledgers: Sequence[SellerLedger], rng: np.random.Generator) -> PoolSettlement:
    """Settle one accounting period for a pool of same-reserve sellers.

    The pool is split uniformly at random into halves differing in size by at
    most one.
    """
    if len(ledgers) < 2:
        raise ValueError("a pool needs at least 2 sellers")
    reserve = ledgers[0].reserve
    for led in ledgers[1:]:
        if abs(led.reserve - reserve) > _SAME_RESERVE_TOL:
            raise ValueError(
                f"mixed reserves in pool: {led.reserve} vs {reserve} (seller {led.seller_id})"
            )
    if len({led.seller_id for led in ledgers}) != len(ledgers):
        raise ValueError("duplicate seller ids in pool")

    credit = [led.credit_above_reserve() for led in ledgers]
    paid = [led.payments_above_reserve() for led in ledgers]
    halves, (raw_tax1, tax1), (raw_tax2, tax2) = _split_taxes(credit, paid, rng)

    transfers = {}
    for half, tax in zip(halves, (tax1, tax2)):
        for i in half:
            transfers[ledgers[i].seller_id] = ledgers[i].reserve_revenue() + (1.0 - tax) * credit[i]

    total_buyer_payments = sum(led.buyer_payments() for led in ledgers)
    center_residual = total_buyer_payments - sum(transfers.values())

    return PoolSettlement(
        split=tuple(tuple(ledgers[i].seller_id for i in half) for half in halves),
        raw_tax1=raw_tax1,
        raw_tax2=raw_tax2,
        tax1=tax1,
        tax2=tax2,
        transfers=transfers,
        center_residual=center_residual,
    )


PeriodSampler = Callable[[np.random.Generator, int, int], Tuple[List[float], List[float]]]


def tax_admissibility_estimate(
    sampler: PeriodSampler,
    m: int,
    n_trials: int,
    rng: np.random.Generator,
    sessions_per_seller: int = 1,
    deadline: Optional[float] = None,
) -> float:
    """Monte Carlo estimate of Pr(some tax rate > 1) for pools of 2m sellers.

    Each trial calls ``sampler(rng, 2 * m, sessions_per_seller)`` once for
    the 2m sellers' accounting periods: their above-reserve credits and
    above-reserve buyer payments, each the total of that many auctions.
    ``deadline``, a ``time.monotonic()`` reading, is checked after each
    trial; once it has passed, a ``TimeoutError`` is raised.
    """
    if m < 1:
        raise ValueError("need at least one seller per half")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    exceed = 0
    for trial in range(n_trials):
        credit, paid = sampler(rng, 2 * m, sessions_per_seller)
        _, (raw1, _), (raw2, _) = _split_taxes(credit, paid, rng)
        if max(raw1, raw2) > 1.0:
            exceed += 1
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"deadline passed after {trial + 1} of {n_trials} trials")
    return exceed / n_trials


def bootstrap_sampler(observations: Sequence[Tuple[float, float]]) -> PeriodSampler:
    """Period sampler that resamples observed (credit, payments) pairs with
    replacement, one pair per session."""
    obs = np.array([(float(c), float(t)) for c, t in observations]).reshape(-1, 2)
    if not len(obs):
        raise ValueError("no observations to bootstrap from")
    credit_obs, paid_obs = obs.T

    def sample(rng: np.random.Generator, sellers: int, sessions: int):
        # One seller-major draw takes the indices of sellers x sessions scalar
        # draws.  Totals add column by column, as running sums in session
        # order do; a row sum adds pairwise and can move one by an ulp.
        idx = rng.integers(len(obs), size=(sellers, sessions))
        credit, paid = np.zeros(sellers), np.zeros(sellers)
        for j in range(sessions):
            credit += credit_obs[idx[:, j]]
            paid += paid_obs[idx[:, j]]
        return credit.tolist(), paid.tolist()

    return sample
