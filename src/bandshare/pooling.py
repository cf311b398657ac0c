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


def merge_ledgers(ledgers: Sequence[SellerLedger]) -> SellerLedger:
    """Combine one seller's per-auction ledgers into an accounting period.

    An accounting period covers many auctions; settlement operates on the
    merged rows.
    """
    if not ledgers:
        raise ValueError("nothing to merge")
    seller_id = ledgers[0].seller_id
    reserve = ledgers[0].reserve
    for led in ledgers[1:]:
        if led.seller_id != seller_id:
            raise ValueError(f"mixed sellers: {led.seller_id} vs {seller_id}")
        if abs(led.reserve - reserve) > _SAME_RESERVE_TOL:
            raise ValueError("a seller's reserve must not change within a period")
    rows = [row for led in ledgers for row in led.rows]
    return SellerLedger(seller_id, reserve, rows)


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


def settle_pool(
    ledgers: Sequence[SellerLedger],
    rng: np.random.Generator,
    split: Optional[Tuple[Sequence[str], Sequence[str]]] = None,
) -> PoolSettlement:
    """Settle one accounting period for a pool of same-reserve sellers.

    The pool is split uniformly at random into halves differing in size by at
    most one.  ``split`` overrides the random draw (audit replay and tests);
    it must partition the sellers.
    """
    if len(ledgers) < 2:
        raise ValueError("a pool needs at least 2 sellers")
    reserve = ledgers[0].reserve
    for led in ledgers[1:]:
        if abs(led.reserve - reserve) > _SAME_RESERVE_TOL:
            raise ValueError(
                f"mixed reserves in pool: {led.reserve} vs {reserve} (seller {led.seller_id})"
            )
    by_id = {led.seller_id: led for led in ledgers}
    if len(by_id) != len(ledgers):
        raise ValueError("duplicate seller ids in pool")

    if split is None:
        ids = list(by_id)
        perm = rng.permutation(len(ids))
        half = len(ids) // 2
        s1 = tuple(ids[i] for i in perm[:half])
        s2 = tuple(ids[i] for i in perm[half:])
    else:
        s1, s2 = tuple(split[0]), tuple(split[1])
        if sorted(s1 + s2) != sorted(by_id):
            raise ValueError("split must partition the pool's sellers")

    def totals(ids: Tuple[str, ...]) -> tuple[float, float]:
        credit = sum(by_id[s].credit_above_reserve() for s in ids)
        paid = sum(by_id[s].payments_above_reserve() for s in ids)
        return credit, paid

    credit1, payments1 = totals(s1)
    credit2, payments2 = totals(s2)
    deficit1 = credit1 - payments1
    deficit2 = credit2 - payments2
    raw_tax1, tax1 = _tax_rate(credit1, deficit2)
    raw_tax2, tax2 = _tax_rate(credit2, deficit1)

    transfers = {}
    for ids, tax in ((s1, tax1), (s2, tax2)):
        for s in ids:
            led = by_id[s]
            transfers[s] = led.reserve_revenue() + (1.0 - tax) * led.credit_above_reserve()

    total_buyer_payments = sum(led.buyer_payments() for led in ledgers)
    center_residual = total_buyer_payments - sum(transfers.values())

    return PoolSettlement(
        split=(s1, s2),
        raw_tax1=raw_tax1,
        raw_tax2=raw_tax2,
        tax1=tax1,
        tax2=tax2,
        transfers=transfers,
        center_residual=center_residual,
    )


SellerSampler = Callable[[np.random.Generator], Tuple[float, float]]


def tax_admissibility_estimate(
    sampler: SellerSampler,
    m: int,
    n_trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of Pr(some tax rate > 1) for pools of 2m sellers.

    ``sampler`` draws one seller's (above-reserve credit, above-reserve buyer
    payments) for an accounting period; each trial draws all 2m sellers from it.
    """
    if m < 1:
        raise ValueError("need at least one seller per half")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    exceed = 0
    for _ in range(n_trials):
        draws = [sampler(rng) for _ in range(2 * m)]
        order = rng.permutation(2 * m)
        half1 = [draws[i] for i in order[:m]]
        half2 = [draws[i] for i in order[m:]]
        c1 = sum(d[0] for d in half1)
        t1 = sum(d[1] for d in half1)
        c2 = sum(d[0] for d in half2)
        t2 = sum(d[1] for d in half2)
        raw1, _ = _tax_rate(c1, c2 - t2)
        raw2, _ = _tax_rate(c2, c1 - t1)
        if max(raw1, raw2) > 1.0:
            exceed += 1
    return exceed / n_trials


def bootstrap_sampler(
    observations: Sequence[Tuple[float, float]]
) -> SellerSampler:
    """Resample observed (credit, payments) pairs with replacement."""
    obs: List[Tuple[float, float]] = [(float(c), float(t)) for c, t in observations]
    if not obs:
        raise ValueError("no observations to bootstrap from")

    def sample(rng: np.random.Generator) -> Tuple[float, float]:
        return obs[int(rng.integers(len(obs)))]

    return sample
