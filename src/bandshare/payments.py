"""Payment mechanisms.

Three schemes are supported; under each, a bid below the reserve is not served.

* fixed price  -- the reserve is the posted per-KB price, which every served
  buyer pays per KB.
* VCG-per-epoch -- each epoch, charge every buyer the externality she imposes
  within that epoch: the value others would gain in the value-optimal split of
  capacity without her.  That split is the ``routing.spq`` fill in descending
  bid order, so ``vmm_epoch_charges`` fills a session's (n, T) presented-demand
  matrix once and charges each buyer the value of her grant flowing down the
  unmet demand at or below her bid: her tied peers first, then lower groups.
* resampling rebates -- each bid is randomly perturbed downward with
  probability ``mu`` before routing; buyers pay bid * bytes, and perturbed
  buyers get a rebate of bytes * (bid - reserve) / mu.  The rebate makes
  truthful bidding optimal in expectation without any counterfactual
  allocation knowledge.

The perturbation map is b~ = r + (b - r) * gamma^(1/(1-mu)) with
gamma ~ Uniform[0,1], so conditional on being perturbed,
Pr(b~ <= a) = ((a - r)/(b - r))^(1-mu).

Settlement works on one buyer's plain numbers: ``resample_bid(b, r, mu,
coin, gamma)`` gives her routing key and resampling flag,
``bks_settle(x, b, r, mu, resampled)`` her (gross, rebate) on x billed KB and
``fixed_price_settle(x, p)`` her charge.  The engine calls them by buyer
position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from bandshare.routing import priority_groups, spq

__all__ = [
    "MeanCI",
    "PaymentOutcome",
    "bks_settle",
    "fixed_price_settle",
    "resample_bid",
    "summarize",
    "vmm_epoch_charges",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class PaymentOutcome(NamedTuple):
    """Settled payment for one buyer: net = gross - rebate."""

    buyer_id: str
    bytes: float
    gross: float
    rebate: float

    @property
    def net(self) -> float:
        return self.gross - self.rebate


def resample_bid(
    b: float, r: float, mu: float, coin: float, gamma: float, force: Optional[bool] = None
) -> Tuple[float, bool]:
    """A bid's routing key and whether it was resampled: r + (b - r) *
    gamma^(1/(1-mu)), in [r, b], when the uniform ``coin`` falls below ``mu``,
    else the bid.  ``coin`` and ``gamma`` are the buyer's two Uniform[0, 1)
    draws, made whatever the bid so that replays of one world stay aligned
    across counterfactual bids.  ``force`` pins the coin's outcome and keeps
    gamma (Rao-Blackwellized estimators rely on this)."""
    if not 0 <= r <= b:
        raise ValueError(f"need 0 <= reserve <= bid, got r={r}, b={b}")
    if not 0 < mu < 1:
        raise ValueError(f"mu must be in (0, 1), got {mu}")
    if not (0 <= coin <= 1 and 0 <= gamma <= 1):
        raise ValueError(f"coin and gamma must be in [0, 1], got coin={coin}, gamma={gamma}")
    if not (coin < mu if force is None else force):
        return b, False
    return r + (b - r) * gamma ** (1.0 / (1.0 - mu)), True


def bks_settle(x: float, b: float, r: float, mu: float, resampled: bool) -> Tuple[float, float]:
    """A buyer's (gross, rebate) on x billed bytes: b*x, and x*(b-r)/mu if her
    bid was resampled.  Rebates routinely exceed the gross charge; negative net
    payments are expected and are what the multi-seller revenue pool absorbs."""
    if x < 0:
        raise ValueError(f"total bytes must be >= 0, got {x}")
    return b * x, x * (b - r) / mu if resampled else 0.0


def vmm_epoch_charges(demand: np.ndarray, bids: Sequence[float], c: float) -> np.ndarray:
    """Each buyer's per-epoch VCG externality charges, summed over the epochs.

    ``demand`` is the (n, T) matrix of presented demand.  In every epoch
    column, charge_i = (others' value in the value-optimal split without i)
                     - (others' value in the value-optimal split with i).
    Without i, her grant in the one ``spq`` fill flows down the unmet demand of
    her tied peers, then of the groups below, in priority order: each row q
    takes min(unmet_q, what is still free), and charge_i sums b_q times that.

    An (n, B, T) ``demand`` is B sessions side by side under the same bids:
    their columns are filled as one (n, B x T) matrix, and the charges come
    back (n, B), each summed over its own session's epochs.
    """
    demand = np.asarray(demand, dtype=float)
    keys = np.asarray(bids, dtype=float).tolist()
    n = len(keys)
    if demand.shape[0] != n:
        raise ValueError(f"{n} bids for {demand.shape[0]} demand rows")
    grants = spq(demand.reshape(n, math.prod(demand.shape[1:])), keys, c).reshape(demand.shape)
    unmet = demand - grants
    charges = np.zeros(demand.shape[:-1])
    below = []  # the rows of the groups below, in priority order
    for rows in reversed(priority_groups(keys)):
        for i in rows:
            freed = grants[i]  # a view: no other buyer reads row i, so it is spent in place
            for q in [j for j in rows if j != i] + below:
                take = np.minimum(unmet[q], freed)
                freed -= take
                charges[i] += keys[q] * take.sum(axis=-1)
        below = rows + below
    return charges


def fixed_price_settle(x: float, p: float) -> float:
    """Linear payment p per KB."""
    if x < 0 or p < 0:
        raise ValueError("bytes and price must be >= 0")
    return p * x


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a normal-approximation 95% confidence interval."""

    mean: float
    ci_low: float
    ci_high: float


def summarize(samples: Union[Sequence[float], np.ndarray]) -> MeanCI:
    """Mean and 95% CI of ``samples`` along its last axis: floats for a 1-D
    sequence, nested lists of the leading shape for an array of samples."""
    arr = np.asarray(samples, dtype=float)
    n = arr.shape[-1]
    if n == 0:
        raise ValueError("no samples")
    # Work in units of a power of two at least the largest magnitude, so that
    # squared deviations cannot overflow; the scaling is exact.
    scale = np.ldexp(1.0, -np.frexp(np.abs(arr).max(axis=-1))[1])
    arr = arr * scale[..., None]
    mean = arr.mean(axis=-1)
    if n == 1:
        bounds = (mean, mean, mean)
    else:
        half = _Z95 * arr.std(axis=-1, ddof=1) / math.sqrt(n)
        bounds = (mean, mean - half, mean + half)
    return MeanCI(*((v / scale).tolist() for v in bounds))
