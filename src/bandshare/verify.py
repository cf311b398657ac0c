"""Property-verification suites.

Each suite checks one of the design's load-bearing properties at desk scale
and reports human-readable evidence:

* natural       -- the built-in demand models satisfy the naturalness
                   inequality on randomized grids; the deliberately unnatural
                   fixture fails it with a witness.
* monotonicity  -- under strict-priority routing with greedy buyers and
                   natural demand, total bytes weakly increase in own bid for
                   every fixed world (replayed seed) and competitor profile.
* truthfulness  -- under bid resampling, the truthful bid maximizes expected
                   utility against the probed deviations, per buyer, within
                   Monte Carlo confidence.
* balance       -- pool settlements balance exactly; the center residual is
                   zero whenever no tax cap binds.
* admissibility -- pooled tax rates stay below 1 for large pools and the
                   exceedance probability shrinks with pool size.

The expensive estimators condition on the probed buyer's resampling coin
(evaluating both branches and weighting by mu), which removes the rebate's
1/mu variance without biasing the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from bandshare.config import load_config, builtin_config_path
from bandshare.demand import DemandRealization, DemandSpec, check_natural
from bandshare.engine import (
    BuyerSpec,
    Scenario,
    build_ledger,
    replay,
    run_seeds,
    run_session,
)
from bandshare.payments import bks_settle, resample_bid
from bandshare.pooling import (
    LedgerRow,
    SellerLedger,
    bootstrap_sampler,
    settle_pool,
    tax_admissibility_estimate,
)

__all__ = [
    "SuiteReport",
    "admissibility_suite",
    "balance_suite",
    "expected_utilities_rb",
    "monotonicity_suite",
    "natural_suite",
    "pooling_seller_observations",
    "run_suite",
    "seller_period_sampler",
    "truthfulness_suite",
    "welfare_capacity_bks_scenario",
]

_Z95_ONE_SIDED = 1.6448536269514722
# Bid deviations probed by the truthfulness suite, as multiples of the value.
_DEVIATIONS = (0.5, 0.8, 1.2, 2.0)


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: List[str]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"


# -- natural -----------------------------------------------------------------

def _builtin_natural_models(rng: np.random.Generator):
    k = float(rng.uniform(2, 20))
    pattern = rng.uniform(0, 15, size=11)
    # Every epoch that _natural_on_random_triples queries.
    generated = [float(pattern[t % 11]) for t in range(1, 200)]
    return [
        DemandSpec.constant(k).realize(),
        DemandSpec.time_varying(generated).realize(),
        DemandSpec.buffered(generated).realize(),
        DemandSpec.impatient(k, int(rng.integers(5, 50)), float(rng.uniform(20, 400))).realize(),
        DemandSpec.increasing_rate(lambda z: 1.0 + 0.5 * z).realize(),
        DemandSpec.increasing_total(lambda x: 2.0 + x / 40.0).realize(),
    ]


def _natural_on_random_triples(
    d: DemandRealization, rng: np.random.Generator, n: int = 1000
) -> Optional[Tuple[int, float, float, float]]:
    for _ in range(n):
        t = int(rng.integers(1, 200))
        xs = rng.uniform(0, 1500, size=2)
        check = check_natural(d, [t], xs, [float(rng.uniform(0, 80))])
        if not check:
            return check.witness
    return None


def natural_suite(seed: int = 0) -> SuiteReport:
    rng = np.random.default_rng(seed)
    lines = []
    passed = True
    for d in _builtin_natural_models(rng):
        witness = _natural_on_random_triples(d, rng)
        if witness is None:
            lines.append(f"  {d.model_id}: natural on 1000 random triples")
        else:
            passed = False
            lines.append(f"  {d.model_id}: VIOLATION at (t, x, x', c) = {witness}")

    # The quota-cliff fixture must fail, with a concrete witness.
    fixture = DemandSpec.cliff(10.0, 500.0).realize()
    res = check_natural(
        fixture, range(1, 5), [0, 250, 499, 500, 501, 750], [0, 5, 10, 25]
    )
    if res.passed:
        passed = False
        lines.append("  cliff fixture: unexpectedly passed (should violate)")
    else:
        lines.append(
            f"  cliff fixture: expected failure with witness (t, x, x', c) = {res.witness}"
        )
    return SuiteReport("natural", passed, lines)


# -- monotonicity ------------------------------------------------------------


def _random_probe_spec(kind: str, rng: np.random.Generator) -> DemandSpec:
    epochs = range(1, 41)  # the 40-epoch horizon of monotonicity_suite
    if kind == "constant":
        return DemandSpec.constant(float(rng.uniform(2, 15)))
    if kind == "time_varying":
        pattern = rng.uniform(0, 12, size=7)
        return DemandSpec.time_varying([float(pattern[t % 7]) for t in epochs])
    if kind == "buffered":
        rate = float(rng.uniform(1, 8))
        return DemandSpec.buffered([rate if p % 3 else 0.0 for p in epochs])
    if kind == "impatient":
        return DemandSpec.impatient(
            float(rng.uniform(4, 15)),
            int(rng.integers(5, 25)),
            float(rng.uniform(10, 120)),
        )
    if kind == "increasing_rate":
        a = float(rng.uniform(0.5, 3))
        return DemandSpec.increasing_rate(lambda z: a + 0.8 * z)
    if kind == "increasing_total":
        a = float(rng.uniform(0.5, 3))
        return DemandSpec.increasing_total(lambda x: a + x / 30.0)
    raise ValueError(kind)


MONOTONE_MODEL_KINDS = (
    "constant",
    "time_varying",
    "buffered",
    "impatient",
    "increasing_rate",
    "increasing_total",
)


def monotonicity_suite(
    seed: int = 0, n_scenarios: int = 20, n_pairs: int = 50
) -> SuiteReport:
    """Bid-monotonicity of total bytes under SPQ + greedy, world replayed."""
    rng = np.random.default_rng(seed)
    lines = []
    violations = 0
    checked = 0
    for kind in MONOTONE_MODEL_KINDS:
        for _ in range(n_scenarios):
            probe = _random_probe_spec(kind, rng)
            n_comp = int(rng.integers(1, 3))
            buyers = [BuyerSpec("probe", 5.0, probe, 1, 40)]
            for j in range(n_comp):
                buyers.append(
                    BuyerSpec(
                        f"comp{j}",
                        float(rng.uniform(0.5, 12)),
                        DemandSpec.constant(float(rng.uniform(2, 14))),
                        1,
                        40,
                    )
                )
            scenario = Scenario(
                buyers=tuple(buyers),
                capacity=float(rng.uniform(5, 25)),
                routing="spq",
                mechanism="bks",
                mu=0.2,
                horizon=40,
            )
            world_seed = int(rng.integers(2**31))
            session = replay(scenario, world_seed)
            for _ in range(n_pairs):
                lo, hi = sorted(rng.uniform(0.2, 12, size=2))
                x_lo, x_hi = (session({"probe": b}).bytes["probe"] for b in (lo, hi))
                checked += 1
                if x_hi < x_lo - 1e-9:
                    violations += 1
                    lines.append(
                        f"  VIOLATION {kind}: x({hi:.4f})={x_hi:.6f} < "
                        f"x({lo:.4f})={x_lo:.6f} (seed {world_seed})"
                    )
    lines.append(
        f"  checked {checked} bid pairs across {len(MONOTONE_MODEL_KINDS)} models "
        f"x {n_scenarios} scenarios: {violations} violations"
    )
    return SuiteReport("monotonicity", violations == 0, lines)


# -- truthfulness ------------------------------------------------------------


def expected_utilities_rb(
    scenario: Scenario,
    buyer_id: str,
    bids: Sequence[float],
    n_runs: int,
    seed: int,
) -> Dict[float, np.ndarray]:
    """Per-run expected utility of each probed bid, conditioning on the probed
    buyer's resampling coin.

    For every run, the world (demand realizations, competitor resampling
    draws, the probed buyer's gamma) is fixed and both coin branches are
    evaluated; their mu-weighted average is an unbiased, much lower-variance
    estimate of the run's expected utility.
    """
    if scenario.mechanism != "bks":
        raise ValueError("the conditioned estimator only applies to bid resampling")
    out = {float(b): np.empty(n_runs) for b in bids}
    mu = scenario.mu
    for k, run_seed in enumerate(run_seeds(seed, n_runs)):
        session = replay(scenario, run_seed)
        for b in out:
            out[b][k] = sum(
                weight * session({buyer_id: b}, {buyer_id: forced}).utilities[buyer_id]
                for forced, weight in ((False, 1.0 - mu), (True, mu))
            )
    return out


def welfare_capacity_bks_scenario(capacity: float = 25.0) -> Scenario:
    cfg = load_config(builtin_config_path("welfare_capacity"))
    variant = next(v for v in cfg.variants if v.name == "bks")
    return replace(variant.scenario, capacity=capacity)


def truthfulness_suite(seed: int = 0, n_runs: int = 10_000) -> SuiteReport:
    """Truthful bid beats each probed deviation in expectation, per buyer."""
    scenario = welfare_capacity_bks_scenario()
    lines = []
    passed = True
    for buyer in scenario.buyers:
        v = buyer.value
        bids = [v] + [f * v for f in _DEVIATIONS]
        utilities = expected_utilities_rb(scenario, buyer.buyer_id, bids, n_runs, seed)
        truthful = utilities[v]
        for f in _DEVIATIONS:
            diff = truthful - utilities[f * v]
            mean = float(diff.mean())
            half = _Z95_ONE_SIDED * float(diff.std(ddof=1)) / np.sqrt(len(diff))
            ok = mean >= -half
            passed = passed and ok
            lines.append(
                f"  {'ok ' if ok else 'BAD'} buyer {buyer.buyer_id}: "
                f"E[u(v) - u({f:g}v)] = {mean:.3f} (one-sided 95% half-width {half:.3f})"
            )
    return SuiteReport("truthfulness", passed, lines)


# -- balance -----------------------------------------------------------------


def _random_ledger(
    rng: np.random.Generator, seller_id: str, reserve: float, mu: float = 0.2
) -> SellerLedger:
    rows = []
    for j in range(int(rng.integers(0, 6))):
        bid = reserve + float(rng.uniform(0, 9))
        record = resample_bid(f"{seller_id}-b{j}", bid, reserve, mu, rng)
        paid = bks_settle(record, float(rng.uniform(0, 400)))
        rows.append(
            LedgerRow(record.buyer_id, paid.bytes, bid, record.perturbed_bid, paid.rebate)
        )
    return SellerLedger(seller_id, reserve, rows)


def balance_suite(seed: int = 0, n_pools: int = 500) -> SuiteReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_uncapped_residual = 0.0
    capped = 0
    for _ in range(n_pools):
        reserve = float(rng.choice([0.0, 1.0, 2.0]))
        n = int(rng.integers(2, 16))
        pool = [_random_ledger(rng, f"s{i}", reserve) for i in range(n)]
        out = settle_pool(pool, rng)
        buyer_total = sum(led.buyer_payments() for led in pool)
        transfer_total = sum(out.transfers.values())
        scale = max(1.0, abs(buyer_total), abs(transfer_total))
        worst = max(
            worst, abs(buyer_total - transfer_total - out.center_residual) / scale
        )
        if out.raw_tax1 <= 1 and out.raw_tax2 <= 1:
            worst_uncapped_residual = max(
                worst_uncapped_residual, abs(out.center_residual) / scale
            )
        else:
            capped += 1
    passed = worst < 1e-9 and worst_uncapped_residual < 1e-9
    lines = [
        f"  {n_pools} random pools: max relative imbalance {worst:.3e}",
        f"  residual when no cap binds: max relative {worst_uncapped_residual:.3e} "
        f"({capped} pools hit the cap)",
    ]
    return SuiteReport("balance", passed, lines)


# -- admissibility -----------------------------------------------------------


def pooling_seller_observations(
    n_sessions: int = 600, seed: int = 0
) -> List[Tuple[float, float]]:
    """(above-reserve credit, above-reserve payments) per simulated auction in
    the 200-similar-sellers pooling scenario."""
    scenario = load_config(builtin_config_path("pooling_similar")).scenario
    obs = []
    for s in run_seeds(seed, n_sessions):
        ledger = build_ledger("s", run_session(scenario, s))
        obs.append((ledger.credit_above_reserve(), ledger.payments_above_reserve()))
    return obs


def seller_period_sampler(
    observations: Sequence[Tuple[float, float]], sessions_per_seller: int
):
    """Sampler of one seller's accounting period: the sum of several
    independently drawn auction outcomes."""
    draw_one = bootstrap_sampler(observations)

    def sample(rng: np.random.Generator) -> Tuple[float, float]:
        credit = 0.0
        payments = 0.0
        for _ in range(sessions_per_seller):
            c, t = draw_one(rng)
            credit += c
            payments += t
        return credit, payments

    return sample


def admissibility_suite(
    seed: int = 0,
    n_sessions: int = 600,
    n_trials: int = 100,
    trend_trials: int = 2000,
    sessions_per_seller: int = 10,
) -> SuiteReport:
    rng = np.random.default_rng(seed)
    sampler = seller_period_sampler(
        pooling_seller_observations(n_sessions, seed), sessions_per_seller
    )
    lines = []

    p200 = tax_admissibility_estimate(sampler, m=100, n_trials=n_trials, rng=rng)
    lines.append(
        f"  200-seller pools: Pr(tax > 1) = {p200:.4f} over {n_trials} trials"
    )

    trend = [
        tax_admissibility_estimate(sampler, m=m, n_trials=trend_trials, rng=rng)
        for m in (5, 20, 80)
    ]
    lines.append(
        "  Pr(tax > 1) over pool halves {5, 20, 80}: "
        + ", ".join(f"{p:.4f}" for p in trend)
    )
    monotone = trend[0] >= trend[1] >= trend[2]
    passed = p200 == 0.0 and monotone
    if not monotone:
        lines.append("  BAD: exceedance probability is not weakly decreasing")
    return SuiteReport("admissibility", passed, lines)


SUITES = {
    "monotonicity": monotonicity_suite,
    "truthfulness": truthfulness_suite,
    "natural": natural_suite,
    "balance": balance_suite,
    "admissibility": admissibility_suite,
}


def run_suite(name: str, seed: int = 0, **kwargs) -> SuiteReport:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; one of {sorted(SUITES)}"
        ) from None
    return suite(seed=seed, **kwargs)
