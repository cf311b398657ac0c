"""Property-verification suites.

Each suite checks one of the design's load-bearing properties at desk scale
and reports human-readable evidence:

* natural       -- the built-in demand models satisfy the naturalness
                   inequality on randomized grids; the deliberately unnatural
                   fixture fails it with a witness.
* monotonicity  -- under strict-priority routing with greedy buyers and
                   natural demand, total bytes weakly increase in own bid for
                   every fixed world (one run of the engine's Monte Carlo) and
                   competitor profile.
* truthfulness  -- under bid resampling, the truthful bid maximizes expected
                   utility against the probed deviations, per buyer, within
                   Monte Carlo confidence.
* balance       -- pool settlements balance exactly: the center residual is
                   what the taxes collect minus the halves' deficits, and
                   zero whenever no tax cap binds.
* admissibility -- pooled tax rates stay below 1 for large pools and the
                   exceedance probability shrinks with pool size.

The truthfulness estimators condition on the probed buyer's resampling coin
(evaluating both branches and weighting by mu), which removes the rebate's
1/mu variance without biasing the mean.  Each (buyer, bid, coin) is one
probe of the engine's ``run_probes``, which plays all of them on each run's
world, side by side on its Monte Carlo batch, and returns every run's
utilities; the suite weights the two coin branches of each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from bandshare.config import builtin_config_path, check_runs, load_config
from bandshare.demand import DemandRealization, DemandSpec, check_natural
from bandshare.engine import (
    BuyerSpec,
    Probe,
    Scenario,
    deadline_passed,
    ledger_rows,
    run_probes,
)
# Unused here: the bench's tracer patches both names on this module (ROADMAP
# item 11), so they stay importable from it until the tracer moves into the package.
from bandshare.engine import build_ledger, run_session  # noqa: F401
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


def _check(deadline: Optional[float], done: str) -> None:
    """A suite's deadline check: a ``TimeoutError`` once ``deadline`` has passed."""
    if deadline_passed(deadline):
        raise TimeoutError(f"deadline passed after {done}")


def natural_suite(seed: int = 0, deadline: Optional[float] = None) -> SuiteReport:
    rng = np.random.default_rng(seed)
    lines = []
    passed = True
    for kind in MONOTONE_MODEL_KINDS:
        # Every epoch that _natural_on_random_triples queries.
        d = _random_probe_spec(kind, rng, range(1, 200)).realize()
        witness = _natural_on_random_triples(d, rng)
        if witness is None:
            lines.append(f"  {d.model_id}: natural on 1000 random triples")
        else:
            passed = False
            lines.append(f"  {d.model_id}: VIOLATION at (t, x, x', c) = {witness}")
        _check(deadline, f"model {d.model_id}")

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


def _random_probe_spec(kind: str, rng: np.random.Generator, epochs: range) -> DemandSpec:
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
    seed: int = 0, n_scenarios: int = 20, n_pairs: int = 50, deadline: Optional[float] = None
) -> SuiteReport:
    """Bid-monotonicity of total bytes under SPQ + greedy, per fixed world:
    a scenario's bid pairs are probes of one ``run_probes`` run from its
    printed seed.  ``deadline`` is checked after each scenario."""
    if n_scenarios < 1 or n_pairs < 1:
        raise ValueError(f"need n_scenarios and n_pairs >= 1, got {n_scenarios} and {n_pairs}")
    rng = np.random.default_rng(seed)
    lines = []
    violations = 0
    checked = 0
    for kind in MONOTONE_MODEL_KINDS:
        for _ in range(n_scenarios):
            probe = _random_probe_spec(kind, rng, range(1, 41))  # the 40-epoch horizon
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
            pairs = [sorted(rng.uniform(0.2, 12, size=2)) for _ in range(n_pairs)]
            probes = [Probe(scenario, {"probe": b}) for pair in pairs for b in pair]
            x = run_probes(probes, 1, world_seed, metric="bytes")[:, 0, 0].tolist()
            for (lo, hi), x_lo, x_hi in zip(pairs, x[::2], x[1::2]):
                checked += 1
                if x_hi < x_lo - 1e-9:
                    violations += 1
                    lines.append(
                        f"  VIOLATION {kind}: x({hi:.4f})={x_hi:.6f} < "
                        f"x({lo:.4f})={x_lo:.6f} (seed {world_seed})"
                    )
            _check(deadline, f"{checked} bid pairs")
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
    return _conditioned_utilities(scenario, {buyer_id: bids}, n_runs, seed)[buyer_id]


def _conditioned_utilities(
    scenario: Scenario,
    probes: Mapping[str, Sequence[float]],
    n_runs: int,
    seed: int,
    deadline: Optional[float] = None,
) -> Dict[str, Dict[float, np.ndarray]]:
    """``expected_utilities_rb`` of each probed buyer: every (buyer, bid, coin)
    is one probe of ``run_probes``, which plays them all on each run's world."""
    if scenario.mechanism != "bks":
        raise ValueError("the conditioned estimator only applies to bid resampling")
    cases = [(buyer, float(b)) for buyer, bids in probes.items() for b in bids]
    if not cases or n_runs == 0:  # no probe or no run: empty results
        return {buyer: {float(b): np.empty(0) for b in bids} for buyer, bids in probes.items()}
    played = [Probe(scenario, {buyer: b}, {buyer: coin}) for buyer, b in cases
              for coin in (False, True)]
    utilities = run_probes(played, n_runs, seed, deadline=deadline, metric="utilities")
    ids = [b.buyer_id for b in scenario.buyers]
    out: Dict[str, Dict[float, np.ndarray]] = {buyer: {} for buyer in probes}
    mu = scenario.mu
    for k, (buyer, b) in enumerate(cases):
        u_false, u_true = utilities[2 * k : 2 * k + 2, ids.index(buyer)]
        out[buyer][b] = (1.0 - mu) * u_false + mu * u_true
    return out


def welfare_capacity_bks_scenario() -> Scenario:
    cfg = load_config(builtin_config_path("welfare_capacity"))
    return next(v for v in cfg.variants if v.name == "bks").scenario


def truthfulness_suite(
    seed: int = 0, n_runs: int = 10_000, deadline: Optional[float] = None
) -> SuiteReport:
    """Truthful bid beats each probed deviation in expectation, per buyer.
    ``deadline`` bounds its Monte Carlo as it bounds ``run_monte_carlo``'s."""
    if n_runs < 2:
        raise ValueError(f"need n_runs >= 2 for a confidence interval, got {n_runs}")
    scenario = welfare_capacity_bks_scenario()
    lines = []
    passed = True
    probes = {b.buyer_id: [b.value] + [f * b.value for f in _DEVIATIONS] for b in scenario.buyers}
    # A run keeps 8 bytes of utility by buyer for each of the (buyer, bid, coin) probes.
    check_runs(n_runs, 8 * 2 * sum(map(len, probes.values())) * len(scenario.buyers), "--runs")
    probed = _conditioned_utilities(scenario, probes, n_runs, seed, deadline)
    for buyer in scenario.buyers:
        v, utilities = buyer.value, probed[buyer.buyer_id]
        for f in _DEVIATIONS:
            diff = utilities[v] - utilities[f * v]
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
    # Each row's bid above the reserve, coin, gamma and bytes, drawn in that
    # order: uniform(0, h) is h times the next double, as these products are.
    draws = rng.random((int(rng.integers(0, 6)), 4)) * (9.0, 1.0, 1.0, 400.0)
    rows = []
    for j, (above, coin, gamma, x) in enumerate(draws.tolist()):
        bid = reserve + above
        key, resampled = resample_bid(bid, reserve, mu, coin, gamma)
        rebate = bks_settle(x, bid, reserve, mu, resampled)[1]
        rows.append(LedgerRow(f"{seller_id}-b{j}", x, bid, key, rebate))
    return SellerLedger(seller_id, reserve, rows)


def balance_suite(
    seed: int = 0, n_pools: int = 500, deadline: Optional[float] = None
) -> SuiteReport:
    """Random pool settlements against ``center_residual = tax1 C1 + tax2 C2 -
    D1 - D2``, with half h's credit C_h and deficit D_h summed here from its
    ledgers, and with a zero residual when no tax cap binds.  ``deadline``
    is checked after each pool."""
    if n_pools < 1:
        raise ValueError(f"need n_pools >= 1, got {n_pools}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_uncapped_residual = 0.0
    capped = 0
    for done in range(1, n_pools + 1):
        reserve = float(rng.choice([0.0, 1.0, 2.0]))
        n = int(rng.integers(2, 16))
        pool = [_random_ledger(rng, f"s{i}", reserve) for i in range(n)]
        out = settle_pool(pool, rng)
        buyer_total = sum(led.buyer_payments() for led in pool)
        scale = max(1.0, abs(buyer_total), abs(sum(out.transfers.values())))
        ledgers = {led.seller_id: led for led in pool}
        halves = [[ledgers[s] for s in half] for half in out.split]
        credits = [sum(led.credit_above_reserve() for led in half) for half in halves]
        deficits = [c - sum(led.payments_above_reserve() for led in half)
                    for c, half in zip(credits, halves)]
        taxed = out.tax1 * credits[0] + out.tax2 * credits[1]
        worst = max(worst, abs(taxed - deficits[0] - deficits[1] - out.center_residual) / scale)
        if out.raw_tax1 <= 1 and out.raw_tax2 <= 1:
            worst_uncapped_residual = max(
                worst_uncapped_residual, abs(out.center_residual) / scale
            )
        else:
            capped += 1
        _check(deadline, f"{done} of {n_pools} pools")
    passed = worst < 1e-9 and worst_uncapped_residual < 1e-9
    lines = [
        f"  {n_pools} random pools: max relative settlement-identity error {worst:.3e}",
        f"  residual when no cap binds: max relative {worst_uncapped_residual:.3e} "
        f"({capped} pools hit the cap)",
    ]
    return SuiteReport("balance", passed, lines)


# -- admissibility -----------------------------------------------------------


def pooling_seller_observations(
    scenario: Scenario, n_sessions: int = 600, seed: int = 0, deadline: Optional[float] = None
) -> List[Tuple[float, float]]:
    """(above-reserve credit, above-reserve payments) per simulated auction of
    one seller in ``scenario``, from the ledger of each of the ``n_sessions``
    runs of one ``run_probes`` call; ``deadline`` is checked after each of
    its batches."""
    samples = run_probes([Probe(scenario)], n_sessions, seed, deadline=deadline, metric="ledger")
    ledgers = (SellerLedger("s", scenario.reserve, rows)
               for rows in ledger_rows(scenario, samples[0]))
    return [(led.credit_above_reserve(), led.payments_above_reserve()) for led in ledgers]


def admissibility_suite(
    seed: int = 0,
    n_sessions: int = 600,
    n_trials: int = 100,
    trend_trials: int = 2000,
    deadline: Optional[float] = None,
) -> SuiteReport:
    """Pooled tax rates stay below 1 in large pools, and exceed it less often
    as pools grow; ``deadline`` is checked after each batch of observed
    sessions and each trial."""
    config = load_config(builtin_config_path("pooling_similar"))
    sellers, sessions = sum(t.count for t in config.pool.types), config.pool.sessions_per_seller
    rng = np.random.default_rng(seed)
    observed = pooling_seller_observations(config.scenario, n_sessions, seed, deadline)
    sampler = bootstrap_sampler(observed)
    lines = []

    p_pool = tax_admissibility_estimate(sampler, sellers // 2, n_trials, rng, sessions, deadline)
    lines.append(
        f"  {sellers}-seller pools: Pr(tax > 1) = {p_pool:.4f} over {n_trials} trials"
    )

    trend = [
        tax_admissibility_estimate(sampler, m, trend_trials, rng, sessions, deadline)
        for m in (5, 20, 80)
    ]
    lines.append(
        "  Pr(tax > 1) over pool halves {5, 20, 80}: "
        + ", ".join(f"{p:.4f}" for p in trend)
    )
    monotone = trend[0] >= trend[1] >= trend[2]
    passed = p_pool == 0.0 and monotone
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
