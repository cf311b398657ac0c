"""Acceptance criteria.

One test per criterion, each printing a single ``[PASS]/[FAIL] criterion N``
line with the measured values (run ``pytest tests/test_acceptance.py -s -v``
to see every line).

Two assertions are expected to stay red, and a third may be; each failure
message carries the full analysis:

* criterion 2 -- the expected total payment in the resampling mechanism at
  mu = 0.2 is 3 (1 - mu) (2/3)^(1-mu) (0.8 + 0.1) ~= 1.56, not 2; the $2
  figure is the mu -> 0 limit.  No estimator can land in [1.9, 2.1].
* criterion 5 -- with the bursty flow-trace demand, the four mechanisms'
  welfare converges within 2% only near capacity ~95, far above mean demand
  (50); at capacity 55 the spread is ~12%.
* criterion 10 -- expected auction payments fall with capacity while
  first-price credits rise with it, so the expected strict four-type
  orderings of pooled and unpooled revenue disagree; the sample means of the
  c60-d70 and c40-d70 sellers are a near-tie, so the strict clause passes or
  fails with Monte Carlo noise.  The significant (population-level)
  separations are preserved.
"""

import time

import numpy as np

from bandshare.cli import run_pool
from bandshare.config import builtin_config_path, load_config
from bandshare.engine import run_monte_carlo, run_session
from bandshare.pooling import LedgerRow, SellerLedger, settle_pool
from bandshare.verify import (
    admissibility_suite,
    balance_suite,
    monotonicity_suite,
    truthfulness_suite,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def _config(name):
    return load_config(builtin_config_path(name))


def test_criterion_1_example1_exact():
    """VCG-per-epoch manipulation example, exact equality, runtime < 1 s."""
    started = time.perf_counter()
    scenario = _config("packet_contest_vcg").scenario
    truthful = run_session(scenario, seed=0)
    deviate = run_session(scenario, seed=0, bid_override={"b1": 1.9})
    elapsed = time.perf_counter() - started

    ok = (
        truthful.payments["b1"].net == 1200.0
        and truthful.bytes["b1"] == 600.0
        and deviate.payments["b1"].net == 0.0
        and deviate.bytes["b1"] == 599.0
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"truthful pays {truthful.payments['b1'].net} for {truthful.bytes['b1']:.0f} "
        f"packets; bid 1.9 pays {deviate.payments['b1'].net} for "
        f"{deviate.bytes['b1']:.0f} packets ({elapsed:.2f}s)",
    )
    assert truthful.payments["b1"].net == 1200.0
    assert truthful.bytes["b1"] == 600.0
    assert deviate.payments["b1"].net == 0.0
    assert deviate.bytes["b1"] == 599.0
    assert elapsed < 1.0


def test_criterion_2_example2_statistical():
    """Resampling-mechanism payment in the packet contest, 1e4 runs, < 30 s.

    Expected red: the true expectation at mu = 0.2 is ~1.56, not 2 +- 5%.
    """
    cfg = _config("packet_contest_resampling")
    scenario = cfg.scenario
    started = time.perf_counter()
    stats = run_monte_carlo([scenario], 10_000, seed=cfg.seed)[0]
    elapsed = time.perf_counter() - started
    measured = stats.payments["b1"].mean
    half_width = (stats.payments["b1"].ci_high - stats.payments["b1"].ci_low) / 2

    # Diagnostic reference: condition on buyer 1's resampling coin to remove
    # the 1/mu rebate variance (unbiased; both branches are real sessions).
    ref_seeds = np.random.default_rng(99).integers(0, 2**63 - 1, size=1500)
    rb = []
    for s in ref_seeds:
        kept = run_session(scenario, int(s), force_resample={"b1": False})
        res = run_session(scenario, int(s), force_resample={"b1": True})
        rb.append(0.8 * kept.payments["b1"].net + 0.2 * res.payments["b1"].net)
    rb_mean = float(np.mean(rb))
    rb_half = 1.96 * float(np.std(rb, ddof=1)) / np.sqrt(len(rb))
    # Closed form: (1-mu) * b * Pr(perturbed below rival) with the rival also
    # perturbed 20% of the time.
    analytic = 0.8 * 3.0 * (2.0 / 3.0) ** 0.8 * 0.9

    ok = 1.9 <= measured <= 2.1 and elapsed < 30.0
    report(
        2,
        ok,
        f"mean total payment over 1e4 runs = {measured:.3f} "
        f"(CI +-{half_width:.1f}); conditioned estimate "
        f"{rb_mean:.4f} +-{rb_half:.4f}; analytic {analytic:.4f}; "
        f"target [1.9, 2.1] ({elapsed:.1f}s)",
    )
    assert elapsed < 30.0
    assert 1.9 <= measured <= 2.1, (
        f"measured mean payment {measured:.3f} is not within 5% of 2. "
        f"The target itself is unattainable, not the implementation: the "
        f"mechanism's expected total payment here is analytically "
        f"3(1-mu)(2/3)^(1-mu)(0.8 + 0.2 E[gamma]) = {analytic:.4f} at mu=0.2 "
        f"(the precise conditioned estimate agrees: {rb_mean:.4f} +- {rb_half:.4f}), "
        f"and equals 2 only in the mu -> 0 limit. The plain 1e4-run mean also "
        f"carries +-{half_width:.0f} of rebate noise, so "
        f"the +-5% band is unresolvable at this sample size regardless."
    )


def test_criterion_3_monotonicity_sweep():
    """6 natural models x 20 scenarios x 50 bid pairs, zero violations, < 60 s."""
    started = time.perf_counter()
    rep = monotonicity_suite(seed=2025, n_scenarios=20, n_pairs=50)
    elapsed = time.perf_counter() - started
    ok = rep.passed and elapsed < 60.0
    report(3, ok, f"{rep.lines[-1].strip()} ({elapsed:.1f}s)")
    assert elapsed < 60.0
    assert rep.passed, "\n".join(rep.lines)


def test_criterion_4_truthfulness_in_expectation():
    """Truthful bid beats each deviation within one-sided 95% CI, 1e4 runs, < 5 min."""
    started = time.perf_counter()
    rep = truthfulness_suite(seed=11, n_runs=10_000)
    elapsed = time.perf_counter() - started
    ok = rep.passed and elapsed < 300.0
    bad = [l for l in rep.lines if "BAD" in l]
    report(
        4,
        ok,
        f"{len(rep.lines)} buyer/deviation checks, {len(bad)} below the CI bound "
        f"({elapsed:.1f}s)",
    )
    assert elapsed < 300.0
    assert rep.passed, "\n".join(rep.lines)


def test_criterion_5_welfare_ordering():
    """VMM >= BKS >= FQ >= FIFO at each swept capacity; 2% convergence clause.

    Expected red on the convergence clause: the trace demand is bursty, so the
    mechanisms only converge within 2% near capacity ~95, not at 55.
    """
    cfg = _config("welfare_capacity")
    points = [(cap, variant) for cap in (10.0, 25.0, 40.0, 55.0) for variant in cfg.variants]
    grid = [cfg.sweep.apply(cfg.scenario_for(variant), cap) for cap, variant in points]
    means = {
        (cap, variant.name): stats.welfare.mean
        for (cap, variant), stats in zip(points, run_monte_carlo(grid, 1000, cfg.seed))
    }

    ordering_ok = all(
        means[(c, "vmm")] >= means[(c, "bks")] >= means[(c, "fq")] >= means[(c, "fifo")]
        for c in (10.0, 25.0, 40.0, 55.0)
    )
    vals55 = [means[(55.0, v.name)] for v in cfg.variants]
    spread55 = (max(vals55) - min(vals55)) / max(vals55)
    convergence_ok = spread55 <= 0.02

    report(
        5,
        ordering_ok and convergence_ok,
        f"ordering holds at all capacities: {ordering_ok}; spread at c=55 "
        f"= {spread55:.3f} vs required <= 0.02",
    )
    assert ordering_ok, {k: round(v) for k, v in means.items()}
    assert convergence_ok, (
        f"welfare spread at capacity 55 is {spread55:.3f}, not within 2%. "
        f"The target itself is unattainable: with this stochastic demand "
        f"(Poisson flows, lognormal durations, Poisson per-epoch demand) the "
        f"aggregate is so bursty that proportional routing keeps losing "
        f"welfare in overflow epochs well past mean demand; the four "
        f"mechanisms converge within 2% only near capacity ~95. The "
        f"qualitative shape (monotone rise and shrinking spread: "
        + ", ".join(
            f"c={c:g}: {100*(max(means[(c, v.name)] for v in cfg.variants) - min(means[(c, v.name)] for v in cfg.variants)) / max(means[(c, v.name)] for v in cfg.variants):.0f}%"
            for c in (10.0, 25.0, 40.0, 55.0)
        )
        + ") holds."
    )


def test_criterion_6_reserve_sweep_improves_fq_fifo():
    """Some reserve in (1, 4] strictly beats r=0 for both FQ and FIFO."""
    cfg = _config("reserve_sweep")
    variants = {v.name: v for v in cfg.variants}
    points = [(name, r) for name in ("fq", "fifo") for r in cfg.sweep.values]
    grid = [cfg.sweep.apply(cfg.scenario_for(variants[name]), r) for name, r in points]
    welfare = {
        point: stats.welfare.mean
        for point, stats in zip(points, run_monte_carlo(grid, 1000, cfg.seed))
    }
    improved = {}
    for name in ("fq", "fifo"):
        base = welfare[(name, 0.0)]
        best_r, best = max(
            ((r, welfare[(name, r)]) for r in cfg.sweep.values if 1 < r <= 4),
            key=lambda kv: kv[1],
        )
        improved[name] = (best > base, base, best_r, best)

    ok = all(v[0] for v in improved.values())
    report(
        6,
        ok,
        "; ".join(
            f"{name}: r=0 -> {v[1]:.0f}, r={v[2]:g} -> {v[3]:.0f}"
            for name, v in improved.items()
        ),
    )
    for name, (strictly_better, base, best_r, best) in improved.items():
        assert strictly_better, f"{name}: no r in (1,4] beat r=0 ({base:.0f})"


def test_criterion_7_impatient_capacity_band():
    """Somewhere in the capacity sweep, FQ beats SPQ and the hybrid beats both."""
    cfg = _config("impatient_deviation")
    points = [(cap, variant) for cap in cfg.sweep.values for variant in cfg.variants]
    grid = [cfg.sweep.apply(cfg.scenario_for(variant), cap) for cap, variant in points]
    means = {
        (cap, variant.name): stats.welfare.mean
        for (cap, variant), stats in zip(points, run_monte_carlo(grid, cfg.runs, cfg.seed))
    }
    band = []
    for cap in cfg.sweep.values:
        welfare = {variant.name: means[(cap, variant.name)] for variant in cfg.variants}
        if welfare["fq"] > welfare["spq"] and welfare["hybrid"] >= max(
            welfare["fq"], welfare["spq"]
        ):
            band.append(cap)
    ok = len(band) > 0
    report(
        7,
        ok,
        f"capacities where FQ > SPQ and hybrid >= both: {band or 'none'}",
    )
    assert ok


def test_criterion_8_budget_balance():
    """500 random settlements balance < 1e-9 relative; no-cap pools balance exactly."""
    rep = balance_suite(seed=8, n_pools=500)

    # Caps disabled by construction: no perturbed bids anywhere, integer
    # quantities, so every aggregate is float-exact and the residual is 0.0.
    rng = np.random.default_rng(1)
    exact = True
    for _ in range(50):
        reserve = float(rng.choice([0.0, 1.0]))
        pool = []
        for i in range(int(rng.integers(2, 9))):
            rows = []
            for j in range(int(rng.integers(0, 5))):
                bid = reserve + float(rng.integers(1, 9))
                rows.append(
                    LedgerRow(f"s{i}-b{j}", float(rng.integers(0, 500)), bid, bid, 0.0)
                )
            pool.append(SellerLedger(f"s{i}", reserve, rows))
        out = settle_pool(pool, rng)
        buyer_total = sum(led.buyer_payments() for led in pool)
        if buyer_total - sum(out.transfers.values()) != 0.0 or out.center_residual != 0.0:
            exact = False

    ok = rep.passed and exact
    report(8, ok, f"{rep.lines[0].strip()}; exact-zero residual with caps off: {exact}")
    assert rep.passed, "\n".join(rep.lines)
    assert exact


def test_criterion_9_tax_admissibility():
    """200-seller pools never breach tax 1 over 100 trials; exceedance shrinks
    with pool size over {5, 20, 80}."""
    started = time.perf_counter()
    rep = admissibility_suite(seed=9, n_sessions=600, n_trials=100, trend_trials=2000)
    elapsed = time.perf_counter() - started
    report(9, rep.passed, "; ".join(l.strip() for l in rep.lines) + f" ({elapsed:.1f}s)")
    assert rep.passed, "\n".join(rep.lines)


def test_criterion_10_pooling_variance_and_ordering():
    """Pooling cuts seller-revenue variance; the strict four-type ordering
    clause may be red (see module docstring)."""
    similar = run_pool(_config("pooling_similar"))
    unpooled6 = np.array([r[2] for r in similar.seller_rows])
    pooled6 = np.array([similar.settlement.transfers[r[0]] for r in similar.seller_rows])
    ratio = pooled6.var() / unpooled6.var()
    variance_ok = ratio < 0.25

    varied = run_pool(_config("pooling_varied"))
    types = sorted({r[1] for r in varied.seller_rows})
    up = {
        t: np.array([r[2] for r in varied.seller_rows if r[1] == t]) for t in types
    }
    po = {
        t: np.array(
            [varied.settlement.transfers[r[0]] for r in varied.seller_rows if r[1] == t]
        )
        for t in types
    }
    up_order = sorted(types, key=lambda t: up[t].mean())
    po_order = sorted(types, key=lambda t: po[t].mean())
    strict_match = up_order == po_order

    # Significance-aware view: among type pairs whose unpooled means are
    # statistically separated, none invert under pooling.
    def separated(a, b):
        se = 1.96 * (a.std(ddof=1) / np.sqrt(a.size) + b.std(ddof=1) / np.sqrt(b.size))
        return abs(a.mean() - b.mean()) > se

    preserved = all(
        (po[t1].mean() > po[t2].mean()) == (up[t1].mean() > up[t2].mean())
        for i, t1 in enumerate(types)
        for t2 in types[i + 1 :]
        if separated(up[t1], up[t2])
    )

    ok = variance_ok and strict_match
    report(
        10,
        ok,
        f"pooled/unpooled variance ratio = {ratio:.4f} (< 0.25: {variance_ok}); "
        f"strict type-order match: {strict_match} "
        f"(unpooled {up_order} vs pooled {po_order}); significantly separated "
        f"pairs preserved: {preserved}",
    )
    assert variance_ok, f"variance ratio {ratio:.4f}"
    assert preserved, "a significantly separated unpooled pair inverted under pooling"
    assert strict_match, (
        f"mean unpooled ordering {up_order} != pooled ordering {po_order}. "
        f"The strict target is unattainable for any buyer population: expected "
        f"auction payments (unpooled revenue) strictly fall as capacity rises "
        f"40 -> 60 while first-price credits (pooled revenue) strictly rise, "
        f"so the two expected orderings disagree on same-population capacity "
        f"pairs. The separations the experiment actually resolves (the buyer "
        f"population classes) are preserved: {preserved}."
    )
