"""Command-line front end.

Subcommands:

* ``simulate`` -- run the configured scenario (Monte Carlo over ``runs``) and
  write a long-format result table plus a per-epoch trace of the first run.
* ``sweep``    -- one Monte Carlo aggregate per sweep point per mechanism
  variant (the sweep comes from the config or from ``--variable/--values``),
  all from one ``run_monte_carlo`` call, as ``simulate``'s variants are.
* ``pool``     -- run every seller's session, settle the revenue pool, and
  write the settlement report (per-seller pooled vs. unpooled revenue, tax
  rates, balance check).
* ``verify``   -- run one of the property suites and report pass/fail.

Outputs are deterministic: the same config and seed reproduce byte-identical
files (numeric text fixed at 12 significant digits).  Exit codes: 0 success,
1 validation error, 2 property-suite failure, 3 runtime budget exceeded.
``--budget`` is a deadline that every command checks as it goes: ``simulate``
and ``sweep`` between batches of Monte Carlo runs, ``pool`` between batches
of sessions, and ``verify`` between the steps of its suite (batches of runs,
pools, batches of observed sessions and trials, scenarios or models).  At
the first check past it the command stops and exits 3, having written no
file and printed no verdict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from typing import List, NamedTuple, Optional

import numpy as np

from bandshare.config import ConfigError, ExperimentConfig, SWEEP_VARIABLES, load_config
from bandshare.engine import (Probe, ledger_rows, run_monte_carlo, run_probes, run_seeds,
                              run_session)
# Unused here: the bench's tracer patches it on this module (ROADMAP item 11),
# so it stays importable from it until the tracer moves into the package.
from bandshare.engine import build_ledger  # noqa: F401
from bandshare.pooling import PoolSettlement, SellerLedger, settle_pool
from bandshare.verify import SUITES, run_suite

OUT_DIR_ENV = "BANDSHARE_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2
EXIT_BUDGET = 3

RESULT_COLUMNS = [
    "experiment_id",
    "sweep_var",
    "sweep_value",
    "mechanism",
    "metric",
    "mean",
    "ci_low",
    "ci_high",
    "seed",
]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write(out_dir: str, name: str, content) -> None:
    """Write one output file and report it as ``wrote <path>``.

    A ``.csv`` name takes a list of text rows, header first, or the file's
    text as one string; a ``.json`` name takes any JSON value.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        if isinstance(content, str):
            fh.write(content)
        elif name.endswith(".csv"):
            csv.writer(fh).writerows(content)
        else:
            json.dump(content, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {path}")


def _write_rows(
    config: ExperimentConfig, rows: List[tuple], out_dir: str, name: str, fmt: str
) -> None:
    """The result table, one row per ``(sweep_var, sweep_value, mechanism,
    metric, mean, ci_low, ci_high)``; JSON rows are objects keyed by column."""
    table = [
        [config.experiment_id, *row[:4], *map(_fmt, row[4:]), str(config.seed)]
        for row in rows
    ]
    if fmt == "csv":
        _write(out_dir, f"{name}.csv", [RESULT_COLUMNS] + table)
    else:
        _write(out_dir, f"{name}.json", [dict(zip(RESULT_COLUMNS, row)) for row in table])


def _stat_rows(mechanism: str, sweep_var: str, sweep_value: str, stats) -> List[tuple]:
    metrics = [("welfare", stats.welfare), ("seller_revenue", stats.seller_revenue)]
    for prefix, per_buyer in (
        ("bytes", stats.bytes), ("payment", stats.payments), ("utility", stats.utilities)
    ):
        metrics += [(f"{prefix}:{b}", per_buyer[b]) for b in sorted(per_buyer)]
    return [
        (sweep_var, sweep_value, mechanism, metric, ci.mean, ci.ci_low, ci.ci_high)
        for metric, ci in metrics
    ]


def _load(args) -> ExperimentConfig:
    """The config file with the command-line overrides, validated together."""
    overrides = {"seed": args.seed, "runs": getattr(args, "runs", None)}
    variable, values = getattr(args, "variable", None), getattr(args, "values", None)
    if (variable is None) != (values is None):
        raise ConfigError("--variable and --values must be given together")
    if variable is not None:
        try:
            grid = [float(v) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"could not parse --values {values!r}") from None
        overrides["sweep"] = {"variable": variable, "values": grid}
    return load_config(args.config, {k: v for k, v in overrides.items() if v is not None})


def cmd_simulate(args) -> int:
    config = _load(args)
    variants = config.variants
    scenarios = [v.scenario for v in variants]
    grid = run_monte_carlo(scenarios, config.runs, config.seed, args.jobs, args.deadline)
    rows = [r for v, stats in zip(variants, grid) for r in _stat_rows(v.name, "none", "", stats)]
    _write_rows(config, rows, args.out_dir, f"{config.experiment_id}_results", args.format)

    # Per-epoch trace of the first run under the first variant.
    outcome = run_session(variants[0].scenario, run_seeds(config.seed, 1)[0])
    _write(args.out_dir, f"{config.experiment_id}_trace.csv",
           _trace_csv(outcome.buyer_ids, outcome.trace))
    return EXIT_OK


def _trace_csv(buyer_ids: List[str], trace: np.ndarray) -> str:
    """The trace CSV as ``csv.writer`` writes it: the header, then each epoch from
    1 and its values in ``_fmt``'s text, which ``'%.12g' % v`` equals for any float."""
    head = io.StringIO()
    csv.writer(head).writerow(["epoch"] + [f"consumed:{b}" for b in buyer_ids])
    line = "%d" + ",%.12g" * len(buyer_ids) + "\r\n"
    return head.getvalue() + "".join([line % (t, *row) for t, row in enumerate(trace.tolist(), 1)])


def cmd_sweep(args) -> int:
    config = _load(args)
    sweep = config.sweep
    if sweep is None:
        raise ConfigError(f"{args.config}: no sweep block and no --variable given")

    points = [(x, v) for x in sweep.values for v in config.variants]
    grid = [sweep.apply(v.scenario, x) for x, v in points]
    rows = []
    stats_grid = run_monte_carlo(grid, config.runs, config.seed, args.jobs, args.deadline)
    for (x, v), stats in zip(points, stats_grid):
        rows.extend(_stat_rows(v.name, sweep.variable, _fmt(x), stats))
    name = f"{config.experiment_id}_sweep_{sweep.variable}"
    _write_rows(config, rows, args.out_dir, name, args.format)
    return EXIT_OK


class PoolRun(NamedTuple):
    """One accounting period for a whole pool: per-seller results + settlement."""

    seller_rows: List[tuple]  # (seller_id, type_name, unpooled_revenue)
    ledgers: List[SellerLedger]
    settlement: PoolSettlement


def run_pool(config: ExperimentConfig, deadline: Optional[float] = None) -> PoolRun:
    """Run every seller's sessions of ``config.pool`` for one accounting period
    and settle.  Each pool type's sessions are the runs of one ``run_probes``
    call, seller by seller, whose seeds it draws from the generator that the
    pool split draws from next; a seller's unpooled revenue is what her
    sessions' buyers paid, added up in session order.  ``deadline``, a
    ``time.monotonic()`` reading, is checked after each batch of sessions;
    once it has passed, a ``TimeoutError`` is raised."""
    rng = np.random.default_rng(config.seed)
    ledgers = []
    seller_rows = []
    per_seller = config.pool.sessions_per_seller
    for ptype in config.pool.types:
        scenario = ptype.scenario
        samples = run_probes([Probe(scenario)], ptype.count * per_seller, rng,
                             deadline=deadline, metric="ledger")
        sessions = ledger_rows(scenario, samples[0])
        for k in range(ptype.count):
            seller_id = f"{ptype.name}-{k:03d}"
            rows, unpooled = [], 0.0
            for session in sessions[k * per_seller:(k + 1) * per_seller]:
                rows += session
                unpooled += SellerLedger(seller_id, scenario.reserve, session).buyer_payments()
            ledgers.append(SellerLedger(seller_id, scenario.reserve, rows))
            seller_rows.append((seller_id, ptype.name, unpooled))
    settlement = settle_pool(ledgers, rng)
    return PoolRun(seller_rows, ledgers, settlement)


def cmd_pool(args) -> int:
    config = _load(args)
    if config.pool is None:
        raise ConfigError(f"{args.config}: no pool block in config")

    seller_rows, ledgers, settlement = run_pool(config, args.deadline)
    eid = config.experiment_id
    _write(
        args.out_dir,
        f"{eid}_sellers.csv",
        [["seller", "type", "unpooled_revenue", "pooled_revenue"]]
        + [[sid, tname, _fmt(unpooled), _fmt(settlement.transfers[sid])]
           for sid, tname, unpooled in seller_rows],
    )

    unpooled = np.array([r[2] for r in seller_rows])
    pooled = np.array([settlement.transfers[r[0]] for r in seller_rows])
    buyer_total = sum(led.buyer_payments() for led in ledgers)
    imbalance = buyer_total - float(pooled.sum()) - settlement.center_residual
    metrics = [
        ("tax1", settlement.tax1),
        ("tax2", settlement.tax2),
        ("center_residual", settlement.center_residual),
        ("unpooled_revenue_var", unpooled.var()),
        ("pooled_revenue_var", pooled.var()),
        ("balance_error", imbalance),
    ]
    for ptype in config.pool.types:
        mask = [r[1] == ptype.name for r in seller_rows]
        metrics.append((f"mean_unpooled:{ptype.name}", unpooled[mask].mean()))
        metrics.append((f"mean_pooled:{ptype.name}", pooled[mask].mean()))
    rows = [("none", "", "pool", metric, v, v, v) for metric, v in metrics]
    _write_rows(config, rows, args.out_dir, f"{eid}_pool", args.format)

    _write(args.out_dir, f"{eid}_settlement.json", {
        "experiment": eid,
        "seed": config.seed,
        "split": [list(settlement.split[0]), list(settlement.split[1])],
        "tax1": _fmt(settlement.tax1),
        "tax2": _fmt(settlement.tax2),
        "raw_tax1": _fmt(settlement.raw_tax1),
        "raw_tax2": _fmt(settlement.raw_tax2),
        "center_residual": _fmt(settlement.center_residual),
    })
    print(
        f"taxes: {_fmt(settlement.tax1)}, {_fmt(settlement.tax2)}; "
        f"balance error: {_fmt(imbalance)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"need --seed >= 0, got {args.seed}")
    kwargs = {"deadline": args.deadline}
    if args.suite == "truthfulness":
        runs = 2000 if args.runs is None else args.runs
        if runs < 2:
            raise ConfigError(f"need --runs >= 2, got {runs}")
        kwargs["n_runs"] = runs
    elif args.runs is not None:
        raise ConfigError(f"--runs applies to the truthfulness suite only, not {args.suite!r}")
    report = run_suite(args.suite, seed=args.seed, **kwargs)
    print(report.summary())
    for line in report.lines:
        print(line)
    return EXIT_OK if report.passed else EXIT_PROPERTY


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as config errors (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.  It holds
    no environment value: ``main`` resolves ``--out-dir``'s default per call."""
    parser = _Parser(
        prog="bandshare",
        description="Flow-level simulator for truthful bandwidth prioritization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, monte_carlo=True):
        p.add_argument("--config", required=True, help="scenario config (YAML)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--out-dir",
            default=None,
            help=f"output directory (default: ${OUT_DIR_ENV} or ./out)",
        )
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if monte_carlo:
            p.add_argument("--jobs", type=int, default=1, help="parallel sessions")
            p.add_argument("--runs", type=int, default=None, help="override the run count")
        p.add_argument(
            "--budget", type=float, default=None, help="wall-clock budget in seconds"
        )

    p_sim = sub.add_parser("simulate", help="run the configured scenario")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep capacity, reserve, or mu")
    common(p_sweep)
    p_sweep.add_argument("--variable", choices=list(SWEEP_VARIABLES), default=None)
    p_sweep.add_argument("--values", default=None, help="comma-separated grid")
    p_sweep.set_defaults(func=cmd_sweep)

    p_pool = sub.add_parser("pool", help="run and settle a multi-seller pool")
    common(p_pool, monte_carlo=False)
    p_pool.set_defaults(func=cmd_pool)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--runs", type=int, default=None,
        help="Monte Carlo runs of the truthfulness suite (default 2000)",
    )
    p_verify.add_argument("--budget", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Reject flag values that parse but mean nothing, before any work starts."""
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    budget = args.budget
    if budget is not None and not (math.isfinite(budget) and budget > 0):
        raise ConfigError(f"--budget must be a positive number of seconds, got {budget}")


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        if "out_dir" in args and args.out_dir is None:
            args.out_dir = os.environ.get(OUT_DIR_ENV, "out")
        _check_flags(args)
        args.deadline = None if args.budget is None else started + args.budget
        code = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TimeoutError:  # the Monte Carlo stopped at the deadline, before any output
        code = EXIT_BUDGET
    elapsed = time.monotonic() - started
    if args.budget is not None and (elapsed > args.budget or code == EXIT_BUDGET):
        # The fewest significant digits at which the two differ; 17 unless equal.
        digits = (p for p in range(2, 18) if f"{elapsed:.{p}g}" != f"{args.budget:.{p}g}")
        p = next(digits, 17)
        print(f"runtime budget exceeded: {elapsed:.{p}g}s > {args.budget:.{p}g}s", file=sys.stderr)
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    sys.exit(main())
