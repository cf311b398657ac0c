"""Command-line front end.

Subcommands:

* ``simulate`` -- run the configured scenario (Monte Carlo over ``runs``) and
  write a long-format result table plus a per-epoch trace of the first run.
* ``sweep``    -- one Monte Carlo aggregate per sweep point per mechanism
  variant (the sweep comes from the config or from ``--variable/--values``).
* ``pool``     -- run every seller's session, settle the revenue pool, and
  write the settlement report (per-seller pooled vs. unpooled revenue, tax
  rates, balance check).
* ``verify``   -- run one of the property suites and report pass/fail.

Outputs are deterministic: the same config and seed reproduce byte-identical
files (numeric text fixed at 12 significant digits).  Exit codes: 0 success,
1 validation error, 2 property-suite failure, 3 runtime budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from bandshare.config import ConfigError, ExperimentConfig, SWEEP_VARIABLES, load_config
from bandshare.engine import build_ledger, run_monte_carlo, run_seeds, run_session
from bandshare.pooling import merge_ledgers, settle_pool
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


@dataclass
class ResultRow:
    experiment_id: str
    sweep_var: str
    sweep_value: str
    mechanism: str
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    seed: int

    def as_text(self) -> Dict[str, str]:
        return {
            "experiment_id": self.experiment_id,
            "sweep_var": self.sweep_var,
            "sweep_value": self.sweep_value,
            "mechanism": self.mechanism,
            "metric": self.metric,
            "mean": _fmt(self.mean),
            "ci_low": _fmt(self.ci_low),
            "ci_high": _fmt(self.ci_high),
            "seed": str(self.seed),
        }


def _write_rows(rows: List[ResultRow], out_dir: str, name: str, fmt: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row.as_text())
    else:
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump([row.as_text() for row in rows], fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


def _stat_rows(
    config: ExperimentConfig,
    mechanism: str,
    sweep_var: str,
    sweep_value: str,
    stats,
) -> List[ResultRow]:
    def row(metric: str, ci) -> ResultRow:
        return ResultRow(
            config.experiment_id,
            sweep_var,
            sweep_value,
            mechanism,
            metric,
            ci.mean,
            ci.ci_low,
            ci.ci_high,
            config.seed,
        )

    rows = [row("welfare", stats.welfare), row("seller_revenue", stats.seller_revenue)]
    for b in sorted(stats.bytes):
        rows.append(row(f"bytes:{b}", stats.bytes[b]))
    for b in sorted(stats.payments):
        rows.append(row(f"payment:{b}", stats.payments[b]))
    for b in sorted(stats.utilities):
        rows.append(row(f"utility:{b}", stats.utilities[b]))
    return rows


def _point_row(
    config: ExperimentConfig, mechanism: str, metric: str, value: float,
    sweep_var: str = "none", sweep_value: str = "",
) -> ResultRow:
    return ResultRow(
        config.experiment_id, sweep_var, sweep_value, mechanism, metric,
        value, value, value, config.seed,
    )


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
    rows: List[ResultRow] = []
    for variant in config.variants:
        scenario = config.scenario_for(variant)
        stats = run_monte_carlo(scenario, config.runs, config.seed, jobs=args.jobs)
        rows.extend(_stat_rows(config, variant.name, "none", "", stats))
    path = _write_rows(rows, args.out_dir, f"{config.experiment_id}_results", args.format)

    # Per-epoch trace of the first run under the first variant.
    scenario = config.scenario_for(config.variants[0])
    outcome = run_session(scenario, run_seeds(config.seed, 1)[0])
    trace_path = os.path.join(args.out_dir, f"{config.experiment_id}_trace.csv")
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch"] + [f"consumed:{b}" for b in outcome.buyer_ids])
        for t in range(scenario.horizon):
            writer.writerow([t + 1] + [_fmt(v) for v in outcome.trace[t]])

    print(f"wrote {path}")
    print(f"wrote {trace_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load(args)
    sweep = config.sweep
    if sweep is None:
        raise ConfigError(f"{args.config}: no sweep block and no --variable given")

    rows: List[ResultRow] = []
    for value in sweep.values:
        for variant in config.variants:
            scenario = sweep.apply(config.scenario_for(variant), value)
            stats = run_monte_carlo(scenario, config.runs, config.seed, jobs=args.jobs)
            rows.extend(
                _stat_rows(config, variant.name, sweep.variable, _fmt(value), stats)
            )
    path = _write_rows(
        rows, args.out_dir, f"{config.experiment_id}_sweep_{sweep.variable}", args.format
    )
    print(f"wrote {path}")
    return EXIT_OK


@dataclass
class PoolRun:
    """One accounting period for a whole pool: per-seller results + settlement."""

    seller_rows: List[tuple]  # (seller_id, type_name, unpooled_revenue)
    ledgers: list
    settlement: object


def run_pool(config: ExperimentConfig) -> PoolRun:
    """Run every seller's sessions for one accounting period and settle."""
    if config.pool is None:
        raise ConfigError("config has no pool block")
    rng = np.random.default_rng(config.seed)
    ledgers = []
    seller_rows = []
    for ptype in config.pool.types:
        for k in range(ptype.count):
            seller_id = f"{ptype.name}-{k:03d}"
            per_session = []
            unpooled = 0.0
            for _ in range(config.pool.sessions_per_seller):
                outcome = run_session(ptype.scenario, run_seeds(rng, 1)[0])
                per_session.append(build_ledger(seller_id, outcome))
                unpooled += outcome.seller_revenue
            ledgers.append(merge_ledgers(per_session))
            seller_rows.append((seller_id, ptype.name, unpooled))
    settlement = settle_pool(ledgers, rng)
    return PoolRun(seller_rows, ledgers, settlement)


def cmd_pool(args) -> int:
    config = _load(args)
    if config.pool is None:
        raise ConfigError(f"{args.config}: no pool block in config")

    pool_run = run_pool(config)
    seller_rows = pool_run.seller_rows
    ledgers = pool_run.ledgers
    settlement = pool_run.settlement

    os.makedirs(args.out_dir, exist_ok=True)
    sellers_path = os.path.join(args.out_dir, f"{config.experiment_id}_sellers.csv")
    with open(sellers_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seller", "type", "unpooled_revenue", "pooled_revenue"])
        for seller_id, tname, unpooled in seller_rows:
            writer.writerow(
                [seller_id, tname, _fmt(unpooled), _fmt(settlement.transfers[seller_id])]
            )

    unpooled = np.array([r[2] for r in seller_rows])
    pooled = np.array([settlement.transfers[r[0]] for r in seller_rows])
    rows = [
        _point_row(config, "pool", "tax1", settlement.tax1),
        _point_row(config, "pool", "tax2", settlement.tax2),
        _point_row(config, "pool", "center_residual", settlement.center_residual),
        _point_row(config, "pool", "unpooled_revenue_var", float(unpooled.var())),
        _point_row(config, "pool", "pooled_revenue_var", float(pooled.var())),
    ]
    buyer_total = sum(led.buyer_payments() for led in ledgers)
    imbalance = buyer_total - float(pooled.sum()) - settlement.center_residual
    rows.append(_point_row(config, "pool", "balance_error", imbalance))
    for ptype in config.pool.types:
        mask = [r[1] == ptype.name for r in seller_rows]
        rows.append(
            _point_row(
                config, "pool", f"mean_unpooled:{ptype.name}", float(unpooled[mask].mean())
            )
        )
        rows.append(
            _point_row(
                config, "pool", f"mean_pooled:{ptype.name}", float(pooled[mask].mean())
            )
        )
    path = _write_rows(rows, args.out_dir, f"{config.experiment_id}_pool", args.format)

    audit = {
        "experiment": config.experiment_id,
        "seed": config.seed,
        "split": [list(settlement.split[0]), list(settlement.split[1])],
        "tax1": _fmt(settlement.tax1),
        "tax2": _fmt(settlement.tax2),
        "raw_tax1": _fmt(settlement.raw_tax1),
        "raw_tax2": _fmt(settlement.raw_tax2),
        "center_residual": _fmt(settlement.center_residual),
    }
    audit_path = os.path.join(args.out_dir, f"{config.experiment_id}_settlement.json")
    with open(audit_path, "w") as fh:
        json.dump(audit, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {sellers_path}")
    print(f"wrote {path}")
    print(f"wrote {audit_path}")
    print(
        f"taxes: {_fmt(settlement.tax1)}, {_fmt(settlement.tax2)}; "
        f"balance error: {_fmt(imbalance)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"need --seed >= 0, got {args.seed}")
    kwargs = {}
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


def build_parser() -> argparse.ArgumentParser:
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
            default=os.environ.get(OUT_DIR_ENV, "out"),
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


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    budget = getattr(args, "budget", None)
    if budget is not None and time.monotonic() - started > budget:
        print(
            f"runtime budget exceeded: {time.monotonic() - started:.1f}s > {budget}s",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    sys.exit(main())
