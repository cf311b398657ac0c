"""The benchmark's four workloads and the checks on their outputs.

Every workload is a fixed experiment repeated in blocks.  A block is driven
through the package's public entry points (``bandshare.cli.main``,
``bandshare.engine.run_session``, ``bandshare.verify.run_suite``) with a
seed derived from the workload seed and the block index, and it returns its
count of unit operations.  Checks on a block's outputs run outside the timed
region.  Monte Carlo means are pooled over all blocks of a run and compared
with reference means recorded at the seed commit (``reference.json``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re

import numpy as np

import bandshare.cli
import bandshare.config
import bandshare.engine
import bandshare.verify

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

Z95 = 1.959963984540054  # two-sided 95% quantile, as in the CLI's CIs
Z95_ONE_SIDED = 1.6448536269514722  # as in the truthfulness suite
# Pooled Monte Carlo checks fail only beyond this many standard errors, so a
# correct program trips one in roughly two million checks.
K_SIGMA = 5.0


def block_seed(seed: int, block: int) -> int:
    """The CLI seed of one block, derived from the workload seed."""
    return int(np.random.SeedSequence([seed % 2**64, block]).generate_state(1)[0])


def config_path(name: str) -> str:
    return bandshare.config.builtin_config_path(name)


def run_cli(argv):
    """Run the CLI in-process; return (exit code, stdout, files it wrote)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bandshare.cli.main([str(a) for a in argv])
    text = buf.getvalue()
    written = [line[len("wrote "):] for line in text.splitlines() if line.startswith("wrote ")]
    return code, text, written


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Checks:
    """Named pass/fail results; an exception inside ``guard`` is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    @contextlib.contextmanager
    def guard(self, name: str):
        try:
            yield
        except Exception as exc:  # a crash in a block counts, the run goes on
            self.add(f"{name}: {type(exc).__name__}: {exc}", False)


class MeanPool:
    """Per-key Monte Carlo means from equal-size blocks, pooled over blocks."""

    def __init__(self) -> None:
        self.blocks = {}

    def add(self, key: str, mean: float, se: float) -> None:
        self.blocks.setdefault(key, []).append((mean, se))

    def pooled(self, key: str):
        parts = self.blocks[key]
        mean = sum(m for m, _ in parts) / len(parts)
        se = math.sqrt(sum(s * s for _, s in parts)) / len(parts)
        return mean, se

    def check_against(self, reference: dict, checks: Checks, label: str) -> None:
        """Each pooled mean lies within K_SIGMA combined standard errors of
        its reference mean; every reference key must have been produced."""
        for key, (ref_mean, ref_se) in sorted(reference.items()):
            if key not in self.blocks:
                checks.add(f"{label} {key}: no output", False)
                continue
            mean, se = self.pooled(key)
            tol = K_SIGMA * math.hypot(se, ref_se) + 1e-9 * max(1.0, abs(ref_mean))
            checks.add(
                f"{label} {key}: mean {mean:.6g} vs reference {ref_mean:.6g} (tol {tol:.3g})",
                abs(mean - ref_mean) <= tol,
            )


def add_stat_rows(pool: MeanPool, rows, prefix: str = "") -> None:
    for row in rows:
        key = f"{prefix}{row['mechanism']}|{row['sweep_value']}|{row['metric']}"
        mean = float(row["mean"])
        pool.add(key, mean, (float(row["ci_high"]) - mean) / Z95)


def check_trace_capacity(path: str, capacity: float, checks: Checks, label: str) -> None:
    """Per-epoch consumed KB summed over buyers never exceeds capacity."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    worst = max(sum(float(v) for v in row[1:]) for row in rows)
    checks.add(f"{label}: per-epoch consumed {worst} <= capacity {capacity}",
               worst <= capacity * (1 + 1e-12))


class Workload:
    """One workload: ``block`` is timed, everything else is not."""

    name = ""
    trace_blocks = 1  # fixed block count of a traced run

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.checks = Checks()
        self.pool = MeanPool()
        self.out_bytes = 0  # stdout and file bytes the CLI produced
        with open(REFERENCE_PATH) as fh:
            self.reference = json.load(fh).get(self.name, {})

    def cli(self, argv):
        code, text, written = run_cli(argv)
        self.out_bytes += len(text.encode()) + sum(os.path.getsize(p) for p in written)
        return code, text, written

    def before(self) -> None:
        """Untimed work done once before the first block."""

    def block(self, index: int) -> int:
        raise NotImplementedError

    def after(self) -> None:
        """Checks on outputs pooled over every block of the run."""
        self.pool.check_against(self.reference, self.checks, self.name)


class SweepTrace(Workload):
    """``bandshare sweep`` on welfare_capacity: 4 variants x 4 capacities."""

    name = "sweep_trace"
    runs = 24
    trace_blocks = 4

    def _sweep(self, seed, runs, jobs, out):
        return self.cli([
            "sweep", "--config", config_path("welfare_capacity"), "--seed", seed,
            "--runs", runs, "--jobs", jobs, "--out-dir", out,
        ])

    def before(self) -> None:
        # Results must not depend on --jobs.
        outputs = []
        for jobs in (1, 2):
            with self.checks.guard("sweep --jobs determinism"):
                code, _, written = self._sweep(
                    self.seed, 6, jobs, os.path.join(self.out_dir, f"jobs{jobs}")
                )
                with open(written[0], "rb") as fh:
                    outputs.append(fh.read())
        if len(outputs) == 2:
            self.checks.add("sweep output identical for --jobs 1 and --jobs 2",
                            outputs[0] == outputs[1])

    def block(self, index: int) -> int:
        seed = block_seed(self.seed, index)
        self._last = None
        with self.checks.guard(f"sweep block {index}"):
            code, _, written = self._sweep(seed, self.runs, 1, self.out_dir)
            self._last = (code, written)
        return 16 * self.runs

    def check_block(self, index: int) -> None:
        with self.checks.guard(f"sweep block {index} outputs"):
            code, written = self._last
            rows = read_rows(written[0])
            self.checks.add(f"sweep block {index}: exit code {code}", code == 0)
            self.checks.add(f"sweep block {index}: {len(rows)} result rows", len(rows) == 16 * 11)
            add_stat_rows(self.pool, rows)


class ContestLoop(Workload):
    """``bandshare simulate`` on the two packet contests and impatient_deviation."""

    name = "contest_loop"
    runs = {"packet_contest_resampling": 40, "packet_contest_vcg": 2, "impatient_deviation": 12}
    trace_blocks = 13

    def before(self) -> None:
        configs = {name: bandshare.config.load_config(config_path(name)) for name in self.runs}
        self.capacity = {name: c.scenario.capacity for name, c in configs.items()}
        self.vcg = configs["packet_contest_vcg"].scenario
        # Every variant's runs, one replay of the first run for the trace, and
        # the vcg deviation session.
        self.sessions = sum(
            self.runs[name] * len(c.variants) + 1 for name, c in configs.items()
        ) + 1

    def block(self, index: int) -> int:
        seed = block_seed(self.seed, index)
        self._last, self._deviation = {}, None
        for name, runs in self.runs.items():
            with self.checks.guard(f"simulate {name} block {index}"):
                self._last[name] = self.cli([
                    "simulate", "--config", config_path(name), "--seed", seed,
                    "--runs", runs, "--jobs", 1, "--out-dir", self.out_dir,
                ])
        with self.checks.guard(f"vcg deviation block {index}"):
            self._deviation = bandshare.engine.run_session(
                self.vcg, seed, bid_override={"b1": 1.9}
            )
        return self.sessions

    def check_block(self, index: int) -> None:
        checks = self.checks
        for name in self.runs:
            with checks.guard(f"{name} block {index} outputs"):
                code, _, (results, trace) = self._last[name]
                checks.add(f"{name} block {index}: exit code {code}", code == 0)
                check_trace_capacity(trace, self.capacity[name], checks, f"{name} block {index}")
                rows = read_rows(results)
                add_stat_rows(self.pool, rows, f"{name}|")
                means = {(r["mechanism"], r["metric"]): float(r["mean"]) for r in rows}
                half = {(r["mechanism"], r["metric"]): float(r["ci_high"]) - float(r["mean"])
                        for r in rows}
                if name == "packet_contest_vcg":
                    checks.add(f"vcg block {index}: truthful b1 pays 1200 for 600 KB",
                               means[("vmm", "payment:b1")] == 1200.0
                               and means[("vmm", "bytes:b1")] == 600.0)
                elif name == "packet_contest_resampling":
                    # Each run moves at most 600 KB (capacity 1 x 600 epochs),
                    # so means summing to 600 with equal spreads for b1 and b2
                    # means every run moved exactly 600.
                    b1, b2 = ("bks", "bytes:b1"), ("bks", "bytes:b2")
                    checks.add(f"resampling block {index}: b1 + b2 bytes = 600 in every run",
                               abs(means[b1] + means[b2] - 600.0) <= 1e-9
                               and math.isclose(half[b1], half[b2], rel_tol=1e-6, abs_tol=1e-9))
        with checks.guard(f"vcg deviation block {index} outputs"):
            dev = self._deviation
            checks.add(f"vcg block {index}: bid 1.9 pays 0 for 599 KB",
                       dev.payments["b1"].net == 0.0 and dev.bytes["b1"] == 599.0)


TRUTH_LINE = re.compile(
    r"(ok |BAD) buyer (\S+): E\[u\(v\) - u\((\S+)v\)\] = (\S+) "
    r"\(one-sided 95% half-width (\S+)\)"
)


class TruthfulReplay(Workload):
    """``bandshare verify --suite truthfulness`` on the welfare_capacity BKS scenario."""

    name = "truthful_replay"
    runs = 60
    # 3 buyers x 5 bids x 2 coin branches per world
    evaluations_per_world = 3 * 5 * 2
    trace_blocks = 4

    def block(self, index: int) -> int:
        seed = block_seed(self.seed, index)
        self._last = None
        with self.checks.guard(f"truthfulness block {index}"):
            self._last = self.cli(
                ["verify", "--suite", "truthfulness", "--seed", seed, "--runs", self.runs]
            )
        return self.evaluations_per_world * self.runs

    def check_block(self, index: int) -> None:
        with self.checks.guard(f"truthfulness block {index} outputs"):
            _, text, _ = self._last
            lines = TRUTH_LINE.findall(text)
            self.checks.add(f"truthfulness block {index}: {len(lines)} verdict lines",
                            len(lines) == 12)
            for _, buyer, factor, mean, half in lines:
                self.pool.add(f"{buyer}|{factor}", float(mean), float(half) / Z95_ONE_SIDED)

    def after(self) -> None:
        # The suite's one-sided 95% verdict per (buyer, deviation), applied to
        # the pooled blocks at K_SIGMA: no deviation beats the truthful bid.
        for key in sorted(self.pool.blocks):
            mean, se = self.pool.pooled(key)
            self.checks.add(f"truthfulness {key}: E[u(v) - u(dev)] = {mean:.3f} "
                            f"(se {se:.3f}) not significantly below zero", mean >= -K_SIGMA * se)
        super().after()


class PoolSettle(Workload):
    """``verify --suite balance`` at the block seed, plus the criterion 9
    admissibility computation (``verify --suite admissibility`` at seed 0)."""

    name = "pool_settle"
    pools = 250
    # Criterion 9 at its own seed, with fewer trials.  Its verdict rests on a
    # 600-session bootstrap whose outcome depends on the seed; see BASELINE.md.
    admissibility = {"seed": 0, "n_sessions": 600, "n_trials": 100, "trend_trials": 60}
    trace_blocks = 4

    def block(self, index: int) -> int:
        seed = block_seed(self.seed, index)
        self._last = {}
        with self.checks.guard(f"balance block {index}"):
            self._last["balance"] = bandshare.verify.run_suite(
                "balance", seed=seed, n_pools=self.pools
            )
        with self.checks.guard(f"admissibility block {index}"):
            self._last["admissibility"] = bandshare.verify.run_suite(
                "admissibility", **self.admissibility
            )
        a = self.admissibility
        return self.pools + a["n_trials"] + 3 * a["trend_trials"]

    def check_block(self, index: int) -> None:
        for suite, report in self._last.items():
            self.checks.add(f"{suite} block {index}: {report.summary()} {report.lines}",
                            report.passed)


WORKLOADS = {w.name: w for w in (SweepTrace, ContestLoop, TruthfulReplay, PoolSettle)}
