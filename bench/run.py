"""Benchmark of the bandshare simulator.

Run from the repository root:

    python3 bench/run.py --workload sweep_trace --seed 1 --seconds 10 --trace 0

Workloads (see BASELINE.md for why each was chosen): sweep_trace,
contest_loop, truthful_replay, pool_settle.

With ``--trace 0`` the workload's blocks repeat for ``--seconds`` with tracing
off, and the end-to-end metrics are reported: ``ops_per_s`` (median over
blocks of unit operations per second), ``setup_s`` (median over fresh
interpreters of import + config load + one operation) and ``peak_rss_mb``.
With ``--trace 1`` a fixed number of blocks runs once untraced and once
traced, and the per-layer metrics are reported; their counts repeat exactly
for a given seed.

Every run checks the program's outputs.  The last line of standard output is
one JSON object with keys ``correct``, ``attempted``, ``failed`` (output
checks) and ``metrics``; the lines before it print each metric with its unit
and ``failed_ratio``.  A result file with provenance is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# The keys of workloads.WORKLOADS, listed here so that argument errors need no
# import of bandshare.
WORKLOAD_NAMES = ("sweep_trace", "contest_loop", "truthful_replay", "pool_settle")
SETUP_REPEATS = 9
MIN_BLOCKS = 3
# Block rates are scaled to the machine speed at which the reference kernel takes
# this long; on a 2-vCPU Xeon at 2.0 GHz (Python 3.11, numpy 2.4) it takes
# 4 to 8 ms, depending on the load of the host's other tenants.
REFERENCE_KERNEL_S = 0.005


def reference_kernel() -> float:
    """A fixed flow-arrival generator written against numpy alone: scalar
    random draws and slice adds in a Python loop, the instruction mix that
    dominates the workloads, with no bandshare code in it."""
    rng = numpy.random.default_rng(20140806)
    total = 0.0
    for _ in range(24):
        demand = numpy.zeros(601)
        t = -600.0
        while t <= 600.0:
            t += rng.exponential(30.0)
            start = max(1, math.floor(t) + 1)
            end = min(600, math.floor(t) + math.ceil(rng.lognormal(3.0, 0.8)))
            if start <= end:
                demand[start : end + 1] += rng.poisson(10.0, size=end - start + 1)
        total += float(demand.sum())
    return total


def machine_speed() -> float:
    """How fast the machine runs right now relative to the reference speed:
    REFERENCE_KERNEL_S over the kernel's time now (below 1 when slower).

    The host's speed drifts by a third over minutes while other tenants'
    load comes and goes; the kernel runs next to every measurement, and
    scaling by it cancels most of that drift (see BASELINE.md)."""
    start = time.perf_counter()
    reference_kernel()
    return REFERENCE_KERNEL_S / (time.perf_counter() - start)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing bandshare, loading the
    workload's config and running one operation."""
    probe = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    # No timeout: with one, the wait polls every 50 ms and quantizes the time.
    subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_blocks(workload, count=None, seconds=None, check=True, between=None):
    """Run blocks from index 1: ``count`` of them, or at least MIN_BLOCKS
    until ``seconds`` have passed.  ``between(elapsed)`` runs after each
    block, untimed.  Returns per block (operations, seconds, machine speed
    around the block)."""
    blocks = []
    start = time.perf_counter()
    index = 1
    speed = machine_speed()
    while True:
        t0 = time.perf_counter()
        ops = workload.block(index)
        elapsed = time.perf_counter() - t0
        speed_after = machine_speed()
        blocks.append((ops, elapsed, (speed + speed_after) / 2))
        speed = speed_after
        if check:
            workload.check_block(index)
        if between is not None:
            between(time.perf_counter() - start)
        index += 1
        if count is not None:
            if len(blocks) == count:
                break
        elif len(blocks) >= MIN_BLOCKS and time.perf_counter() - start >= seconds:
            break
    return blocks


def provenance(seed: int) -> dict:
    try:  # the checkout may not be a git repository; never look above it
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "bandshare")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bandshare", "__init__.py")):
        print(f"bench: no bandshare package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    info = provenance(args.seed)

    from workloads import WORKLOADS

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    workload.before()
    workload.block(0)  # warm-up: caches, lazy imports; not timed
    workload.check_block(0)

    detail = {}
    if args.trace == 0:
        setup_probe(args.workload, args.seed)  # leaves compiled bytecode behind
        setup = []

        def probe_when_due(elapsed):
            # Spread over the run, the probes sample its phases of host load.
            if len(setup) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
                setup.append(setup_probe(args.workload, args.seed))

        blocks = run_blocks(workload, seconds=args.seconds, between=probe_when_due)
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_probe(args.workload, args.seed))
        # Block rates at reference machine speed: on a machine running twice
        # as fast right now a block counts twice its wall time.
        metrics = {
            "ops_per_s": (statistics.median(ops / dt / speed for ops, dt, speed in blocks), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(
            wall_ops_per_s=statistics.median(ops / dt for ops, dt, _ in blocks),
            blocks=blocks,
            setup=setup,
        )
    else:
        from tracing import Tracer

        count = workload.trace_blocks
        # The same blocks twice; only the traced pass's outputs are checked,
        # so no block is pooled twice into the Monte Carlo checks.
        untraced = run_blocks(workload, count=count, check=False)
        bytes_before = workload.out_bytes
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_blocks(workload, count=count)
        finally:
            tracer.uninstall()
        untraced_s = sum(dt * speed for _, dt, speed in untraced)
        traced_s = sum(dt * speed for _, dt, speed in traced)
        metrics = tracer.metrics(traced_s / untraced_s, workload.out_bytes - bytes_before)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write_spans(spans_path)
        detail.update(untraced_blocks=untraced, traced_blocks=traced, spans=spans_path)
    workload.after()

    checks = workload.checks
    failed = len(checks.failed)
    for name in checks.failed:
        print(f"check failed: {name}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {failed / checks.attempted:.6g} "
          f"({failed} of {checks.attempted} output checks)")

    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  provenance=info, failed_checks=checks.failed, **detail)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
