"""Record the reference Monte Carlo means that the benchmark's checks compare
against, from large runs of the same experiments at fixed seeds.

    python3 bench/make_reference.py    # rewrites bench/reference.json (about 2 min)

Run it only on a commit whose outputs are trusted; the checks then accept any
later commit whose means agree within the combined confidence intervals.
"""

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (  # noqa: E402
    REFERENCE_PATH,
    Z95_ONE_SIDED,
    ContestLoop,
    MeanPool,
    TRUTH_LINE,
    add_stat_rows,
    config_path,
    read_rows,
    run_cli,
)

SEED = 20140806
SWEEP_RUNS = 2000
CONTEST_RUNS = {"packet_contest_resampling": 4000, "packet_contest_vcg": 1, "impatient_deviation": 800}
TRUTHFUL_RUNS = 3000


def pooled(pool: MeanPool) -> dict:
    return {key: list(pool.pooled(key)) for key in sorted(pool.blocks)}


def main() -> None:
    out = os.path.join(ROOT, ".bench_out", "reference")
    reference = {"seed": SEED}

    sweep = MeanPool()
    _, _, written = run_cli(["sweep", "--config", config_path("welfare_capacity"), "--seed", SEED,
                             "--runs", SWEEP_RUNS, "--out-dir", out])
    add_stat_rows(sweep, read_rows(written[0]))
    reference["sweep_trace"] = pooled(sweep)

    contest = MeanPool()
    for name in ContestLoop.runs:
        _, _, written = run_cli(["simulate", "--config", config_path(name), "--seed", SEED,
                                 "--runs", CONTEST_RUNS[name], "--out-dir", out])
        add_stat_rows(contest, read_rows(written[0]), f"{name}|")
    reference["contest_loop"] = pooled(contest)

    truthful = MeanPool()
    _, text, _ = run_cli(["verify", "--suite", "truthfulness", "--seed", SEED,
                          "--runs", TRUTHFUL_RUNS])
    for _, buyer, factor, mean, half in TRUTH_LINE.findall(text):
        truthful.add(f"{buyer}|{factor}", float(mean), float(half) / Z95_ONE_SIDED)
    reference["truthful_replay"] = pooled(truthful)

    shutil.rmtree(out)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
