"""One fresh-interpreter set-up for a workload: import bandshare, load the
workload's config and run one unit operation.  ``run.py`` times this script
end to end as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bandshare.config import builtin_config_path, load_config  # noqa: E402
from bandshare.engine import run_session  # noqa: E402
from bandshare.verify import (  # noqa: E402
    balance_suite,
    expected_utilities_rb,
    welfare_capacity_bks_scenario,
)


def main(workload: str, seed: int) -> None:
    if workload == "sweep_trace":
        config = load_config(builtin_config_path("welfare_capacity"))
        run_session(config.scenario_for(config.variants[0]), seed)  # one session
    elif workload == "contest_loop":
        config = load_config(builtin_config_path("packet_contest_resampling"))
        run_session(config.scenario, seed)  # one session
    elif workload == "truthful_replay":
        scenario = welfare_capacity_bks_scenario()
        buyer = scenario.buyers[0]
        # one world, one bid: both coin branches
        expected_utilities_rb(scenario, buyer.buyer_id, [buyer.value], 1, seed)
    elif workload == "pool_settle":
        load_config(builtin_config_path("pooling_similar"))
        balance_suite(seed, n_pools=1)  # one settlement
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
