"""Golden digests of the CLI outputs for the builtin experiment configs.

Every refactor of the engine must keep these files byte-identical, and the
CLI's stdout too (the ``wrote`` lines in write order, with the output directory
shown as ``OUT``).  The stdout of ``verify`` for the pool suites is pinned
verbatim in ``VERIFY_STDOUT``.  A change that alters an RNG stream or a result
on purpose updates the digests here and says so in CHANGES.md.  Regenerate
with ``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from bandshare.cli import main
from bandshare.config import builtin_config_path

SIMULATE_RUNS = 12
SWEEP_RUNS = 6

CASES = (
    [("simulate", name, "csv") for name in (
        "impatient_deviation",
        "packet_contest_resampling",
        "packet_contest_vcg",
        "pooling_similar",
        "pooling_varied",
        "reserve_sweep",
        "welfare_capacity",
    )]
    + [("sweep", name, "csv")
       for name in ("impatient_deviation", "reserve_sweep", "welfare_capacity")]
    + [("pool", name, "csv") for name in ("pooling_similar", "pooling_varied")]
    + [("simulate", "reserve_sweep", "json"), ("pool", "pooling_varied", "json")]
)


def case_key(command, name, fmt):
    return f"{command} {name}" + (" json" if fmt == "json" else "")


GOLDEN = {
    "simulate impatient_deviation": {
        "impatient_deviation_results.csv": "53bd23038a725a715554346ca460f8e6dc6f676b7be3f03cc0a9b71a1546aa62",
        "impatient_deviation_trace.csv": "19c72019621cf91bd1e3e6f5ee10e4f27a7dc49194cc621a4f3792b1d4bb4999",
        "stdout": "wrote OUT/impatient_deviation_results.csv\nwrote OUT/impatient_deviation_trace.csv\n",
    },
    "simulate packet_contest_resampling": {
        "packet_contest_resampling_results.csv": "d3eac8dc10e5db4c99602f9d783c5a15aefb66711a2667e0b11196c47073177e",
        "packet_contest_resampling_trace.csv": "04eac46f50d6615db3404e78e0ecbbd23081f06e091deb98d64d9cd7ba0141c9",
        "stdout": "wrote OUT/packet_contest_resampling_results.csv\nwrote OUT/packet_contest_resampling_trace.csv\n",
    },
    "simulate packet_contest_vcg": {
        "packet_contest_vcg_results.csv": "4bd6e2430184e5918d53f7c195905e343fb00c6383bd17596cab364d9c720801",
        "packet_contest_vcg_trace.csv": "04eac46f50d6615db3404e78e0ecbbd23081f06e091deb98d64d9cd7ba0141c9",
        "stdout": "wrote OUT/packet_contest_vcg_results.csv\nwrote OUT/packet_contest_vcg_trace.csv\n",
    },
    "simulate pooling_similar": {
        "pooling_similar_results.csv": "30f1978870d6c0006ac4e6d32f359afceb8e87d95f82677ad0c8e34d80c6eebb",
        "pooling_similar_trace.csv": "10db5a8794594cd5b5e8a5f274b68ca65bae456196b7a0b24eb3e0096977b978",
        "stdout": "wrote OUT/pooling_similar_results.csv\nwrote OUT/pooling_similar_trace.csv\n",
    },
    "simulate pooling_varied": {
        "pooling_varied_results.csv": "70c5de9a2092a073770026a44734aa2dc53c545c96665a93cdf19de88be0d7ba",
        "pooling_varied_trace.csv": "10db5a8794594cd5b5e8a5f274b68ca65bae456196b7a0b24eb3e0096977b978",
        "stdout": "wrote OUT/pooling_varied_results.csv\nwrote OUT/pooling_varied_trace.csv\n",
    },
    "simulate reserve_sweep": {
        "reserve_sweep_results.csv": "9a130ea7d5af81453183af5d5de1de31fd9fda1b4389fdafb40428320bc8fc37",
        "reserve_sweep_trace.csv": "9afc1311db6ec7e42e1d8325c81c9617be31e3c031d67f0406eaf66e3c8d21d3",
        "stdout": "wrote OUT/reserve_sweep_results.csv\nwrote OUT/reserve_sweep_trace.csv\n",
    },
    "simulate welfare_capacity": {
        "welfare_capacity_results.csv": "0c3c3f8b2258c91ca0c21f04809bf10f6ae6119f8f05c7bf0e936dec28cdab1b",
        "welfare_capacity_trace.csv": "9afc1311db6ec7e42e1d8325c81c9617be31e3c031d67f0406eaf66e3c8d21d3",
        "stdout": "wrote OUT/welfare_capacity_results.csv\nwrote OUT/welfare_capacity_trace.csv\n",
    },
    "sweep impatient_deviation": {
        "impatient_deviation_sweep_capacity.csv": "9ff3fc86e3ec570ff8d5745f3b3ce64d798540c82eadc622e1ddcaa1e8db36ad",
        "stdout": "wrote OUT/impatient_deviation_sweep_capacity.csv\n",
    },
    "sweep reserve_sweep": {
        "reserve_sweep_sweep_reserve.csv": "2c8d60be8ccde4e7252b78c9c1205900ee1c2af31c87d2438cafb36164f4d9c1",
        "stdout": "wrote OUT/reserve_sweep_sweep_reserve.csv\n",
    },
    "sweep welfare_capacity": {
        "welfare_capacity_sweep_capacity.csv": "c32c4e1928dc656cd14218329fdb1b6afbc347b26db859d43b55ccfa4fb0d12b",
        "stdout": "wrote OUT/welfare_capacity_sweep_capacity.csv\n",
    },
    "pool pooling_similar": {
        "pooling_similar_pool.csv": "4649601be2149abd7d4a0f48d3eff490823fb93ffa070b01b4804b3851c234d3",
        "pooling_similar_sellers.csv": "5ff64a3444648f7d460379e7d83b338d499979b0ef625eb5e05ae7089b566900",
        "pooling_similar_settlement.json": "07dea7222fc9e454f194444da4a7109bbee706d1e99882d941914bc6af1a9741",
        "stdout": "wrote OUT/pooling_similar_sellers.csv\nwrote OUT/pooling_similar_pool.csv\nwrote OUT/pooling_similar_settlement.json\ntaxes: 0.762057705029, 0.806827110539; balance error: 3.72529029846e-09\n",
    },
    "pool pooling_varied": {
        "pooling_varied_pool.csv": "e3c0efa589fd00e803cf0d0ecd2ef4c10f5e4521b3702ba0bc9997cba9cfa882",
        "pooling_varied_sellers.csv": "ecb784c86cb88deab2976e1f203f7dadabe0a38d7b3f49c7bc0f6049f9f360d9",
        "pooling_varied_settlement.json": "b462609d4eed2a5b56432588767a07e294eebf50f88472ad5b43187a652a1a81",
        "stdout": "wrote OUT/pooling_varied_sellers.csv\nwrote OUT/pooling_varied_pool.csv\nwrote OUT/pooling_varied_settlement.json\ntaxes: 0.739623674454, 0.794705766169; balance error: 0\n",
    },
    "simulate reserve_sweep json": {
        "reserve_sweep_results.json": "99f38ece75b203f2d461dd3b2fdf600cfb9d4b0c31ada39673adb6b4cdf8ecef",
        "reserve_sweep_trace.csv": "9afc1311db6ec7e42e1d8325c81c9617be31e3c031d67f0406eaf66e3c8d21d3",
        "stdout": "wrote OUT/reserve_sweep_results.json\nwrote OUT/reserve_sweep_trace.csv\n",
    },
    "pool pooling_varied json": {
        "pooling_varied_pool.json": "2efe7335c3db79c958bc5be4a9475448281b34402c717becc8f0504146c3b484",
        "pooling_varied_sellers.csv": "ecb784c86cb88deab2976e1f203f7dadabe0a38d7b3f49c7bc0f6049f9f360d9",
        "pooling_varied_settlement.json": "b462609d4eed2a5b56432588767a07e294eebf50f88472ad5b43187a652a1a81",
        "stdout": "wrote OUT/pooling_varied_sellers.csv\nwrote OUT/pooling_varied_pool.json\nwrote OUT/pooling_varied_settlement.json\ntaxes: 0.739623674454, 0.794705766169; balance error: 0\n",
    },
}

# ``bandshare verify`` stdout for the suites the pool layer serves.
VERIFY_STDOUT = {
    "--suite admissibility": (
        "[PASS] admissibility\n"
        "  200-seller pools: Pr(tax > 1) = 0.0000 over 100 trials\n"
        "  Pr(tax > 1) over pool halves {5, 20, 80}: 0.1860, 0.0155, 0.0000\n"
    ),
    "--suite admissibility --seed 3": (
        "[PASS] admissibility\n"
        "  200-seller pools: Pr(tax > 1) = 0.0000 over 100 trials\n"
        "  Pr(tax > 1) over pool halves {5, 20, 80}: 0.3145, 0.0720, 0.0020\n"
    ),
    "--suite balance --seed 3": (
        "[PASS] balance\n"
        "  500 random pools: max relative imbalance 0.000e+00\n"
        "  residual when no cap binds: max relative 7.540e-16 (352 pools hit the cap)\n"
    ),
}


def argv(command, name, fmt, out_dir, *extra):
    args = [
        command, "--config", builtin_config_path(name), "--out-dir", str(out_dir),
        "--format", fmt,
    ]
    if command == "simulate":
        args += ["--runs", str(SIMULATE_RUNS)]
    elif command == "sweep":
        args += ["--runs", str(SWEEP_RUNS)]
    return args + list(extra)


def digests(command, name, fmt, out_dir, *extra):
    """sha256 of every file one CLI invocation writes, by file name, and its
    stdout under ``"stdout"``; ``extra`` holds further CLI arguments."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv(command, name, fmt, out_dir, *extra)) == 0
    found = {
        f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        for f in sorted(os.listdir(out_dir))
    }
    found["stdout"] = out.getvalue().replace(str(out_dir), "OUT")
    return found


@pytest.mark.parametrize(
    "command,name,fmt", CASES,
    ids=[case_key(*case).replace(" ", "-") for case in CASES],
)
def test_cli_output_digest(command, name, fmt, tmp_path):
    assert digests(command, name, fmt, tmp_path) == GOLDEN[case_key(command, name, fmt)]


@pytest.mark.parametrize(
    "command,name", [("sweep", "welfare_capacity"), ("simulate", "impatient_deviation")],
    ids=["sweep-welfare_capacity", "simulate-impatient_deviation"],
)
def test_outputs_do_not_depend_on_jobs(command, name, tmp_path):
    """Two worker processes write the same files as one."""
    found = digests(command, name, "csv", tmp_path, "--jobs", "2")
    assert found == GOLDEN[case_key(command, name, "csv")]


def verify_stdout(flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", *flags.split()]) == 0
    return out.getvalue()


@pytest.mark.parametrize("flags", sorted(VERIFY_STDOUT))
def test_verify_stdout(flags):
    assert verify_stdout(flags) == VERIFY_STDOUT[flags]


if __name__ == "__main__":
    import json
    import pathlib
    import tempfile

    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            found = digests(*case, pathlib.Path(tmp))
        print(f'    "{case_key(*case)}": {{')
        for f, h in found.items():
            print(f'        "{f}": {json.dumps(h)},')
        print("    },")
    for flags in VERIFY_STDOUT:
        print(f'    "{flags}": {json.dumps(verify_stdout(flags))},')
