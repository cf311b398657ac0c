"""Golden digests of the CLI outputs for the builtin experiment configs.

Every refactor of the engine must keep these files byte-identical, and the
CLI's stdout too (the ``wrote`` lines in write order, with the output directory
shown as ``OUT``).  The stdout of ``verify`` for the pool suites, the
natural and monotonicity suites and a short truthfulness run is pinned
verbatim in ``VERIFY_STDOUT``, and its exit code follows the report's verdict.  A change that alters an RNG stream or a result
on purpose updates the digests here and says so in CHANGES.md.  Regenerate
with ``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from bandshare.cli import EXIT_OK, EXIT_PROPERTY, main
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
        "impatient_deviation_results.csv": "ae50f766bff7697aae29cfa78055328a5268e1cc8e57d1c81dd97ebab238dc0a",
        "impatient_deviation_trace.csv": "d756d42a54abfb9bd3e75a4b55736058c12935f6233bbffb1f139165aac7655a",
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
        "pooling_similar_results.csv": "c236b7626779b1b4876e9b6020e26613af5061e6012513475de4bac0b27cc08c",
        "pooling_similar_trace.csv": "cffd577008b7e2f2dd5db116d2a58f01c8bdbff2c1a634823abbe0dcf077b54a",
        "stdout": "wrote OUT/pooling_similar_results.csv\nwrote OUT/pooling_similar_trace.csv\n",
    },
    "simulate pooling_varied": {
        "pooling_varied_results.csv": "bf7a38080023d29e90df1f9d7d3e77ae4ebc50f0dff0cf2010a2dab9e6e466e3",
        "pooling_varied_trace.csv": "cffd577008b7e2f2dd5db116d2a58f01c8bdbff2c1a634823abbe0dcf077b54a",
        "stdout": "wrote OUT/pooling_varied_results.csv\nwrote OUT/pooling_varied_trace.csv\n",
    },
    "simulate reserve_sweep": {
        "reserve_sweep_results.csv": "aa249d9f81791e258a5e1af7b7382e587f37bd9826d128f53bba4b7d18f5a3ff",
        "reserve_sweep_trace.csv": "e4d14ba0a8ffa08844a0d8490678dc696e610d5bd7469b9f04daaa936e05f578",
        "stdout": "wrote OUT/reserve_sweep_results.csv\nwrote OUT/reserve_sweep_trace.csv\n",
    },
    "simulate welfare_capacity": {
        "welfare_capacity_results.csv": "d2a679562c4906dd8f4e97a1c8183290751f6d782853a424e33fbd3c1dcd9f1a",
        "welfare_capacity_trace.csv": "e4d14ba0a8ffa08844a0d8490678dc696e610d5bd7469b9f04daaa936e05f578",
        "stdout": "wrote OUT/welfare_capacity_results.csv\nwrote OUT/welfare_capacity_trace.csv\n",
    },
    "sweep impatient_deviation": {
        "impatient_deviation_sweep_capacity.csv": "6277ae573484b2bbc5681f3ea93c81a4ed7959a8077e9fb16181923db64c7d9d",
        "stdout": "wrote OUT/impatient_deviation_sweep_capacity.csv\n",
    },
    "sweep reserve_sweep": {
        "reserve_sweep_sweep_reserve.csv": "550f4ce8100e49543f97708ceaa1c5f4502b5bbe631409974719f12d1e6f1975",
        "stdout": "wrote OUT/reserve_sweep_sweep_reserve.csv\n",
    },
    "sweep welfare_capacity": {
        "welfare_capacity_sweep_capacity.csv": "28a79f85754ca77f2f601d51ae7dba3aceb190c1fa08e80e04a5c9704cddfc2c",
        "stdout": "wrote OUT/welfare_capacity_sweep_capacity.csv\n",
    },
    "pool pooling_similar": {
        "pooling_similar_pool.csv": "2487de26d762fafb37c6b60bfd31667d3e57865986ee13885a752eb867ee1bd6",
        "pooling_similar_sellers.csv": "0bf36c6855ee371a119389f8ddbb263ada1bdea4f102f62a8a99f582a7f8e24e",
        "pooling_similar_settlement.json": "7eaaa7ed28c7d46bfde97fec77164a14ccfcaf135cc5321ba5d0cc9e321f00ae",
        "stdout": "wrote OUT/pooling_similar_sellers.csv\nwrote OUT/pooling_similar_pool.csv\nwrote OUT/pooling_similar_settlement.json\ntaxes: 0.751017965708, 0.81981962254; balance error: -1.49011611938e-08\n",
    },
    "pool pooling_varied": {
        "pooling_varied_pool.csv": "f43ea79f49079be8911fafc14909b5478cfbd7233a410ee28be96589b1fb3d5a",
        "pooling_varied_sellers.csv": "bb4fc80dc9ed810b5ca2ec0c0b7fd9ed0d01f370d183d5ffed8bcbf357238992",
        "pooling_varied_settlement.json": "6fa663bd178f063acfc2da34a065ce1957e6a2e6d451578e3ce36e7db103fe8d",
        "stdout": "wrote OUT/pooling_varied_sellers.csv\nwrote OUT/pooling_varied_pool.csv\nwrote OUT/pooling_varied_settlement.json\ntaxes: 0.728132866035, 0.809747578611; balance error: -2.98023223877e-08\n",
    },
    "simulate reserve_sweep json": {
        "reserve_sweep_results.json": "3c939d67875cc414a62c9b62438055c9d8de4a2bd6ecf8cc6754ed54338e5464",
        "reserve_sweep_trace.csv": "e4d14ba0a8ffa08844a0d8490678dc696e610d5bd7469b9f04daaa936e05f578",
        "stdout": "wrote OUT/reserve_sweep_results.json\nwrote OUT/reserve_sweep_trace.csv\n",
    },
    "pool pooling_varied json": {
        "pooling_varied_pool.json": "ac340c5bd5c843706d3530b60a90662214aaa89ad0880fa439a14606de273625",
        "pooling_varied_sellers.csv": "bb4fc80dc9ed810b5ca2ec0c0b7fd9ed0d01f370d183d5ffed8bcbf357238992",
        "pooling_varied_settlement.json": "6fa663bd178f063acfc2da34a065ce1957e6a2e6d451578e3ce36e7db103fe8d",
        "stdout": "wrote OUT/pooling_varied_sellers.csv\nwrote OUT/pooling_varied_pool.json\nwrote OUT/pooling_varied_settlement.json\ntaxes: 0.728132866035, 0.809747578611; balance error: -2.98023223877e-08\n",
    },
}

# ``bandshare verify`` stdout: the suites the pool layer serves, and those that
# replay one world under many bids.  At 60 runs the truthfulness suite's
# verdict depends on the seed, and seed 3 fails; its numbers are pinned all the same.
VERIFY_STDOUT = {
    "--suite admissibility": (
        "[PASS] admissibility\n"
        "  200-seller pools: Pr(tax > 1) = 0.0000 over 100 trials\n"
        "  Pr(tax > 1) over pool halves {5, 20, 80}: 0.1675, 0.0065, 0.0000\n"
    ),
    "--suite admissibility --seed 3": (
        "[PASS] admissibility\n"
        "  200-seller pools: Pr(tax > 1) = 0.0000 over 100 trials\n"
        "  Pr(tax > 1) over pool halves {5, 20, 80}: 0.3170, 0.0835, 0.0025\n"
    ),
    "--suite balance --seed 3": (
        "[PASS] balance\n"
        "  500 random pools: max relative settlement-identity error 1.151e-15\n"
        "  residual when no cap binds: max relative 7.540e-16 (352 pools hit the cap)\n"
    ),
    "--suite truthfulness --seed 3 --runs 60": (
        "[FAIL] truthfulness\n"
        "  ok  buyer hi: E[u(v) - u(0.5v)] = 583.233 (one-sided 95% half-width 2465.511)\n"
        "  ok  buyer hi: E[u(v) - u(0.8v)] = 824.373 (one-sided 95% half-width 1900.331)\n"
        "  ok  buyer hi: E[u(v) - u(1.2v)] = -392.393 (one-sided 95% half-width 1660.954)\n"
        "  ok  buyer hi: E[u(v) - u(2v)] = -1748.067 (one-sided 95% half-width 3421.973)\n"
        "  ok  buyer mid: E[u(v) - u(0.5v)] = -421.827 (one-sided 95% half-width 845.925)\n"
        "  ok  buyer mid: E[u(v) - u(0.8v)] = -360.992 (one-sided 95% half-width 369.221)\n"
        "  ok  buyer mid: E[u(v) - u(1.2v)] = 496.163 (one-sided 95% half-width 319.031)\n"
        "  ok  buyer mid: E[u(v) - u(2v)] = 1148.333 (one-sided 95% half-width 1295.889)\n"
        "  ok  buyer lo: E[u(v) - u(0.5v)] = -3.290 (one-sided 95% half-width 88.517)\n"
        "  BAD buyer lo: E[u(v) - u(0.8v)] = -28.173 (one-sided 95% half-width 22.955)\n"
        "  ok  buyer lo: E[u(v) - u(1.2v)] = -14.148 (one-sided 95% half-width 68.175)\n"
        "  ok  buyer lo: E[u(v) - u(2v)] = 73.010 (one-sided 95% half-width 191.440)\n"
    ),
    "--suite monotonicity --seed 5": (
        "[PASS] monotonicity\n"
        "  checked 6000 bid pairs across 6 models x 20 scenarios: 0 violations\n"
    ),
    "--suite natural": (
        "[PASS] natural\n"
        "  constant: natural on 1000 random triples\n"
        "  time_varying: natural on 1000 random triples\n"
        "  buffered: natural on 1000 random triples\n"
        "  impatient: natural on 1000 random triples\n"
        "  increasing_rate: natural on 1000 random triples\n"
        "  increasing_total: natural on 1000 random triples\n"
        "  cliff fixture: expected failure with witness (t, x, x', c) = (1, 500.0, 499.0, 5.0)\n"
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
        code = main(["verify", *flags.split()])
    text = out.getvalue()
    assert code == (EXIT_OK if text.startswith("[PASS]") else EXIT_PROPERTY), text
    return text


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
