"""Verification-suite machinery tests (small-scale; full scale runs in the
acceptance module)."""

import numpy as np
import pytest

import bandshare.verify
from bandshare.config import builtin_config_path, load_config
from bandshare.demand import DemandSpec
from bandshare.engine import (BuyerSpec, Scenario, Strategy, build_ledger, replay,
                              run_probes, run_seeds, run_session)
from bandshare.payments import bks_settle, resample_bid
from bandshare.pooling import LedgerRow, SellerLedger
from bandshare.verify import (
    _conditioned_utilities,
    _random_ledger,
    balance_suite,
    expected_utilities_rb,
    monotonicity_suite,
    natural_suite,
    pooling_seller_observations,
    run_suite,
    welfare_capacity_bks_scenario,
)


class TestNaturalSuite:
    def test_passes_with_exactly_one_expected_failure(self):
        report = natural_suite(seed=3)
        assert report.passed
        assert sum("expected failure" in line for line in report.lines) == 1
        assert sum("VIOLATION" in line for line in report.lines) == 0
        assert "witness" in next(l for l in report.lines if "cliff" in l)


class TestMonotonicitySuite:
    def test_small_sweep_passes(self):
        report = monotonicity_suite(seed=5, n_scenarios=2, n_pairs=6)
        assert report.passed
        assert "0 violations" in report.lines[-1]

    @pytest.mark.parametrize("seed", [5, 2025])
    def test_bytes_are_those_of_each_replayed_world(self, seed, monkeypatch):
        """Each world's bid pairs are the probes of one one-run ``run_probes``
        call, and every (world, bid) gets the probe's bytes of ``replay`` on
        that run's seed, bit for bit."""
        calls = []

        def spy(probes, n_runs, world_seed, **kwargs):
            samples = run_probes(probes, n_runs, world_seed, **kwargs)
            calls.append((probes, n_runs, world_seed, kwargs, samples))
            return samples

        monkeypatch.setattr(bandshare.verify, "run_probes", spy)
        report = monotonicity_suite(seed=seed, n_scenarios=2, n_pairs=10)
        assert report.passed and len(calls) == 6 * 2
        for probes, n_runs, world_seed, kwargs, samples in calls:
            assert (len(probes), n_runs, kwargs) == (20, 1, {"metric": "bytes"})
            session = replay(probes[0].scenario, run_seeds(world_seed, 1)[0])
            bids = [p.bid_override["probe"] for p in probes]
            assert all(lo <= hi for lo, hi in zip(bids[::2], bids[1::2]))
            for probe, x in zip(probes, samples[:, 0, 0].tolist()):  # the probe is buyer 0
                assert probe.scenario is probes[0].scenario
                assert x == session(probe.bid_override).bytes["probe"]


def random_ledger_draw_by_draw(rng, seller_id, reserve, mu=0.2):
    """The reference ``_random_ledger``: each row's bid above the reserve,
    coin, gamma and bytes are four scalar draws, in that order."""
    rows = []
    for j in range(int(rng.integers(0, 6))):
        bid = reserve + float(rng.uniform(0, 9))
        key, resampled = resample_bid(bid, reserve, mu, rng.random(), rng.random())
        x = float(rng.uniform(0, 400))
        rebate = bks_settle(x, bid, reserve, mu, resampled)[1]
        rows.append(LedgerRow(f"{seller_id}-b{j}", x, bid, key, rebate))
    return SellerLedger(seller_id, reserve, rows)


class TestBalanceSuite:
    def test_small_run_passes(self):
        report = balance_suite(seed=4, n_pools=60)
        assert report.passed

    def test_random_ledgers_are_those_of_one_draw_per_value(self):
        """A ledger's rows come from one (rows, 4) draw scaled by (9, 1, 1,
        400), which gives the reference's rows bit for bit and leaves the
        generator where its scalar draws leave it: 1500 ledgers over 50 seeds."""
        for seed in range(50):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for i in range(30):
                reserve = (0.0, 1.0, 2.0)[i % 3]
                got = _random_ledger(batched, f"s{i}", reserve)
                assert repr(got) == repr(random_ledger_draw_by_draw(scalar, f"s{i}", reserve))
            assert batched.bit_generator.state == scalar.bit_generator.state
            assert batched.random() == scalar.random()


def observations_one_session_at_a_time(scenario, n_sessions, seed):
    """The reference ``pooling_seller_observations``: one ``run_session`` and
    one ``build_ledger`` per session seed."""
    obs = []
    for s in run_seeds(seed, n_sessions):
        ledger = build_ledger("s", run_session(scenario, s))
        obs.append((ledger.credit_above_reserve(), ledger.payments_above_reserve()))
    return obs


def pool_scenarios():
    """pooling_similar's scenario, pooling_varied's heaviest type, and a
    small one with a reserve above one buyer's bid and a padding buffered
    buyer, whose runs the batch sweeps one at a time."""
    similar = load_config(builtin_config_path("pooling_similar")).scenario
    varied = load_config(builtin_config_path("pooling_varied")).pool.types[-1].scenario
    small = Scenario(
        buyers=(
            BuyerSpec("a", 5.0, DemandSpec.buffered([6.0] * 40), 1, 40, Strategy("pad", pad=2.0)),
            BuyerSpec("b", 2.0, DemandSpec.flow_trace(6.0, 40), 1, 40),
            BuyerSpec("c", 0.5, DemandSpec.constant(4.0), 3, 30),
        ),
        capacity=12.0, mechanism="bks", mu=0.2, reserve=1.0, horizon=40,
    )
    return {"similar": (similar, 600), "varied": (varied, 200), "small": (small, 50)}


class TestPoolingObservations:
    """The admissibility suite's observations come from one ``run_probes``
    call's ledger rows, bit for bit those of one session at a time."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", sorted(pool_scenarios()))
    def test_observations_equal_one_session_at_a_time(self, name, seed):
        scenario, n_sessions = pool_scenarios()[name]
        observed = pooling_seller_observations(scenario, n_sessions, seed)
        assert len(observed) == n_sessions
        assert repr(observed) == repr(observations_one_session_at_a_time(scenario, n_sessions, seed))


class TestSuitesThatCheckNothing:
    """A suite asked for no work raises instead of printing a vacuous PASS, and
    the truthfulness suite needs two runs for its confidence half-width."""

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("truthfulness", {"n_runs": 1}),
            ("truthfulness", {"n_runs": 0}),
            ("monotonicity", {"n_scenarios": 0}),
            ("monotonicity", {"n_pairs": 0}),
            ("balance", {"n_pools": 0}),
        ],
        ids=["truthfulness-1", "truthfulness-0", "monotonicity-scenarios", "monotonicity-pairs",
             "balance"],
    )
    def test_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            run_suite(name, seed=1, **kwargs)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("vibes")

    def test_dispatch(self):
        assert run_suite("balance", seed=4, n_pools=20).name == "balance"


class TestConditionedEstimator:
    def test_uncontested_buyer_utility_is_exactly_value_times_bytes(self):
        """With no competition and r = 0, utility conditioned on the coin is
        v*x for every bid: the rebate exactly cancels the bid dependence."""
        scenario = Scenario(
            buyers=(BuyerSpec("solo", 3.0, DemandSpec.constant(4.0), 1, 30),),
            capacity=10.0,
            mechanism="bks",
            mu=0.2,
            horizon=30,
        )
        utilities = expected_utilities_rb(scenario, "solo", [1.0, 3.0, 7.0], 50, seed=1)
        expected = 3.0 * 4.0 * 30
        for arr in utilities.values():
            np.testing.assert_allclose(arr, expected, rtol=1e-12)

    def test_matches_run_session_with_a_padding_buyer(self):
        """Padding forces the epoch loop; the estimator must take the same path
        as run_session and equal its mu-weighted coin branches."""
        scenario = Scenario(
            buyers=(
                BuyerSpec("probe", 3.0, DemandSpec.constant(6.0), 1, 30),
                BuyerSpec("padder", 5.0, DemandSpec.constant(4.0), 1, 30, Strategy("pad", pad=5.0)),
            ),
            capacity=10.0,
            mechanism="bks",
            mu=0.2,
            horizon=30,
        )
        bids = [1.0, 3.0, 6.0]
        utilities = expected_utilities_rb(scenario, "probe", bids, 4, seed=2)
        for k, run_seed in enumerate(run_seeds(2, 4)):
            for b in bids:
                branches = [
                    run_session(
                        scenario, run_seed, bid_override={"probe": b},
                        force_resample={"probe": forced},
                    ).utilities["probe"]
                    for forced in (False, True)
                ]
                assert utilities[b][k] == pytest.approx(0.8 * branches[0] + 0.2 * branches[1])

    def test_buyers_probed_on_one_replay_equal_each_probed_alone(self):
        """The truthfulness suite probes every buyer on one replay per run;
        each buyer's utilities are bit-identical to probing her alone."""
        scenario = welfare_capacity_bks_scenario()
        probes = {b.buyer_id: [b.value, 0.5 * b.value, 2.0 * b.value] for b in scenario.buyers}
        together = _conditioned_utilities(scenario, probes, 5, seed=3)
        for buyer_id, bids in probes.items():
            alone = expected_utilities_rb(scenario, buyer_id, bids, 5, seed=3)
            assert together[buyer_id].keys() == alone.keys()
            for b in bids:
                assert np.array_equal(together[buyer_id][b], alone[b])

    def test_no_probe_or_no_run_gives_empty_results(self):
        scenario = welfare_capacity_bks_scenario()
        assert _conditioned_utilities(scenario, {"hi": [], "lo": []}, 5, seed=0) == {
            "hi": {}, "lo": {}}
        empty = _conditioned_utilities(scenario, {"mid": [1.0, 2]}, 0, seed=0)
        assert list(empty) == ["mid"] and list(empty["mid"]) == [1.0, 2.0]
        assert all(a.shape == (0,) for a in empty["mid"].values())

    def test_requires_resampling_mechanism(self):
        scenario = Scenario(
            buyers=(BuyerSpec("solo", 3.0, DemandSpec.constant(4.0), 1, 10),),
            capacity=10.0,
            mechanism="vmm",
            horizon=10,
        )
        with pytest.raises(ValueError):
            expected_utilities_rb(scenario, "solo", [3.0], 5, seed=0)
