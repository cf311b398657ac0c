"""Config validation and CLI behavior: schema errors, determinism, exit codes."""

import copy
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import bandshare.config
from bandshare import cli
from bandshare.cli import main
from bandshare.config import (
    ConfigError,
    builtin_config_path,
    load_config,
    parse_config,
)
from bandshare.demand import DemandSpec, FieldError
from bandshare.engine import (BuyerSpec, HybridBoost, Scenario, Strategy, build_ledger, run_seeds,
                              run_session)
from bandshare.pooling import SellerLedger, settle_pool
from bandshare.verify import SuiteReport

MINI_DOC = {
    "experiment": "mini",
    "seed": 7,
    "runs": 3,
    "horizon": 40,
    "capacity": 12,
    "mechanism": "bks",
    "routing": "spq",
    "buyers": [
        {"id": "a", "value": 5, "demand": {"model": "constant", "rate": 8}},
        {"id": "b", "value": 2, "demand": {"model": "flow_trace", "mean_rate": 6}},
    ],
}


def write_config(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(copy.deepcopy(MINI_DOC))
        assert cfg.experiment_id == "mini"
        assert cfg.scenario.capacity == 12
        assert len(cfg.variants) == 1
        assert cfg.variants[0].name == "bks"

    def test_builtin_fixtures_all_parse(self):
        configs = pathlib.Path(bandshare.config.__file__).parent / "configs"
        names = sorted(p.stem for p in configs.glob("*.yaml"))
        assert {"welfare_capacity", "reserve_sweep", "impatient_deviation", "pooling_similar", "pooling_varied"} <= set(names)
        for name in names:
            cfg = load_config(builtin_config_path(name))
            assert cfg.experiment_id == name

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_c_loader_reads_every_builtin_as_the_pure_loader_does(self):
        configs = pathlib.Path(bandshare.config.__file__).parent / "configs"
        assert bandshare.config._LOADER is yaml.CSafeLoader
        for path in sorted(configs.glob("*.yaml")):
            text = path.read_text()
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(
                text, Loader=yaml.SafeLoader
            ), path.name

    def test_unknown_top_level_key_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["capcity"] = 10
        with pytest.raises(ConfigError, match="capcity"):
            parse_config(doc)

    @pytest.mark.parametrize("where", ["top", "variant"])
    def test_price_key_rejected(self, tmp_path, capsys, where):
        """``reserve`` is the one per-KB floor, the posted price under
        ``fixed``; a ``price`` key is unknown at every node."""
        doc = copy.deepcopy(MINI_DOC)
        if where == "top":
            doc.update(mechanism="fixed", price=1.0)
            node, allowed = "", bandshare.config._TOP_KEYS
        else:
            doc["mechanisms"] = [{"mechanism": "fixed", "routing": "fq", "price": 1.0}]
            node, allowed = ".mechanisms[0]", ["name", *bandshare.config._VARIANT_KEYS]
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {config}{node}: unknown keys ['price']; allowed: {sorted(allowed)}\n"
        )
        assert "price" not in allowed and not out.exists()

    def test_unknown_demand_model_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0]["demand"] = {"model": "fractal"}
        with pytest.raises(ConfigError, match="fractal"):
            parse_config(doc)

    def test_error_carries_key_path(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][1]["value"] = "lots"
        with pytest.raises(ConfigError, match=r"buyers\[1\].value"):
            parse_config(doc, source="conf.yaml")

    def test_empty_buyers_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"] = []
        with pytest.raises(ConfigError, match="buyers"):
            parse_config(doc)

    def test_unknown_sweep_variable_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["sweep"] = {"variable": "horizon", "values": [1, 2]}
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(doc)

    def test_unknown_strategy_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0]["strategy"] = {"kind": "bluff"}
        with pytest.raises(ConfigError, match="bluff"):
            parse_config(doc)

    def test_hybrid_requires_known_buyer(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["routing"] = "hybrid"
        doc["hybrid"] = {"buyer": "ghost", "bytes": 10, "deadline": 5}
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(doc)

    def test_hybrid_block_names_a_known_buyer_under_any_routing(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["hybrid"] = {"buyer": "zzz", "bytes": 10, "deadline": 5}
        message = r"^conf\.yaml\.hybrid: boosted buyer 'zzz' is not in the scenario"
        with pytest.raises(ConfigError, match=message):
            parse_config(doc, source="conf.yaml")

    def test_hybrid_block_without_hybrid_routing_is_rejected(self):
        """A block that no scenario reads is an error, as ``pool.sellers``
        next to ``pool.types`` is; a hybrid variant reads it."""
        doc = copy.deepcopy(MINI_DOC)
        doc["hybrid"] = {"buyer": "a", "bytes": 10, "deadline": 5}
        doc["mechanisms"] = [{"name": "v", "mechanism": "vmm"}, {"name": "f", "routing": "fq"}]
        with pytest.raises(ConfigError, match=r"^conf\.yaml\.hybrid: no scenario routes hybrid"):
            parse_config(doc, source="conf.yaml")
        doc["mechanisms"][1]["routing"] = "hybrid"
        assert parse_config(doc).variants[1].scenario.hybrid.buyer_id == "a"

    def test_reserve_sweep_drives_price_for_fixed(self):
        """Under ``fixed`` the reserve is the posted price: every served buyer
        pays it per KB, and a buyer bidding below it is not served."""
        doc = copy.deepcopy(MINI_DOC)
        doc["mechanisms"] = [{"mechanism": "fixed", "routing": "fifo", "reserve": 1.0}]
        doc["sweep"] = {"variable": "reserve", "values": [0.0, 2.0, 3.0]}
        cfg = parse_config(doc)
        assert cfg.variants[0].scenario.reserve == 1.0
        for price, served in ((2.0, {"a", "b"}), (3.0, {"a"})):
            sc = cfg.sweep.apply(cfg.scenario_for(cfg.variants[0]), price)
            assert (sc.mechanism, sc.reserve) == ("fixed", price)
            out = run_session(sc, seed=1)
            assert {b for b, x in out.bytes.items() if x > 0} == served
            for p in out.payments.values():
                assert (p.gross, p.rebate) == (price * p.bytes, 0.0)

    def test_pool_block(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"sellers": 4, "sessions_per_seller": 2}
        cfg = parse_config(doc)
        assert [(t.name, t.count) for t in cfg.pool.types] == [("all", 4)]
        assert cfg.pool.sessions_per_seller == 2

    @pytest.mark.parametrize(
        "key, value",
        [("seed", -3), ("capacity", float("nan")), ("capacity", float("inf")),
         ("capacity", 10**400), ("horizon", 10**400)],
    )
    def test_bad_top_level_number_rejected(self, key, value):
        doc = copy.deepcopy(MINI_DOC)
        doc[key] = value
        with pytest.raises(ConfigError, match=rf"conf\.yaml\.{key}: "):
            parse_config(yaml.safe_load(yaml.safe_dump(doc)), source="conf.yaml")

    def test_huge_horizon_is_reported_at_its_key_before_any_buyer(self):
        # Built only: 2 buyers over 10**9 epochs would need 64 GB of session
        # arrays.  The buyers are malformed, so the cap is checked before any
        # of them is parsed.
        doc = {**MINI_DOC, "horizon": 10**9, "buyers": [{}, {}]}
        message = r"^conf\.yaml\.horizon: 2 buyers over 1000000000 epochs need 64000000000 bytes"
        with pytest.raises(ConfigError, match=message):
            parse_config(doc, source="conf.yaml")

    def test_session_size_cap_is_four_float64_arrays_of_1_gib(self):
        buyers = [{"id": b, "value": 1, "demand": {"model": "constant", "rate": 1}} for b in "ab"]
        doc = {**MINI_DOC, "buyers": buyers, "horizon": 2**24}
        assert parse_config(doc).scenario.horizon == 2**24
        message = r"^conf\.yaml\.horizon: .* over the cap of 1073741824 \(1 GiB\)$"
        with pytest.raises(ConfigError, match=message):
            parse_config({**doc, "horizon": 2**24 + 1}, source="conf.yaml")

    def test_runs_are_held_to_the_cap_on_their_samples(self):
        """A run keeps 8 bytes for each of welfare, revenue and 3 rows per
        buyer of every variant at every sweep point: welfare_capacity's 16
        scenarios of 3 buyers keep 1408 bytes a run, so 762600 runs fit in
        1 GiB and one more does not."""
        config = builtin_config_path("welfare_capacity")
        assert load_config(config, {"runs": 762600}).runs == 762600
        for runs in (762601, 10**12):
            message = rf"^{re.escape(config)}\.runs: {runs} runs need {1408 * runs} bytes"
            with pytest.raises(ConfigError, match=message):
                load_config(config, {"runs": runs})
        doc = {**MINI_DOC, "runs": 2**30 // 64}  # 1 variant of 2 buyers: 64 bytes a run
        assert parse_config(doc).runs == 2**24
        with pytest.raises(ConfigError, match=r"^conf\.yaml\.runs: .* over the cap of 1073741824"):
            parse_config({**doc, "runs": 2**24 + 1}, source="conf.yaml")

    def test_pool_type_buyers_are_held_to_the_session_size_cap(self):
        doc = {**MINI_DOC, "horizon": 2**20}
        doc["pool"] = {"types": [{"name": "big", "count": 2, "buyers": [{}] * 40}]}
        message = r"^conf\.yaml\.pool\.types\[0\]\.buyers: 40 buyers over 1048576 epochs"
        with pytest.raises(ConfigError, match=message):
            parse_config(doc, source="conf.yaml")

    def test_flow_count_bound_is_reported_at_its_key(self):
        # Built only: a trace of about 1e11 flows would not fit in memory.
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0]["demand"] = {
            "model": "flow_trace", "mean_rate": 6, "mean_interarrival": 1e-9
        }
        path = re.escape("conf.yaml.buyers[0].demand.mean_interarrival")
        message = rf"^{path}: flow_trace: mean_interarrival must be >= "
        with pytest.raises(ConfigError, match=message):
            parse_config(doc, source="conf.yaml")

    def test_duration_spread_bound_is_reported_at_its_key(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0]["demand"] = {
            "model": "flow_trace", "mean_rate": 6, "mean_duration": 1, "stddev_duration": 1e155
        }
        path = re.escape("conf.yaml.buyers[0].demand.stddev_duration")
        message = rf"^{path}: flow_trace: stddev_duration must be at most "
        with pytest.raises(ConfigError, match=message):
            parse_config(doc, source="conf.yaml")

    @pytest.mark.parametrize(
        "block, node, path",
        [
            ("buyers", [{"id": "a", "value": 1e308, "demand": {"model": "constant", "rate": 8}}],
             "conf.yaml"),
            ("mechanisms", [{"mechanism": "bks", "mu": 1e-306}], "conf.yaml.mechanisms[0]"),
            ("sweep", {"variable": "capacity", "values": [12, 1e306]}, "conf.yaml.sweep.values[1]"),
        ],
        ids=["value", "variant", "sweep-point"],
    )
    def test_overflowing_scenario_is_a_config_error(self, block, node, path):
        """A value, a variant or a sweep point whose products with a session's
        traffic overflow is rejected at its key path; each used to play to NaN
        or infinite utilities."""
        doc = copy.deepcopy(MINI_DOC)
        doc[block] = node
        message = rf"^{re.escape(path)}: buyer 'a': value or bid overflows"
        with pytest.raises(ConfigError, match=message):
            parse_config(doc, source="conf.yaml")

    @pytest.mark.parametrize(
        "field, node, key",
        [
            ("demand", {"model": "constant", "rate": 5, "patience": 3, "mean_rate": 50}, "mean_rate"),
            ("demand", {"model": "flow_trace", "mean_rate": 1, "rate": 5}, "rate"),
            ("demand", {"model": "time_varying", "rates": [1], "min_bytes": 2}, "min_bytes"),
            ("strategy", {"kind": "greedy", "factor": 3}, "factor"),
        ],
    )
    def test_keys_not_read_are_rejected(self, field, node, key):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0][field] = node
        with pytest.raises(ConfigError, match=rf"buyers\[0\]\.{field}: unknown keys \['{key}'"):
            parse_config(doc)

    def test_buffered_rate_and_rates_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0]["demand"] = {"model": "buffered", "rate": 1, "rates": [2]}
        with pytest.raises(ConfigError, match=r"buyers\[0\]\.demand: .*'rate' or 'rates'"):
            parse_config(doc)

    def test_arrival_after_departure_is_a_config_error(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["buyers"][0].update(arrival=10, departure=5)
        with pytest.raises(ConfigError, match=r"conf\.yaml\.buyers\[0\]: need 0 <= arrival"):
            parse_config(doc, source="conf.yaml")

    def test_pool_type_with_duplicate_buyer_ids_is_a_config_error(self):
        doc = copy.deepcopy(MINI_DOC)
        buyer = {"id": "a", "value": 1, "demand": {"model": "constant", "rate": 1}}
        doc["pool"] = {"types": [{"name": "t", "count": 2, "buyers": [buyer, buyer]}]}
        with pytest.raises(ConfigError, match=r"conf\.yaml\.pool\.types\[0\]: duplicate buyer ids"):
            parse_config(doc, source="conf.yaml")

    def test_hybrid_pool_type_without_boosted_buyer_is_a_config_error(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["routing"] = "hybrid"
        doc["hybrid"] = {"buyer": "a", "bytes": 10, "deadline": 5}
        buyer = {"id": "z", "value": 1, "demand": {"model": "constant", "rate": 1}}
        doc["pool"] = {"types": [{"name": "t", "count": 2, "buyers": [buyer]}]}
        with pytest.raises(ConfigError, match=r"conf\.yaml\.pool\.types\[0\]: boosted buyer 'a'"):
            parse_config(doc, source="conf.yaml")

    def test_pool_trials_key_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"sellers": 4, "trials": 5}
        with pytest.raises(ConfigError, match="trials"):
            parse_config(doc)

    def test_pool_sellers_and_types_are_exclusive(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"sellers": 1, "types": [{"name": "t", "count": 2}]}
        with pytest.raises(ConfigError, match=r"^conf\.yaml\.pool: give either 'sellers' or"):
            parse_config(doc, source="conf.yaml")

    @pytest.mark.parametrize(
        "block, node, key",
        [
            ("mechanisms", [{"name": 7, "mechanism": "vmm"}], r"mechanisms\[0\]\.name"),
            ("mechanisms", [{"name": "", "mechanism": "vmm"}], r"mechanisms\[0\]\.name"),
            ("pool", {"types": [{"name": 7, "count": 2}]}, r"pool\.types\[0\]\.name"),
        ],
        ids=["variant-int", "variant-empty", "pool-type-int"],
    )
    def test_names_must_be_nonempty_strings(self, block, node, key):
        doc = copy.deepcopy(MINI_DOC)
        doc[block] = node
        with pytest.raises(ConfigError, match=rf"^conf\.yaml\.{key}: expected a nonempty string"):
            parse_config(doc, source="conf.yaml")

    @pytest.mark.parametrize(
        "block, node, key",
        [
            ("mechanisms", [{"name": "v", "mu": "x"}], r"mechanisms\[0\]\.mu"),
            ("mechanisms", [{"name": "v", "routing": "carrier-pigeon"}],
             r"mechanisms\[0\]\.routing"),
            ("pool", {"types": [{"name": "t", "count": 2, "capacity": -1}]},
             r"pool\.types\[0\]\.capacity"),
        ],
        ids=["variant-mu", "variant-routing", "pool-type-capacity"],
    )
    def test_bad_variant_or_pool_type_value_names_its_key_path(self, block, node, key):
        doc = copy.deepcopy(MINI_DOC)
        doc[block] = node
        with pytest.raises(ConfigError, match=rf"^conf\.yaml\.{key}: "):
            parse_config(doc, source="conf.yaml")

    def test_variant_scenario_inherits_unset_fields(self):
        cfg = load_config(builtin_config_path("welfare_capacity"))
        fq = next(v.scenario for v in cfg.variants if v.name == "fq")
        assert (fq.mechanism, fq.routing, fq.reserve) == ("fixed", "fq", 1.0)
        assert (fq.capacity, fq.mu, fq.buyers) == (cfg.scenario.capacity, 0.2, cfg.scenario.buyers)


BAD_NUMBERS = [
    float("nan"), float("inf"), float("-inf"), 10**400, True, False, "1", -1, -2.5, 0, 1e-13,
]
ONE_RULE_DOC = {
    "experiment": "one",
    "horizon": 40,
    "capacity": 12,
    "buyers": [{"id": "a", "value": 5, "demand": {"model": "constant", "rate": 8}}],
}


def one_rule_scenario(value=5, demand=None, strategy=Strategy("greedy"), arrival=1,
                      departure=40, **fields):
    """The scenario of ``ONE_RULE_DOC``, built directly with the changes given."""
    buyer = BuyerSpec("a", value, demand or DemandSpec.constant(8), arrival, departure, strategy)
    return Scenario((buyer,), **{"capacity": 12, "horizon": 40, **fields})


def top(key):
    return lambda doc, value: doc.update({key: value})


def buyer(key, node=lambda value: value):
    """Put ``node(value)`` under ``key`` of the first buyer."""
    return lambda doc, value: doc["buyers"][0].update({key: node(value)})


def hybrid(key):
    return lambda doc, value: doc.update(
        routing="hybrid", hybrid={"buyer": "a", "bytes": 10, "deadline": 5, key: value}
    )


def sweep(variable):
    return lambda doc, value: doc.update(sweep={"variable": variable, "values": [value]})


ONE_RULE_CASES = [
    # (dotted key path, where to put the value in the document, the direct build)
    *[
        pytest.param(key, top(key), lambda v, key=key: one_rule_scenario(**{key: v}), id=key)
        for key in ("capacity", "mu", "reserve")
    ],
    *[
        pytest.param(
            f"buyers[0].{key}", buyer(key), lambda v, key=key: one_rule_scenario(**{key: v}), id=key
        )
        for key in ("value", "arrival", "departure")
    ],
    pytest.param(
        "buyers[0].demand.rate",
        buyer("demand", lambda v: {"model": "constant", "rate": v}),
        lambda v: DemandSpec.constant(v),
        id="constant.rate",
    ),
    *[
        pytest.param(
            f"buyers[0].demand.{key}",
            buyer("demand", lambda v, key=key: {"model": "flow_trace", "mean_rate": 6, key: v}),
            lambda v, key=key: DemandSpec.flow_trace(**{"mean_rate": 6, "horizon": 40, key: v}),
            id=f"flow_trace.{key}",
        )
        for key in ("mean_rate", "mean_duration", "stddev_duration", "mean_interarrival")
    ],
    *[
        pytest.param(
            f"buyers[0].demand.{key}",
            buyer("demand", lambda v, key=key: {
                "model": "impatient", "rate": 8, "patience": 5, "min_bytes": 10, key: v}),
            lambda v, field=field: DemandSpec.impatient(**{"k": 8, "p": 5, "m": 10, field: v}),
            id=f"impatient.{key}",
        )
        for key, field in (("rate", "k"), ("patience", "p"), ("min_bytes", "m"))
    ],
    pytest.param(
        "buyers[0].demand.rate",
        buyer("demand", lambda v: {"model": "buffered", "rate": v}),
        lambda v: DemandSpec.buffered([v] * 40),
        id="buffered.rate",
    ),
    *[
        pytest.param(
            "buyers[0].demand.rates",
            buyer("demand", lambda v, model=model: {"model": model, "rates": [1, v]}),
            lambda v, model=model: getattr(DemandSpec, model)([1, v]),
            id=f"{model}.rates",
        )
        for model in ("buffered", "time_varying")
    ],
    *[
        pytest.param(
            f"buyers[0].strategy.{key}",
            buyer("strategy", lambda v, kind=kind, key=key: {"kind": kind, key: v}),
            lambda v, kind=kind, field=field: one_rule_scenario(
                strategy=Strategy(kind, **{field: v})
            ),
            id=f"{kind}.{key}",
        )
        for kind, key, field in (
            ("pad", "rate", "pad"), ("delay", "epochs", "delay_epochs"),
            ("misreport", "factor", "bid_factor"),
        )
    ],
    pytest.param(
        "hybrid.bytes",
        hybrid("bytes"),
        lambda v: one_rule_scenario(routing="hybrid", hybrid=HybridBoost("a", v, 5)),
        id="hybrid.bytes",
    ),
    pytest.param(
        "hybrid.deadline",
        hybrid("deadline"),
        lambda v: one_rule_scenario(routing="hybrid", hybrid=HybridBoost("a", 10, v)),
        id="hybrid.deadline",
    ),
    *[
        pytest.param(
            "sweep.values[0]",
            sweep(variable),
            lambda v, variable=variable: one_rule_scenario(**{variable: v}),
            id=f"sweep.{variable}",
        )
        for variable in ("capacity", "reserve", "mu")
    ],
]


@pytest.mark.parametrize("path, place, build", ONE_RULE_CASES)
def test_each_number_has_one_rule(path, place, build):
    """A config value is rejected exactly when the constructor that takes it
    rejects it, with the constructor's message, at the key's dotted path.

    The one rule spanning two fields, a departure before the arrival, is
    reported at the buyer's path."""
    for value in BAD_NUMBERS:
        doc = copy.deepcopy(ONE_RULE_DOC)
        place(doc, value)
        try:
            build(value)
        except ValueError as exc:
            where = path
            if not isinstance(exc, FieldError):
                assert str(exc).startswith("need 0 <= arrival <= departure"), (value, exc)
                where = path.rsplit(".", 1)[0]
            with pytest.raises(ConfigError) as info:
                parse_config(doc, source="conf.yaml")
            assert str(info.value) == f"conf.yaml.{where}: {exc}", value
        else:
            parse_config(doc, source="conf.yaml")


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_simulate_deterministic_outputs(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli("simulate", "--config", config, "--out-dir", str(out1)) == 0
        assert self.run_cli("simulate", "--config", config, "--out-dir", str(out2)) == 0
        for name in ("mini_results.csv", "mini_trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_simulate_csv_schema(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        out = tmp_path / "o"
        self.run_cli("simulate", "--config", config, "--out-dir", str(out))
        header = (out / "mini_results.csv").read_text().splitlines()[0]
        assert header == (
            "experiment_id,sweep_var,sweep_value,mechanism,metric,mean,ci_low,ci_high,seed"
        )

    def test_simulate_json_format(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        out = tmp_path / "o"
        self.run_cli(
            "simulate", "--config", config, "--out-dir", str(out), "--format", "json"
        )
        rows = json.loads((out / "mini_results.json").read_text())
        assert any(r["metric"] == "welfare" for r in rows)

    def test_validation_error_exit_code(self, tmp_path, capsys):
        doc = copy.deepcopy(MINI_DOC)
        doc["routing"] = "carrier-pigeon"
        config = write_config(tmp_path, doc)
        code = self.run_cli("simulate", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "routing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate", "--runs", "0"], ".runs: must be >= 1"),
            (["simulate", "--seed", "-3"], ".seed: must be >= 0"),
            (["sweep", "--variable", "mu", "--values", "1.5"],
             ".sweep.values[0]: mu must be in (0, 1)"),
            (["sweep", "--variable", "capacity", "--values", "nan"], ".sweep.values[0]: "),
            (["sweep", "--values", "8,16"], "--variable and --values"),
            (["sweep", "--variable", "capacity", "--values", "abc"], "--values 'abc'"),
            (["simulate", "--seed", "abc"], "argument --seed: invalid int value"),
            (["simulate", "--frobnicate"], "unrecognized arguments: --frobnicate"),
            (["sweep", "--jobs", "two"], "argument --jobs: invalid int value"),
        ],
    )
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, argv, key):
        config = write_config(tmp_path, MINI_DOC)
        code = self.run_cli(*argv, "--config", config, "--out-dir", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flags, key",
        [
            ("simulate", ["--jobs", "-2"], "--jobs must be >= 1, got -2"),
            ("sweep", ["--jobs", "0"], "--jobs must be >= 1, got 0"),
            ("simulate", ["--budget", "-1"], "--budget must be a positive number of seconds"),
            ("simulate", ["--budget", "0"], "--budget must be a positive number of seconds"),
            ("simulate", ["--budget", "nan"], "--budget must be a positive number of seconds"),
            ("pool", ["--budget", "inf"], "--budget must be a positive number of seconds"),
        ],
    )
    def test_bad_jobs_or_budget_is_a_config_error(self, tmp_path, capsys, command, flags, key):
        """Rejected before any work starts: no output directory is made."""
        config = write_config(tmp_path, MINI_DOC)
        code = self.run_cli(command, *flags, "--config", config, "--out-dir", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "o").exists()

    def test_verify_bad_budget_is_a_config_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("suite ran"))
        assert self.run_cli("verify", "--suite", "balance", "--budget", "nan") == 1
        assert capsys.readouterr().err.startswith("config error: --budget must be")

    @pytest.mark.parametrize("key, value", [("seed", -3), ("capacity", float("nan"))])
    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys, key, value):
        doc = copy.deepcopy(MINI_DOC)
        doc[key] = value
        config = write_config(tmp_path, doc)
        code = self.run_cli("simulate", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {config}.{key}: ")

    @pytest.mark.parametrize("flags", [["--seed", "-3"], ["--runs", "1"]])
    def test_verify_bad_flag_is_a_config_error(self, capsys, flags):
        code = self.run_cli("verify", "--suite", "truthfulness", *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and flags[0] in err

    @pytest.mark.parametrize(
        "argv, message",
        [(["simulate", "--config", builtin_config_path("welfare_capacity")],
          f"config error: {builtin_config_path('welfare_capacity')}.runs: 1000000000 runs"),
         (["sweep", "--config", builtin_config_path("welfare_capacity")],
          f"config error: {builtin_config_path('welfare_capacity')}.runs: 1000000000 runs"),
         (["verify", "--suite", "truthfulness"],
          "config error: --runs: 1000000000 runs need 720000000000 bytes of samples (720 per")],
        ids=["simulate", "sweep", "truthfulness"],
    )
    def test_runs_past_the_sample_cap_are_a_config_error(
        self, monkeypatch, tmp_path, capsys, argv, message
    ):
        """Rejected before any seed or world is drawn: no output is written."""
        import bandshare.engine

        for name in ("run_seeds", "_seed_spans", "_worlds"):
            monkeypatch.setattr(bandshare.engine, name, lambda *a: pytest.fail("run started"))
        out = ["--out-dir", str(tmp_path / "o")] if argv[0] != "verify" else []
        assert self.run_cli(*argv, "--runs", "1000000000", *out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_verify_runs_rejected_outside_truthfulness(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(
            cli, "run_suite", lambda suite, seed, **kw: calls.append(kw) or SuiteReport(suite, True, [])
        )
        for suite in ("balance", "natural"):
            assert self.run_cli("verify", "--suite", suite, "--runs", "5") == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "--runs" in err and suite in err
            assert self.run_cli("verify", "--suite", suite) == 0
        assert calls == [{"deadline": None}, {"deadline": None}]

    def test_verify_truthfulness_runs_default(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cli, "run_suite", lambda suite, seed, **kw: calls.append(kw) or SuiteReport(suite, True, [])
        )
        assert self.run_cli("verify", "--suite", "truthfulness") == 0
        assert self.run_cli("verify", "--suite", "truthfulness", "--runs", "7") == 0
        assert calls == [{"n_runs": 2000, "deadline": None}, {"n_runs": 7, "deadline": None}]

    @pytest.mark.parametrize("flag", ["--runs", "--jobs"])
    def test_pool_rejects_monte_carlo_flags(self, tmp_path, capsys, flag):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"sellers": 4, "sessions_per_seller": 1}
        config = write_config(tmp_path, doc)
        assert self.run_cli("pool", "--config", config, flag, "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("simulate", "--help")
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("loader", ["in use", "pure"])
    @pytest.mark.parametrize("text", [b"a: [1, 2\n", b"a: b\n\tc: d\n", b"a: \x01\n", b"a: \xff\n"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, capsys, monkeypatch, loader, text):
        if loader == "pure":
            monkeypatch.setattr(bandshare.config, "_LOADER", yaml.SafeLoader)
        path = tmp_path / "broken.yaml"
        path.write_bytes(text)
        code = self.run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: invalid YAML: ")

    def test_out_dir_default_is_read_on_every_call(self, tmp_path, monkeypatch):
        """The parser is built once per process, so ``$BANDSHARE_OUT_DIR`` must
        be read when a command runs, not when the parser was built."""
        config = write_config(tmp_path, MINI_DOC)
        for name in ("env1", "env2"):
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / name))
            assert self.run_cli("simulate", "--config", config) == 0
        assert self.run_cli("simulate", "--config", config, "--out-dir", str(tmp_path / "flag")) == 0
        monkeypatch.delenv(cli.OUT_DIR_ENV)
        monkeypatch.chdir(tmp_path)
        assert self.run_cli("simulate", "--config", config) == 0
        for name in ("env1", "env2", "flag", "out"):
            assert sorted(os.listdir(tmp_path / name)) == ["mini_results.csv", "mini_trace.csv"]
        assert cli.build_parser() is cli.build_parser()

    @staticmethod
    def csv_writer_text(ids, trace):
        """What ``csv.writer`` writes of the trace's header and of its rows,
        each value in ``_fmt``'s text."""
        rows = [["epoch"] + [f"consumed:{b}" for b in ids]]
        rows += [[str(t)] + [cli._fmt(v) for v in row] for t, row in enumerate(trace, 1)]
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()

    def test_trace_rows_read_as_fmt_writes_each_value(self):
        """Each distinct value is formatted once: -0.0 apart from 0.0, values
        that repeat within and across rows, and values on either side of the
        12-digit rounding boundary, which format apart or alike."""
        values = [-0.0, 5e-324, 1e-300, 1e300, 0.1 + 0.2, 600.0, math.inf, -math.inf, math.nan,
                  -1 / 3, 123456789012.5, 2.0 ** 53 + 2, 0.0, -0.0, 600.0, 1e-300,
                  1.000000000005, 1.0000000000049998, 1.0000000000050002, 999999999999.5,
                  999999999999.49, 123456789012.49998, 123456789012.50002]
        trace = np.array([values, values[::-1], [0.0] * len(values), [-0.0] * len(values)])
        ids = [f"b{j}" for j in range(len(values))]
        assert cli._trace_csv(ids, trace) == self.csv_writer_text(ids, trace)
        assert cli._trace_csv(ids, trace.T.copy().T) == self.csv_writer_text(ids, trace)

    @pytest.mark.parametrize("ids", [["a,b", 'q"x', "c"], []])
    def test_trace_header_is_quoted_as_csv_writer_quotes_it(self, ids):
        """Buyer ids that need quoting, and a session with no buyers."""
        trace = np.arange(2.0 * len(ids)).reshape(2, len(ids)) / 3
        text = cli._trace_csv(ids, trace)
        assert text == self.csv_writer_text(ids, trace)
        if ids:
            assert text.startswith('epoch,"consumed:a,b","consumed:q""x",consumed:c\r\n')

    FIRST_HYBRID = dict(
        MINI_DOC, experiment="first_hybrid", horizon=200, routing="hybrid",
        hybrid={"buyer": "b", "bytes": 300, "deadline": 120},
        buyers=[dict(MINI_DOC["buyers"][0], strategy={"kind": "pad", "rate": 2}),
                MINI_DOC["buyers"][1]],
        mechanisms=[{"name": "hybrid", "mechanism": "bks", "routing": "hybrid"},
                    {"name": "fq", "mechanism": "vmm", "routing": "fq"}],
    )

    @pytest.mark.parametrize("name", [
        *sorted(p.stem for p in (pathlib.Path(bandshare.config.__file__).parent / "configs")
                .glob("*.yaml")),
        "first_hybrid",
    ])
    def test_simulate_trace_is_its_first_runs_session(self, name, tmp_path):
        """``simulate`` takes its trace from its Monte Carlo: the grants of
        the first variant in run 0, which are that run's own session's trace,
        at ``--jobs`` 1 and 2, over runs that take two batches.
        ``first_hybrid``'s first variant routes hybrid with a padding buyer,
        so the batch sweeps its run 0 on its own."""
        from bandshare.engine import BATCH_BYTES

        path = (write_config(tmp_path, self.FIRST_HYBRID) if name == "first_hybrid"
                else builtin_config_path(name))
        config = load_config(path)
        scenario = config.variants[0].scenario
        assert (scenario.routing == "hybrid") == (name == "first_hybrid")
        runs = max(1, BATCH_BYTES // (8 * len(scenario.buyers) * scenario.horizon)) + 1
        session = run_session(scenario, run_seeds(config.seed, 1)[0])
        want = cli._trace_csv(session.buyer_ids, session.trace)
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            argv = ["simulate", "--config", path, "--runs", str(runs), "--jobs", str(jobs),
                    "--out-dir", str(out)]
            assert self.run_cli(*argv) == 0
            assert (out / f"{config.experiment_id}_trace.csv").read_bytes() == want.encode()

    def test_missing_config_file(self, tmp_path):
        code = self.run_cli(
            "simulate", "--config", str(tmp_path / "nope.yaml"), "--out-dir", str(tmp_path)
        )
        assert code == 1

    def test_config_path_that_cannot_be_read_is_a_config_error(self, tmp_path, capsys):
        # A directory used to end in an IsADirectoryError traceback.
        out = tmp_path / "o"
        assert self.run_cli("simulate", "--config", str(tmp_path), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path}: Is a directory\n"
        assert not out.exists()

    def test_sweep_flag_override(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        out = tmp_path / "o"
        code = self.run_cli(
            "sweep", "--config", config, "--out-dir", str(out),
            "--variable", "capacity", "--values", "8,16",
        )
        assert code == 0
        body = (out / "mini_sweep_capacity.csv").read_text()
        assert ",capacity,8," in body and ",capacity,16," in body

    def test_sweep_without_grid_errors(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        code = self.run_cli("sweep", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 1

    def test_single_point_sweep_matches_simulate(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        out = tmp_path / "o"
        self.run_cli("simulate", "--config", config, "--out-dir", str(out))
        self.run_cli(
            "sweep", "--config", config, "--out-dir", str(out),
            "--variable", "capacity", "--values", "12",
        )

        def metric_means(path):
            import csv

            with open(path) as fh:
                return {r["metric"]: r["mean"] for r in csv.DictReader(fh)}

        sim = metric_means(out / "mini_results.csv")
        swp = metric_means(out / "mini_sweep_capacity.csv")
        assert sim == swp

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        self.run_cli("simulate", "--config", config, "--out-dir", str(out1), "--seed", "1")
        self.run_cli("simulate", "--config", config, "--out-dir", str(out2), "--seed", "2")
        assert (out1 / "mini_results.csv").read_text() != (out2 / "mini_results.csv").read_text()

    def test_pool_command(self, tmp_path):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"sellers": 6, "sessions_per_seller": 2}
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = self.run_cli("pool", "--config", config, "--out-dir", str(out))
        assert code == 0
        sellers = (out / "mini_sellers.csv").read_text().splitlines()
        assert len(sellers) == 1 + 6
        audit = json.loads((out / "mini_settlement.json").read_text())
        assert sorted(len(s) for s in audit["split"]) == [3, 3]
        pool_csv = (out / "mini_pool.csv").read_text()
        assert "balance_error" in pool_csv

    def test_duplicate_pool_type_names_are_a_config_error(self, tmp_path, capsys):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"types": [{"name": "t", "count": 1}, {"name": "t", "count": 1}],
                       "sessions_per_seller": 1}
        config = write_config(tmp_path, doc)
        assert self.run_cli("pool", "--config", config, "--out-dir", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}.pool.types: duplicate pool type names")

    @pytest.mark.parametrize("mechanism", ["vmm", "fixed"])
    def test_pool_of_non_bks_sessions_is_a_config_error(self, tmp_path, capsys, mechanism):
        """The pool settles bid x bytes - rebate, what bks buyers pay; VCG and
        posted-price buyers pay otherwise, so their pooled revenue was made up."""
        doc = copy.deepcopy(MINI_DOC)
        doc.update(mechanism=mechanism, pool={"sellers": 4, "sessions_per_seller": 2})
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert self.run_cli("pool", "--config", config, "--out-dir", str(out)) == 1
        message = f"a pool settles bks sessions only, not {mechanism!r}"
        assert capsys.readouterr().err == f"config error: {config}.pool: {message}\n"
        assert not out.exists()

    def test_pool_requires_pool_block(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        code = self.run_cli("pool", "--config", config, "--out-dir", str(tmp_path / "o"))
        assert code == 1

    def test_verify_pass_and_fail_exit_codes(self, capsys):
        assert self.run_cli("verify", "--suite", "balance", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "[PASS] balance" in out

    def test_verify_unknown_suite_rejected(self, capsys):
        assert self.run_cli("verify", "--suite", "vibes") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "vibes" in err

    def test_budget_exceeded_exit_code(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        code = self.run_cli(
            "simulate", "--config", config, "--out-dir", str(tmp_path / "o"),
            "--budget", "1e-9",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "elapsed, shown",
        [(0.54, "0.54s > 0.5s"), (0.5004, "0.5004s > 0.5s"), (3.31, "3.3s > 0.5s")],
    )
    def test_budget_message_tells_the_two_times_apart(
        self, tmp_path, monkeypatch, capsys, elapsed, shown
    ):
        # The clock reads 100 when main starts and 100 + elapsed after.
        clock = iter([100.0])
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock, 100.0 + elapsed))
        config = write_config(tmp_path, MINI_DOC)
        code = self.run_cli(
            "simulate", "--config", config, "--out-dir", str(tmp_path / "o"), "--budget", "0.5"
        )
        assert code == 3
        assert capsys.readouterr().err == f"runtime budget exceeded: {shown}\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_budget_stops_the_monte_carlo_and_writes_no_file(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """The clock reads 100 when main starts and 110 after: the Monte Carlo
        stops after its first batch, and no result or trace file is written."""
        readings = []

        def clock():
            readings.append(None)
            return 100.0 if len(readings) == 1 else 110.0

        monkeypatch.setattr(cli.time, "monotonic", clock)
        doc = dict(MINI_DOC, runs=50, sweep={"variable": "capacity", "values": [8, 16]})
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = self.run_cli(command, "--config", config, "--out-dir", str(out), "--budget", "0.5")
        assert code == 3
        assert capsys.readouterr().err == "runtime budget exceeded: 10s > 0.5s\n"
        assert not out.exists()
        assert len(readings) == 3  # main's start, after the one batch, main's end

    @pytest.mark.parametrize("command", ["simulate", "sweep", "pool"])
    def test_budget_not_reached_leaves_the_files_unchanged(self, tmp_path, monkeypatch, command):
        doc = dict(MINI_DOC, runs=5, sweep={"variable": "capacity", "values": [8, 16]},
                   pool={"sellers": 4})
        config = write_config(tmp_path, doc)
        free, budgeted = tmp_path / "free", tmp_path / "budgeted"
        assert self.run_cli(command, "--config", config, "--out-dir", str(free)) == 0
        monkeypatch.setattr(cli.time, "monotonic", lambda: 100.0)
        argv = ["--config", config, "--out-dir", str(budgeted), "--budget", "0.5"]
        assert self.run_cli(command, *argv) == 0
        names = sorted(os.listdir(free))
        assert names == sorted(os.listdir(budgeted)) and names
        for name in names:
            assert (free / name).read_bytes() == (budgeted / name).read_bytes()

    def test_budget_stops_the_truthfulness_suite_and_prints_no_verdict(
        self, monkeypatch, capsys
    ):
        """The clock reads 100 when main starts and 110 after: the suite's
        Monte Carlo stops after its first batch of 2 runs of the 2000, and
        ``verify`` exits 3 with no verdict line."""
        readings = []

        def clock():
            readings.append(None)
            return 100.0 if len(readings) == 1 else 110.0

        monkeypatch.setattr(cli.time, "monotonic", clock)
        code = self.run_cli("verify", "--suite", "truthfulness", "--seed", "3", "--budget", "0.5")
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "runtime budget exceeded: 10s > 0.5s\n"
        assert len(readings) == 3  # main's start, after the one batch, main's end

    def test_budget_not_reached_leaves_the_verdict_unchanged(self, monkeypatch, capsys):
        argv = ["verify", "--suite", "truthfulness", "--seed", "3", "--runs", "6"]
        assert self.run_cli(*argv) == 0
        free = capsys.readouterr()
        monkeypatch.setattr(cli.time, "monotonic", lambda: 100.0)
        assert self.run_cli(*argv, "--budget", "0.5") == 0
        assert capsys.readouterr() == free

    @staticmethod
    def expiring_clock(monkeypatch):
        """``time.monotonic`` reads 100 when main starts and 110 after; returns
        the list of its readings."""
        readings = []

        def clock():
            readings.append(None)
            return 100.0 if len(readings) == 1 else 110.0

        monkeypatch.setattr(cli.time, "monotonic", clock)
        return readings

    @pytest.mark.parametrize("suite", ["natural", "monotonicity", "balance", "admissibility"])
    def test_budget_stops_every_suite_and_prints_no_verdict(self, monkeypatch, capsys, suite):
        """Each suite checks the deadline after its first model, scenario,
        pool or observed session, stops there, and ``verify`` exits 3 with no
        verdict line."""
        readings = self.expiring_clock(monkeypatch)
        assert self.run_cli("verify", "--suite", suite, "--budget", "0.5") == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "runtime budget exceeded: 10s > 0.5s\n"
        assert len(readings) == 3  # main's start, the suite's first check, main's end

    @pytest.mark.parametrize("suite", ["natural", "monotonicity", "balance", "admissibility"])
    def test_budget_not_reached_leaves_every_verdict_unchanged(self, monkeypatch, capsys, suite):
        assert self.run_cli("verify", "--suite", suite) == 0
        free = capsys.readouterr()
        monkeypatch.setattr(cli.time, "monotonic", lambda: 100.0)
        assert self.run_cli("verify", "--suite", suite, "--budget", "0.5") == 0
        assert capsys.readouterr() == free

    def test_budget_stops_the_pool_and_writes_no_file(self, tmp_path, monkeypatch, capsys):
        """The pool checks the deadline after each batch of sessions: its first
        type's 300 sessions fill batches of near-equal size (``BATCH_BYTES``
        of 2 buyers x 40 epochs), it stops after the first, its second type
        plays none, and no file is written."""
        import bandshare.engine

        per_batch = bandshare.engine.BATCH_BYTES // (8 * 2 * 40)
        first = 300 // -(-300 // per_batch)
        assert first < 300  # the first type plays more than one batch

        batches, task = [], bandshare.engine._mc_task
        monkeypatch.setattr(bandshare.engine, "_mc_task",
                            lambda *a: batches.append(len(a[-1])) or task(*a))
        readings = self.expiring_clock(monkeypatch)
        pool = {"types": [{"name": "t1", "count": 30}, {"name": "t2", "count": 2}]}
        config = write_config(tmp_path, dict(MINI_DOC, pool=pool))
        out = tmp_path / "o"
        assert self.run_cli("pool", "--config", config, "--out-dir", str(out), "--budget", "0.5") == 3
        assert capsys.readouterr().err == "runtime budget exceeded: 10s > 0.5s\n"
        assert not out.exists()
        assert batches == [first]
        assert len(readings) == 3  # main's start, after the first batch, main's end

    def test_a_command_that_ends_past_its_budget_exits_3_after_its_output(
        self, tmp_path, monkeypatch, capsys
    ):
        """The budget is also read when a command has finished: a pool whose
        clock passes the deadline only after its last check still exits 3."""
        clock = iter([100.0] * 2)  # main's start and the check after the one batch of 40 sessions
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock, 110.0))
        config = write_config(tmp_path, dict(MINI_DOC, pool={"sellers": 4}))
        out = tmp_path / "o"
        assert self.run_cli("pool", "--config", config, "--out-dir", str(out), "--budget", "0.5") == 3
        assert capsys.readouterr().err == "runtime budget exceeded: 10s > 0.5s\n"
        assert (out / "mini_settlement.json").exists()

    def test_console_entry_point(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        # The child imports the package this test imported, which pytest may
        # have found through its ``pythonpath`` setting rather than PYTHONPATH.
        src = str(pathlib.Path(bandshare.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bandshare.cli", "simulate", "--config", config,
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr


def pool_one_session_at_a_time(config):
    """The reference ``run_pool``: every seller's sessions played one
    ``run_session`` at a time, each on the next session seed drawn from the
    generator the pool split then draws from, its ledger rows built by
    ``build_ledger`` and its unpooled revenue a running sum of the sessions'
    seller revenue."""
    rng = np.random.default_rng(config.seed)
    ledgers, seller_rows = [], []
    for ptype in config.pool.types:
        for k in range(ptype.count):
            seller_id = f"{ptype.name}-{k:03d}"
            rows, unpooled = [], 0.0
            for _ in range(config.pool.sessions_per_seller):
                outcome = run_session(ptype.scenario, run_seeds(rng, 1)[0])
                rows.extend(build_ledger(seller_id, outcome).rows)
                unpooled += outcome.seller_revenue
            ledgers.append(SellerLedger(seller_id, ptype.scenario.reserve, rows))
            seller_rows.append((seller_id, ptype.name, unpooled))
    return cli.PoolRun(seller_rows, ledgers, settle_pool(ledgers, rng))


def assert_same_pool(got, want):
    """Bit for bit, by ``repr``: each seller's row and ledger, then the
    settlement, so that a failure shows the first seller that differs."""
    assert len(got.seller_rows) == len(want.seller_rows)
    for mine, theirs in zip([*got.seller_rows, *got.ledgers], [*want.seller_rows, *want.ledgers]):
        assert repr(mine) == repr(theirs)
    assert repr(got.settlement) == repr(want.settlement)


MINI_POOL_DOC = dict(MINI_DOC, reserve=1.0, pool={"types": [
    {"name": "plain", "count": 3},
    {"name": "wide", "count": 2, "capacity": 20},
    {"name": "stateful", "count": 2, "buyers": [
        {"id": "a", "value": 5, "demand": {"model": "buffered", "rate": 6},
         "strategy": {"kind": "pad", "rate": 2}},
        {"id": "c", "value": 3, "demand": {"model": "flow_trace", "mean_rate": 9}},
        {"id": "d", "value": 0.5, "demand": {"model": "constant", "rate": 4}},
    ]},
]})


class TestRunPool:
    """``run_pool`` plays each pool type's sessions as the runs of one
    ``run_probes`` call and gives, bit for bit, what one ``run_session`` per
    session gives, RNG stream included: the split that follows draws the same."""

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("name", ["pooling_similar", "pooling_varied"])
    def test_builtin_pools_equal_one_session_at_a_time(self, name, seed):
        overrides = {} if seed is None else {"seed": seed}
        config = load_config(builtin_config_path(name), overrides)
        assert_same_pool(cli.run_pool(config), pool_one_session_at_a_time(config))

    @pytest.mark.parametrize("sessions", [1, 3])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_a_multi_type_pool_equals_one_session_at_a_time(self, seed, sessions):
        """Three types, one of them with a padding buffered buyer and one
        buyer below the reserve, at 1 and 3 sessions per seller."""
        doc = copy.deepcopy(MINI_POOL_DOC)
        doc["pool"]["sessions_per_seller"] = sessions
        config = parse_config(dict(doc, seed=seed))
        pooled = cli.run_pool(config)
        assert len(pooled.ledgers) == 7 and len(pooled.ledgers[-1].rows) == 3 * sessions
        assert_same_pool(pooled, pool_one_session_at_a_time(config))

    @pytest.mark.parametrize("name", ["pooling_similar", "pooling_varied"])
    def test_builtin_pools_balance_their_engine_ledgers(self, tmp_path, name):
        """The ``balance_error`` that ``pool`` writes, what the buyers paid
        less the transfers and the center's residual, is within 1e-12 of what
        the buyers paid, which is the sellers' unpooled revenue summed."""
        out = tmp_path / "o"
        assert main(["pool", "--config", builtin_config_path(name), "--out-dir", str(out)]) == 0
        with open(out / f"{name}_pool.csv") as fh:
            metrics = {row["metric"]: float(row["mean"]) for row in csv.DictReader(fh)}
        with open(out / f"{name}_sellers.csv") as fh:
            paid = sum(float(row["unpooled_revenue"]) for row in csv.DictReader(fh))
        assert paid > 1e7
        assert abs(metrics["balance_error"]) <= 1e-12 * paid
