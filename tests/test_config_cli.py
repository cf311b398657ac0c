"""Config validation and CLI behavior: schema errors, determinism, exit codes."""

import copy
import json
import pathlib
import subprocess
import sys

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

    def test_unknown_top_level_key_rejected(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["capcity"] = 10
        with pytest.raises(ConfigError, match="capcity"):
            parse_config(doc)

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

    def test_reserve_sweep_drives_price_for_fixed(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["mechanisms"] = [{"name": "fifo", "mechanism": "fixed", "routing": "fifo", "price": 1.0}]
        doc["sweep"] = {"variable": "reserve", "values": [0.0, 2.0]}
        cfg = parse_config(doc)
        sc = cfg.sweep.apply(cfg.scenario_for(cfg.variants[0]), 2.0)
        assert sc.price == 2.0 and sc.reserve == 2.0

    def test_pool_block(self):
        doc = copy.deepcopy(MINI_DOC)
        doc["pool"] = {"sellers": 4, "sessions_per_seller": 2}
        cfg = parse_config(doc)
        assert [(t.name, t.count) for t in cfg.pool.types] == [("all", 4)]
        assert cfg.pool.sessions_per_seller == 2

    @pytest.mark.parametrize(
        "key, value",
        [("seed", -3), ("capacity", float("nan")), ("capacity", float("inf")),
         ("capacity", 10**400)],
    )
    def test_bad_top_level_number_rejected(self, key, value):
        doc = copy.deepcopy(MINI_DOC)
        doc[key] = value
        with pytest.raises(ConfigError, match=rf"conf\.yaml\.{key}: "):
            parse_config(yaml.safe_load(yaml.safe_dump(doc)), source="conf.yaml")

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
        assert (fq.mechanism, fq.routing, fq.price) == ("fixed", "fq", 1.0)
        assert (fq.capacity, fq.mu, fq.buyers) == (cfg.scenario.capacity, 0.2, cfg.scenario.buyers)


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
            (["sweep", "--variable", "mu", "--values", "1.5"], ".sweep.values: mu values"),
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
        assert calls == [{}, {}]

    def test_verify_truthfulness_runs_default(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cli, "run_suite", lambda suite, seed, **kw: calls.append(kw) or SuiteReport(suite, True, [])
        )
        assert self.run_cli("verify", "--suite", "truthfulness") == 0
        assert self.run_cli("verify", "--suite", "truthfulness", "--runs", "7") == 0
        assert calls == [{"n_runs": 2000}, {"n_runs": 7}]

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

    def test_missing_config_file(self, tmp_path):
        code = self.run_cli(
            "simulate", "--config", str(tmp_path / "nope.yaml"), "--out-dir", str(tmp_path)
        )
        assert code == 1

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
            "--budget", "0",
        )
        assert code == 3

    def test_console_entry_point(self, tmp_path):
        config = write_config(tmp_path, MINI_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "bandshare.cli", "simulate", "--config", config,
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
