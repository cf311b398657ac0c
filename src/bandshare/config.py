"""Scenario configuration files.

Experiments are declared in YAML.  A config names the buyers (value, demand
model, allocation period, strategy), the seller's capacity and routing policy,
the mechanism and its parameters, the horizon, run count, and seed.  Optional
blocks add mechanism variants to compare, a sweep over capacity / reserve /
mu, and a multi-seller pool.

Validation is strict: unknown keys (also keys that the chosen demand model or
strategy does not read), missing required keys, bad types, unknown tags, and
values that the scenario objects reject are all reported as a ``ConfigError``
with the file path and the dotted key path of the offending entry.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Mapping, Optional, Sequence

import yaml

from bandshare.demand import DemandSpec
from bandshare.engine import (
    MECHANISMS,
    ROUTING_POLICIES,
    BuyerSpec,
    HybridBoost,
    Scenario,
    Strategy,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MechanismVariant",
    "PoolConfig",
    "PoolType",
    "SweepConfig",
    "builtin_config_path",
    "load_config",
    "parse_config",
]

SWEEP_VARIABLES = ("capacity", "reserve", "mu")


class ConfigError(ValueError):
    """A scenario config failed validation; the message carries the key path."""


def _err(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise _err(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _require(mapping: Mapping, key: str, path: str) -> Any:
    if key not in mapping:
        raise _err(path, f"missing required key {key!r}")
    return mapping[key]


def _check_keys(mapping: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = set(_mapping(mapping, path)) - set(allowed)
    if unknown:
        raise _err(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _build(path: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, reporting its ``ValueError`` as a config error at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _err(path, str(exc)) from exc


def _number(value: Any, path: str, minimum: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints too big for a float
        raise _err(path, f"expected a finite number, got {value}")
    if minimum is not None and value < minimum:
        raise _err(path, f"must be >= {minimum}, got {value}")
    return float(value)


def _integer(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(path, f"must be >= {minimum}, got {value}")
    return value


def _tag(node: Any, key: str, tags: Mapping[str, Sequence[str]], what: str, path: str) -> str:
    """The tag under ``key``, once the node holds only that tag's keys."""
    tag = _require(_mapping(node, path), key, path)
    if not isinstance(tag, str) or tag not in tags:
        raise _err(f"{path}.{key}", f"unknown {what} {tag!r}; one of {', '.join(tags)}")
    _check_keys(node, [key, *tags[tag]], path)
    return tag


# Config keys read by each demand model and each strategy kind.
_DEMAND_KEYS = {
    "constant": ["rate"],
    "flow_trace": ["mean_rate", "mean_duration", "stddev_duration", "mean_interarrival"],
    "impatient": ["rate", "patience", "min_bytes"],
    "buffered": ["rate", "rates"],
    "time_varying": ["rates"],
}
_STRATEGY_KEYS = {"greedy": [], "pad": ["rate"], "delay": ["epochs"], "misreport": ["factor"]}


def _rates(node: Mapping, path: str) -> List[float]:
    rates = _require(node, "rates", path)
    if not isinstance(rates, list) or not rates:
        raise _err(f"{path}.rates", "expected a nonempty list of numbers")
    return [_number(v, f"{path}.rates[{i}]", 0) for i, v in enumerate(rates)]


def _parse_demand(node: Any, path: str, horizon: int) -> DemandSpec:
    model = _tag(node, "model", _DEMAND_KEYS, "demand model", path)
    if model == "constant":
        rate = _number(_require(node, "rate", path), f"{path}.rate", 0)
        return _build(path, DemandSpec.constant, rate)
    if model == "flow_trace":
        return _build(
            path,
            DemandSpec.flow_trace,
            mean_rate=_number(_require(node, "mean_rate", path), f"{path}.mean_rate", 0),
            horizon=horizon,
            mean_duration=_number(node.get("mean_duration", 30.0), f"{path}.mean_duration", 1e-9),
            stddev_duration=_number(node.get("stddev_duration", 30.0), f"{path}.stddev_duration", 0),
            mean_interarrival=_number(
                node.get("mean_interarrival", 30.0), f"{path}.mean_interarrival", 1e-9
            ),
        )
    if model == "impatient":
        return _build(
            path,
            DemandSpec.impatient,
            k=_number(_require(node, "rate", path), f"{path}.rate", 0),
            p=_integer(_require(node, "patience", path), f"{path}.patience", 1),
            m=_number(_require(node, "min_bytes", path), f"{path}.min_bytes", 0),
        )
    if model == "buffered":
        if "rate" in node and "rates" in node:
            raise _err(path, "give either 'rate' or 'rates', not both")
        if "rates" in node:
            return _build(path, DemandSpec.buffered, _rates(node, path))
        rate = _number(_require(node, "rate", path), f"{path}.rate", 0)
        return _build(path, DemandSpec.buffered, [rate] * horizon)
    return _build(path, DemandSpec.time_varying, _rates(node, path))


def _parse_strategy(node: Any, path: str) -> Strategy:
    if node is None:
        return Strategy("greedy")
    kind = _tag(node, "kind", _STRATEGY_KEYS, "strategy", path)
    if kind == "pad":
        return Strategy("pad", pad=_number(_require(node, "rate", path), f"{path}.rate", 0))
    if kind == "delay":
        return Strategy(
            "delay", delay_epochs=_integer(_require(node, "epochs", path), f"{path}.epochs", 0)
        )
    if kind == "misreport":
        return Strategy(
            "misreport", bid_factor=_number(_require(node, "factor", path), f"{path}.factor", 0)
        )
    return Strategy("greedy")


def _parse_buyer(node: Any, path: str, horizon: int) -> BuyerSpec:
    _check_keys(node, ["id", "value", "arrival", "departure", "demand", "strategy"], path)
    buyer_id = _require(node, "id", path)
    if not isinstance(buyer_id, str) or not buyer_id:
        raise _err(f"{path}.id", "buyer id must be a nonempty string")
    return _build(
        path,
        BuyerSpec,
        buyer_id=buyer_id,
        value=_number(_require(node, "value", path), f"{path}.value", 0),
        demand=_parse_demand(_require(node, "demand", path), f"{path}.demand", horizon),
        arrival=_integer(node.get("arrival", 1), f"{path}.arrival", 0),
        departure=_integer(node.get("departure", horizon), f"{path}.departure", 0),
        strategy=_parse_strategy(node.get("strategy"), f"{path}.strategy"),
    )


# Scenario fields set by the top level, by each mechanism variant and by each
# pool type; a variant or pool type inherits every field it does not set.
_SCENARIO_KEYS = ["buyers", "capacity", "routing", "mechanism", "mu", "reserve", "price"]
_VARIANT_KEYS = ["mechanism", "routing", "mu", "reserve", "price"]
_POOL_TYPE_KEYS = ["capacity", "buyers"]
_MINIMUMS = {"capacity": 1e-12, "mu": None, "reserve": 0, "price": 0}
_CHOICES = {"routing": ROUTING_POLICIES, "mechanism": MECHANISMS}


def _scenario_fields(node: Mapping, path: str, keys: Sequence[str], horizon: int) -> dict:
    """The ``Scenario`` fields among ``keys`` that ``node`` sets, each checked at its key path."""
    fields = {}
    for key in (k for k in keys if k in node):
        value, kpath = node[key], f"{path}.{key}"
        if key in _CHOICES and value not in _CHOICES[key]:
            raise _err(kpath, f"unknown {key} {value!r}; one of {', '.join(_CHOICES[key])}")
        if key == "buyers":
            if not isinstance(value, list) or not value:
                raise _err(kpath, "expected a nonempty list of buyers")
            value = tuple(_parse_buyer(b, f"{kpath}[{i}]", horizon) for i, b in enumerate(value))
        elif key in _MINIMUMS:
            value = _number(value, kpath, _MINIMUMS[key])
        fields[key] = value
    return fields


def _name(node: Mapping, path: str, default: str) -> str:
    name = node.get("name", default)
    if not isinstance(name, str) or not name:
        raise _err(f"{path}.name", f"expected a nonempty string, got {name!r}")
    return name


def _check_unique(names: List[str], path: str, what: str) -> None:
    if len(set(names)) != len(names):
        raise _err(path, f"duplicate {what} names in {names}")


@dataclass(frozen=True)
class MechanismVariant:
    """One mechanism/routing combination compared by an experiment."""

    name: str
    scenario: Scenario


@dataclass(frozen=True)
class SweepConfig:
    variable: str
    values: tuple

    def apply(self, scenario: Scenario, value: float) -> Scenario:
        if self.variable == "capacity":
            return replace(scenario, capacity=value)
        if self.variable == "mu":
            return replace(scenario, mu=value)
        # Reserve: for the posted-price mechanism the reserve lever *is* the
        # posted price; for the others it is the auction reserve.
        if scenario.mechanism == "fixed":
            return replace(scenario, reserve=value, price=value)
        return replace(scenario, reserve=value)


@dataclass(frozen=True)
class PoolType:
    name: str
    count: int
    scenario: Scenario


@dataclass(frozen=True)
class PoolConfig:
    types: tuple  # of PoolType
    sessions_per_seller: int = 10  # auctions per accounting period


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    scenario: Scenario  # base scenario, from the top-level keys
    variants: tuple  # of MechanismVariant
    runs: int
    seed: int
    sweep: Optional[SweepConfig] = None
    pool: Optional[PoolConfig] = None

    def scenario_for(self, variant: MechanismVariant) -> Scenario:
        return variant.scenario


def _parse_sweep(node: Any, path: str) -> SweepConfig:
    _check_keys(node, ["variable", "values"], path)
    variable = _require(node, "variable", path)
    if variable not in SWEEP_VARIABLES:
        raise _err(
            f"{path}.variable",
            f"unknown sweep variable {variable!r}; one of {SWEEP_VARIABLES}",
        )
    values = _require(node, "values", path)
    if not isinstance(values, list) or not values:
        raise _err(f"{path}.values", "expected a nonempty list of numbers")
    minimum = 1e-12 if variable == "capacity" else (1e-9 if variable == "mu" else 0.0)
    parsed = tuple(_number(v, f"{path}.values[{i}]", minimum) for i, v in enumerate(values))
    if variable == "mu" and any(v >= 1 for v in parsed):
        raise _err(f"{path}.values", "mu values must be in (0, 1)")
    return SweepConfig(variable, parsed)


def _parse_pool(node: Any, path: str, base: Scenario) -> PoolConfig:
    _check_keys(node, ["sellers", "types", "sessions_per_seller"], path)
    sessions = _integer(node.get("sessions_per_seller", 10), f"{path}.sessions_per_seller", 1)
    if "types" not in node:
        sellers = _integer(_require(node, "sellers", path), f"{path}.sellers", 2)
        return PoolConfig((PoolType("all", sellers, base),), sessions)
    if "sellers" in node:
        raise _err(path, "give either 'sellers' or 'types', not both")
    tnode = node["types"]
    if not isinstance(tnode, list) or not tnode:
        raise _err(f"{path}.types", "expected a nonempty list")
    types = []
    for i, tdoc in enumerate(tnode):
        tpath = f"{path}.types[{i}]"
        _check_keys(tdoc, ["name", "count", *_POOL_TYPE_KEYS], tpath)
        count = _integer(_require(tdoc, "count", tpath), f"{tpath}.count", 1)
        fields = _scenario_fields(tdoc, tpath, _POOL_TYPE_KEYS, base.horizon)
        scenario = _build(tpath, replace, base, **fields)
        types.append(PoolType(_name(tdoc, tpath, f"type{i}"), count, scenario))
    _check_unique([t.name for t in types], f"{path}.types", "pool type")
    if sum(t.count for t in types) < 2:
        raise _err(path, "a pool needs at least 2 sellers")
    return PoolConfig(tuple(types), sessions)


_TOP_KEYS = [
    "experiment",
    "seed",
    "runs",
    "horizon",
    "hybrid",
    "mechanisms",
    "sweep",
    "pool",
    *_SCENARIO_KEYS,
]


def parse_config(doc: Any, source: str = "<config>") -> ExperimentConfig:
    """Validate a parsed YAML document and build the experiment objects."""
    _check_keys(doc, _TOP_KEYS, source)
    experiment = _require(doc, "experiment", source)
    if not isinstance(experiment, str) or not experiment:
        raise _err(f"{source}.experiment", "experiment id must be a nonempty string")
    horizon = _integer(doc.get("horizon", 600), f"{source}.horizon", 1)
    _require(doc, "buyers", source)
    _require(doc, "capacity", source)
    fields = _scenario_fields(doc, source, _SCENARIO_KEYS, horizon)

    hybrid = None
    if doc.get("hybrid") is not None:
        hpath = f"{source}.hybrid"
        _check_keys(doc["hybrid"], ["buyer", "bytes", "deadline"], hpath)
        hybrid = _build(
            hpath,
            HybridBoost,
            buyer_id=_require(doc["hybrid"], "buyer", hpath),
            target_bytes=_number(_require(doc["hybrid"], "bytes", hpath), f"{hpath}.bytes", 0),
            deadline=_integer(_require(doc["hybrid"], "deadline", hpath), f"{hpath}.deadline", 1),
        )
    base = _build(source, Scenario, **fields, horizon=horizon, hybrid=hybrid)

    variants = [MechanismVariant(base.mechanism, base)]
    if doc.get("mechanisms") is not None:
        node = doc["mechanisms"]
        if not isinstance(node, list) or not node:
            raise _err(f"{source}.mechanisms", "expected a nonempty list")
        variants = []
        for i, v in enumerate(node):
            vpath = f"{source}.mechanisms[{i}]"
            _check_keys(v, ["name", *_VARIANT_KEYS], vpath)
            fields = _scenario_fields(v, vpath, _VARIANT_KEYS, horizon)
            scenario = _build(vpath, replace, base, **fields)
            name = _name(v, vpath, f"{scenario.mechanism}-{scenario.routing}")
            variants.append(MechanismVariant(name, scenario))
        _check_unique([v.name for v in variants], f"{source}.mechanisms", "variant")

    sweep = None
    if doc.get("sweep") is not None:
        sweep = _parse_sweep(doc["sweep"], f"{source}.sweep")

    pool = None
    if doc.get("pool") is not None:
        pool = _parse_pool(doc["pool"], f"{source}.pool", base)

    return ExperimentConfig(
        experiment_id=experiment,
        scenario=base,
        variants=tuple(variants),
        runs=_integer(doc.get("runs", 1), f"{source}.runs", 1),
        seed=_integer(doc.get("seed", 0), f"{source}.seed", 0),
        sweep=sweep,
        pool=pool,
    )


def load_config(path: str, overrides: Optional[Mapping[str, Any]] = None) -> ExperimentConfig:
    """Load and validate a config file.

    ``overrides`` replaces top-level keys of the document before validation,
    so values given on the command line meet the same checks as the file's.
    """
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if doc is None:
        raise ConfigError(f"{path}: empty config")
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    return parse_config(doc, source=path)


def builtin_config_path(name: str) -> str:
    """Path of a packaged experiment fixture (see bandshare/configs/)."""
    here = os.path.dirname(__file__)
    path = os.path.join(here, "configs", f"{name}.yaml")
    if not os.path.exists(path):
        raise ConfigError(f"no builtin config named {name!r}")
    return path

