"""Scenario configuration files.

Experiments are declared in YAML.  A config names the buyers (value, demand
model, allocation period, strategy), the seller's capacity and routing policy,
the mechanism and its parameters, the horizon, run count, and seed.  Optional
blocks add mechanism variants to compare, a sweep over capacity / reserve /
mu, and a multi-seller pool.

Validation is strict: unknown keys (also keys that the chosen demand model or
strategy does not read), missing required keys, unknown tags, and values that
the scenario objects reject are all reported as a ``ConfigError`` with the
file path and the dotted key path of the offending entry.  The constructors
of those objects own every type and range check of the values they take;
this module maps the field a constructor names to its key.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Mapping, Optional, Sequence

import yaml

from bandshare.demand import DemandSpec, FieldError
from bandshare.engine import STRATEGY_FIELDS, BuyerSpec, HybridBoost, Scenario, Strategy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MechanismVariant",
    "PoolConfig",
    "PoolType",
    "SweepConfig",
    "builtin_config_path",
    "check_runs",
    "load_config",
    "parse_config",
]

SWEEP_VARIABLES = ("capacity", "reserve", "mu")

# SafeLoader's constructor on libyaml's C parser where PyYAML was built with
# it (several times faster), the pure-Python parser otherwise.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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


# The config key of each constructor field whose name differs from its key.
_KEYS = {"k": "rate", "p": "patience", "m": "min_bytes", "g": "rates", "pad": "rate",
         "delay_epochs": "epochs", "bid_factor": "factor", "target_bytes": "bytes"}


def _build(path: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, reporting its ``ValueError`` as a config error:
    at the key of the field it names when that field is one of ``kwargs``,
    else at ``path``.  The constructors own every range check."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        if isinstance(exc, FieldError) and exc.field in kwargs:
            path = f"{path}.{_KEYS.get(exc.field, exc.field)}"
        raise _err(path, str(exc)) from exc


# Only for the keys that config reads itself: the horizon, runs, seed and the pool's counts.
def _integer(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise _err(path, f"must be >= {minimum}, got {value}")
    return value


# A session holds four float64 (buyers, horizon) arrays: grants, shown and
# presented demand, and the trace.  Their bytes are capped at 1 GiB, and so are
# the samples that a Monte Carlo keeps of all its runs.
_SESSION_BYTES_CAP = 2**30


def _check_session_size(buyers: Any, horizon: int, path: str) -> None:
    """Reject, before any buyer is parsed, a horizon at which the session
    arrays of the list ``buyers`` would pass the cap."""
    n = len(buyers) if isinstance(buyers, list) else 1
    need = 4 * 8 * n * horizon
    if need > _SESSION_BYTES_CAP:
        raise _err(path, f"{n} buyers over {horizon} epochs need {need} bytes of session "
                         f"arrays, over the cap of {_SESSION_BYTES_CAP} (1 GiB)")


def check_runs(runs: int, per_run: int, path: str) -> int:
    """``runs``, unless the ``per_run`` bytes of samples that a Monte Carlo
    keeps of each run would pass the cap, which is a config error at ``path``,
    raised before any run is played."""
    need = runs * per_run
    if need > _SESSION_BYTES_CAP:
        raise _err(path, f"{runs} runs need {need} bytes of samples ({per_run} per run), "
                         f"over the cap of {_SESSION_BYTES_CAP} (1 GiB)")
    return runs


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
_STRATEGY_KEYS = {kind: [_KEYS[f]] if f else [] for kind, f in STRATEGY_FIELDS.items()}


def _parse_demand(node: Any, path: str, horizon: int) -> DemandSpec:
    model = _tag(node, "model", _DEMAND_KEYS, "demand model", path)
    if model == "constant":
        return _build(path, DemandSpec.constant, k=_require(node, "rate", path))
    if model == "flow_trace":
        rate = _require(node, "mean_rate", path)
        # The constructor holds the defaults of the keys a node leaves out.
        given = {k: node[k] for k in _DEMAND_KEYS[model][1:] if k in node}
        return _build(path, DemandSpec.flow_trace, mean_rate=rate, horizon=horizon, **given)
    if model == "impatient":
        return _build(
            path,
            DemandSpec.impatient,
            k=_require(node, "rate", path),
            p=_require(node, "patience", path),
            m=_require(node, "min_bytes", path),
        )
    if model == "buffered":
        if "rate" in node and "rates" in node:
            raise _err(path, "give either 'rate' or 'rates', not both")
        if "rates" not in node:  # one rate for every epoch
            rate = _require(node, "rate", path)
            return _build(f"{path}.rate", DemandSpec.buffered, [rate] * horizon)
    return _build(path, getattr(DemandSpec, model), g=_require(node, "rates", path))


def _parse_strategy(node: Any, path: str) -> Strategy:
    if node is None:
        return Strategy("greedy")
    kind = _tag(node, "kind", _STRATEGY_KEYS, "strategy", path)
    field = STRATEGY_FIELDS[kind]
    given = {field: _require(node, _KEYS[field], path)} if field else {}
    return _build(path, Strategy, kind, **given)


def _parse_buyer(node: Any, path: str, horizon: int) -> BuyerSpec:
    _check_keys(node, ["id", "value", "arrival", "departure", "demand", "strategy"], path)
    buyer_id = _require(node, "id", path)
    if not isinstance(buyer_id, str) or not buyer_id:
        raise _err(f"{path}.id", "buyer id must be a nonempty string")
    return _build(
        path,
        BuyerSpec,
        buyer_id=buyer_id,
        value=_require(node, "value", path),
        demand=_parse_demand(_require(node, "demand", path), f"{path}.demand", horizon),
        arrival=node.get("arrival", 1),
        departure=node.get("departure", horizon),
        strategy=_parse_strategy(node.get("strategy"), f"{path}.strategy"),
    )


# Scenario fields set by the top level, by each mechanism variant and by each
# pool type; a variant or pool type inherits every field it does not set.
_SCENARIO_KEYS = ["buyers", "capacity", "routing", "mechanism", "mu", "reserve"]
_VARIANT_KEYS = ["mechanism", "routing", "mu", "reserve"]
_POOL_TYPE_KEYS = ["capacity", "buyers"]


def _scenario_fields(node: Mapping, path: str, keys: Sequence[str], horizon: int) -> dict:
    """The ``Scenario`` fields among ``keys`` that ``node`` sets, its buyers parsed."""
    fields = {key: node[key] for key in keys if key in node}
    if "buyers" in fields:
        buyers, bpath = fields["buyers"], f"{path}.buyers"
        if not isinstance(buyers, list) or not buyers:
            raise _err(bpath, "expected a nonempty list of buyers")
        fields["buyers"] = tuple(
            _parse_buyer(b, f"{bpath}[{i}]", horizon) for i, b in enumerate(buyers)
        )
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
        return replace(scenario, **{self.variable: value})


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


def _parse_sweep(node: Any, path: str, variants: Sequence[MechanismVariant]) -> SweepConfig:
    """The sweep, once each of its points builds every variant's scenario."""
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
    sweep = SweepConfig(variable, tuple(values))
    for (i, x), variant in itertools.product(enumerate(values), variants):
        _build(f"{path}.values[{i}]", sweep.apply, variant.scenario, x)
    return SweepConfig(variable, tuple(float(x) for x in values))  # each checked above


def _parse_pool(node: Any, path: str, base: Scenario) -> PoolConfig:
    _check_keys(node, ["sellers", "types", "sessions_per_seller"], path)
    # The pool settles what its buyers paid: bid x bytes - rebate, which only bks charges.
    if base.mechanism != "bks":
        raise _err(path, f"a pool settles bks sessions only, not {base.mechanism!r}")
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
        _check_session_size(tdoc.get("buyers"), base.horizon, f"{tpath}.buyers")
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
    # Buyers depart at the horizon by default, so it is checked before they are.
    _build(f"{source}.horizon", FieldError.number, "horizon", horizon)
    _check_session_size(doc.get("buyers"), horizon, f"{source}.horizon")
    _require(doc, "buyers", source)
    _require(doc, "capacity", source)
    fields = _scenario_fields(doc, source, _SCENARIO_KEYS, horizon)

    hybrid = None
    if doc.get("hybrid") is not None:
        node, hpath = doc["hybrid"], f"{source}.hybrid"
        _check_keys(node, ["buyer", "bytes", "deadline"], hpath)
        hybrid = _build(
            hpath,
            HybridBoost,
            buyer_id=_require(node, "buyer", hpath),
            target_bytes=_require(node, "bytes", hpath),
            deadline=_require(node, "deadline", hpath),
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
    routings = {base.routing, *(v.scenario.routing for v in variants)}
    if hybrid is not None and "hybrid" not in routings:
        raise _err(f"{source}.hybrid", "no scenario routes hybrid, so nothing reads this block")

    sweep = None
    if doc.get("sweep") is not None:
        sweep = _parse_sweep(doc["sweep"], f"{source}.sweep", variants)

    pool = None
    if doc.get("pool") is not None:
        pool = _parse_pool(doc["pool"], f"{source}.pool", base)

    # The largest grid the config plays is every variant at every sweep point;
    # a run keeps 8 bytes of welfare, revenue and bytes, payment and utility
    # by buyer for each of its scenarios (see ``engine.run_probes``).
    grid = len(variants) * (len(sweep.values) if sweep is not None else 1)
    runs = _integer(doc.get("runs", 1), f"{source}.runs", 1)
    return ExperimentConfig(
        experiment_id=experiment,
        scenario=base,
        variants=tuple(variants),
        runs=check_runs(runs, 8 * grid * (2 + 3 * len(base.buyers)), f"{source}.runs"),
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
        # Bytes, so that the parser decodes them and reports bad encodings.
        with open(path, "rb") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except OSError as exc:  # a directory, or a file it may not read
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
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

