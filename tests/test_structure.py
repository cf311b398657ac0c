"""Structure guards.

The session RNG layout lives in ``bandshare.engine``: no other module may
reach into the engine's private names, and only the engine may write the
session-seed bound ``2**63 - 1`` (the range that ``run_seeds`` draws session
seeds from), however the draw is spelled.  Within the engine, only the
functions that lay out the streams (``run_seeds`` and ``_worlds``, which
draws every resampling coin and gamma of a batch's worlds) name ``np.random``
or draw from a ``Generator``, so bid records and the allocation code cannot
grow a stream of their own; ``payments.py`` draws nothing at all.

Demand models live in ``bandshare.demand``: no other module may reach into
its private names (the model table and the per-model functions) or construct
a ``DemandRealization``, so every realization comes from
``DemandSpec.realize`` or ``DemandSpec.realize_runs``, and the engine makes
no demand draw (``poisson``, ``uniform`` or ``lognormal``), so the
flow_trace law lives only in ``demand.py``.

Every name in a module's ``__all__`` is used by the package itself or by the
benchmark, not only by tests: the package re-exports in ``__init__.py`` do
not count as a use.

A session's eligibility and priority order are decided in one place: only
one engine function calls ``priority_groups``, and it is the one that applies
the eligibility floor (the reserve, which is the posted price under ``fixed``).
Allocation is bid-blind and settlement happens once: no allocation function
takes the bid records or reads a bid, a routing key or a resampling flag, and
one engine function, the replayed session, calls ``_finish``, and only
``_finish`` calls the settlement functions.  The one other settler is the
Monte Carlo batch (``_mc_batch``), which settles the runs it plays side by
side: it calls ``vmm_epoch_charges`` once, and no other settlement function.

Traffic totals are formed in two places, one per session and one per batch:
``_finish`` and ``_mc_batch`` are the only engine functions that sum or
accumulate a row of ``grants``, each once, apart from the impatient quit
test's prefix ``cumsum`` in the sweep (a decision, not a reported total),
and the loop and the sweep each return a 3-tuple of their grants, the
presented demand and the real traffic ``_play`` kept.  Every session plays
the sweep: the replayed session and the batch call ``_run_sweep`` and no
other path, and nothing in the package calls the loop, the tests' reference.

A Monte Carlo has one path: ``run_probes``, which plays ``run_monte_carlo``'s
grids and the truthfulness suite's probes, reaches its runs only through
``_mc_batch``.  The batch sweeps a bucket run by run on one test, which reads
the buyers' statefulness through ``_stateful`` and the scenario's routing and
nothing else; neither ``run_probes`` nor ``run_monte_carlo`` takes a flag of
its own, and the engine reads no environment variable.  A probe's overrides
are checked once, by ``_checked``, which only ``run_probes`` and a replayed
world's session call, never the batch.  The suite's conditioned estimator
calls ``run_probes`` for the utility rows only and replays no world of its
own.  The monotonicity suite plays each world's bids as the probes of one
``run_probes`` call, no module but the engine calls ``replay``, and
``replay``'s session keeps nothing of one call for the next.

VCG charges come from one priority fill: ``payments.vmm_epoch_charges``
calls ``spq`` once and never in a loop, so no per-buyer re-fill comes back.

Every sweep variable is a ``Scenario`` field, since ``SweepConfig.apply``
sets it by name.

The benchmark's tracer (``bench/tracing.py``) patches package names by
attribute; it must find every one of them and put each original back.
"""

import ast
import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from bandshare.config import SWEEP_VARIABLES
from bandshare.engine import Scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bandshare"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "engine.py")
NON_DEMAND_MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "demand.py")


def _private_names(tree, module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == f"bandshare.{module}":
            yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value).split(".")[-1] == module
        ):
            yield node.attr


def _realization_constructions(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "DemandRealization"
        ):
            yield ast.unparse(node)


SEED_BOUND = 2**63 - 1


def _constant_value(node):
    """Value of an expression built only from number literals, else None."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp):
        left, right = _constant_value(node.left), _constant_value(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Pow):
            return left**right if 0 <= right <= 128 else None
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return left + right if isinstance(node.op, ast.Add) else left - right
    return None


def _seed_bounds(tree):
    for node in ast.walk(tree):
        if _constant_value(node) == SEED_BOUND:
            yield ast.unparse(node)


def test_modules_found():
    assert {"cli.py", "verify.py", "config.py"} <= {p.name for p in MODULES}
    assert {"engine.py", "verify.py", "config.py"} <= {p.name for p in NON_DEMAND_MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_engine_names(path):
    assert list(_private_names(ast.parse(path.read_text()), "engine")) == []


@pytest.mark.parametrize("path", NON_DEMAND_MODULES, ids=lambda p: p.name)
def test_no_private_demand_names(path):
    assert list(_private_names(ast.parse(path.read_text()), "demand")) == []


@pytest.mark.parametrize("path", NON_DEMAND_MODULES, ids=lambda p: p.name)
def test_realizations_built_only_in_demand(path):
    assert list(_realization_constructions(ast.parse(path.read_text()))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_seed_bound_only_in_engine(path):
    assert list(_seed_bounds(ast.parse(path.read_text()))) == []


def test_engine_has_the_seed_bound_once():
    tree = ast.parse((SRC / "engine.py").read_text())
    assert list(_seed_bounds(tree)) == ["2 ** 63 - 1"]


RNG_OWNERS = {"run_seeds", "_worlds"}
GENERATOR_DRAWS = {name for name in dir(np.random.Generator) if not name.startswith("_")}


def _rng_uses(node):
    """``np.random`` names, ``numpy.random`` imports and Generator draw calls
    under ``node`` (a call on ``np`` itself, like ``np.power``, is no draw)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and ast.unparse(sub).startswith(
            ("np.random", "numpy.random")
        ):
            yield ast.unparse(sub)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)) and "numpy.random" in ast.unparse(sub):
            yield ast.unparse(sub)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in GENERATOR_DRAWS
            and ast.unparse(sub.func.value) not in ("np", "numpy")
        ):
            yield ast.unparse(sub)


def test_random_streams_only_in_rng_owners():
    tree = ast.parse((SRC / "engine.py").read_text())
    users = {
        getattr(node, "name", f"line {node.lineno}"): list(_rng_uses(node))
        for node in tree.body
        if any(_rng_uses(node))
    }
    assert "run_seeds" in users  # the guard sees the streams that exist
    strays = {name: uses for name, uses in users.items() if name not in RNG_OWNERS}
    assert strays == {}, f"random streams outside {sorted(RNG_OWNERS)}: {strays}"


DEMAND_DRAWS = {"poisson", "uniform", "lognormal"}


def test_engine_makes_no_demand_draw():
    """The flow_trace law lives only in ``demand.py``: the engine names none
    of its draws, however reached, and hands a batch's realization seeds to
    ``DemandSpec.realize_runs``."""
    tree = ast.parse((SRC / "engine.py").read_text())
    names = {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(tree)
             if isinstance(n, (ast.Attribute, ast.Name))}
    assert not names & DEMAND_DRAWS, sorted(names & DEMAND_DRAWS)
    calls = {ast.unparse(n.func) for n in ast.walk(_engine_function("_worlds"))
             if isinstance(n, ast.Call)}
    assert "DemandSpec.realize_runs" in calls, calls
    demand = {n.attr for n in ast.walk(ast.parse((SRC / "demand.py").read_text()))
              if isinstance(n, ast.Attribute)}
    assert DEMAND_DRAWS <= demand  # the guard names the draws that exist


def test_payments_draw_nothing():
    assert list(_rng_uses(ast.parse((SRC / "payments.py").read_text()))) == []


def test_vcg_charges_fill_the_columns_once():
    """``payments.vmm_epoch_charges`` names ``spq`` once, in a call outside
    any loop or comprehension, so the charges cannot re-fill per buyer."""
    tree = ast.parse((SRC / "payments.py").read_text())
    func = next(
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "vmm_epoch_charges"
    )
    refs = [
        node for node in ast.walk(func)
        if (isinstance(node, ast.Name) and node.id == "spq")
        or (isinstance(node, ast.Attribute) and node.attr == "spq")
    ]
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call) and node.func in refs]
    assert len(refs) == len(calls) == 1, [ast.unparse(node) for node in refs]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = [node for loop in ast.walk(func) if isinstance(loop, loops) for node in ast.walk(loop)]
    assert calls[0] not in looped, f"spq filled in a loop: {ast.unparse(calls[0])}"


def test_priority_and_eligibility_decided_in_one_engine_function():
    tree = ast.parse((SRC / "engine.py").read_text())
    callers = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Call) and ast.unparse(sub.func) == "priority_groups"
            for sub in ast.walk(node)
        )
    ]
    assert len(callers) == 1, f"priority_groups called from {[f.name for f in callers]}"
    reads = {sub.attr for sub in ast.walk(callers[0]) if isinstance(sub, ast.Attribute)}
    assert {"bid", "reserve"} <= reads, f"{callers[0].name} applies no eligibility floor"


def test_sweep_variables_are_scenario_fields():
    # A name that is not a field would make ``replace`` raise a TypeError,
    # which the config loader does not report as a config error.
    assert set(SWEEP_VARIABLES) <= {f.name for f in dataclasses.fields(Scenario)}


ENGINE = ast.parse((SRC / "engine.py").read_text())
PATHS = ["_run_loop", "_run_sweep"]
ALLOCATION = PATHS + ["_boost", "_play", "_allocate_epoch", "_share", "_prorate"]
BID_FIELDS = {"bid", "perturbed_bid", "resampled"}


def _own_nodes(func):
    """The nodes of ``func``'s body, without those of the functions defined in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_sessions_settle_in_one_place():
    callers = [
        func.name
        for func in ast.walk(ENGINE)
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "_finish"
            for node in _own_nodes(func)
        )
    ]
    assert callers == ["session"], f"_finish called from {callers}"


SETTLEMENT = {"bks_settle", "fixed_price_settle", "vmm_epoch_charges"}


def _settlements(tree):
    """The calls under ``tree`` of a settlement function, however it is reached."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in SETTLEMENT
    ]


def _engine_function(name):
    return next(f for f in ENGINE.body if isinstance(f, ast.FunctionDef) and f.name == name)


def test_only_finish_settles():
    """Only ``_finish`` settles a session, and ``_mc_batch`` a batch of runs."""
    inside = _settlements(_engine_function("_finish"))
    assert {ast.unparse(node.func) for node in inside} == SETTLEMENT
    batch = _settlements(_engine_function("_mc_batch"))
    assert [ast.unparse(node.func) for node in batch] == ["vmm_epoch_charges"]
    outside = [ast.unparse(node) for node in _settlements(ENGINE) if node not in inside + batch]
    assert outside == [], f"settlement outside _finish and _mc_batch: {outside}"


@pytest.mark.parametrize("name", ALLOCATION)
def test_allocation_is_bid_blind(name):
    func = next(f for f in ENGINE.body if isinstance(f, ast.FunctionDef) and f.name == name)
    params = {a.arg for a in func.args.args + func.args.kwonlyargs}
    assert "records" not in params, f"{name} takes the bid records"
    reads = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)} & BID_FIELDS
    assert not reads, f"{name} reads {sorted(reads)}"


QUIT_TEST = "np.cumsum(grants_r[i, :, :p], -1)"  # in _run_sweep, run by run


def _grant_totals(func):
    """The ``sum`` and ``cumsum`` calls in ``func`` that read ``grants``."""
    for node in _own_nodes(func):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] in ("sum", "cumsum")
            and "grants" in ast.unparse(node)
        ):
            yield ast.unparse(node)


def test_traffic_totals_formed_only_in_finish():
    totals = {
        func.name: totals
        for func in ast.walk(ENGINE)
        if isinstance(func, ast.FunctionDef) and (totals := list(_grant_totals(func)))
    }
    assert totals == {
        "_finish": ["grants.sum(axis=1)"],
        "_mc_batch": ["grants.sum(-1)"],
        "_run_sweep": [QUIT_TEST],
    }


@pytest.mark.parametrize("name", PATHS)
def test_paths_return_three_tuples(name):
    func = next(f for f in ENGINE.body if isinstance(f, ast.FunctionDef) and f.name == name)
    returns = [node.value for node in _own_nodes(func) if isinstance(node, ast.Return)]
    assert returns and all(
        isinstance(value, ast.Tuple) and len(value.elts) == 3 for value in returns
    ), f"{name} returns {[ast.unparse(v) for v in returns]}"


def test_sessions_take_only_the_sweep():
    """Every session call plays the priority sweep: ``replay``'s session and
    the Monte Carlo batch (over the union of a bucket's runs, or run by run)
    call ``_run_sweep`` and no other path, and nothing in the package calls
    the loop, which only the tests hold the sweep to."""
    calls = [
        (func.name, ast.unparse(node.func))
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in _own_nodes(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("_run_")
    ]
    assert sorted(calls) == [("_mc_batch", "_run_sweep")] * 2 + [("session", "_run_sweep")], calls
    replay = _engine_function("replay")
    assert "session" in {f.name for f in ast.walk(replay) if isinstance(f, ast.FunctionDef)}


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _used_names(tree):
    """Names a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


USERS = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + list(ROOT.glob("bench/*.py"))
USED = {name for p in USERS for name in _used_names(ast.parse(p.read_text()))}
PUBLIC = [
    (p.stem, name)
    for p in sorted(SRC.glob("*.py"))
    for name in _public_names(ast.parse(p.read_text()))
]


def test_public_names_found():
    assert ("engine", "run_session") in PUBLIC and ("demand", "DemandSpec") in PUBLIC
    assert {"run.py", "tracing.py", "workloads.py"} <= {p.name for p in USERS}


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_used_outside_tests(module, name):
    assert name in USED, f"bandshare.{module}.{name} is public but only tests use it"


def test_tracer_patches_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [
        target
        for layers in (tracing.SPAN_LAYERS, tracing.LEAF_LAYERS)
        for owned in layers.values()
        for target in owned
    ] + [tracing.SAMPLER_FACTORY]
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def _callers(tree, name):
    """The names of the functions under ``tree`` that call ``name`` themselves."""
    return sorted(
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and ast.unparse(n.func) == name for n in _own_nodes(func))
    )


def test_runs_reach_only_the_batch():
    """``run_probes`` hands every batch of runs to ``_mc_task``, which draws
    its worlds at once with ``_worlds`` and plays them with ``_mc_batch``,
    the batch's one caller; no per-run worker or session is left beside it.
    The batch chooses to sweep run by run on one test, which reads the
    buyers' statefulness through ``_stateful``, the groups' forms through
    ``_forms``, the predicate ``_run_sweep`` and ``_boost`` serve the groups
    by, and the scenario's routing, and nothing else.  ``run_probes`` and
    ``run_monte_carlo`` take no flag of their own, and the engine reads no
    environment variable."""
    used = {n.id for n in ast.walk(_engine_function("run_probes")) if isinstance(n, ast.Name)}
    assert "_mc_task" in used, used
    assert not used & {"_mc_batch", "_run_sweep", "_finish", "replay", "run_session"}, used
    task = {ast.unparse(n.func) for n in ast.walk(_engine_function("_mc_task"))
            if isinstance(n, ast.Call)}
    assert task == {"_mc_batch", "_worlds"}, task
    assert _callers(ENGINE, "_mc_batch") == ["_mc_task"]
    batch = _engine_function("_mc_batch")
    choices = [
        ast.unparse(n.test) for n in ast.walk(batch) if isinstance(n, ast.If)
        and any(isinstance(c, ast.Call) and ast.unparse(c.func) == "_run_sweep"
                for c in ast.walk(n))
    ]
    assert choices == ["scenario.routing == 'hybrid' or 'play' in forms"], choices
    assigned = {name: [ast.unparse(n.value) for n in ast.walk(batch) if isinstance(n, ast.Assign)
                       and ast.unparse(n.targets[0]) == name] for name in ("stateful", "forms")}
    assert len(assigned["stateful"]) == 1 and assigned["stateful"][0].startswith("[_stateful(")
    assert assigned["forms"] == ["_forms(scenario, realizations[0], groups, stateful)"], assigned
    assert _callers(ENGINE, "_forms") == ["_boost", "_mc_batch", "_run_sweep"]
    params = [a.arg for a in _engine_function("run_monte_carlo").args.args]
    assert params == ["scenarios", "n_runs", "seed", "jobs", "deadline"], params
    params = [a.arg for a in _engine_function("run_probes").args.args]
    assert params == ["probes", "n_runs", "seed", "jobs", "deadline", "metric"], params
    environ = [
        ast.unparse(n) for n in ast.walk(ENGINE)
        if isinstance(n, ast.Attribute) and n.attr in ("environ", "getenv", "environb")
    ]
    assert environ == [], environ


def test_probes_checked_once_each():
    """``run_probes`` checks each probe before it plays a run, and a replayed
    world's session each call: the batch plays checked bids."""
    assert _callers(ENGINE, "_checked") == ["run_probes", "session"]


def test_conditioned_utilities_play_on_run_probes():
    """The truthfulness suite's estimator hands its probes to the engine's
    Monte Carlo, replays no world itself and finds the utilities by naming
    the metric to ``run_probes``, which lays them out by the engine's
    ``buyer_rows``, not by an offset of its own."""
    tree = ast.parse((SRC / "verify.py").read_text())
    func = next(
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == "_conditioned_utilities"
    )
    calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
    called = {ast.unparse(n.func).split(".")[-1] for n in calls}
    assert "run_probes" in called, called
    assert not called & {"replay", "run_session", "run_seeds"}, called
    metrics = [
        ast.unparse(k.value) for n in calls if ast.unparse(n.func).split(".")[-1] == "run_probes"
        for k in n.keywords if k.arg == "metric"
    ]
    assert metrics == ["'utilities'"], metrics


def test_pools_and_admissibility_play_sessions_on_run_probes():
    """``verify.pooling_seller_observations`` and ``cli.run_pool`` reach
    sessions only through ``run_probes``, asking it for its ledger rows,
    and replay or settle no session of their own.  The two modules still
    import ``run_session`` and ``build_ledger`` for the bench's tracer, but
    only ``simulate``'s trace run calls either."""
    for module, name in (("verify", "pooling_seller_observations"), ("cli", "run_pool")):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        func = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == name)
        calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
        called = {ast.unparse(n.func).split(".")[-1] for n in calls}
        assert {"run_probes", "ledger_rows"} <= called, (name, called)
        sessions = {"replay", "run_session", "build_ledger", "run_seeds", "run_monte_carlo"}
        assert not called & sessions, (name, called)
        metrics = [
            ast.unparse(k.value) for n in calls if ast.unparse(n.func) == "run_probes"
            for k in n.keywords if k.arg == "metric"
        ]
        assert metrics == ["'ledger'"], (name, metrics)
        assert _callers(tree, "build_ledger") == []
        assert _callers(tree, "run_session") == ([] if module == "verify" else ["cmd_simulate"])


def test_monotonicity_suite_plays_its_worlds_on_run_probes():
    """``verify.monotonicity_suite`` plays each world's bids as the probes of
    one ``run_probes`` call and replays no session itself; no module but the
    engine calls ``replay``, and ``replay``'s session closes over its scenario
    and world alone, so it keeps nothing of one call for the next."""
    tree = ast.parse((SRC / "verify.py").read_text())
    func = next(
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "monotonicity_suite"
    )
    called = [ast.unparse(n.func).split(".")[-1] for n in ast.walk(func) if isinstance(n, ast.Call)]
    assert called.count("run_probes") == 1, called
    assert not {"replay", "run_session"} & set(called), called
    callers = {
        path.name for path in SRC.glob("*.py") for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == "replay"
    }
    assert callers == {"engine.py"}, callers
    replay = _engine_function("replay")
    session = next(f for f in replay.body if isinstance(f, ast.FunctionDef))
    outer = {n.id for n in _own_nodes(replay) if isinstance(n, ast.Name)}
    closed = {n.id for n in ast.walk(session) if isinstance(n, ast.Name)} & outer
    assert closed == {"scenario", "draws", "demand", "realizations", "stateful"}, closed
