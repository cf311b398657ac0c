"""Structure guards.

The session RNG layout lives in ``bandshare.engine``: no other module may
reach into the engine's private names, and only the engine may write the
session-seed bound ``2**63 - 1`` (the range that ``run_seeds`` draws session
seeds from), however the draw is spelled.

Demand models live in ``bandshare.demand``: no other module may reach into
its private names (the model table and the per-model functions) or construct
a ``DemandRealization``, so every realization comes from
``DemandSpec.realize``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bandshare"
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
