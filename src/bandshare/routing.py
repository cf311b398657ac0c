"""Capacity allocation kernels, one per routing policy.

Each kernel takes an (n, T) matrix of the demands n buyers present in T
epochs and splits each epoch column's capacity ``c`` (KB; a scalar, or one
value per column) among the rows:

* ``proportional`` -- FIFO: proportional to within-epoch demand (the
  flow-level stand-in for a first-in-first-out queue),
* ``maxmin``       -- FQ: max-min fair sharing (progressive filling),
* ``spq``          -- strict priority by key, highest first; rows with equal
  keys share what is left max-min fairly.

The engine's priority sweep plays every policy from two parts, as ``spq``
does: ``priority_groups`` orders the rows into groups of equal key, highest
first, and ``fill_group`` serves one group from the capacity the groups above
it left, by the group's sharing rule.  fq and fifo are the case where every
key ties: one group, shared by ``maxmin`` or ``proportional``.

The ``spq`` split of capacity in descending bid order is also the
value-optimal one, so VCG charges use it too.
Grants are real-valued KB; every kernel is work-conserving, never grants more
than demand, and never exceeds the capacity of a column.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence, Union

import numpy as np

__all__ = ["fill_group", "maxmin", "priority_groups", "proportional", "spq"]

Capacity = Union[float, np.ndarray]


def _capacity(c: Capacity, T: int) -> np.ndarray:
    """A fresh per-column copy of the capacity; negative capacity is rejected.
    Any 0-d value, a numpy scalar included, is one capacity for every column."""
    if np.ndim(c) == 0:
        if c < 0:
            raise ValueError(f"capacity must be >= 0, got {c}")
        return np.full(T, float(c))
    remaining = np.array(c, dtype=float)
    if remaining.shape != (T,) or (remaining < 0).any():
        raise ValueError(f"need {T} capacities >= 0, got {c}")
    return remaining


def proportional(demand: np.ndarray, c: Capacity) -> np.ndarray:
    """Scale each over-demanded column down to its capacity."""
    demand = np.asarray(demand, dtype=float)
    return _proportional(demand, _capacity(c, demand.shape[1]))


def _proportional(demand: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """``proportional`` of ``demand`` within ``remaining``, which it reduces in place."""
    total = demand.sum(axis=0)
    grants = demand * np.where(total > remaining, remaining / np.maximum(total, 1e-300), 1.0)
    remaining -= np.minimum(total, remaining)
    return grants


def maxmin(demand: np.ndarray, c: Capacity) -> np.ndarray:
    """Max-min fair split of each column.

    Rows are served in ascending order of demand, each getting the smaller of
    its demand and an equal share of what is left.
    """
    demand = np.asarray(demand, dtype=float)
    return _maxmin(demand, _capacity(c, demand.shape[1]))


def _maxmin(demand: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """``maxmin`` of ``demand`` within ``remaining``, which it reduces in place."""
    n, T = demand.shape
    # The flat (C-order) positions of each column's entries, by ascending demand.
    flat = np.argsort(demand, axis=0, kind="stable") * T + np.arange(T)
    taken = demand.take(flat)
    for k in range(n):
        taken[k] = np.minimum(taken[k], remaining / (n - k))
        remaining -= taken[k]
    grants = np.empty(n * T)
    grants[flat] = taken
    return grants.reshape(n, T)


def priority_groups(keys: Sequence[float]) -> List[List[int]]:
    """Row positions grouped by equal key, highest key first, in stable order."""
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)  # stable
    return [list(rows) for _, rows in itertools.groupby(order, key=keys.__getitem__)]


# The in-place form of each sharing rule that ``fill_group`` takes.
_FILLS = {maxmin: _maxmin, proportional: _proportional}


def fill_group(
    demand: np.ndarray,
    rows: List[int],
    remaining: np.ndarray,
    grants: np.ndarray,
    share: Callable[[np.ndarray, Capacity], np.ndarray] = maxmin,
) -> None:
    """Fill ``grants[rows]``, one priority group's grants, from the per-column
    capacity ``remaining`` and reduce it in place.  The rows share it by the
    group's rule, ``maxmin`` or ``proportional``; a lone row under
    ``proportional`` too, so that it is rounded as that kernel rounds it; any
    other ``share`` is a ``ValueError``."""
    fill = _FILLS.get(share)
    if fill is None:
        raise ValueError(f"share must be maxmin or proportional, got {share!r}")
    if len(rows) == 1 and fill is _maxmin:
        take = grants[rows[0]] = np.minimum(remaining, demand[rows[0]])
        remaining -= take
    elif len(rows) == len(demand):  # every row, without a gathered copy
        grants[:] = fill(demand, remaining)
    else:
        grants[rows] = fill(demand[rows], remaining)


def spq(demand: np.ndarray, keys: Sequence[float], c: Capacity) -> np.ndarray:
    """Strict-priority fill of each column in descending key order; rows with
    equal keys share what is left max-min fairly."""
    demand = np.asarray(demand, dtype=float)
    grants = np.empty_like(demand)
    remaining = _capacity(c, demand.shape[1])
    for rows in priority_groups(keys):
        fill_group(demand, rows, remaining, grants)
    return grants
