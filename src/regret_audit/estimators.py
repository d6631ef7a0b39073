"""Grid-based ex-post regret estimators with exact evaluation accounting.

Four estimators share one discretization of the bid interval:

* ``exhaustive_regret`` scans the full (q+1)^m misreport product - the
  oracle, exponential in the number of items;
* ``item_regret`` scans one coordinate with every other coordinate truthful;
* ``lower_bound_regret`` takes the maximum per-item regret, a provable lower
  bound on the true regret;
* ``item_wise_regret`` sums the per-item regrets - linear in m, close to the
  optimum when cross-item interactions are weak, and never more than m times
  the optimum.

The truthful row is always part of the scanned candidate set (appended when
it is off-grid), so every estimate is exactly nonnegative. Each estimator
reports the number of mechanism evaluations it consumed, measured by the
mechanism's counter. The per-item estimators derive from one ``ItemScan``,
which a caller already holding it passes as ``scan=``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .mechanisms import Mechanism, as_profile, check_bidder, evaluate_misreports

DEFAULT_EVAL_BUDGET = 10**8
_SCAN_CHUNK = 8192

GRID_STYLE_INCLUSIVE = "inclusive"
GRID_STYLE_OPEN_LEFT = "open_left"
GRID_STYLES = (GRID_STYLE_INCLUSIVE, GRID_STYLE_OPEN_LEFT)

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_ITEM = "item"
METHOD_LOWER_BOUND = "lower_bound"
METHOD_ITEM_WISE = "item_wise"
METHOD_PGA = "pga"
METHOD_GUIDED = "guided"


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of [0, 1] with q subdivisions.

    The default "inclusive" style uses the q+1 points {t/q : t = 0..q}, so
    both boundary deviations are scanned and a grid with 2q subdivisions
    contains every point of the q grid. The "open_left" style drops 0 and
    keeps {t/q : t = 1..q}.
    """

    q: int
    style: str = GRID_STYLE_INCLUSIVE

    def __post_init__(self):
        if self.q < 1:
            raise InvalidInputError(f"grid q must be >= 1, got {self.q}")
        if self.style not in GRID_STYLES:
            raise InvalidInputError(f"unknown grid style {self.style!r}")

    @property
    def points(self) -> np.ndarray:
        if self.style == GRID_STYLE_INCLUSIVE:
            return np.arange(self.q + 1, dtype=np.float64) / self.q
        return np.arange(1, self.q + 1, dtype=np.float64) / self.q


@dataclass
class RegretEstimate:
    """One regret estimate for one bidder, with its cost bookkeeping."""

    method: str
    bidder: int
    value: float
    best_misreport: Optional[np.ndarray]
    mech_evals: int
    wall_seconds: float
    gradient_steps: int = 0
    flagged: bool = False

    def __post_init__(self):
        if not self.value >= 0.0:
            raise InvalidInputError(f"regret estimate must be >= 0, got {self.value}")


def _prepare(mech: Mechanism, profile, bidder: int):
    """Every estimator's preamble: the validated profile and the truthful
    utility (one evaluation) that every gain is measured against."""
    profile = as_profile(profile, mech.setting)
    check_bidder(mech.setting, bidder)
    base = float(evaluate_misreports(mech, profile, bidder, profile[bidder][None, :])[0])
    if not np.isfinite(base):
        raise InvalidInputError(
            f"mechanism gives bidder {bidder} a non-finite truthful utility ({base})")
    return profile, base


def _misreport_gains(mech: Mechanism, profile: np.ndarray, bidder: int, rows: np.ndarray,
                     base: float) -> np.ndarray:
    """Gains over ``base`` of the bidder's misreport rows. A non-finite
    utility raises InvalidInputError: a NaN would otherwise drop out of an
    argmax scan and leave a false 0.0."""
    utils = evaluate_misreports(mech, profile, bidder, rows)
    if not np.isfinite(utils).all():
        bad = rows[np.flatnonzero(~np.isfinite(utils))[0]]
        raise InvalidInputError(
            f"mechanism gives bidder {bidder} a non-finite misreport utility at {bad.tolist()}")
    return utils - base


def _clamp_gain(gain: float, row: np.ndarray, truthful: np.ndarray):
    """(gain, row) for a strict gain, else (0.0, truthful row)."""
    if gain <= 0.0:
        return 0.0, truthful.copy()
    return gain, row


@dataclass(frozen=True)
class ItemScan:
    """Per item j, the clamped best gain ``gains[j]`` of moving coordinate j
    alone over the grid, reached at ``coords[j]`` (truthful if nothing gains)."""

    truthful: np.ndarray
    base: float
    gains: np.ndarray
    coords: np.ndarray
    evaluations: int

    def row(self, item: int) -> np.ndarray:
        """The truthful row with ``item`` moved to its best coordinate."""
        row = self.truthful.copy()
        row[item] = self.coords[item]
        return row


def _scan_all_items(mech: Mechanism, profile, bidder: int, grid: GridSpec) -> ItemScan:
    """Scan each item's coordinate over the grid, others truthful: one
    truthful evaluation, then q+1 rows per item plus one more per off-grid
    truthful coordinate, which pins that item's gain floor at 0."""
    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)
    pts = grid.points
    truthful = profile[bidder]
    m = truthful.shape[0]
    gains = np.empty(m)
    coords = np.empty(m)
    for j in range(m):
        rows = np.broadcast_to(truthful, (pts.size, m)).copy()
        rows[:, j] = pts
        item_gains = _misreport_gains(mech, profile, bidder, rows, base)
        i = int(np.argmax(item_gains))
        if not np.isin(truthful[j], pts):
            evaluate_misreports(mech, profile, bidder, truthful[None, :])
        gains[j], row = _clamp_gain(float(item_gains[i]), rows[i], truthful)
        coords[j] = row[j]
    return ItemScan(truthful.copy(), base, gains, coords, mech.evaluations - evals0)


def exhaustive_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                      max_evals: int = DEFAULT_EVAL_BUDGET) -> RegretEstimate:
    """Scan every grid misreport row for one bidder, others truthful.

    The scan runs in lexicographic order and breaks ties by the first (i.e.
    lexicographically smallest) maximizer; when no deviation strictly gains,
    the estimate is exactly 0 with the truthful row as misreport. Raises
    BudgetExceededError before evaluating anything if (q+1)^m exceeds
    ``max_evals``.
    """
    t0 = time.perf_counter()
    pts = grid.points
    m = mech.setting.m
    total = int(pts.size) ** m
    if total > max_evals:
        raise BudgetExceededError(required=total, budget=max_evals)

    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)

    shape = (pts.size,) * m
    best_gain = -np.inf
    best_row = None
    for start in range(0, total, _SCAN_CHUNK):
        flat = np.arange(start, min(start + _SCAN_CHUNK, total))
        rows = pts[np.stack(np.unravel_index(flat, shape), axis=1)]
        gains = _misreport_gains(mech, profile, bidder, rows, base)
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_row = rows[i].copy()

    if not np.isin(profile[bidder], pts).all():
        # truthful row off-grid: scanned in addition, pinning the gain floor at 0
        evaluate_misreports(mech, profile, bidder, profile[bidder][None, :])

    value, best_row = _clamp_gain(best_gain, best_row, profile[bidder])
    return RegretEstimate(METHOD_EXHAUSTIVE, bidder, value, best_row,
                          mech.evaluations - evals0, time.perf_counter() - t0)


def item_regret(mech: Mechanism, profile, bidder: int, item: int, grid: GridSpec,
                scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Regret from deviating on a single item, all other coordinates truthful."""
    t0 = time.perf_counter()
    if not 0 <= item < mech.setting.m:
        raise InvalidInputError(f"item {item} out of range for m={mech.setting.m}")
    if scan is None:
        scan = _scan_all_items(mech, profile, bidder, grid)
    return RegretEstimate(METHOD_ITEM, bidder, float(scan.gains[item]), scan.row(item),
                          scan.evaluations, time.perf_counter() - t0)


def lower_bound_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                       scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Maximum per-item regret: a provable lower bound on the true regret.

    Any gradient-based estimate falling below this value has missed a
    deviation that a single-coordinate scan already found.
    """
    t0 = time.perf_counter()
    if scan is None:
        scan = _scan_all_items(mech, profile, bidder, grid)
    j = int(np.argmax(scan.gains))
    return RegretEstimate(METHOD_LOWER_BOUND, bidder, float(scan.gains[j]), scan.row(j),
                          scan.evaluations, time.perf_counter() - t0)


def item_wise_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                     scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Sum of per-item regrets; linear cost, at most m times the optimum.

    The sum does not correspond to a single deviation, so no misreport is
    reported.
    """
    t0 = time.perf_counter()
    if scan is None:
        scan = _scan_all_items(mech, profile, bidder, grid)
    return RegretEstimate(METHOD_ITEM_WISE, bidder, float(scan.gains.sum()), None,
                          scan.evaluations, time.perf_counter() - t0)
