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

A scan whose best gain is not strictly positive reports exactly 0 at the
truthful row (``_clamp_gain``), so every estimate is nonnegative. A truthful
row off the grid fills a scan slot that the cost formulas count and no
estimate reads, so it is charged, not run (``Mechanism.evaluations``). Each
estimator reports the mechanism evaluations (by the mechanism's counter) and
seconds it consumed. The per-item estimators read both, in full, off one
``ItemScan``, which a caller already holding it passes as ``scan=``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, InvalidInputError, check_float, check_int, check_type
from .mechanisms import Mechanism, as_floats, check_query

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
        check_int(self.q, "grid q", 1)
        if self.style not in GRID_STYLES:
            raise InvalidInputError(f"unknown grid style {self.style!r}")

    @property
    def size(self) -> int:
        """The number of points, known without building them."""
        return self.q + 1 if self.style == GRID_STYLE_INCLUSIVE else self.q

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.q + 1, dtype=np.float64)[-self.size:] / self.q


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
        for name in ("bidder", "mech_evals", "gradient_steps"):
            check_int(getattr(self, name), name, 0)
        self.value = check_float(self.value, "value")
        self.wall_seconds = check_float(self.wall_seconds, "wall_seconds")
        if not isinstance(self.flagged, bool):
            raise InvalidInputError(f"flagged must be a bool, got {self.flagged!r}")
        if self.best_misreport is not None:
            self.best_misreport = as_floats(self.best_misreport, "best_misreport")


def _prepare(mech: Mechanism, profile, bidder: int):
    """Every estimator's preamble: the validated profile and the truthful
    utility (one evaluation) that every gain is measured against."""
    profiles, _, v = check_query(mech.setting, [profile], bidder)
    check_int(bidder, "bidder", 0)  # one bidder, not one per row of the stack [profile]
    profile = profiles[0]
    base = float(mech._misreport_utilities(profile, bidder, v, v)[0])  # v: the truthful row
    if not np.isfinite(base):
        raise InvalidInputError(
            f"mechanism gives bidder {bidder} a non-finite truthful utility ({base})")
    return profile, base


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
    seconds: float

    def row(self, item: int) -> np.ndarray:
        """The truthful row with ``item`` moved to its best coordinate."""
        row = self.truthful.copy()
        row[item] = self.coords[item]
        return row

    def best(self):
        """(gain, row) of the best single-item deviation: the grid lower bound
        on the regret, the first item winning ties."""
        j = int(np.argmax(self.gains))
        return float(self.gains[j]), self.row(j)


def _lex_rows(axes, flat: np.ndarray) -> np.ndarray:
    """Rows number ``flat`` of the lexicographic product of ``axes``."""
    rows = np.empty((flat.size, len(axes)))
    if axes:
        for k, index in enumerate(np.unravel_index(flat, [len(axis) for axis in axes])):
            rows[:, k] = axes[k][index]
    return rows


def _grid_best(mech: Mechanism, profile: np.ndarray, bidder: int, base: float, axes):
    """Clamped best gain over ``base`` of the misreport rows in the product
    of ``axes`` (one array of points per coordinate), with its row.

    Rows are scanned in lexicographic order, at most ``_SCAN_CHUNK`` at a
    time, and the first maximum wins; ``_clamp_gain`` gives the floor of 0.
    Each chunk tiles whole copies of one trailing block, the product of the
    last axes that fits in a chunk, under its leading coordinates. A
    non-finite utility raises InvalidInputError: a NaN would otherwise drop
    out of the argmax and leave a false 0.0. The estimator checked the profile
    and bidder once (``_prepare``), and grid rows lie in [0, 1], so the chunks
    go to the mechanism's hook unchecked.
    """
    truthful = profile[bidder]
    sizes = tuple(len(axis) for axis in axes)
    lead = len(axes)
    while lead and math.prod(sizes[lead - 1:]) <= _SCAN_CHUNK:
        lead -= 1
    block = _lex_rows(axes[lead:], np.arange(math.prod(sizes[lead:])))
    per_chunk, total = _SCAN_CHUNK // len(block), math.prod(sizes[:lead])
    best_gain, best_row = -np.inf, None
    for start in range(0, total, per_chunk):
        leading = _lex_rows(axes[:lead], np.arange(start, min(start + per_chunk, total)))
        rows = np.empty((len(leading), len(block), len(axes)))
        rows[:, :, :lead] = leading[:, None, :]
        rows[:, :, lead:] = block
        rows = rows.reshape(-1, len(axes))
        utils = mech._misreport_utilities(profile, bidder, rows, truthful)
        if not np.isfinite(utils).all():
            raise InvalidInputError(f"mechanism gives bidder {bidder} a non-finite misreport "
                                    f"utility at {rows[np.argmin(np.isfinite(utils))].tolist()}")
        gains = utils - base
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain, best_row = float(gains[i]), rows[i].copy()
    return _clamp_gain(best_gain, best_row, truthful)


def _check_budget(max_evals: int, m: int, grid: GridSpec, exhaustive: bool = False) -> None:
    """Refuse, before any evaluation or grid point is made, a worst case over
    ``max_evals``: the truthful evaluation, and per grid scan its rows and an
    off-grid truthful row; (q+1)^m + 2 exhaustive, m(q+2)+1 item-wise."""
    check_int(max_evals, "max_evals", 1)
    check_type(grid, "grid", GridSpec)
    required = grid.size ** m + 2 if exhaustive else m * (grid.size + 1) + 1
    if required > max_evals:
        raise BudgetExceededError(required=required, budget=max_evals)


def _scan_all_items(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                    max_evals: int = DEFAULT_EVAL_BUDGET) -> ItemScan:
    """Scan each item's coordinate over the grid, others truthful: one
    truthful evaluation, then q+1 rows per item plus one per off-grid truthful
    coordinate, charged, not run; ``_clamp_gain`` floors each item's gain at
    0. The budget is charged that worst case, m(q+2)+1 on the inclusive grid."""
    t0 = time.perf_counter()
    check_type(mech, "mech", Mechanism)
    m = mech.setting.m
    _check_budget(max_evals, m, grid)
    pts = grid.points
    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)
    truthful = profile[bidder]
    gains, coords = np.empty(m), np.empty(m)
    for j in range(m):
        axes = [pts if k == j else truthful[k:k + 1] for k in range(m)]
        gains[j], row = _grid_best(mech, profile, bidder, base, axes)
        coords[j] = row[j]
    mech._charge(sum(not (pts == t).any() for t in truthful))
    return ItemScan(truthful.copy(), base, gains, coords, mech.evaluations - evals0,
                    time.perf_counter() - t0)


def exhaustive_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                      max_evals: int = DEFAULT_EVAL_BUDGET) -> RegretEstimate:
    """Scan every grid misreport row for one bidder, others truthful.

    The scan runs in lexicographic order and breaks ties by the first (i.e.
    lexicographically smallest) maximizer; when no deviation strictly gains,
    the estimate is exactly 0 with the truthful row as misreport. The budget
    is charged the worst case, (q+1)^m + 2 (see ``_check_budget``).
    """
    t0 = time.perf_counter()
    check_type(mech, "mech", Mechanism)
    m = mech.setting.m
    _check_budget(max_evals, m, grid, exhaustive=True)
    pts = grid.points
    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)
    value, best_row = _grid_best(mech, profile, bidder, base, [pts] * m)
    mech._charge(int(not all((pts == t).any() for t in profile[bidder])))
    return RegretEstimate(METHOD_EXHAUSTIVE, bidder, value, best_row,
                          mech.evaluations - evals0, time.perf_counter() - t0)


def item_regret(mech: Mechanism, profile, bidder: int, item: int, grid: GridSpec,
                scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Regret from deviating on a single item, all other coordinates truthful."""
    check_type(mech, "mech", Mechanism)
    check_int(item, "item", 0)
    if item >= mech.setting.m:
        raise InvalidInputError(f"item {item} out of range for m={mech.setting.m}")
    scan = scan or _scan_all_items(mech, profile, bidder, grid)
    return RegretEstimate(METHOD_ITEM, bidder, float(scan.gains[item]), scan.row(item),
                          scan.evaluations, scan.seconds)


def lower_bound_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                       scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Maximum per-item regret: a provable lower bound on the true regret.

    Any gradient-based estimate falling below this value has missed a
    deviation that a single-coordinate scan already found.
    """
    scan = scan or _scan_all_items(mech, profile, bidder, grid)
    return RegretEstimate(METHOD_LOWER_BOUND, bidder, *scan.best(), scan.evaluations, scan.seconds)


def item_wise_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                     scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Sum of per-item regrets; linear cost, at most m times the optimum.

    The sum does not correspond to a single deviation, so no misreport is
    reported.
    """
    scan = scan or _scan_all_items(mech, profile, bidder, grid)
    return RegretEstimate(METHOD_ITEM_WISE, bidder, float(scan.gains.sum()), None,
                          scan.evaluations, scan.seconds)
