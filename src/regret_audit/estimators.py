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

Every scan is one product grid, one array of points per coordinate (the
item scans' other coordinates are truthful singletons). The mechanism's
``_product_utilities`` hook gives its utilities at most ``_SCAN_CHUNK`` at a
time: by default from the materialized rows, and for first and second price
by adding each item's per-point terms over the product of the points whose
terms differ from their predecessor's. A scan whose best gain is not
strictly positive reports exactly 0 at the truthful row (``_clamp_gain``),
so every estimate is nonnegative. Two kinds of scan slot are counted by the
cost formulas and read by no estimate, so they are charged, not run
(``Mechanism.evaluations``): a truthful row off the grid, and a row whose
bits repeat an earlier row's through a point the hook drops. Each estimator
reports the mechanism evaluations (by the mechanism's counter) and seconds
it consumed. The per-item estimators scan, then read their estimate off the
``ItemScan`` (``item``, ``lower_bound``, ``item_wise``), which counts both in
full for every read-out.
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
    """Bidder ``bidder``'s item scan at ``profile``: per item j, the clamped
    best gain ``gains[j]`` of moving coordinate j alone over the grid, reached
    at ``coords[j]`` (truthful if nothing gains). Each estimate read off it
    counts its evaluations and seconds in full."""

    profile: np.ndarray
    bidder: int
    base: float
    gains: np.ndarray
    coords: np.ndarray
    evaluations: int
    seconds: float

    def _estimate(self, method: str, value: float, item=None) -> RegretEstimate:
        """A read-out, at the truthful row with ``item`` at its best coordinate."""
        row = None
        if item is not None:
            row = self.profile[self.bidder].copy()
            row[item] = self.coords[item]
        return RegretEstimate(method, self.bidder, value, row, self.evaluations, self.seconds)

    def item(self, item: int) -> RegretEstimate:
        """``item_regret``'s estimate: deviating on ``item`` alone."""
        return self._estimate(METHOD_ITEM, float(self.gains[item]), item)

    def lower_bound(self) -> RegretEstimate:
        """``lower_bound_regret``'s estimate: the best item, the first on ties."""
        j = int(np.argmax(self.gains))
        return self._estimate(METHOD_LOWER_BOUND, float(self.gains[j]), j)

    def item_wise(self) -> RegretEstimate:
        """``item_wise_regret``'s estimate: the per-item gains' sum, no misreport."""
        return self._estimate(METHOD_ITEM_WISE, float(self.gains.sum()))


def _product_row(axes, at: int) -> np.ndarray:
    """Row ``at`` of the lexicographic product of ``axes``, by divmod over
    their sizes from the last axis."""
    row = np.empty(len(axes))
    for k in range(len(axes) - 1, -1, -1):
        at, i = divmod(at, len(axes[k]))
        row[k] = axes[k][i]
    return row


def _grid_best(mech: Mechanism, profile: np.ndarray, bidder: int, base: float, axes):
    """Clamped best gain over ``base`` of the misreport rows in the product
    of ``axes`` (one array of points per coordinate), with its row.

    The mechanism's ``_product_utilities`` keeps some points of each axis;
    a row through a dropped point repeats the bits of a lexicographically
    earlier kept row, so scanning the product of the kept points finds the
    full product's first maximum and first non-finite row, and each dropped
    row is charged, not run. Kept rows are scanned in lexicographic order, at
    most ``_SCAN_CHUNK`` at a time, and the first maximum wins;
    ``_clamp_gain`` gives the floor of 0. Each chunk is whole copies of one
    trailing block, the product of the last kept axes that fits in a chunk,
    and the hook charges one evaluation per row it gives; the winning row is
    rebuilt alone (``_product_row``). A non-finite utility raises
    InvalidInputError: a NaN would otherwise drop out of the argmax and leave
    a false 0.0. The estimator checked the profile and bidder once
    (``_prepare``), and grid rows lie in [0, 1], so the hook gets them
    unchecked.
    """
    truthful = profile[bidder]
    kept, utilities = mech._product_utilities(profile, bidder, axes, truthful)
    sizes = [len(axis) for axis in kept]
    lead = len(kept)
    while lead and math.prod(sizes[lead - 1:]) <= _SCAN_CHUNK:
        lead -= 1
    block, total = math.prod(sizes[lead:]), math.prod(sizes)
    step = _SCAN_CHUNK // block * block
    best_gain, best_at = -np.inf, 0
    for start in range(0, total, step):
        utils = utilities(start, min(start + step, total))
        if not np.isfinite(utils).all():
            at = start + int(np.argmin(np.isfinite(utils)))
            raise InvalidInputError(f"mechanism gives bidder {bidder} a non-finite misreport "
                                    f"utility at {_product_row(kept, at).tolist()}")
        gains = utils - base
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain, best_at = float(gains[i]), start + i
    mech._charge(math.prod(len(axis) for axis in axes) - total)
    return _clamp_gain(best_gain, _product_row(kept, best_at), truthful)


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
    return ItemScan(profile, bidder, base, gains, coords, mech.evaluations - evals0,
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


def item_regret(mech: Mechanism, profile, bidder: int, item: int,
                grid: GridSpec) -> RegretEstimate:
    """Regret from deviating on a single item, all other coordinates truthful."""
    check_type(mech, "mech", Mechanism)
    check_int(item, "item", 0)
    if item >= mech.setting.m:
        raise InvalidInputError(f"item {item} out of range for m={mech.setting.m}")
    return _scan_all_items(mech, profile, bidder, grid).item(item)


def lower_bound_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec) -> RegretEstimate:
    """Maximum per-item regret: a provable lower bound on the true regret.

    Any gradient-based estimate falling below this value has missed a
    deviation that a single-coordinate scan already found.
    """
    return _scan_all_items(mech, profile, bidder, grid).lower_bound()


def item_wise_regret(mech: Mechanism, profile, bidder: int, grid: GridSpec) -> RegretEstimate:
    """Sum of per-item regrets; linear cost, at most m times the optimum.

    The sum does not correspond to a single deviation, so no misreport is
    reported.
    """
    return _scan_all_items(mech, profile, bidder, grid).item_wise()
