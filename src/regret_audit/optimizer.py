"""Continuous misreport search: multi-start projected gradient ascent and the
item-wise guided refinement built on a structured initialization portfolio.

Ascent projects onto the bid box by coordinate clamping and tracks the best
utility over every visited iterate (including the start), so a candidate can
never end below where it began. Candidates are independent, so the
candidates of many (sample, bidder) searches climb together, one mechanism
call per step; each search then finishes alone, with a deterministic max and
a lexicographic tie-break on the misreport vector. Any grouping of searches,
in one batch or across workers, agrees with the serial result bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import rng
from .errors import InvalidInputError
from .estimators import (
    METHOD_GUIDED,
    METHOD_PGA,
    GridSpec,
    ItemScan,
    RegretEstimate,
    _SCAN_CHUNK,
    _clamp_gain,
    _prepare,
    _scan_all_items,
)
from .mechanisms import (
    Mechanism,
    as_profile,
    check_bidder,
    evaluate_misreports,
    fd_gradient_rows,
    rows_to_profiles,
)


@dataclass(frozen=True)
class PgaConfig:
    """Projected-gradient-ascent hyperparameters: step size, restarts, steps."""

    gamma: float
    big_l: int
    big_r: int

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidInputError(f"gamma must be > 0, got {self.gamma}")
        if self.big_l < 1 or self.big_r < 1:
            raise InvalidInputError(
                f"need big_l >= 1 and big_r >= 1, got L={self.big_l}, R={self.big_r}"
            )


#: evaluation-protocol presets used by the published deep-auction models
PGA_PRESETS = {
    "regretnet": PgaConfig(gamma=0.1, big_l=1000, big_r=2000),
    "algnet": PgaConfig(gamma=0.001, big_l=300, big_r=300),
    "regretformer": PgaConfig(gamma=0.1, big_l=1, big_r=1000),
    "citransnet": PgaConfig(gamma=0.001, big_l=100, big_r=200),
}


@dataclass(frozen=True)
class PortfolioConfig:
    """Shape of the guided-refinement initialization portfolio.

    The portfolio holds 1 + m + 3*k candidates: the combinatorial aggregate of
    the per-item grid optima, one single-item candidate per item, and k each
    of perturbed-combinatorial, perturbed-truthful, and uniform-random
    candidates. ``refine.big_l`` is ignored; the portfolio supplies the
    starts.
    """

    k: int = 0
    sigma_opt: float = 0.0
    sigma_truth: float = 0.0
    refine: PgaConfig = field(default_factory=lambda: PgaConfig(gamma=0.1, big_l=1, big_r=200))

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInputError(f"k must be >= 0, got {self.k}")
        if self.sigma_opt < 0 or self.sigma_truth < 0:
            raise InvalidInputError("noise scales must be >= 0")

    def portfolio_size(self, m: int) -> int:
        return 1 + m + 3 * self.k


#: portfolio presets matched to the models' misreport landscapes
PORTFOLIO_PRESETS = {
    "regretnet": PortfolioConfig(k=0, sigma_opt=0.0, sigma_truth=0.0),
    "algnet": PortfolioConfig(k=0, sigma_opt=0.0, sigma_truth=0.0),
    "regretformer": PortfolioConfig(k=80, sigma_opt=0.6, sigma_truth=0.6),
}


def _best_candidate(best_utils: np.ndarray, best_rows: np.ndarray) -> int:
    """Deterministic cross-candidate reduction: max utility, then lex-smallest row."""
    top = np.flatnonzero(best_utils == best_utils.max())
    if top.size == 1:
        return int(top[0])
    # lexsort keys run last-to-first, so feed coordinates in reverse
    return int(top[np.lexsort(best_rows[top].T[::-1])[0]])


def _ascend(mech: Mechanism, profiles: np.ndarray, bidders: np.ndarray, starts: np.ndarray,
            gamma: float, steps: int):
    """Run ``steps`` clamped ascent steps from each start row, row i for
    bidder ``bidders[i]`` of profile ``profiles[i]``.

    Rows never interact, and the mechanisms compute each batch row on its
    own, so any partition or permutation of the rows gives every row the same
    bits. Tracks the best utility over all visited iterates per row. A
    non-finite gradient freezes its row in place; the best iterate seen so
    far is kept. Returns (best_rows, best_utils, frozen), one entry per row.
    """
    x = np.clip(np.asarray(starts, dtype=np.float64), 0.0, 1.0).copy()
    analytic = mech.has_analytic_gradient
    v = profiles[np.arange(x.shape[0]), bidders]

    def evaluate(rows):
        """(utilities, analytic gradients or None) of the rows."""
        if analytic:
            # one combined pass: gradient comes with the utility at no extra cost
            return mech.utility_and_gradient_many(
                rows_to_profiles(profiles, bidders, rows), bidders, v, validate=False)
        return evaluate_misreports(mech, profiles, bidders, rows), None

    u, g = evaluate(x)
    best_u = u.copy()
    best_x = x.copy()
    frozen = np.zeros(x.shape[0], dtype=bool)
    for _ in range(steps):
        if not analytic:
            g = fd_gradient_rows(mech, profiles, bidders, x)
        frozen |= ~np.isfinite(g).all(axis=1)
        g[frozen] = 0.0
        x = np.clip(x + gamma * g, 0.0, 1.0)
        u, g = evaluate(x)
        improved = u > best_u
        if improved.any():
            best_u = np.where(improved, u, best_u)
            best_x[improved] = x[improved]
    return best_x, best_u, frozen


@dataclass
class _Search:
    """One (sample, bidder) search between its two halves: the start rows
    its ascent climbs from, and what finishing it reads."""

    method: str
    profile: np.ndarray
    bidder: int
    base: float  # truthful utility every gain is measured against
    starts: np.ndarray
    gamma: float
    steps: int
    evals: int  # evaluations spent before the ascent
    seconds: float
    scan: Optional[ItemScan] = None  # guided's grid phase, the result's floor


def _finish(search: _Search, best_rows: np.ndarray, best_utils: np.ndarray,
            frozen: np.ndarray, evals: int, seconds: float) -> RegretEstimate:
    """Reduce one search's ascended rows to its estimate.

    Candidates with a non-finite best utility are left out and flag the
    estimate; none finite is an InvalidInputError. Guided refinement never
    reports less than its grid lower bound.
    """
    t0 = time.perf_counter()
    finite = np.isfinite(best_utils)
    if not finite.any():
        raise InvalidInputError(
            f"mechanism gives bidder {search.bidder} a non-finite utility at every "
            f"{search.method} candidate")
    best_rows, best_utils = best_rows[finite], best_utils[finite]
    win = _best_candidate(best_utils, best_rows)
    value, row = float(best_utils[win]) - search.base, best_rows[win].copy()
    scan = search.scan
    if scan is not None:
        grid_best_item = int(np.argmax(scan.gains))
        if value < scan.gains[grid_best_item]:
            value, row = float(scan.gains[grid_best_item]), scan.row(grid_best_item)
    value, row = _clamp_gain(value, row, search.profile[search.bidder])
    return RegretEstimate(search.method, search.bidder, value, row, search.evals + evals,
                          search.seconds + seconds + time.perf_counter() - t0,
                          gradient_steps=len(search.starts) * search.steps,
                          flagged=bool(frozen.any() or not finite.all()))


def run_searches(mech: Mechanism, searches: Iterable[_Search]) -> List[RegretEstimate]:
    """Ascend every start row of every search in lockstep, then finish each;
    returns the estimates in search order.

    All searches share one step size and step count. ``searches`` is read
    lazily, in batches of at most ``_SCAN_CHUNK`` rows (or one search, when
    it alone has more), so memory does not grow with the number of searches.
    """
    estimates, batch, rows = [], [], 0
    for search in searches:
        if batch and rows + len(search.starts) > _SCAN_CHUNK:
            estimates += _climb(mech, batch)
            batch, rows = [], 0
        batch.append(search)
        rows += len(search.starts)
    if batch:
        estimates += _climb(mech, batch)
    return estimates


def _climb(mech: Mechanism, searches: Sequence[_Search]) -> List[RegretEstimate]:
    """One lockstep batch of ``run_searches``.

    Rows climb in groups of at most ``_SCAN_CHUNK``, one mechanism call per
    group and step; every row costs the same per step, so each group's
    evaluations and seconds are charged to the searches by their share of
    its rows.
    """
    gamma, steps = searches[0].gamma, searches[0].steps
    assert all((s.gamma, s.steps) == (gamma, steps) for s in searches)
    sizes = [len(s.starts) for s in searches]
    owner = np.repeat(np.arange(len(searches)), sizes)
    starts = np.concatenate([s.starts for s in searches])
    profiles = np.stack([s.profile for s in searches])
    bidders = np.array([s.bidder for s in searches])
    best_rows, best_utils = np.empty_like(starts), np.empty(len(starts))
    frozen = np.empty(len(starts), dtype=bool)
    evals = np.zeros(len(searches), dtype=np.int64)
    seconds = np.zeros(len(searches))
    for lo in range(0, len(starts), _SCAN_CHUNK):
        group = slice(lo, min(lo + _SCAN_CHUNK, len(starts)))
        t0, evals0 = time.perf_counter(), mech.evaluations
        best_rows[group], best_utils[group], frozen[group] = _ascend(
            mech, profiles[owner[group]], bidders[owner[group]], starts[group], gamma, steps)
        spent = mech.evaluations - evals0
        rows = np.bincount(owner[group], minlength=len(searches))
        shares = spent // rows.sum() * rows
        assert shares.sum() == spent, "lockstep rows must cost the same"
        evals += shares
        seconds += (time.perf_counter() - t0) * rows / rows.sum()
    cuts = np.cumsum(sizes)[:-1]
    return [_finish(*parts, int(count), float(secs)) for *parts, count, secs in zip(
        searches, np.split(best_rows, cuts), np.split(best_utils, cuts), np.split(frozen, cuts),
        evals, seconds)]


def pga_single(mech: Mechanism, profile, bidder: int, start, gamma: float,
               big_r: int):
    """Ascend from one start; returns (best_bid, best_utility, trajectory_evals).

    ``best_utility`` is never below the start's utility.
    """
    profile = as_profile(profile, mech.setting)
    check_bidder(mech.setting, bidder)
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (mech.setting.m,):
        raise InvalidInputError(f"start shape {start.shape} != ({mech.setting.m},)")
    evals0 = mech.evaluations
    best_x, best_u, _ = _ascend(mech, profile[None], np.array([bidder]), start[None, :],
                                gamma, big_r)
    return best_x[0], float(best_u[0]), mech.evaluations - evals0


def pga_search(mech: Mechanism, profile, bidder: int, cfg: PgaConfig, seed: int) -> _Search:
    """The first half of ``random_restart_pga``: the truthful utility and the
    L uniform starts."""
    t0 = time.perf_counter()
    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)
    starts = np.stack([
        rng.spawn_generator(seed, rng.STREAM_CANDIDATE, l).random(mech.setting.m)
        for l in range(cfg.big_l)
    ])
    return _Search(METHOD_PGA, profile, bidder, base, starts, cfg.gamma, cfg.big_r,
                   mech.evaluations - evals0, time.perf_counter() - t0)


def random_restart_pga(mech: Mechanism, profile, bidder: int, cfg: PgaConfig,
                       seed: int) -> RegretEstimate:
    """Multi-start ascent from L uniform starts; the standard evaluator.

    Start l comes from its own child stream, so the first L starts coincide
    for any larger restart count with the same seed, making regret exactly
    nondecreasing in L. Candidate aborts surface as the ``flagged`` field,
    never as failures.
    """
    return run_searches(mech, [pga_search(mech, profile, bidder, cfg, seed)])[0]


def build_portfolio(profile, bidder: int, item_argmaxes, cfg: PortfolioConfig,
                    seed: int) -> np.ndarray:
    """Assemble the 1 + m + 3k initialization candidates as rows in [0, 1]^m.

    Row order: the combinatorial candidate (the per-item grid optima
    verbatim); one single-item candidate per item j, every other coordinate
    truthful; then k each of perturbed-combinatorial, perturbed-truthful and
    uniform-random candidates. Gaussian perturbations are clamped to [0, 1]
    after drawing (no rejection loops); with k = 0 no random stream is
    consumed.
    """
    profile = np.asarray(profile, dtype=np.float64)
    truthful = profile[bidder]
    m = truthful.shape[0]
    comb = np.asarray(item_argmaxes, dtype=np.float64)
    if comb.shape != (m,):
        raise InvalidInputError(f"item_argmaxes shape {comb.shape} != ({m},)")
    if comb.size and (comb.min() < 0.0 or comb.max() > 1.0):
        raise InvalidInputError("item_argmaxes must lie in [0, 1]")

    single = np.tile(truthful, (m, 1))
    single[np.arange(m), np.arange(m)] = comb
    rows = [comb.copy(), *single]
    for i in range(cfg.k):
        eps = rng.spawn_generator(seed, rng.STREAM_PERTURB_OPT, i).normal(0.0, cfg.sigma_opt, m)
        rows.append(np.clip(comb + eps, 0.0, 1.0))
    for i in range(cfg.k):
        eps = rng.spawn_generator(seed, rng.STREAM_PERTURB_TRUTH, i).normal(0.0, cfg.sigma_truth, m)
        rows.append(np.clip(truthful + eps, 0.0, 1.0))
    for i in range(cfg.k):
        rows.append(rng.spawn_generator(seed, rng.STREAM_GLOBAL_RANDOM, i).random(m))
    return np.stack(rows)


def guided_search(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                   cfg: PortfolioConfig, seed: int,
                   scan: Optional[ItemScan] = None) -> _Search:
    """The first half of ``guided_refinement``: the grid phase (``scan`` when
    the caller already holds it) and the portfolio built on its optima."""
    t0 = time.perf_counter()
    if scan is None:
        scan = _scan_all_items(mech, profile, bidder, grid)
    profile = np.asarray(profile, dtype=np.float64)
    starts = build_portfolio(profile, bidder, scan.coords, cfg, seed)
    return _Search(METHOD_GUIDED, profile, bidder, scan.base, starts, cfg.refine.gamma,
                   cfg.refine.big_r, scan.evaluations, time.perf_counter() - t0, scan)


def guided_refinement(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                      cfg: PortfolioConfig, seed: int,
                      scan: Optional[ItemScan] = None) -> RegretEstimate:
    """Item-wise guided gradient refinement.

    Phase 1 is the item scan on the grid (``scan`` when the caller already
    holds it), yielding the per-item optima and the grid lower bound; phase 2
    ascends from the portfolio built on those optima. The result is the best
    gain over the grid scan and every ascent iterate, so it can never fall
    below the grid lower bound. Evaluation counts include the grid phase.
    """
    return run_searches(mech, [guided_search(mech, profile, bidder, grid, cfg, seed, scan)])[0]
