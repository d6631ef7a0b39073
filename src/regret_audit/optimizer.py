"""Continuous misreport search: multi-start projected gradient ascent and the
item-wise guided refinement built on a structured initialization portfolio.

Ascent projects onto the bid box by coordinate clamping and tracks the best
utility over every visited iterate (including the start), so a candidate can
never end below where it began. Candidates are independent; the final
reduction is a deterministic max with a lexicographic tie-break on the
misreport vector, so any partitioning of candidates across workers agrees
with the serial result bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .errors import InvalidInputError
from .estimators import (
    METHOD_GUIDED,
    METHOD_PGA,
    GridSpec,
    ItemScan,
    RegretEstimate,
    _clamp_gain,
    _prepare,
    _scan_all_items,
)
from .mechanisms import (
    Mechanism,
    as_profile,
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


def _ascend(mech: Mechanism, profile: np.ndarray, bidder: int, starts: np.ndarray,
            gamma: float, steps: int):
    """Run ``steps`` clamped ascent steps from each start row.

    Tracks the best utility over all visited iterates per candidate. A
    non-finite gradient freezes its candidate in place and flags it; the best
    iterate seen so far is kept. Returns (best_rows, best_utils, any_flagged).
    """
    x = np.clip(np.asarray(starts, dtype=np.float64), 0.0, 1.0).copy()
    analytic = mech.has_analytic_gradient
    v = profile[bidder]

    def evaluate(rows):
        """(utilities, analytic gradients or None) of the rows."""
        if analytic:
            # one combined pass: gradient comes with the utility at no extra cost
            return mech.utility_and_gradient_many(
                rows_to_profiles(profile, bidder, rows), bidder, v, validate=False)
        return evaluate_misreports(mech, profile, bidder, rows), None

    u, g = evaluate(x)
    best_u = u.copy()
    best_x = x.copy()
    frozen = np.zeros(x.shape[0], dtype=bool)
    for _ in range(steps):
        if not analytic:
            g = fd_gradient_rows(mech, profile, bidder, x)
        frozen |= ~np.isfinite(g).all(axis=1)
        g[frozen] = 0.0
        x = np.clip(x + gamma * g, 0.0, 1.0)
        u, g = evaluate(x)
        improved = u > best_u
        if improved.any():
            best_u = np.where(improved, u, best_u)
            best_x[improved] = x[improved]
    return best_x, best_u, bool(frozen.any())


def pga_single(mech: Mechanism, profile, bidder: int, start, gamma: float,
               big_r: int):
    """Ascend from one start; returns (best_bid, best_utility, trajectory_evals).

    ``best_utility`` is never below the start's utility.
    """
    profile = as_profile(profile, mech.setting)
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (mech.setting.m,):
        raise InvalidInputError(f"start shape {start.shape} != ({mech.setting.m},)")
    evals0 = mech.evaluations
    best_x, best_u, _ = _ascend(mech, profile, bidder, start[None, :], gamma, big_r)
    return best_x[0], float(best_u[0]), mech.evaluations - evals0


def random_restart_pga(mech: Mechanism, profile, bidder: int, cfg: PgaConfig,
                       seed: int) -> RegretEstimate:
    """Multi-start ascent from L uniform starts; the standard evaluator.

    Start l comes from its own child stream, so the first L starts coincide
    for any larger restart count with the same seed, making regret exactly
    nondecreasing in L. Candidate aborts surface as the ``flagged`` field,
    never as failures.
    """
    t0 = time.perf_counter()
    m = mech.setting.m
    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)
    starts = np.stack([
        rng.spawn_generator(seed, rng.STREAM_CANDIDATE, l).random(m)
        for l in range(cfg.big_l)
    ])
    best_rows, best_utils, flagged = _ascend(mech, profile, bidder, starts,
                                             cfg.gamma, cfg.big_r)
    win = _best_candidate(best_utils, best_rows)
    value, row = _clamp_gain(float(best_utils[win]) - base, best_rows[win].copy(),
                             profile[bidder])
    return RegretEstimate(METHOD_PGA, bidder, value, row,
                          mech.evaluations - evals0, time.perf_counter() - t0,
                          gradient_steps=cfg.big_l * cfg.big_r, flagged=flagged)


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
    t0 = time.perf_counter()
    if scan is None:
        scan = _scan_all_items(mech, profile, bidder, grid)
    profile = np.asarray(profile, dtype=np.float64)
    evals0 = mech.evaluations
    grid_best_item = int(np.argmax(scan.gains))
    grid_lower = float(scan.gains[grid_best_item])

    starts = build_portfolio(profile, bidder, scan.coords, cfg, seed)
    refine = cfg.refine
    best_rows, best_utils, flagged = _ascend(mech, profile, bidder, starts,
                                             refine.gamma, refine.big_r)
    win = _best_candidate(best_utils, best_rows)
    pga_gain = float(best_utils[win]) - scan.base

    if pga_gain >= grid_lower:
        value, row = pga_gain, best_rows[win].copy()
    else:
        value, row = grid_lower, scan.row(grid_best_item)
    value, row = _clamp_gain(value, row, scan.truthful)
    return RegretEstimate(METHOD_GUIDED, bidder, value, row,
                          scan.evaluations + mech.evaluations - evals0,
                          time.perf_counter() - t0,
                          gradient_steps=len(starts) * refine.big_r, flagged=flagged)
