"""Continuous misreport search: multi-start projected gradient ascent and the
item-wise guided refinement built on a structured initialization portfolio.

Ascent projects onto the bid box by coordinate clamping and tracks the best
utility over every visited iterate (including the start), so a candidate can
never end below where it began. A candidate whose step leaves it in place has
reached a fixed point and drops out of the later mechanism calls. Candidates
are independent, so the candidates of many (sample, bidder) searches climb
together, one mechanism call per step; each search then finishes alone, with
a deterministic max and a lexicographic tie-break on the misreport vector.
Any grouping of searches, in one batch or across workers, agrees with the
serial result bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import rng
from .errors import InvalidInputError, check_float, check_int, check_type
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
    AuctionSetting,
    Mechanism,
    _check_values,
    as_floats,
    check_query,
    rows_to_profiles,
    # importable here, where perfbench/tracer.py binds its span
    fd_gradient_rows,  # noqa: F401
)


@dataclass(frozen=True)
class PgaConfig:
    """Projected-gradient-ascent hyperparameters: step size, restarts, steps."""

    gamma: float
    big_l: int
    big_r: int

    def __post_init__(self):
        # an infinite step turns a zero gradient entry into a NaN iterate
        check_float(self.gamma, "gamma", positive=True)
        check_int(self.big_l, "big_l", 1)
        check_int(self.big_r, "big_r", 1)


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
    candidates. ``refine.big_l`` must be 1; the portfolio supplies the
    starts.
    """

    k: int = 0
    sigma_opt: float = 0.0
    sigma_truth: float = 0.0
    refine: PgaConfig = field(default_factory=lambda: PgaConfig(gamma=0.1, big_l=1, big_r=200))

    def __post_init__(self):
        check_int(self.k, "k", 0)
        check_float(self.sigma_opt, "sigma_opt")
        check_float(self.sigma_truth, "sigma_truth")
        check_type(self.refine, "refine", PgaConfig)
        if self.refine.big_l != 1:
            raise InvalidInputError(f"refine.big_l must be 1, the portfolio supplies the "
                                    f"starts; got {self.refine.big_l}")


#: portfolio presets matched to the models' misreport landscapes
PORTFOLIO_PRESETS = {
    "regretnet": PortfolioConfig(k=0, sigma_opt=0.0, sigma_truth=0.0),
    "algnet": PortfolioConfig(k=0, sigma_opt=0.0, sigma_truth=0.0),
    "regretformer": PortfolioConfig(k=80, sigma_opt=0.6, sigma_truth=0.6),
}


def _best_candidate(best_utils: np.ndarray, best_rows: np.ndarray) -> int:
    """Deterministic cross-candidate reduction: max utility, then lex-smallest row."""
    top = np.flatnonzero(best_utils == best_utils.max())
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

    A row whose step leaves its iterate bitwise unchanged, a frozen row
    among them, sits at a fixed point: a deterministic, row-independent
    mechanism gives it the same step at every later step, so it can never
    improve again. It retires, later calls carry only the rows still moving,
    and the loop ends when none is left. A row retired at step s is charged
    the (steps - s)c + 1 evaluations it skips, c being the per-row charge of
    the first gradient call, so every row costs steps*c + 1 whether it
    retires or not. A call that charges other than c per row (1 per row for
    the final utilities call) is an InvalidInputError naming the ascent's
    total charge and row count.
    """
    x = np.clip(np.asarray(starts, dtype=np.float64), 0.0, 1.0).copy()
    size = x.shape[0]
    v = profiles[np.arange(size), bidders]
    out_x, out_u, out_frozen = np.empty_like(x), np.empty(size), np.empty(size, dtype=bool)
    rows = np.arange(size)  # each active row's index in the returned arrays

    def evaluate(last):
        """Utilities of the active rows, their gradients unless no step
        follows, and the call's charge."""
        before = mech.evaluations
        if last:
            u, g = mech._misreport_utilities(profiles, bidders, x, v), None
        else:
            u, g = mech.utility_and_gradient_many(rows_to_profiles(profiles, bidders, x),
                                                  bidders, v)
        return u, g, mech.evaluations - before

    evals0 = mech.evaluations
    u, g, charged = evaluate(steps == 0)
    per_row, rest = divmod(charged, size)
    even = not rest and (steps > 0 or per_row == 1)
    best_u, best_x = u.copy(), x.copy()
    frozen = np.zeros(size, dtype=bool)
    for step in range(1, steps + 1):
        frozen |= ~np.isfinite(g).all(axis=1)
        g[frozen] = 0.0
        x_new = np.clip(x + gamma * g, 0.0, 1.0)
        moving = (x_new.view(np.int64) != x.view(np.int64)).any(axis=1)
        if not moving.all():
            done = ~moving
            out_x[rows[done]], out_u[rows[done]], out_frozen[rows[done]] = \
                best_x[done], best_u[done], frozen[done]
            mech._charge(int(done.sum()) * ((steps - step) * per_row + 1))
            rows, x_new, profiles, bidders, v, best_u, best_x, frozen = (
                a[moving] for a in (rows, x_new, profiles, bidders, v, best_u, best_x, frozen))
            if not rows.size:
                break
        x = x_new
        last = step == steps
        u, g, charged = evaluate(last)
        even &= charged == len(x) * (1 if last else per_row)
        improved = u > best_u
        best_u = np.where(improved, u, best_u)
        best_x[improved] = x[improved]
    out_x[rows], out_u[rows], out_frozen[rows] = best_x, best_u, frozen
    if not even:
        raise InvalidInputError(f"mechanism charged {mech.evaluations - evals0} evaluations "
                                f"for {size} lockstep rows, not the same for each row")
    return out_x, out_u, out_frozen


@dataclass
class _Search:
    """One (sample, bidder) search between its two halves: the start rows
    its ascent climbs from, and what finishing it reads."""

    method: str
    profile: np.ndarray
    bidder: int
    base: float  # truthful utility every gain is measured against
    starts: np.ndarray
    evals: int  # evaluations spent before the ascent
    seconds: float
    floor: Optional[tuple] = None  # guided's grid lower bound, as (gain, row)


def _finish(search: _Search, best_rows: np.ndarray, best_utils: np.ndarray,
            frozen: np.ndarray, evals: int, seconds: float, steps: int) -> RegretEstimate:
    """Reduce one search's rows, ascended ``steps`` steps each, to its estimate.

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
    if search.floor is not None and value < search.floor[0]:
        value, row = search.floor
    value, row = _clamp_gain(value, row, search.profile[search.bidder])
    return RegretEstimate(search.method, search.bidder, value, row, search.evals + evals,
                          search.seconds + seconds + time.perf_counter() - t0,
                          gradient_steps=len(search.starts) * steps,
                          flagged=bool(frozen.any() or not finite.all()))


def run_searches(mech: Mechanism, searches: Iterable[_Search],
                 ascent: PgaConfig) -> List[RegretEstimate]:
    """Ascend every start row of every search in lockstep, with ``ascent``'s
    step size and step count, then finish each; returns the estimates in
    search order. ``searches`` is read lazily, in batches of at most
    ``_SCAN_CHUNK`` rows (or one search, when it alone has more), so memory
    does not grow with the number of searches.
    """
    estimates, batch, rows = [], [], 0
    for search in searches:
        if batch and rows + len(search.starts) > _SCAN_CHUNK:
            estimates += _climb(mech, batch, ascent)
            batch, rows = [], 0
        batch.append(search)
        rows += len(search.starts)
    if batch:
        estimates += _climb(mech, batch, ascent)
    return estimates


def _climb(mech: Mechanism, searches: Sequence[_Search],
           ascent: PgaConfig) -> List[RegretEstimate]:
    """One lockstep batch of ``run_searches``.

    Rows climb in groups of at most ``_SCAN_CHUNK``, one mechanism call per
    group and step while any of its rows still moves. Every row is charged
    the same evaluations, retired or not, so the batch's evaluations, and its
    seconds with them, are split among the searches by their number of rows.
    """
    sizes = [len(s.starts) for s in searches]
    owner = np.repeat(np.arange(len(searches)), sizes)
    starts = np.concatenate([s.starts for s in searches])
    profiles = np.stack([s.profile for s in searches])
    bidders = np.array([s.bidder for s in searches])
    t0, evals0 = time.perf_counter(), mech.evaluations
    groups = [slice(lo, lo + _SCAN_CHUNK) for lo in range(0, len(starts), _SCAN_CHUNK)]
    best_rows, best_utils, frozen = map(np.concatenate, zip(*(
        _ascend(mech, profiles[owner[g]], bidders[owner[g]], starts[g], ascent.gamma, ascent.big_r)
        for g in groups)))
    evals_per_row = (mech.evaluations - evals0) // len(starts)  # _ascend charges rows evenly
    seconds_per_row = (time.perf_counter() - t0) / len(starts)
    cuts = np.cumsum(sizes)[:-1]
    return [_finish(s, rows, utils, flags, evals_per_row * len(rows), seconds_per_row * len(rows),
                    ascent.big_r)
            for s, rows, utils, flags in zip(searches, np.split(best_rows, cuts),
                                             np.split(best_utils, cuts), np.split(frozen, cuts))]


def pga_single(mech: Mechanism, profile, bidder: int, start, gamma: float,
               big_r: int):
    """Ascend from one start; returns (best_bid, best_utility, trajectory_evals).

    ``best_utility`` is never below the start's utility.
    """
    check_type(mech, "mech", Mechanism)
    profiles = check_query(mech.setting, [profile], bidder)[0]
    check_int(bidder, "bidder", 0)  # one bidder, not one per row of the stack [profile]
    check_float(gamma, "gamma", positive=True)
    check_int(big_r, "big_r", 0)
    start = as_floats(start, "start")
    if start.shape != (mech.setting.m,):
        raise InvalidInputError(f"start shape {start.shape} != ({mech.setting.m},)")
    _check_values(start, "start")
    evals0 = mech.evaluations
    best_x, best_u, _ = _ascend(mech, profiles, np.array([bidder]), start[None, :],
                                gamma, big_r)
    return best_x[0], float(best_u[0]), mech.evaluations - evals0


def pga_search(mech: Mechanism, profile, bidder: int, cfg: PgaConfig, seed: int) -> _Search:
    """The first half of ``random_restart_pga``: the truthful utility and the
    L uniform starts, drawn first so that a bad seed costs no evaluation."""
    t0 = time.perf_counter()
    check_type(mech, "mech", Mechanism)
    check_type(cfg, "cfg", PgaConfig)
    starts = np.stack([
        rng.spawn_generator(seed, rng.STREAM_CANDIDATE, l).random(mech.setting.m)
        for l in range(cfg.big_l)
    ])
    evals0 = mech.evaluations
    profile, base = _prepare(mech, profile, bidder)
    return _Search(METHOD_PGA, profile, bidder, base, starts, mech.evaluations - evals0,
                   time.perf_counter() - t0)


def random_restart_pga(mech: Mechanism, profile, bidder: int, cfg: PgaConfig,
                       seed: int) -> RegretEstimate:
    """Multi-start ascent from L uniform starts; the standard evaluator.

    Start l comes from its own child stream, so the first L starts coincide
    for any larger restart count with the same seed, making regret exactly
    nondecreasing in L. Candidate aborts surface as the ``flagged`` field,
    never as failures.
    """
    return run_searches(mech, [pga_search(mech, profile, bidder, cfg, seed)], cfg)[0]


def build_portfolio(profile, bidder: int, item_argmaxes, cfg: PortfolioConfig,
                    seed: int) -> np.ndarray:
    """Assemble the 1 + m + 3k initialization candidates as rows in [0, 1]^m.

    Row order: the combinatorial candidate (the per-item grid optima
    verbatim); one single-item candidate per item j, every other coordinate
    truthful; then k each of perturbed-combinatorial, perturbed-truthful and
    uniform-random candidates. Gaussian perturbations are clamped to [0, 1]
    after drawing (no rejection loops); with k = 0 no random stream is
    consumed, but the seed is checked all the same.
    """
    check_type(cfg, "cfg", PortfolioConfig)
    check_int(seed, "seed", 0)
    comb = as_floats(item_argmaxes, "item_argmaxes")
    if comb.ndim != 1:
        raise InvalidInputError(f"item_argmaxes shape {comb.shape} is not (m,)")
    _check_values(comb, "item_argmaxes")
    # n is the profile's row count; check_query holds the profile to (n, m)
    profile = as_floats(profile, "profile")
    setting = AuctionSetting(len(profile) if profile.ndim else 0, len(comb))
    truthful = check_query(setting, [profile], bidder)[2][0]
    check_int(bidder, "bidder", 0)  # one bidder, not one per row of the stack [profile]
    m = len(comb)

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


def guided_search(scan: ItemScan, cfg: PortfolioConfig, seed: int) -> _Search:
    """The first half of ``guided_refinement`` after its grid phase: the
    portfolio built on ``scan``'s optima, charged the scan's evaluations and
    seconds in full."""
    t0 = time.perf_counter()
    starts = build_portfolio(scan.profile, scan.bidder, scan.coords, cfg, seed)
    floor = scan.lower_bound()
    return _Search(METHOD_GUIDED, scan.profile, scan.bidder, scan.base, starts, scan.evaluations,
                   scan.seconds + time.perf_counter() - t0, (floor.value, floor.best_misreport))


def guided_refinement(mech: Mechanism, profile, bidder: int, grid: GridSpec,
                      cfg: PortfolioConfig, seed: int) -> RegretEstimate:
    """Item-wise guided gradient refinement.

    Phase 1 is the item scan on the grid, yielding the per-item optima and
    the grid lower bound; phase 2 ascends from the portfolio built on those
    optima. The result is the best gain over the grid scan and every ascent
    iterate, so it can never fall below the grid lower bound. Evaluation
    counts include the grid phase.
    """
    check_type(cfg, "cfg", PortfolioConfig)  # both before the scan's evaluations
    check_int(seed, "seed", 0)
    scan = _scan_all_items(mech, profile, bidder, grid)
    return run_searches(mech, [guided_search(scan, cfg, seed)], cfg.refine)[0]
