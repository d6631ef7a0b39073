"""Experiment orchestration: single audits, hyperparameter sweeps, workers.

Every method inside one audit sees the same valuation profiles (streams are
keyed by sample index only), so cross-method orderings hold per sample
without statistical noise. Samples are independent: an audit splits them
into one contiguous chunk per worker (a serial run is one chunk), and each
search method climbs every (sample, bidder) of a chunk in lockstep. Records
are assembled in (sample, bidder, method) order, so parallel and serial runs
produce identical reports up to wall-clock fields. Methods are dispatched
through one ordered registry, ``METHODS``, whose entries read their grids
and search settings from the audit's config; a cell holds only its sample,
profile, bidder and search seed; ``_grid`` names each method's grid. Before
any chunk, worker or sweep cell, ``_checked_source`` reads the mechanism
source once (a spec path is read, its setting checked), and ``run_audit``
refuses every grid scan over its budget.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import estimators, rng
from .errors import InvalidConfigError, MechanismLoadError, check_int, check_type
from .estimators import (
    DEFAULT_EVAL_BUDGET,
    METHOD_EXHAUSTIVE,
    METHOD_GUIDED,
    METHOD_ITEM,
    METHOD_ITEM_WISE,
    METHOD_LOWER_BOUND,
    METHOD_PGA,
    GridSpec,
    ItemScan,
    RegretEstimate,
    exhaustive_regret,
    item_regret,
    item_wise_regret,
    lower_bound_regret,
)
from .mechanisms import (
    BUILTIN_MECHANISMS,
    AuctionSetting,
    Mechanism,
    NeuralMechanism,
    NeuralMechanismSpec,
    read_neural_spec,
)
from .optimizer import (
    PgaConfig,
    PortfolioConfig,
    guided_search,
    pga_search,
    run_searches,
    # the standalone searches stay importable here, where perfbench/tracer.py
    # binds its spans
    guided_refinement,  # noqa: F401
    random_restart_pga,  # noqa: F401
)
from .report import AuditRecord, AuditReport, write_report
from .sampling import KIND_CONTEXTUAL, ValuationDistribution, contextual_means, sample_valuations

THREADS_ENV_VAR = "REGRET_AUDIT_THREADS"


@dataclass(frozen=True)
class _Cell:
    """One (sample, bidder) of an audit: what differs from cell to cell."""

    sample: int
    profile: np.ndarray
    bidder: int
    seed: int  # search seed


def _grid(cfg: AuditRunConfig, method: str) -> GridSpec:
    """The grid ``method`` scans: the guided grid, when set, for guided."""
    return cfg.guided_grid or cfg.grid if method == METHOD_GUIDED else cfg.grid


def _guided(cfg, mech, cells, scans):
    """The ``METHODS`` entry of guided refinement, on its grid."""
    grid = _grid(cfg, METHOD_GUIDED)
    return [[est] for est in run_searches(mech, (
        guided_search(mech, c.profile, c.bidder, grid, cfg.portfolio, c.seed, scan=scan)
        for c, scan in zip(cells, scans(grid))), cfg.portfolio.refine)]


#: every method in canonical record order: (cfg, mech, cells, scans) -> each
#: cell's estimates, where scans(grid) is each cell's item scan on grid. The
#: estimators are looked up by name at call time, so wrappers bound on this
#: module see every call.
METHODS = {
    METHOD_EXHAUSTIVE: lambda cfg, mech, cells, scans: [[exhaustive_regret(
        mech, c.profile, c.bidder, cfg.grid, max_evals=cfg.max_grid_evals)] for c in cells],
    METHOD_ITEM: lambda cfg, mech, cells, scans: [[
        item_regret(mech, c.profile, c.bidder, j, cfg.grid, scan=scan)
        for j in range(mech.setting.m)] for c, scan in zip(cells, scans(cfg.grid))],
    METHOD_LOWER_BOUND: lambda cfg, mech, cells, scans: [
        [lower_bound_regret(mech, c.profile, c.bidder, cfg.grid, scan=scan)]
        for c, scan in zip(cells, scans(cfg.grid))],
    METHOD_ITEM_WISE: lambda cfg, mech, cells, scans: [
        [item_wise_regret(mech, c.profile, c.bidder, cfg.grid, scan=scan)]
        for c, scan in zip(cells, scans(cfg.grid))],
    METHOD_PGA: lambda cfg, mech, cells, scans: [[est] for est in run_searches(mech, (
        pga_search(mech, c.profile, c.bidder, cfg.pga, c.seed) for c in cells), cfg.pga)],
    METHOD_GUIDED: _guided,
}

#: methods run_audit can execute, in canonical record order
RUN_METHODS = tuple(METHODS)

SWEEP_CSV_COLUMNS = ("L", "R", "mean_regret", "mech_evals", "gradient_steps", "wall_seconds")

MechanismSource = Union[str, NeuralMechanismSpec]


@dataclass
class AuditRunConfig:
    """Everything one audit needs; fully determines the report modulo timing."""

    setting: AuctionSetting
    mechanism: MechanismSource
    distribution: ValuationDistribution
    grid: GridSpec
    methods: tuple
    pga: PgaConfig
    portfolio: PortfolioConfig
    samples: int
    seed: int
    out: Optional[Union[str, os.PathLike]] = None
    guided_grid: Optional[GridSpec] = None
    max_grid_evals: int = DEFAULT_EVAL_BUDGET

    def __post_init__(self):
        for name, types in (("setting", AuctionSetting), ("mechanism", (str, NeuralMechanismSpec)),
                            ("distribution", ValuationDistribution), ("grid", GridSpec),
                            ("guided_grid", (GridSpec, type(None))), ("pga", PgaConfig),
                            ("portfolio", PortfolioConfig), ("methods", (tuple, list)),
                            ("out", (str, os.PathLike, type(None)))):
            check_type(getattr(self, name), name, types, InvalidConfigError)
        check_int(self.samples, "samples", 1, InvalidConfigError)
        check_int(self.seed, "seed", 0, InvalidConfigError)
        check_int(self.max_grid_evals, "max_grid_evals", 1, InvalidConfigError)
        if self.distribution.kind == KIND_CONTEXTUAL:
            contextual_means(self.distribution, self.setting)  # contexts fit the setting
        if not self.methods or not all(isinstance(m, str) for m in self.methods):
            raise InvalidConfigError(f"methods must be nonempty method names, got {self.methods!r}")
        unknown = set(self.methods) - set(RUN_METHODS)
        if unknown:
            raise InvalidConfigError(
                f"unknown methods {sorted(unknown)}; expected a subset of {RUN_METHODS}")
        # canonical order, so record layout ignores input order
        self.methods = tuple(m for m in RUN_METHODS if m in self.methods)


def _checked_source(source: MechanismSource, setting: AuctionSetting) -> MechanismSource:
    """The one reading of a mechanism source: a builtin name as given, else
    the spec, read from its path, whose setting matches ``setting``."""
    check_type(setting, "setting", AuctionSetting, MechanismLoadError)
    if isinstance(source, str):
        if source in BUILTIN_MECHANISMS:
            return source
        source = read_neural_spec(source)
    if not isinstance(source, NeuralMechanismSpec):
        raise MechanismLoadError(f"cannot resolve mechanism from {source!r}")
    if source.setting != setting:
        raise MechanismLoadError(f"mechanism setting {source.setting.n}x{source.setting.m} "
                                 f"does not match configured {setting.n}x{setting.m}")
    return source


def resolve_mechanism(source: MechanismSource, setting: AuctionSetting) -> Mechanism:
    """Build the subject mechanism from a builtin name, spec file, or spec."""
    source = _checked_source(source, setting)
    if isinstance(source, str):
        return BUILTIN_MECHANISMS[source](setting)
    return NeuralMechanism(source)


def config_echo(cfg: AuditRunConfig) -> dict:
    """JSON-able echo of the configuration for the report header."""
    mech = cfg.mechanism
    mech_desc = mech if isinstance(mech, str) else f"neural:{mech.setting.n}x{mech.setting.m}"
    dist = cfg.distribution
    return {
        "setting": {"n": cfg.setting.n, "m": cfg.setting.m},
        "mechanism": mech_desc,
        "distribution": {
            "kind": dist.kind,
            "x_contexts": list(dist.x_contexts) if dist.x_contexts else None,
            "y_contexts": list(dist.y_contexts) if dist.y_contexts else None,
            "std": dist.std,
        },
        "grid": {"q": cfg.grid.q, "style": cfg.grid.style},
        "guided_grid": None if cfg.guided_grid is None
        else {"q": cfg.guided_grid.q, "style": cfg.guided_grid.style},
        "methods": list(cfg.methods),
        "pga": {"gamma": cfg.pga.gamma, "L": cfg.pga.big_l, "R": cfg.pga.big_r},
        "portfolio": {
            "k": cfg.portfolio.k,
            "sigma_opt": cfg.portfolio.sigma_opt,
            "sigma_truth": cfg.portfolio.sigma_truth,
            "refine_gamma": cfg.portfolio.refine.gamma,
            "refine_R": cfg.portfolio.refine.big_r,
        },
        "samples": cfg.samples,
        "seed": cfg.seed,
        "max_grid_evals": cfg.max_grid_evals,
    }


def _chunk_estimates(cfg: AuditRunConfig, mech: Mechanism,
                     cells: Sequence[_Cell]) -> List[List[RegretEstimate]]:
    """Run ``cfg.methods`` on every cell of a chunk; returns each cell's
    estimates in record order.

    Each method runs over the whole chunk, so a search method climbs the
    candidates of every cell together. At most one item scan is computed per
    cell and distinct grid, and every method derived from it shares it. Each
    of their records counts the scan's evaluations and seconds in full.
    """
    @functools.cache
    def scans(grid: GridSpec) -> List[ItemScan]:
        # looked up on the module at call time, like the estimators
        return [estimators._scan_all_items(mech, c.profile, c.bidder, grid, cfg.max_grid_evals)
                for c in cells]

    per_cell = [[] for _ in cells]
    for name in cfg.methods:
        for estimates, more in zip(per_cell, METHODS[name](cfg, mech, cells, scans)):
            estimates += more
    return per_cell


def _chunk_records(cfg: AuditRunConfig, samples: Sequence[int]) -> List[AuditRecord]:
    """The records of a chunk of samples, in (sample, bidder, method) order:
    the one task of an audit, run once serially or once per pool worker."""
    mech = resolve_mechanism(cfg.mechanism, cfg.setting)
    profiles = {s: sample_valuations(cfg.distribution, cfg.setting, s, cfg.seed) for s in samples}
    cells = [_Cell(s, profiles[s], b, rng.derive_seed(cfg.seed, rng.STREAM_SEARCH, s, b))
             for s in samples for b in range(cfg.setting.n)]
    return [AuditRecord(sample=cell.sample, estimate=est)
            for cell, estimates in zip(cells, _chunk_estimates(cfg, mech, cells))
            for est in estimates]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else the env var, else serial.

    A value of 0 (either way) means one worker per CPU.
    """
    if workers is None:
        raw = os.environ.get(THREADS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidConfigError(f"{THREADS_ENV_VAR}={raw!r} is not an integer")
    check_int(workers, "worker count", 0, InvalidConfigError)
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def run_audit(cfg: AuditRunConfig, workers: Optional[int] = None) -> AuditReport:
    """Run every requested method on every bidder for each sampled profile.

    Deterministic given the config seed (wall-clock fields aside); the report
    is persisted to ``cfg.out`` when set.
    """
    t0 = time.perf_counter()
    check_type(cfg, "cfg", AuditRunConfig, InvalidConfigError)
    echo = config_echo(cfg)  # names a spec path, not the spec read from it
    cfg = replace(cfg, mechanism=_checked_source(cfg.mechanism, cfg.setting))
    for method in (name for name in cfg.methods if name != METHOD_PGA):  # before any chunk
        estimators._check_budget(cfg.max_grid_evals, cfg.setting.m, _grid(cfg, method),
                                 exhaustive=method == METHOD_EXHAUSTIVE)
    # reports do not depend on the worker count, so more workers than CPUs add only memory
    workers = min(resolve_workers(workers), os.cpu_count() or 1)

    # one contiguous chunk of samples per worker; a serial run is one chunk
    chunks = [chunk.tolist() for chunk in np.array_split(np.arange(cfg.samples), workers)
              if chunk.size]
    if len(chunks) == 1:
        per_chunk = [_chunk_records(cfg, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            per_chunk = list(pool.map(_chunk_records, [cfg] * len(chunks), chunks))

    report = AuditReport(config=echo,
                         records=[rec for chunk_recs in per_chunk for rec in chunk_recs],
                         wall_seconds=time.perf_counter() - t0)
    if cfg.out is not None:
        write_report(report, cfg.out)
    return report


def run_sweep(cfg: AuditRunConfig, l_values: Sequence[int], r_values: Sequence[int],
              out: Optional[Union[str, os.PathLike]] = None) -> List[dict]:
    """One pga audit per (L, R) pair over the same sample seeds.

    Sharing the run seed pairs the samples across cells, so regret is exactly
    nondecreasing in L for fixed R. The lists, the mechanism source (a spec
    path is read once) and every cell's config are checked before the first
    cell runs. Returns the sweep rows and optionally writes them as CSV.
    """
    check_type(cfg, "cfg", AuditRunConfig, InvalidConfigError)
    for name, values in (("l_values", l_values), ("r_values", r_values)):
        check_type(values, name, (list, tuple, range), InvalidConfigError)
        if not values:
            raise InvalidConfigError(f"{name} must be nonempty")
        for value in values:
            check_int(value, f"{name} entries", 1, InvalidConfigError)
    check_type(out, "out", (str, os.PathLike, type(None)), InvalidConfigError)
    cfg = replace(cfg, mechanism=_checked_source(cfg.mechanism, cfg.setting))
    cells = [replace(cfg, methods=(METHOD_PGA,), out=None,
                     pga=replace(cfg.pga, big_l=big_l, big_r=big_r))
             for big_l in l_values for big_r in r_values]
    rows = []
    for cell in cells:
        report = run_audit(cell)
        rows.append(dict(zip(SWEEP_CSV_COLUMNS, (
            cell.pga.big_l, cell.pga.big_r, report.method_means[METHOD_PGA],
            report.total_mech_evals, report.total_gradient_steps, report.wall_seconds))))
    if out is not None:
        write_sweep_csv(rows, out)
    return rows


def write_sweep_csv(rows: List[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
