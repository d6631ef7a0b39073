"""Experiment orchestration: single audits, hyperparameter sweeps, workers.

Every method inside one audit sees the same valuation profiles (streams are
keyed by sample index only), so cross-method orderings hold per sample
without statistical noise. Samples are independent: an audit splits them
into one contiguous chunk per worker (a serial run is one chunk), and each
search method climbs every (sample, bidder) of a chunk in lockstep. Records
are assembled in (sample, bidder, method) order, so parallel and serial runs
produce identical reports up to wall-clock fields. Methods are dispatched
through one ordered registry, ``METHODS``.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Union

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import estimators, rng
from .errors import InvalidConfigError, InvalidInputError, MechanismLoadError
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
    NeuralMechanismSpec,
    load_neural_mechanism,
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
from .report import AuditRecord, AuditReport, compute_method_means, write_report
from .sampling import ValuationDistribution, sample_valuations

THREADS_ENV_VAR = "REGRET_AUDIT_THREADS"


@dataclass(frozen=True)
class _Cell:
    """One (sample, bidder) of an audit and the settings its methods read."""

    mech: Mechanism
    profile: np.ndarray
    bidder: int
    grid: GridSpec
    guided_grid: GridSpec
    max_evals: int
    pga: Optional[PgaConfig] = None
    portfolio: Optional[PortfolioConfig] = None
    seed: Optional[int] = None  # search seed; None for grid-only runs


#: one method over a chunk of cells: (cells, each cell's item scan or None)
#: -> each cell's estimates in record order
_ChunkRunner = Callable[[Sequence[_Cell], Sequence[Optional[ItemScan]]], List[List[RegretEstimate]]]


def _per_cell(run: Callable[[_Cell, Optional[ItemScan]], List[RegretEstimate]]) -> _ChunkRunner:
    """A chunk runner that runs ``run`` on each cell on its own."""
    return lambda cells, scans: [run(cell, scan) for cell, scan in zip(cells, scans)]


def _lockstep(search: Callable[[_Cell, Optional[ItemScan]], object]) -> _ChunkRunner:
    """A chunk runner that climbs every cell's ``search`` in one lockstep."""
    return lambda cells, scans: [[est] for est in run_searches(
        cells[0].mech, (search(cell, scan) for cell, scan in zip(cells, scans)))]


@dataclass(frozen=True)
class _Method:
    run: _ChunkRunner
    #: the cell grid whose item scan the method derives from
    scan_grid: Optional[str] = None
    #: reads the search seed, so audit_all_bidders cannot run it
    searches: bool = False


#: every method in canonical record order. The estimator functions are looked
#: up by name at call time, so wrappers bound on this module see every call.
METHODS = {
    METHOD_EXHAUSTIVE: _Method(_per_cell(lambda c, _: [exhaustive_regret(
        c.mech, c.profile, c.bidder, c.grid, max_evals=c.max_evals)])),
    METHOD_ITEM: _Method(_per_cell(lambda c, scan: [
        item_regret(c.mech, c.profile, c.bidder, j, c.grid, scan=scan)
        for j in range(c.mech.setting.m)]), scan_grid="grid"),
    METHOD_LOWER_BOUND: _Method(_per_cell(lambda c, scan: [lower_bound_regret(
        c.mech, c.profile, c.bidder, c.grid, scan=scan)]), scan_grid="grid"),
    METHOD_ITEM_WISE: _Method(_per_cell(lambda c, scan: [item_wise_regret(
        c.mech, c.profile, c.bidder, c.grid, scan=scan)]), scan_grid="grid"),
    METHOD_PGA: _Method(_lockstep(lambda c, _: pga_search(
        c.mech, c.profile, c.bidder, c.pga, c.seed)), searches=True),
    METHOD_GUIDED: _Method(_lockstep(lambda c, scan: guided_search(
        c.mech, c.profile, c.bidder, c.guided_grid, c.portfolio, c.seed, scan=scan)),
        scan_grid="guided_grid", searches=True),
}

#: methods run_audit can execute, in canonical record order
RUN_METHODS = tuple(METHODS)
#: methods that need no run seed, runnable through audit_all_bidders
GRID_METHODS = tuple(name for name, method in METHODS.items() if not method.searches)

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
    out: Optional[str] = None
    guided_grid: Optional[GridSpec] = None
    max_grid_evals: int = DEFAULT_EVAL_BUDGET

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidConfigError(f"samples must be >= 1, got {self.samples}")
        if not self.methods:
            raise InvalidConfigError("methods must be nonempty")
        self.methods = _canonical_methods(self.methods, RUN_METHODS, InvalidConfigError)


def _canonical_methods(methods, allowed: tuple, error) -> tuple:
    """``methods`` in canonical order, so record layout ignores input order."""
    unknown = set(methods) - set(allowed)
    if unknown:
        raise error(f"unknown methods {sorted(unknown)}; expected a subset of {allowed}")
    return tuple(m for m in allowed if m in set(methods))


def resolve_mechanism(source: MechanismSource, setting: AuctionSetting) -> Mechanism:
    """Build the subject mechanism from a builtin name, spec file, or spec."""
    if isinstance(source, NeuralMechanismSpec):
        spec = source
    elif source in BUILTIN_MECHANISMS:
        return BUILTIN_MECHANISMS[source](setting)
    elif isinstance(source, str):
        spec = read_neural_spec(source)
    else:
        raise MechanismLoadError(f"cannot resolve mechanism from {source!r}")
    if spec.setting != setting:
        raise MechanismLoadError(
            f"mechanism setting {spec.setting.n}x{spec.setting.m} does not match "
            f"configured {setting.n}x{setting.m}"
        )
    return load_neural_mechanism(spec)


def config_echo(cfg: AuditRunConfig) -> dict:
    """JSON-able echo of the configuration for the report header."""
    mech = cfg.mechanism
    mech_desc = mech if isinstance(mech, str) else f"neural:{mech.setting.n}x{mech.setting.m}"
    dist = cfg.distribution
    echo = {
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
    return echo


def _chunk_estimates(cells: Sequence[_Cell], methods: tuple) -> List[List[RegretEstimate]]:
    """Run canonically ordered ``methods`` on every cell of a chunk; returns
    each cell's estimates in record order.

    Each method runs over the whole chunk, so a search method climbs the
    candidates of every cell together. At most one item scan is computed per
    cell and distinct grid, and every method derived from it shares it. Each
    of their records still counts the scan's full evaluations; its seconds
    go to the first record using it.
    """
    scans = [{} for _ in cells]  # per cell: grid -> its item scan
    per_method = []
    for name in methods:
        method = METHODS[name]
        cell_scans, scan_seconds = [], []
        for cell, cell_cache in zip(cells, scans):
            grid = getattr(cell, method.scan_grid) if method.scan_grid else None
            t0 = time.perf_counter()
            if grid is not None and grid not in cell_cache:
                # looked up on the module at call time, like the estimators above
                cell_cache[grid] = estimators._scan_all_items(
                    cell.mech, cell.profile, cell.bidder, grid)
            cell_scans.append(cell_cache.get(grid))
            scan_seconds.append(time.perf_counter() - t0)
        estimates = method.run(cells, cell_scans)
        for cell_estimates, seconds in zip(estimates, scan_seconds):
            cell_estimates[0].wall_seconds += seconds
        per_method.append(estimates)
    return [[est for estimates in cell_methods for est in estimates]
            for cell_methods in zip(*per_method)]


def audit_all_bidders(mech: Mechanism, profile, grid: GridSpec,
                      methods: Sequence[str],
                      max_evals: int = DEFAULT_EVAL_BUDGET) -> List[RegretEstimate]:
    """Run the requested grid estimators for every bidder.

    Results are ordered by (bidder, canonical method order, item). An empty
    method set yields an empty list.
    """
    methods = _canonical_methods(methods, GRID_METHODS, InvalidInputError)
    cells = [_Cell(mech, profile, bidder, grid, grid, max_evals)
             for bidder in range(mech.setting.n)]
    return [est for estimates in _chunk_estimates(cells, methods) for est in estimates]


def _chunk_records(mech: Mechanism, cfg: AuditRunConfig,
                   samples: Sequence[int]) -> List[AuditRecord]:
    """The records of a chunk of samples, in (sample, bidder, method) order."""
    cells, cell_samples = [], []
    for sample in samples:
        profile = sample_valuations(cfg.distribution, cfg.setting, sample, cfg.seed)
        for bidder in range(cfg.setting.n):
            cells.append(_Cell(mech, profile, bidder, cfg.grid, cfg.guided_grid or cfg.grid,
                               cfg.max_grid_evals, cfg.pga, cfg.portfolio,
                               rng.derive_seed(cfg.seed, rng.STREAM_SEARCH, sample, bidder)))
            cell_samples.append(sample)
    return [AuditRecord(sample=sample, estimate=est)
            for sample, estimates in zip(cell_samples, _chunk_estimates(cells, cfg.methods))
            for est in estimates]


_WORKER_STATE = {}


def _init_worker(cfg: AuditRunConfig) -> None:
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["mech"] = resolve_mechanism(cfg.mechanism, cfg.setting)


def _run_chunk_task(samples: Sequence[int]) -> List[AuditRecord]:
    return _chunk_records(_WORKER_STATE["mech"], _WORKER_STATE["cfg"], samples)


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
    if workers < 0:
        raise InvalidConfigError(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def run_audit(cfg: AuditRunConfig, workers: Optional[int] = None) -> AuditReport:
    """Run every requested method on every bidder for each sampled profile.

    Deterministic given the config seed (wall-clock fields aside); the report
    is persisted to ``cfg.out`` when set.
    """
    t0 = time.perf_counter()
    workers = resolve_workers(workers)
    mech = resolve_mechanism(cfg.mechanism, cfg.setting)

    # one contiguous chunk of samples per worker; a serial run is one chunk
    chunks = [chunk.tolist() for chunk in np.array_split(np.arange(cfg.samples), workers)
              if chunk.size]
    if len(chunks) == 1:
        per_chunk = [_chunk_records(mech, cfg, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks), initializer=_init_worker,
                                 initargs=(cfg,)) as pool:
            per_chunk = list(pool.map(_run_chunk_task, chunks))

    records = [rec for chunk_recs in per_chunk for rec in chunk_recs]
    means = compute_method_means(records, cfg.samples, cfg.methods)
    report = AuditReport(
        config=config_echo(cfg),
        samples=cfg.samples,
        methods=cfg.methods,
        records=records,
        method_means=means,
        total_mech_evals=sum(r.estimate.mech_evals for r in records),
        total_gradient_steps=sum(r.estimate.gradient_steps for r in records),
        wall_seconds=time.perf_counter() - t0,
    )
    if cfg.out is not None:
        write_report(report, cfg.out)
    return report


def run_sweep(cfg: AuditRunConfig, l_values: Sequence[int], r_values: Sequence[int],
              out: Optional[str] = None, workers: Optional[int] = None) -> List[dict]:
    """One pga audit per (L, R) pair over the same sample seeds.

    Sharing the run seed pairs the samples across cells, so regret is exactly
    nondecreasing in L for fixed R. Returns the sweep rows and optionally
    writes them as CSV.
    """
    if not l_values or not r_values:
        raise InvalidConfigError("l_values and r_values must be nonempty")
    rows = []
    for big_l in l_values:
        for big_r in r_values:
            cell = replace(cfg, methods=(METHOD_PGA,), out=None,
                           pga=replace(cfg.pga, big_l=int(big_l), big_r=int(big_r)))
            report = run_audit(cell, workers=workers)
            rows.append({
                "L": int(big_l),
                "R": int(big_r),
                "mean_regret": report.method_means[METHOD_PGA],
                "mech_evals": report.total_mech_evals,
                "gradient_steps": report.total_gradient_steps,
                "wall_seconds": report.wall_seconds,
            })
    if out is not None:
        write_sweep_csv(rows, out)
    return rows


def write_sweep_csv(rows: List[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
