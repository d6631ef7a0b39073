"""Audit report model and JSON persistence.

Reports are plain JSON with a format_version field. Floats serialize through
Python's shortest-exact repr, so a write/read round trip reproduces every
value bit for bit. All fields except the wall-clock timings are
deterministic functions of the run configuration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import InvalidConfigError, ReportFormatError, check_float, check_int
from .estimators import METHOD_ITEM, RegretEstimate
from .mechanisms import AuctionSetting, check_format, read_json, write_json

REPORT_FORMAT_VERSION = 1


@dataclass
class AuditRecord:
    """One estimate for one (sample, bidder, method) cell."""

    sample: int
    estimate: RegretEstimate

    def __post_init__(self):
        check_int(self.sample, "sample", 0)


@dataclass
class AuditReport:
    """Per-method regret summaries plus the full per-sample records.

    ``method_means`` holds, per method, the mean over samples of the
    per-sample maximum over bidders; the records keep every per-bidder
    estimate so any other aggregation can be recomputed.
    """

    config: dict
    samples: int
    methods: tuple
    records: List[AuditRecord]
    method_means: Dict[str, float]
    total_mech_evals: int
    total_gradient_steps: int
    wall_seconds: float

    def __post_init__(self):
        for name in ("samples", "total_mech_evals", "total_gradient_steps"):
            check_int(getattr(self, name), name, 0)
        self.wall_seconds = check_float(self.wall_seconds, "wall_seconds")


def compute_method_means(records: List[AuditRecord], samples: int,
                         methods) -> Dict[str, float]:
    """Mean over samples of the per-sample max over bidders, per method."""
    means = {}
    for method in methods:
        per_sample = np.full(samples, -np.inf)
        for rec in records:
            if rec.estimate.method == method:
                per_sample[rec.sample] = max(per_sample[rec.sample], rec.estimate.value)
        if np.isinf(per_sample).any():
            raise InvalidConfigError(f"method {method} is missing sample records")
        means[method] = float(per_sample.mean())
    return means


def _estimate_to_dict(est: RegretEstimate) -> dict:
    return {
        "method": est.method,
        "bidder": est.bidder,
        "value": est.value,
        "best_misreport": None if est.best_misreport is None else est.best_misreport.tolist(),
        "mech_evals": est.mech_evals,
        "gradient_steps": est.gradient_steps,
        "wall_seconds": est.wall_seconds,
        "flagged": est.flagged,
    }


def _estimate_from_dict(data: dict) -> RegretEstimate:
    misreport = data["best_misreport"]
    return RegretEstimate(
        method=data["method"],
        bidder=data["bidder"],
        value=data["value"],
        best_misreport=None if misreport is None else np.asarray(misreport, dtype=np.float64),
        mech_evals=data["mech_evals"],
        wall_seconds=data["wall_seconds"],
        gradient_steps=data["gradient_steps"],
        flagged=data["flagged"],
    )


def report_to_dict(report: AuditReport) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "config": report.config,
        "samples": report.samples,
        "methods": list(report.methods),
        "method_means": dict(report.method_means),
        "total_mech_evals": report.total_mech_evals,
        "total_gradient_steps": report.total_gradient_steps,
        "wall_seconds": report.wall_seconds,
        "records": [
            {"sample": rec.sample, **_estimate_to_dict(rec.estimate)}
            for rec in report.records
        ],
    }


def report_from_dict(data: dict) -> AuditReport:
    check_format(data, "report", REPORT_FORMAT_VERSION, ReportFormatError)
    try:
        records = [
            AuditRecord(sample=rec["sample"], estimate=_estimate_from_dict(rec))
            for rec in data["records"]
        ]
        report = AuditReport(
            config=data["config"],
            samples=data["samples"],
            methods=tuple(data["methods"]),
            records=records,
            method_means={k: check_float(v, f"method_means[{k!r}]")
                          for k, v in data["method_means"].items()},
            total_mech_evals=data["total_mech_evals"],
            total_gradient_steps=data["total_gradient_steps"],
            wall_seconds=data["wall_seconds"],
        )
        validate_report(report)  # a file that write_report refuses does not load
        return report
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # ValueError covers what the report types and validate_report reject
        raise ReportFormatError(f"malformed report: {exc}") from exc


def validate_report(report: AuditReport) -> None:
    """Raise InvalidConfigError unless the report fits its own config: one
    record per (sample, bidder, method), or m for ``item``, that fit the
    setting, with totals and means recomputable from them."""
    if report.samples < 1:
        raise InvalidConfigError("a report must cover at least one sample")
    if not report.records:
        raise InvalidConfigError("a report must contain records")
    try:
        setting = AuctionSetting(report.config["setting"]["n"], report.config["setting"]["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"report config has no valid setting: {exc!r}") from exc
    for rec in report.records:
        est = rec.estimate
        if rec.sample >= report.samples:
            raise InvalidConfigError(
                f"record sample {rec.sample} out of range: samples={report.samples}")
        if est.bidder >= setting.n:
            raise InvalidConfigError(f"record bidder {est.bidder} out of range for n={setting.n}")
        row = est.best_misreport
        if row is not None and not (row.shape == (setting.m,)
                                    and row.min() >= 0.0 and row.max() <= 1.0):
            raise InvalidConfigError(f"record best_misreport {row.tolist()} "
                                     f"is not a row of m={setting.m} bids in [0, 1]")
        if est.method not in report.methods:
            raise InvalidConfigError(
                f"record method {est.method!r} is not one of {list(report.methods)}")
    if set(report.method_means) != set(report.methods):
        raise InvalidConfigError(f"method_means names {list(report.method_means)}, "
                                 f"expected the methods {list(report.methods)}")
    counts = Counter((rec.sample, rec.estimate.bidder, rec.estimate.method)
                     for rec in report.records)
    for cell in itertools.product(range(report.samples), range(setting.n), report.methods):
        expected = setting.m if cell[2] == METHOD_ITEM else 1
        if counts[cell] != expected:
            raise InvalidConfigError(f"{counts[cell]} records for (sample, bidder, method) "
                                     f"{cell}, expected {expected}")
    for total, field in (("total_mech_evals", "mech_evals"),
                         ("total_gradient_steps", "gradient_steps")):
        summed = sum(getattr(rec.estimate, field) for rec in report.records)
        if getattr(report, total) != summed:
            raise InvalidConfigError(f"{total} {getattr(report, total)} is not the records' "
                                     f"sum of {field}, {summed}")
    # means stay recomputable from the records
    recomputed = compute_method_means(report.records, report.samples, report.methods)
    for method, mean in report.method_means.items():
        if abs(recomputed[method] - mean) > 1e-12:
            raise InvalidConfigError(
                f"stored mean for {method} ({mean}) deviates from records ({recomputed[method]})"
            )


def write_report(report: AuditReport, path) -> None:
    """Persist a report; rejects empty reports before touching the file."""
    validate_report(report)
    write_json(report_to_dict(report), path)


def read_report(path) -> AuditReport:
    return report_from_dict(read_json(path, "report", ReportFormatError))
