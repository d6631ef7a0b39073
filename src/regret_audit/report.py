"""Audit report model and JSON persistence.

Reports are plain JSON with a format_version field. Floats serialize through
Python's shortest-exact repr, so a write/read round trip reproduces every
value bit for bit. All fields except the wall-clock timings are
deterministic functions of the run configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import InvalidConfigError, ReportFormatError
from .estimators import RegretEstimate

REPORT_FORMAT_VERSION = 1


@dataclass
class AuditRecord:
    """One estimate for one (sample, bidder, method) cell."""

    sample: int
    estimate: RegretEstimate


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
    format_version: int = REPORT_FORMAT_VERSION


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
        bidder=int(data["bidder"]),
        value=float(data["value"]),
        best_misreport=None if misreport is None else np.asarray(misreport, dtype=np.float64),
        mech_evals=int(data["mech_evals"]),
        wall_seconds=float(data["wall_seconds"]),
        gradient_steps=int(data["gradient_steps"]),
        flagged=bool(data["flagged"]),
    )


def report_to_dict(report: AuditReport) -> dict:
    return {
        "format_version": report.format_version,
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
    if not isinstance(data, dict):
        raise ReportFormatError(f"a report must be a JSON object, got {type(data).__name__}")
    version = data.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise ReportFormatError(
            f"unsupported report format_version {version!r}, expected {REPORT_FORMAT_VERSION}"
        )
    try:
        records = [
            AuditRecord(sample=int(rec["sample"]), estimate=_estimate_from_dict(rec))
            for rec in data["records"]
        ]
        return AuditReport(
            config=data["config"],
            samples=int(data["samples"]),
            methods=tuple(data["methods"]),
            records=records,
            method_means={k: float(v) for k, v in data["method_means"].items()},
            total_mech_evals=int(data["total_mech_evals"]),
            total_gradient_steps=int(data["total_gradient_steps"]),
            wall_seconds=float(data["wall_seconds"]),
            format_version=int(version),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # ValueError covers a record that RegretEstimate rejects (InvalidInputError)
        raise ReportFormatError(f"malformed report: {exc}") from exc


def validate_report(report: AuditReport) -> None:
    if report.samples < 1:
        raise InvalidConfigError("a report must cover at least one sample")
    if not report.records:
        raise InvalidConfigError("a report must contain records")
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def read_report(path) -> AuditReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ReportFormatError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ReportFormatError(f"report {path} is not valid JSON: {exc}") from exc
    return report_from_dict(data)
