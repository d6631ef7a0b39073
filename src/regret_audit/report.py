"""Audit report model and JSON persistence.

Reports are plain JSON with a format_version field. Floats serialize through
Python's shortest-exact repr, so a write/read round trip reproduces every
value bit for bit. All fields except the wall-clock timings are
deterministic functions of the run configuration.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import InvalidConfigError, ReportFormatError, check_float, check_int, check_type
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
        check_type(self.estimate, "estimate", RegretEstimate)


@dataclass
class AuditReport:
    """An audit's config echo, its per-(sample, bidder, method) records and
    its wall time; every summary is derived from the config and records."""

    config: dict
    records: List[AuditRecord]
    wall_seconds: float

    def __post_init__(self):
        check_type(self.config, "config", dict)
        check_type(self.records, "records", list)
        for rec in self.records:
            check_type(rec, "record", AuditRecord)
        self.wall_seconds = check_float(self.wall_seconds, "wall_seconds")

    @property
    def samples(self) -> int:
        return self.config["samples"]

    @property
    def methods(self) -> tuple:
        return tuple(self.config["methods"])

    @property
    def method_means(self) -> Dict[str, float]:
        """Per method, the mean over samples of the per-sample maximum over
        bidders (and items, for ``item``); defined only for a report that
        ``validate_report`` accepts."""
        per_sample = {method: np.full(self.samples, -np.inf) for method in self.methods}
        for rec in self.records:
            row = per_sample[rec.estimate.method]
            row[rec.sample] = max(row[rec.sample], rec.estimate.value)
        return {method: float(row.mean()) for method, row in per_sample.items()}

    @property
    def total_mech_evals(self) -> int:
        return sum(rec.estimate.mech_evals for rec in self.records)

    @property
    def total_gradient_steps(self) -> int:
        return sum(rec.estimate.gradient_steps for rec in self.records)


#: the keys a record stores after its sample, in file order: the fields of
#: its ``RegretEstimate``
_RECORD_KEYS = ("method", "bidder", "value", "best_misreport", "mech_evals", "gradient_steps",
                "wall_seconds", "flagged")


def _estimate_to_dict(est: RegretEstimate) -> dict:
    data = {key: getattr(est, key) for key in _RECORD_KEYS}
    if est.best_misreport is not None:
        data["best_misreport"] = est.best_misreport.tolist()
    return data


def _estimate_from_dict(data: dict) -> RegretEstimate:
    return RegretEstimate(**{key: data[key] for key in _RECORD_KEYS})


def _summaries(report: AuditReport) -> dict:
    """The summaries a report file stores beside its config and records."""
    return {
        "samples": report.samples,
        "methods": list(report.methods),
        "method_means": report.method_means,
        "total_mech_evals": report.total_mech_evals,
        "total_gradient_steps": report.total_gradient_steps,
    }


def report_to_dict(report: AuditReport) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "config": report.config,
        **_summaries(report),
        "wall_seconds": report.wall_seconds,
        "records": [
            {"sample": rec.sample, **_estimate_to_dict(rec.estimate)}
            for rec in report.records
        ],
    }


def report_from_dict(data: dict) -> AuditReport:
    """The report a file stores; every stored summary must be exactly, type
    included, the one its config and records give."""
    check_format(data, "report", REPORT_FORMAT_VERSION, ReportFormatError)
    try:
        records = [
            AuditRecord(sample=rec["sample"], estimate=_estimate_from_dict(rec))
            for rec in data["records"]
        ]
        report = AuditReport(config=data["config"], records=records,
                             wall_seconds=data["wall_seconds"])
        validate_report(report)  # a file that write_report refuses does not load
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # ValueError covers what the report types and validate_report reject
        raise ReportFormatError(f"malformed report: {exc}") from exc
    for key, derived in _summaries(report).items():
        # JSON text tells 1 from true and 1.0, and sorting ignores key order
        if json.dumps(data.get(key), sort_keys=True) != json.dumps(derived, sort_keys=True):
            raise ReportFormatError(f"malformed report: {key} {data.get(key)!r} is not "
                                    f"{derived!r}, derived from its config and records")
    return report


def validate_report(report: AuditReport) -> None:
    """Raise InvalidConfigError unless the config gives a setting, a sample
    count and methods, and the records fill exactly its cells: one record
    per (sample, bidder, method), or m for ``item``, each best misreport a
    row of m bids in [0, 1]."""
    check_type(report, "report", AuditReport, InvalidConfigError)
    config = report.config
    try:
        setting = AuctionSetting(config["setting"]["n"], config["setting"]["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"report config has no valid setting: {exc!r}") from exc
    check_int(config.get("samples"), "report config samples", 1, InvalidConfigError)
    methods = config.get("methods")
    if not methods:
        raise InvalidConfigError(f"report config must name a method, got {methods!r}")
    counts = Counter((rec.sample, rec.estimate.bidder, rec.estimate.method)
                     for rec in report.records)
    for cell in itertools.product(range(config["samples"]), range(setting.n), methods):
        expected = setting.m if cell[2] == METHOD_ITEM else 1
        found = counts.pop(cell, 0)
        if found != expected:
            raise InvalidConfigError(f"{found} records for (sample, bidder, method) {cell}, "
                                     f"expected {expected}")
    if counts:  # what is left lies outside the config's cells
        raise InvalidConfigError(
            f"record (sample, bidder, method) {next(iter(counts))} is outside samples="
            f"{config['samples']}, n={setting.n} and methods {list(methods)}")
    for rec in report.records:
        row = rec.estimate.best_misreport
        if row is not None and not (row.shape == (setting.m,)
                                    and row.min() >= 0.0 and row.max() <= 1.0):
            raise InvalidConfigError(f"record best_misreport {row.tolist()} "
                                     f"is not a row of m={setting.m} bids in [0, 1]")


def write_report(report: AuditReport, path) -> None:
    """Persist a report; rejects one that does not fit its config before
    touching the file."""
    validate_report(report)
    write_json(report_to_dict(report), path)


def read_report(path) -> AuditReport:
    return report_from_dict(read_json(path, "report", ReportFormatError))
