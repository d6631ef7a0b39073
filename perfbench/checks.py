"""Output checks that feed ``failed_frac``, and the report digest.

A record is one (sample, bidder, method) estimate. It fails when its value
is non-finite or negative, when its reported best misreport does not earn
exactly the reported gain over truthful bidding (re-evaluated with
``regret_audit.utility``), or when its (sample, bidder) group breaks the
workload's invariant. The digest is the SHA-256 of the report with every
wall-clock field zeroed; any other changed byte changes it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import defaultdict

import numpy as np

import regret_audit as ra

TOL = 1e-9
# slack for the bound chain, whose terms are sums and maxima of the same scan
CHAIN_TOL = 1e-12


def _bound_chain(values, m):
    """lower_bound <= item_wise <= m * lower_bound, and guided >= lower_bound."""
    lb, iw, gd = values["lower_bound"], values["item_wise"], values["guided"]
    ok = lb <= iw + CHAIN_TOL and iw <= m * lb + CHAIN_TOL and gd + CHAIN_TOL >= lb
    return set() if ok else set(values)


def _separable(values, m):
    """exhaustive == item_wise == guided within TOL (acceptance criterion 4)."""
    ex = values["exhaustive"]
    ok = abs(values["item_wise"] - ex) <= TOL and abs(values["guided"] - ex) <= TOL
    return set() if ok else set(values)


def _zero_regret(values, m):
    """Every estimate is zero within TOL (acceptance criterion 1)."""
    return {method for method, value in values.items() if not value <= TOL}


def _no_invariant(values, m):
    return set()


#: invariant name -> function((method -> value) of one (sample, bidder), m)
#: returning the methods whose records fail
INVARIANTS = {
    "bound_chain": _bound_chain,
    "separable": _separable,
    "zero_regret": _zero_regret,
    "none": _no_invariant,
}


def _zero_wall_clock(data):
    if isinstance(data, dict):
        return {k: (0.0 if k == "wall_seconds" else _zero_wall_clock(v)) for k, v in data.items()}
    if isinstance(data, list):
        return [_zero_wall_clock(v) for v in data]
    return data


def _wall_clock_values(data):
    if isinstance(data, dict):
        for k, v in data.items():
            if k == "wall_seconds":
                yield v
            else:
                yield from _wall_clock_values(v)
    elif isinstance(data, list):
        for v in data:
            yield from _wall_clock_values(v)


def report_bytes(path, data) -> int:
    """Size of the report file, counting each wall-clock value as the three
    bytes of ``0.0`` so that the size repeats exactly."""
    size = os.path.getsize(path)
    return size - sum(len(json.dumps(v)) - 3 for v in _wall_clock_values(data))


def read_report(path):
    """(digest, parsed report) of a written report file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    canonical = json.dumps(_zero_wall_clock(data), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), data


def _misreport_gain(mech, profile, bidder, misreport) -> float:
    bids = profile.copy()
    bids[bidder] = misreport
    valuation = profile[bidder]
    return (ra.utility(mech, valuation, bids, bidder)
            - ra.utility(mech, valuation, profile, bidder))


def failed_records(data, mech, invariant: str) -> int:
    """Number of records of a parsed report that fail a check."""
    config = data["config"]
    setting = ra.AuctionSetting(config["setting"]["n"], config["setting"]["m"])
    profiles = {}
    failed = set()
    groups = defaultdict(dict)
    for i, rec in enumerate(data["records"]):
        sample, bidder, value = rec["sample"], rec["bidder"], rec["value"]
        groups[(sample, bidder)][rec["method"]] = (i, value)
        if not (math.isfinite(value) and value >= 0.0):
            failed.add(i)
            continue
        if rec["best_misreport"] is None:
            continue
        if sample not in profiles:
            profiles[sample] = ra.sample_valuations(ra.ValuationDistribution(), setting,
                                                    sample, config["seed"])
        try:
            gain = _misreport_gain(mech, profiles[sample], bidder,
                                   np.asarray(rec["best_misreport"], dtype=np.float64))
        except ra.AuditError:
            failed.add(i)
            continue
        if not abs(gain - value) <= TOL:
            failed.add(i)
    check = INVARIANTS[invariant]
    for group in groups.values():
        values = {method: value for method, (_, value) in group.items()}
        for method in check(values, setting.m):
            failed.add(group[method][0])
    return len(failed)
