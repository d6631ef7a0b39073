"""Tests of the benchmark's own code, at tiny workload sizes.

Kept out of the package's test collection by its file name. Run with:

    python3 -m pytest -q perfbench/selftest.py
"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run  # first: it puts the package source on sys.path
import checks
import hostspeed
import workloads
from checkout import ROOT
from regret_audit import mechanisms

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "guided_default": dict(samples=1, q=50, refine=(0.1, 20)),
    "oracle_separable": dict(samples=1, q=6),
    "dsic_pool": dict(samples=4, q=10, pga=(0.1, 2, 10), refine=(0.1, 10)),
}

EXACT = ("mechanisms.grad.rows_per_call", "optimizer.ascent_calls_per_bidder",
         "mechanisms.grad.flops_per_row", "mechanisms.run_many.rows_per_call",
         "mechanisms.evals_per_profile", "estimators.scan_passes_per_bidder",
         "rng.spawn.calls_per_bidder", "harness.pool_tasks", "report.bytes")


def tiny(name):
    return replace(workloads.WORKLOADS[name], name=f"{name}_tiny", **TINY[name])


def _printed_metrics(text):
    """name -> (value, unit) from the human-readable 'metric' lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_with_its_unit(name, trace, capsys):
    result = run.run(tiny(name), seed=3, seconds=0, trace=trace)
    printed = _printed_metrics(capsys.readouterr().out)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]

    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert printed["failed_frac"] == (0.0, "frac")
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]][1] == metric["unit"]
        assert np.isfinite(result["metrics"][metric["name"]]["value"])


def test_traced_runs_repeat_exact_counts(capsys):
    first = run.run(tiny("guided_default"), seed=5, seconds=0, trace=1)["metrics"]
    second = run.run(tiny("guided_default"), seed=5, seconds=0, trace=1)["metrics"]
    capsys.readouterr()
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert first["mechanisms.grad.rows_per_call"]["value"] == 3.0
    assert first["optimizer.ascent_calls_per_bidder"]["value"] == 21.0
    assert first["estimators.scan_passes_per_bidder"]["value"] == 3.0


def test_host_speed_scales_by_the_reference_around_each_step(monkeypatch):
    timings = iter([0.1, 0.3, 0.6])
    monkeypatch.setattr(hostspeed, "time_reference", lambda: next(timings))
    host = hostspeed.HostSpeed()
    assert host.scale(2.0) == pytest.approx(2.0 * hostspeed.NOMINAL_S / 0.2)
    assert host.scale(1.0) == pytest.approx(1.0 * hostspeed.NOMINAL_S / 0.45)
    assert host.times == [0.1, 0.3, 0.6]


def test_repetitions_that_disagree_fail(monkeypatch, capsys):
    read_report, count = checks.read_report, itertools.count()
    monkeypatch.setattr(checks, "read_report",
                        lambda path: (str(next(count)), read_report(path)[1]))
    result = run.run(tiny("oracle_separable"), seed=3, seconds=0, trace=0)
    assert not result["correct"]
    assert "FAIL repetitions disagree on the report digest" in capsys.readouterr().out


class NanPaymentAuction(mechanisms.PerItemFirstPriceAuction):
    """First-price allocation with non-finite payments: every utility is NaN."""

    def _run_batch(self, batch):
        alloc, pay = super()._run_batch(batch)
        return alloc, np.full_like(pay, np.nan)


@pytest.fixture
def nan_mechanism(monkeypatch):
    monkeypatch.setitem(mechanisms.BUILTIN_MECHANISMS, "nan_payment", NanPaymentAuction)
    return replace(workloads.WORKLOADS["oracle_separable"], name="nan_payment_tiny",
                   mechanism="nan_payment", n=2, m=2, q=4, samples=2, invariant="none")


def test_false_zero_from_exhaustive_counts_as_failed(nan_mechanism, capsys):
    # exhaustive reports 0.0 ("strategyproof") on a mechanism whose every
    # utility is NaN; re-evaluating its reported misreport exposes it
    result = run.run(replace(nan_mechanism, methods=("exhaustive",)), seed=1, seconds=0, trace=0)
    printed = _printed_metrics(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert printed["failed_frac"][0] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_raising_audit_fails_every_record(nan_mechanism, trace, capsys):
    result = run.run(nan_mechanism, seed=1, seconds=0, trace=trace)
    printed = _printed_metrics(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert printed["failed_frac"][0] == 1.0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "guided_default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
