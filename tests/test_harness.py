"""Audit orchestration, reports, sweeps, worker determinism."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import regret_audit as ra
from regret_audit import harness, optimizer
from regret_audit.harness import _Cell, _chunk_estimates, resolve_workers
from regret_audit.sampling import KIND_CONTEXTUAL

from conftest import NanAboveAuction, NanPaymentAuction, uniform_profile


def small_cfg(**overrides):
    setting = ra.AuctionSetting(2, 2)
    defaults = dict(
        setting=setting,
        mechanism=ra.generate_neural_spec(setting, 16, 42),
        distribution=ra.ValuationDistribution(),
        grid=ra.GridSpec(20),
        methods=("lower_bound", "item_wise", "pga", "guided"),
        pga=ra.PgaConfig(0.1, 4, 30),
        portfolio=ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 30)),
        samples=6,
        seed=123,
    )
    defaults.update(overrides)
    return ra.AuditRunConfig(**defaults)


def strip_wall(data):
    if isinstance(data, dict):
        return {k: (0.0 if k == "wall_seconds" else strip_wall(v)) for k, v in data.items()}
    if isinstance(data, list):
        return [strip_wall(v) for v in data]
    return data


class TestConfig:
    def test_validation(self):
        with pytest.raises(ra.InvalidConfigError):
            small_cfg(samples=0)
        with pytest.raises(ra.InvalidConfigError):
            small_cfg(methods=())
        with pytest.raises(ra.InvalidConfigError):
            small_cfg(methods=("nope",))

    def test_methods_canonicalized(self):
        cfg = small_cfg(methods=("guided", "lower_bound"))
        assert cfg.methods == ("lower_bound", "guided")

    def test_resolve_mechanism(self, tmp_path):
        setting = ra.AuctionSetting(2, 2)
        assert isinstance(ra.resolve_mechanism("second_price", setting), ra.SecondPriceAuction)
        spec = ra.generate_neural_spec(setting, 8, 1)
        path = tmp_path / "m.json"
        ra.write_neural_spec(spec, path)
        mech = ra.resolve_mechanism(str(path), setting)
        assert isinstance(mech, ra.NeuralMechanism)
        with pytest.raises(ra.MechanismLoadError):
            ra.resolve_mechanism("no_such_builtin_or_file", setting)
        with pytest.raises(ra.MechanismLoadError):
            ra.resolve_mechanism(str(path), ra.AuctionSetting(3, 2))


class TestRunAudit:
    def test_second_price_all_methods_zero(self):
        cfg = small_cfg(mechanism="second_price",
                        methods=("exhaustive", "lower_bound", "item_wise", "pga", "guided"),
                        samples=5)
        report = ra.run_audit(cfg)
        assert all(mean == 0.0 for mean in report.method_means.values())
        assert all(rec.estimate.value == 0.0 for rec in report.records)

    def test_record_cardinality_and_order(self):
        cfg = small_cfg(methods=("item_wise",), samples=1)
        report = ra.run_audit(cfg)
        assert len(report.records) == cfg.setting.n
        cfg = small_cfg(samples=3)
        report = ra.run_audit(cfg)
        assert len(report.records) == 3 * 2 * 4
        keys = [(r.sample, r.estimate.bidder, r.estimate.method) for r in report.records]
        methods = cfg.methods
        expected = [(s, b, meth) for s in range(3) for b in range(2) for meth in methods]
        assert keys == expected

    def test_paired_samples_ordering_invariants(self):
        report = ra.run_audit(small_cfg(samples=8))
        by_key = {(r.sample, r.estimate.bidder, r.estimate.method): r.estimate.value
                  for r in report.records}
        for s in range(8):
            for b in range(2):
                assert by_key[(s, b, "lower_bound")] <= by_key[(s, b, "guided")]
                assert by_key[(s, b, "lower_bound")] <= by_key[(s, b, "item_wise")]

    def test_full_method_orderings_match_on_reference_subject(self):
        # every record of a four-method audit obeys the bound orderings,
        # with guided allowed continuous-refinement slack above the oracle
        setting = ra.AuctionSetting(2, 2)
        grid = ra.GridSpec(50)
        cfg = small_cfg(
            mechanism=ra.generate_neural_spec(setting, 16, 42),
            grid=grid,
            methods=("exhaustive", "lower_bound", "item_wise", "guided"),
            portfolio=ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 200)),
            samples=200,
            seed=777,
        )
        report = ra.run_audit(cfg, workers=2)
        by_key = {(r.sample, r.estimate.bidder, r.estimate.method): r.estimate.value
                  for r in report.records}
        slack = 2.0 / grid.q
        for s in range(cfg.samples):
            for b in range(setting.n):
                lb = by_key[(s, b, "lower_bound")]
                ex = by_key[(s, b, "exhaustive")]
                iw = by_key[(s, b, "item_wise")]
                gd = by_key[(s, b, "guided")]
                assert lb <= gd
                assert lb <= ex <= gd + slack
                assert iw <= setting.m * ex + 1e-12

    def test_mean_is_mean_of_per_sample_max(self):
        report = ra.run_audit(small_cfg(samples=4))
        for method in report.methods:
            per_sample = {}
            for rec in report.records:
                if rec.estimate.method == method:
                    per_sample[rec.sample] = max(per_sample.get(rec.sample, 0.0),
                                                 rec.estimate.value)
            expected = float(np.mean([per_sample[s] for s in range(4)]))
            assert report.method_means[method] == pytest.approx(expected, abs=1e-12)

    def test_eval_count_conservation(self):
        report = ra.run_audit(small_cfg(samples=3))
        assert report.total_mech_evals == sum(r.estimate.mech_evals for r in report.records)
        assert report.total_gradient_steps == sum(r.estimate.gradient_steps for r in report.records)

    def test_budget_exceeded_propagates(self):
        cfg = small_cfg(methods=("exhaustive",), grid=ra.GridSpec(100), max_grid_evals=100)
        with pytest.raises(ra.BudgetExceededError):
            ra.run_audit(cfg)

    def test_guided_grid_override(self):
        fine = ra.run_audit(small_cfg(methods=("guided",), samples=2,
                                      guided_grid=ra.GridSpec(50)))
        base = ra.run_audit(small_cfg(methods=("guided",), samples=2))
        # override changes the grid phase cost: m*(q+2)+1 term
        assert fine.records[0].estimate.mech_evals > base.records[0].estimate.mech_evals


def cell_estimates(cell, methods):
    """The estimates of a chunk of one cell."""
    return _chunk_estimates([cell], methods)[0]


def one_cell(mech, profile, bidder, grid=ra.GridSpec(10), guided_grid=None):
    """A (sample, bidder) cell with cheap settings for every method."""
    return _Cell(mech, profile, bidder, grid, guided_grid or grid, ra.DEFAULT_EVAL_BUDGET,
                 ra.PgaConfig(0.1, 3, 10), ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 10)),
                 seed=5)


class TestRegistry:
    def test_views_follow_registry_order(self):
        assert ra.RUN_METHODS == ("exhaustive", "item", "lower_bound", "item_wise",
                                  "pga", "guided")
        assert ra.GRID_METHODS == ("exhaustive", "item", "lower_bound", "item_wise")

    @pytest.mark.parametrize("method", ra.RUN_METHODS)
    @pytest.mark.parametrize("bidder", [-1, 2])
    def test_bidder_out_of_range_rejected(self, method, bidder):
        setting = ra.AuctionSetting(2, 2)
        mech = ra.PerItemFirstPriceAuction(setting)
        profile = uniform_profile(setting, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="out of range"):
            cell_estimates(one_cell(mech, profile, bidder), (method,))

    @pytest.mark.parametrize("method", ra.RUN_METHODS)
    def test_nonfinite_truthful_utility_rejected(self, method):
        # never a 0.0 certificate, a NaN regret, or a raw IndexError
        setting = ra.AuctionSetting(2, 2)
        mech = NanPaymentAuction(setting)
        profile = uniform_profile(setting, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="non-finite truthful utility"):
            cell_estimates(one_cell(mech, profile, 0), (method,))

    def test_sharing_is_invisible(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        cell = one_cell(neural_2x2, profile, 1)
        before = neural_2x2.evaluations
        shared = cell_estimates(cell, ("lower_bound", "item_wise", "guided"))
        executed = neural_2x2.evaluations - before
        alone = [
            ra.lower_bound_regret(neural_2x2, profile, 1, cell.grid),
            ra.item_wise_regret(neural_2x2, profile, 1, cell.grid),
            ra.guided_refinement(neural_2x2, profile, 1, cell.grid, cell.portfolio, cell.seed),
        ]
        for a, b in zip(shared, alone):
            assert (a.method, a.value, a.mech_evals, a.gradient_steps) == \
                (b.method, b.value, b.mech_evals, b.gradient_steps)
            assert (a.best_misreport is None and b.best_misreport is None) or \
                np.array_equal(a.best_misreport, b.best_misreport)
        scan_evals = alone[0].mech_evals
        assert scan_evals == 2 * (10 + 2) + 1
        assert executed == sum(e.mech_evals for e in shared) - 2 * scan_evals

    def test_distinct_guided_grid_scans_again(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        cell = one_cell(neural_2x2, profile, 0, guided_grid=ra.GridSpec(20))
        before = neural_2x2.evaluations
        shared = cell_estimates(cell, ("lower_bound", "item_wise", "guided"))
        # lower_bound and item_wise share the q=10 scan; guided scans q=20
        executed = neural_2x2.evaluations - before
        assert executed == sum(e.mech_evals for e in shared) - shared[0].mech_evals

    def test_item_runs_one_record_per_item(self):
        cfg = small_cfg(methods=("lower_bound", "item"), samples=2)
        report = ra.run_audit(cfg)
        keys = [(r.sample, r.estimate.bidder, r.estimate.method) for r in report.records]
        assert keys == [(s, b, meth) for s in range(2) for b in range(2)
                        for meth in ("item", "item", "lower_bound")]
        for first in range(0, len(report.records), 3):
            items = [r.estimate for r in report.records[first:first + 2]]
            lower = report.records[first + 2].estimate
            truthful = ra.sample_valuations(cfg.distribution, cfg.setting,
                                            report.records[first].sample, cfg.seed)[lower.bidder]
            for j, est in enumerate(items):
                # item j moves only coordinate j; every record counts the whole scan
                assert np.array_equal(np.delete(est.best_misreport, j), np.delete(truthful, j))
                assert est.mech_evals == lower.mech_evals
            assert max(e.value for e in items) == lower.value


class TestLockstepAccounting:
    @pytest.mark.parametrize("mechanism", ["neural", "first_price"])
    def test_records_match_standalone_and_counter(self, mechanism, monkeypatch):
        # analytic gradients (neural) and finite differences (first price)
        setting = ra.AuctionSetting(2, 2)
        cfg = small_cfg(methods=("lower_bound", "pga", "guided"), samples=3,
                        portfolio=ra.PortfolioConfig(k=1, sigma_opt=0.2, sigma_truth=0.2,
                                                     refine=ra.PgaConfig(0.1, 1, 30)),
                        **({} if mechanism == "neural" else {"mechanism": mechanism}))
        mech = harness.resolve_mechanism(cfg.mechanism, setting)
        monkeypatch.setattr(harness, "resolve_mechanism", lambda source, setting: mech)
        report = ra.run_audit(cfg)

        # guided shares lower_bound's scan, which both records count
        shared = sum(r.estimate.mech_evals for r in report.records
                     if r.estimate.method == "lower_bound")
        assert sum(r.estimate.mech_evals for r in report.records) - shared == mech.evaluations

        alone = harness.resolve_mechanism(cfg.mechanism, setting)
        for rec in report.records:
            est = rec.estimate
            profile = ra.sample_valuations(cfg.distribution, setting, rec.sample, cfg.seed)
            seed = ra.rng.derive_seed(cfg.seed, ra.rng.STREAM_SEARCH, rec.sample, est.bidder)
            ref = {
                "lower_bound": lambda: ra.lower_bound_regret(alone, profile, est.bidder, cfg.grid),
                "pga": lambda: ra.random_restart_pga(alone, profile, est.bidder, cfg.pga, seed),
                "guided": lambda: ra.guided_refinement(alone, profile, est.bidder, cfg.grid,
                                                       cfg.portfolio, seed),
            }[est.method]()
            assert (est.value, est.mech_evals, est.gradient_steps, est.flagged) == \
                (ref.value, ref.mech_evals, ref.gradient_steps, ref.flagged)
            assert np.array_equal(est.best_misreport, ref.best_misreport)


class TestLockstepMemory:
    @pytest.mark.parametrize("big_l", [4, 12])
    def test_rows_in_memory_stay_under_the_cap(self, big_l, monkeypatch, tmp_path):
        # a 10-row cap stands in for the default: 12 cells of 4 pga starts (or
        # 12, more than the cap) and 3 guided starts must climb in batches of
        # at most 10 rows, built no further ahead than one search, and give
        # the report of an uncapped run
        cfg = small_cfg(methods=("pga", "guided"), pga=ra.PgaConfig(0.1, big_l, 5))
        reference = tmp_path / "reference.json"
        ra.run_audit(replace(cfg, out=str(reference)))

        cap, live, seen = 10, [0], []
        monkeypatch.setattr(optimizer, "_SCAN_CHUNK", cap)
        for name in ("pga_search", "guided_search"):
            def counted(*args, build=getattr(harness, name), **kwargs):
                search = build(*args, **kwargs)
                live[0] += len(search.starts)
                return search
            monkeypatch.setattr(harness, name, counted)

        def ascend(mech, profiles, *args, original=optimizer._ascend):
            seen.append((len(profiles), live[0]))
            return original(mech, profiles, *args)

        def finish(search, *args, original=optimizer._finish):
            live[0] -= len(search.starts)
            return original(search, *args)

        monkeypatch.setattr(optimizer, "_ascend", ascend)
        monkeypatch.setattr(optimizer, "_finish", finish)
        capped = tmp_path / "capped.json"
        ra.run_audit(replace(cfg, out=str(capped)))

        # pga: 2 searches per batch, or 2 groups per search; guided: 3 per batch
        assert len(seen) == {4: 6, 12: 24}[big_l] + 4 and live[0] == 0
        assert max(rows for rows, _ in seen) <= cap
        assert max(held for _, held in seen) <= max(cap, big_l) + big_l
        assert strip_wall(json.loads(capped.read_text())) == \
            strip_wall(json.loads(reference.read_text()))


class TestNonFiniteCandidatesInAudit:
    @pytest.fixture(autouse=True)
    def nan_above(self, monkeypatch):
        monkeypatch.setitem(ra.mechanisms.BUILTIN_MECHANISMS, "nan_above", NanAboveAuction)

    def test_nan_candidates_flag_records(self):
        # contextual valuations stay low, so every grid row is finite, while
        # some ascent candidates bid 1.5 or more in total and earn NaN
        cfg = small_cfg(mechanism="nan_above", methods=("lower_bound", "pga", "guided"),
                        distribution=ra.ValuationDistribution(
                            kind=KIND_CONTEXTUAL, x_contexts=(1, 1), y_contexts=(1, 2)),
                        grid=ra.GridSpec(10), pga=ra.PgaConfig(0.1, 8, 20), samples=3, seed=0,
                        portfolio=ra.PortfolioConfig(k=4, sigma_opt=0.5, sigma_truth=0.5,
                                                     refine=ra.PgaConfig(0.1, 1, 20)))
        report = ra.run_audit(cfg)
        by_method = {}
        for rec in report.records:
            by_method.setdefault(rec.estimate.method, []).append(rec.estimate)
        assert any(e.flagged for e in by_method["pga"])
        assert any(e.flagged for e in by_method["guided"])
        for guided, lower in zip(by_method["guided"], by_method["lower_bound"]):
            assert np.isfinite(guided.value) and guided.value >= lower.value

    def test_no_finite_candidate_raises(self):
        cfg = small_cfg(mechanism="nan_above", methods=("pga",), grid=ra.GridSpec(10),
                        pga=ra.PgaConfig(0.1, 1, 20), samples=3, seed=0)
        with pytest.raises(ra.InvalidInputError, match="every pga candidate"):
            ra.run_audit(cfg)

    def test_guided_nan_grid_row_raises(self):
        cfg = small_cfg(mechanism="nan_above", methods=("guided",), grid=ra.GridSpec(10),
                        samples=3, seed=0)
        with pytest.raises(ra.InvalidInputError, match="non-finite misreport utility"):
            ra.run_audit(cfg)


class TestDeterminism:
    def test_repeat_runs_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        ra.run_audit(small_cfg(out=str(out1)))
        ra.run_audit(small_cfg(out=str(out2)))
        a = strip_wall(json.loads(out1.read_text()))
        b = strip_wall(json.loads(out2.read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_matches_golden_bytes(self, tmp_path):
        # every byte of a serial report except wall clock is frozen
        data_dir = Path(__file__).parent / "data"
        spec = importlib.util.spec_from_file_location("gen_goldens", data_dir / "gen_goldens.py")
        gen_goldens = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_goldens)
        golden = gen_goldens.REPORT_OUT.read_text(encoding="utf-8")
        assert gen_goldens.golden_report_text(tmp_path) == golden

    def test_parallel_matches_serial_bitwise(self):
        serial = ra.run_audit(small_cfg(samples=8), workers=1)
        parallel = ra.run_audit(small_cfg(samples=8), workers=4)
        assert serial.method_means == parallel.method_means
        for rec_s, rec_p in zip(serial.records, parallel.records):
            assert rec_s.estimate.value == rec_p.estimate.value
            assert rec_s.estimate.mech_evals == rec_p.estimate.mech_evals
            ms, mp = rec_s.estimate.best_misreport, rec_p.estimate.best_misreport
            assert (ms is None and mp is None) or np.array_equal(ms, mp)

    def test_worker_resolution(self, monkeypatch):
        monkeypatch.delenv("REGRET_AUDIT_THREADS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REGRET_AUDIT_THREADS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.setenv("REGRET_AUDIT_THREADS", "0")
        assert resolve_workers(None) >= 1
        monkeypatch.setenv("REGRET_AUDIT_THREADS", "junk")
        with pytest.raises(ra.InvalidConfigError):
            resolve_workers(None)


class TestReportIO:
    def test_round_trip_lossless(self, tmp_path):
        report = ra.run_audit(small_cfg(samples=3))
        path = tmp_path / "report.json"
        ra.write_report(report, path)
        again = ra.read_report(path)
        assert again.method_means == report.method_means
        assert again.samples == report.samples
        assert len(again.records) == len(report.records)
        for a, b in zip(report.records, again.records):
            assert a.sample == b.sample
            assert a.estimate.value == b.estimate.value
            assert a.estimate.wall_seconds == b.estimate.wall_seconds
            ma, mb = a.estimate.best_misreport, b.estimate.best_misreport
            assert (ma is None and mb is None) or np.array_equal(ma, mb)

    def test_unknown_version_rejected(self, tmp_path):
        report = ra.run_audit(small_cfg(samples=2))
        path = tmp_path / "report.json"
        ra.write_report(report, path)
        data = json.loads(path.read_text())
        data["format_version"] = 12
        path.write_text(json.dumps(data))
        with pytest.raises(ra.ReportFormatError, match="format_version"):
            ra.read_report(path)

    def test_zero_sample_report_rejected_at_write(self, tmp_path):
        report = ra.run_audit(small_cfg(samples=2))
        report.samples = 0
        report.records = []
        with pytest.raises(ra.InvalidConfigError):
            ra.write_report(report, tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_means_recomputable_check(self, tmp_path):
        report = ra.run_audit(small_cfg(samples=2))
        report.method_means[report.methods[0]] += 1e-6
        with pytest.raises(ra.InvalidConfigError, match="deviates"):
            ra.write_report(report, tmp_path / "r.json")


class TestSweep:
    def test_degenerate_sweep_equals_run_audit(self):
        cfg = small_cfg(methods=("pga",), samples=3)
        rows = ra.run_sweep(cfg, [4], [30])
        single = ra.run_audit(cfg)
        assert rows[0]["mean_regret"] == single.method_means["pga"]
        assert rows[0]["mech_evals"] == single.total_mech_evals

    def test_nested_seed_monotonicity_in_l(self):
        cfg = small_cfg(methods=("pga",), samples=4)
        rows = ra.run_sweep(cfg, [1, 3, 8], [25])
        means = [row["mean_regret"] for row in rows]
        assert means[0] <= means[1] <= means[2]

    def test_second_price_sweep_all_zero(self):
        cfg = small_cfg(mechanism="second_price", methods=("pga",), samples=3)
        rows = ra.run_sweep(cfg, [1, 2], [10, 20])
        assert all(row["mean_regret"] == 0.0 for row in rows)

    def test_csv_output(self, tmp_path):
        cfg = small_cfg(methods=("pga",), samples=2)
        path = tmp_path / "sweep.csv"
        rows = ra.run_sweep(cfg, [1, 2], [10], out=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L,R,mean_regret,mech_evals,gradient_steps,wall_seconds"
        assert len(lines) == 1 + len(rows)
