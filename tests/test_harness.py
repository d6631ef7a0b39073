"""Audit orchestration, reports, sweeps, worker determinism."""

import copy
import dataclasses
import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import regret_audit as ra
from regret_audit import harness, optimizer
from regret_audit.harness import _Cell, _chunk_estimates, resolve_workers
from regret_audit.report import _RECORD_KEYS, report_to_dict
from regret_audit.sampling import KIND_CONTEXTUAL

from conftest import (NanAboveAuction, NanPaymentAuction, ShadedQuadraticMechanism,
                      uniform_profile)


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

    @pytest.mark.parametrize("methods", [5, (5, "x"), "pga"])
    def test_methods_must_be_a_sequence_of_names(self, methods):
        # 5 and (5, "x") raised a raw TypeError, and "pga" was read as its letters
        with pytest.raises(ra.InvalidConfigError, match="methods must be"):
            small_cfg(methods=methods)

    @pytest.mark.parametrize("out", [5, 3.5])
    def test_out_must_be_a_path(self, out, monkeypatch):
        # out=5 ran the whole audit, then wrote the report into file descriptor 5
        # or raised a raw OSError; out=3.5 ran it and raised a raw TypeError
        monkeypatch.setattr(harness, "_chunk_records", lambda *args: pytest.fail("audit ran"))
        with pytest.raises(ra.InvalidConfigError, match="out must be of type"):
            ra.run_audit(small_cfg(out=out))
        with pytest.raises(ra.InvalidConfigError, match="out must be of type"):
            ra.run_sweep(small_cfg(methods=("pga",)), [1], [1], out=out)
        assert small_cfg(out=Path("report.json")).out == Path("report.json")

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

    @pytest.mark.parametrize("source", [[1], {}])
    def test_resolve_mechanism_rejects_other_sources(self, source):
        # a list or a dict raised a raw TypeError from the builtin-name lookup
        with pytest.raises(ra.MechanismLoadError, match="cannot resolve mechanism"):
            ra.resolve_mechanism(source, ra.AuctionSetting(2, 2))

    def test_contexts_must_fit_the_setting(self):
        # three bidder contexts for two bidders failed only in each chunk of the audit
        dist = ra.ValuationDistribution(KIND_CONTEXTUAL, x_contexts=(1, 2, 3), y_contexts=(4, 5))
        with pytest.raises(ra.InvalidConfigError, match="contexts have lengths 3/2, need 2/2"):
            small_cfg(distribution=dist)


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

    def test_budget_exceeded_propagates(self, monkeypatch):
        # run_audit starts at most one worker per CPU; pretend there are 2 so the pool starts
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        cfg = small_cfg(methods=("exhaustive",), grid=ra.GridSpec(100), max_grid_evals=100)
        # refused before any worker starts (test_budget_error_pickles keeps the
        # pickled path covered); from a pool worker it used to break the pool
        for workers in (1, 2):
            with pytest.raises(ra.BudgetExceededError) as info:
                ra.run_audit(cfg, workers=workers)
            assert (info.value.required, info.value.budget) == (101 ** 2 + 2, 100)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_item_scan_budget_exceeded(self, workers, monkeypatch):
        # run_audit starts at most one worker per CPU; pretend there are 2 so the pool starts
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        # the shared item scan is charged m(q+2)+1 against max_grid_evals
        cfg = small_cfg(mechanism="first_price", methods=("lower_bound",),
                        grid=ra.GridSpec(100000), max_grid_evals=100)
        with pytest.raises(ra.BudgetExceededError) as info:
            ra.run_audit(cfg, workers=workers)
        assert (info.value.required, info.value.budget) == (2 * 100002 + 1, 100)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_scan_budget_is_checked_before_any_chunk_or_pool(self, workers, monkeypatch):
        # pga used to spend 402,040 evaluations here before guided's scan
        # refused its grid, and a pooled audit started its workers first
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        charged, chunks, chunk_records = [], [], harness._chunk_records
        monkeypatch.setattr(ra.mechanisms.Mechanism, "_charge",
                            lambda self, count: charged.append(count))
        monkeypatch.setattr(harness, "_chunk_records",
                            lambda cfg, samples: chunks.append(samples) or chunk_records(cfg, samples))
        monkeypatch.setattr(harness, "ProcessPoolExecutor",
                            lambda **kwargs: pytest.fail("a pool started"))
        cfg = small_cfg(samples=20, methods=("pga", "guided"), pga=ra.PgaConfig(0.1, 50, 200),
                        guided_grid=ra.GridSpec(10 ** 9))
        with pytest.raises(ra.BudgetExceededError) as info:
            ra.run_audit(cfg, workers=workers)
        assert (info.value.required, info.value.budget) == \
            (2 * (10 ** 9 + 2) + 1, ra.DEFAULT_EVAL_BUDGET)
        assert (sum(charged), chunks) == (0, [])

    def test_budget_checked_before_the_points_are_built(self):
        # the 10**13 grid points used to be built before the budget refused them
        q = 10 ** 13
        for methods, guided_grid, required in [
                (("exhaustive",), None, (q + 1) ** 2 + 2),
                (("lower_bound", "guided"), None, 2 * (q + 2) + 1),
                (("guided",), ra.GridSpec(q, "open_left"), 2 * (q + 1) + 1)]:
            cfg = small_cfg(mechanism="first_price", methods=methods, samples=1,
                            grid=ra.GridSpec(q), guided_grid=guided_grid)
            with pytest.raises(ra.BudgetExceededError) as info:
                ra.run_audit(cfg)
            assert (info.value.required, info.value.budget) == (required, ra.DEFAULT_EVAL_BUDGET)

    def test_guided_grid_override(self):
        fine = ra.run_audit(small_cfg(methods=("guided",), samples=2,
                                      guided_grid=ra.GridSpec(50)))
        base = ra.run_audit(small_cfg(methods=("guided",), samples=2))
        # override changes the grid phase cost: m*(q+2)+1 term
        assert fine.records[0].estimate.mech_evals > base.records[0].estimate.mech_evals


def chunk_cfg(methods, guided_grid=None):
    """An audit config with cheap settings for every method."""
    return small_cfg(methods=methods, grid=ra.GridSpec(10), guided_grid=guided_grid,
                     pga=ra.PgaConfig(0.1, 3, 10),
                     portfolio=ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 10)))


def cell_estimates(mech, profile, bidder, methods, guided_grid=None):
    """The estimates of a chunk of one (sample, bidder) cell."""
    cfg = chunk_cfg(methods, guided_grid)
    return _chunk_estimates(cfg, mech, [_Cell(0, profile, bidder, seed=5)])[0]


class TestRegistry:
    def test_views_follow_registry_order(self):
        assert ra.RUN_METHODS == ("exhaustive", "item", "lower_bound", "item_wise",
                                  "pga", "guided")

    @pytest.mark.parametrize("method", ra.RUN_METHODS)
    @pytest.mark.parametrize("bidder", [-1, 2])
    def test_bidder_out_of_range_rejected(self, method, bidder):
        setting = ra.AuctionSetting(2, 2)
        mech = ra.PerItemFirstPriceAuction(setting)
        profile = uniform_profile(setting, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="out of range"):
            cell_estimates(mech, profile, bidder, (method,))

    @pytest.mark.parametrize("method", ra.RUN_METHODS)
    def test_nonfinite_truthful_utility_rejected(self, method):
        # never a 0.0 certificate, a NaN regret, or a raw IndexError
        setting = ra.AuctionSetting(2, 2)
        mech = NanPaymentAuction(setting)
        profile = uniform_profile(setting, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="non-finite truthful utility"):
            cell_estimates(mech, profile, 0, (method,))

    def test_sharing_is_invisible(self, setting_2x2, neural_2x2):
        # every registry row of a two-cell chunk, guided on its own grid,
        # equals its standalone function on that cell
        cfg = chunk_cfg(ra.RUN_METHODS, guided_grid=ra.GridSpec(20))
        cells = [_Cell(0, uniform_profile(setting_2x2, 0, 7), 1, seed=5),
                 _Cell(1, uniform_profile(setting_2x2, 1, 7), 0, seed=6)]
        before = neural_2x2.evaluations
        shared = _chunk_estimates(cfg, neural_2x2, cells)
        executed = neural_2x2.evaluations - before
        m = setting_2x2.m
        for cell, estimates in zip(cells, shared):
            args = (neural_2x2, cell.profile, cell.bidder)
            alone = [
                ra.exhaustive_regret(*args, cfg.grid, max_evals=cfg.max_grid_evals),
                *(ra.item_regret(*args, j, cfg.grid) for j in range(m)),
                ra.lower_bound_regret(*args, cfg.grid),
                ra.item_wise_regret(*args, cfg.grid),
                ra.random_restart_pga(*args, cfg.pga, cell.seed),
                ra.guided_refinement(*args, cfg.guided_grid, cfg.portfolio, cell.seed),
            ]
            assert [e.method for e in estimates] == [e.method for e in alone]
            for a, b in zip(estimates, alone):
                assert (a.bidder, a.value, a.mech_evals, a.gradient_steps, a.flagged) == \
                    (b.bidder, b.value, b.mech_evals, b.gradient_steps, b.flagged)
                assert (a.best_misreport is None and b.best_misreport is None) or \
                    np.array_equal(a.best_misreport, b.best_misreport)
        # item, lower_bound and item_wise each count the one q=10 scan of a cell
        scan_evals = m * (10 + 2) + 1
        assert shared[0][m + 1].mech_evals == scan_evals
        assert executed == sum(e.mech_evals for est in shared for e in est) \
            - len(cells) * (m + 1) * scan_evals

    def test_records_sharing_a_scan_count_its_seconds(self, setting_2x2, neural_2x2):
        # only the first record reading a shared scan used to count its seconds
        cfg = chunk_cfg(("item", "lower_bound", "item_wise", "guided"))
        cells = [_Cell(s, uniform_profile(setting_2x2, s, 7), b, seed=5)
                 for s in range(2) for b in range(2)]
        for estimates in _chunk_estimates(cfg, neural_2x2, cells):
            *read, guided = estimates
            assert [e.method for e in read] == ["item"] * 2 + ["lower_bound", "item_wise"]
            assert len({e.wall_seconds for e in read}) == 1
            assert guided.method == "guided" and guided.wall_seconds >= read[0].wall_seconds

    def test_distinct_guided_grid_scans_again(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        before = neural_2x2.evaluations
        shared = cell_estimates(neural_2x2, profile, 0, ("lower_bound", "item_wise", "guided"),
                                guided_grid=ra.GridSpec(20))
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


class UnevenChargeMechanism(ShadedQuadraticMechanism):
    """The shaded mechanism, but its gradient charges one evaluation per call
    instead of one per row."""

    def _gradient_batch(self, batch, bidder, v):
        own = batch[np.arange(batch.shape[0]), bidder]
        self._charge(1)
        n = self.setting.n
        return (v * own - own * own / 4).sum(axis=1) / n, (v - own / 2) / n


class FlatUnevenChargeMechanism(UnevenChargeMechanism):
    """The uneven charge with a zero gradient: every ascent row sits at a
    fixed point from its start and retires at step 1."""

    gradient_calls = 0

    def _gradient_batch(self, batch, bidder, v):
        self.gradient_calls += 1
        u, g = super()._gradient_batch(batch, bidder, v)
        return u, np.zeros_like(g)


class TestGradientHook:
    def test_uneven_charging_is_a_typed_error(self, monkeypatch):
        # used to fail a bare assert, which python -O strips, leaving divmod to
        # drop the remainder from every record's mech_evals; 5 gradient calls
        # of 1 and the final utilities of 3 rows charge 8
        mech = UnevenChargeMechanism(ra.AuctionSetting(2, 2))
        with pytest.raises(ra.InvalidInputError,
                           match="charged 8 evaluations for 3 lockstep rows"):
            ra.random_restart_pga(mech, [[0.3, 0.4], [0.2, 0.5]], 0, ra.PgaConfig(0.1, 3, 5), 1)
        monkeypatch.setitem(ra.mechanisms.BUILTIN_MECHANISMS, "uneven", UnevenChargeMechanism)
        cfg = small_cfg(mechanism="uneven", methods=("pga",), samples=2,
                        pga=ra.PgaConfig(0.1, 3, 5))
        with pytest.raises(ra.InvalidInputError,
                           match="charged 17 evaluations for 12 lockstep rows"):
            ra.run_audit(cfg, workers=1)

    def test_uneven_charging_raises_when_every_row_retires_at_step_1(self, monkeypatch):
        # one gradient call of 1 for 3 rows, after which every row retires and
        # is charged its skipped final utilities: 1 + 3; the check reads each
        # call, so an ascent that ends at its first step is checked too
        mech = FlatUnevenChargeMechanism(ra.AuctionSetting(2, 2))
        with pytest.raises(ra.InvalidInputError,
                           match="charged 4 evaluations for 3 lockstep rows"):
            ra.random_restart_pga(mech, [[0.3, 0.4], [0.2, 0.5]], 0, ra.PgaConfig(0.1, 3, 5), 1)
        assert mech.gradient_calls == 1
        monkeypatch.setitem(ra.mechanisms.BUILTIN_MECHANISMS, "flat_uneven",
                            FlatUnevenChargeMechanism)
        cfg = small_cfg(mechanism="flat_uneven", methods=("pga",), samples=2,
                        pga=ra.PgaConfig(0.1, 3, 5))
        with pytest.raises(ra.InvalidInputError,
                           match="charged 13 evaluations for 12 lockstep rows"):
            ra.run_audit(cfg, workers=1)

    def test_custom_hook_drives_both_ascents(self, monkeypatch):
        # a mechanism that implements only _run_batch and _gradient_batch:
        # one evaluation per gradient, not finite differences' 2m+1
        monkeypatch.setitem(ra.mechanisms.BUILTIN_MECHANISMS, "shaded", ShadedQuadraticMechanism)
        m, q, big_l, big_r, k = 2, 10, 3, 7, 2
        cfg = small_cfg(mechanism="shaded", methods=("pga", "guided"), samples=2,
                        grid=ra.GridSpec(q), pga=ra.PgaConfig(0.1, big_l, big_r),
                        portfolio=ra.PortfolioConfig(k=k, sigma_opt=0.2, sigma_truth=0.2,
                                                     refine=ra.PgaConfig(0.1, 1, big_r)))
        report = ra.run_audit(cfg, workers=1)
        expected = {"pga": 1 + big_l * (big_r + 1),
                    # the grid phase, then every portfolio candidate's ascent
                    "guided": m * (q + 2) + 1 + (1 + m + 3 * k) * (big_r + 1)}
        assert len(report.records) == 2 * 2 * 2
        for rec in report.records:
            assert rec.estimate.mech_evals == expected[rec.estimate.method]
        assert report.method_means["pga"] > 0.0 and report.method_means["guided"] > 0.0


class TestRetiredRows:
    def test_fixed_point_rows_skip_their_calls_but_not_their_charge(self, monkeypatch):
        # every second-price ascent row sits at a fixed point from its start:
        # each pays the 2m+1 rows of its first finite-difference gradient and
        # retires at step 1, but is charged all R steps and the final utilities
        setting, big_l, big_r, samples = ra.AuctionSetting(2, 2), 10, 100, 40
        executed = []
        hook = ra.SecondPriceAuction._misreport_utilities

        def counted(self, profile, bidder, rows, v):
            executed.append(len(rows))
            return hook(self, profile, bidder, rows, v)

        monkeypatch.setattr(ra.SecondPriceAuction, "_misreport_utilities", counted)
        report = ra.run_audit(small_cfg(mechanism="second_price", methods=("pga",),
                                        pga=ra.PgaConfig(0.1, big_l, big_r), samples=samples,
                                        seed=601), workers=1)
        cells, m = samples * setting.n, setting.m
        assert sum(executed) == cells * (1 + big_l * (2 * m + 1)) == 4080
        assert report.total_mech_evals == cells * (1 + big_l * (big_r * (2 * m + 1) + 1)) \
            == 400880
        assert report.method_means["pga"] == 0.0


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


def _gen_goldens():
    """``tests/data/gen_goldens.py``, loaded as a module."""
    path = Path(__file__).parent / "data" / "gen_goldens.py"
    spec = importlib.util.spec_from_file_location("gen_goldens", path)
    gen_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_goldens)
    return gen_goldens


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
        gen_goldens = _gen_goldens()
        golden = gen_goldens.REPORT_OUT.read_text(encoding="utf-8")
        assert gen_goldens.golden_report_text(tmp_path) == golden

    @pytest.mark.parametrize("name", ["FIRST_PRICE_OUT", "SECOND_PRICE_OUT"])
    def test_closed_form_report_matches_golden_bytes(self, tmp_path, name):
        # the built-in auctions call no CPU-dispatched kernel, so these
        # reports guard the scan path byte for byte on every CPU
        gen_goldens = _gen_goldens()
        out = getattr(gen_goldens, name)
        golden = out.read_text(encoding="utf-8")
        assert gen_goldens.golden_report_text(tmp_path, gen_goldens.REPORTS[out]) == golden

    def test_parallel_matches_serial_bitwise(self, monkeypatch):
        # run_audit starts at most one worker per CPU; pretend there are 4 so the pool starts
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        serial = ra.run_audit(small_cfg(samples=8), workers=1)
        parallel = ra.run_audit(small_cfg(samples=8), workers=4)
        assert serial.method_means == parallel.method_means
        for rec_s, rec_p in zip(serial.records, parallel.records):
            assert rec_s.estimate.value == rec_p.estimate.value
            assert rec_s.estimate.mech_evals == rec_p.estimate.mech_evals
            ms, mp = rec_s.estimate.best_misreport, rec_p.estimate.best_misreport
            assert (ms is None and mp is None) or np.array_equal(ms, mp)

    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch):
        # a fake pool that records its size and maps serially: no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        pooled = ra.run_audit(small_cfg(samples=8), workers=64)
        assert sizes == [2]
        serial = ra.run_audit(small_cfg(samples=8), workers=1)
        assert strip_wall(report_to_dict(pooled)) == strip_wall(report_to_dict(serial))

    def test_pool_chunks_share_the_spec_read_once(self, tmp_path, monkeypatch):
        # each chunk read the spec file again, once per pool worker
        path = tmp_path / "mech.json"
        ra.write_neural_spec(small_cfg().mechanism, path)
        chunk_cfgs = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, cfgs, chunks):
                chunk_cfgs.extend(cfgs)
                return map(fn, cfgs, chunks)

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cfg = small_cfg(mechanism=str(path), samples=4)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
            ra.run_audit(cfg, workers=2)
        assert len(chunk_cfgs) == 2
        assert all(isinstance(c.mechanism, ra.NeuralMechanismSpec) for c in chunk_cfgs)
        assert chunk_cfgs[0].mechanism is chunk_cfgs[1].mechanism
        # the report, pooled or serial, still names the path
        pooled, serial = tmp_path / "pooled.json", tmp_path / "serial.json"
        ra.run_audit(replace(cfg, out=str(pooled)), workers=2)
        ra.run_audit(replace(cfg, out=str(serial)), workers=1)
        data = strip_wall(json.loads(pooled.read_text()))
        assert data == strip_wall(json.loads(serial.read_text()))
        assert data["config"]["mechanism"] == str(path)

    @pytest.mark.parametrize("as_path", [False, True])
    def test_mismatched_spec_fails_before_the_pool(self, as_path, tmp_path, monkeypatch):
        # the spec's setting was checked only in each chunk, after the pool had started
        spec = ra.generate_neural_spec(ra.AuctionSetting(3, 2), 8, 1)
        path = tmp_path / "mech.json"
        ra.write_neural_spec(spec, path)
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        cfg = small_cfg(mechanism=str(path) if as_path else spec, samples=4)
        with pytest.raises(ra.MechanismLoadError, match="3x2 does not match configured 2x2"):
            ra.run_audit(cfg, workers=2)
        assert pools == []

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
        # the stored means must equal the derived ones in any key order
        data = json.loads(path.read_text())
        data["method_means"] = dict(reversed(list(data["method_means"].items())))
        path.write_text(json.dumps(data))
        assert ra.read_report(path).method_means == report.method_means

    def test_list_misreport_is_stored_as_floats(self, tmp_path):
        # a list used to be kept as given, and write_report failed on its .tolist()
        est = ra.RegretEstimate("exhaustive", 0, 0.1, [0.2, 0.3], 1, 0.0)
        assert est.best_misreport.dtype == np.float64
        config = {"setting": {"n": 1, "m": 2}, "samples": 1, "methods": ["exhaustive"]}
        ra.write_report(ra.AuditReport(config, [ra.AuditRecord(0, est)], 0.0), tmp_path / "r.json")
        assert ra.read_report(tmp_path / "r.json").records[0].estimate.best_misreport.tolist() == \
            [0.2, 0.3]
        with pytest.raises(ra.InvalidInputError, match="best_misreport must be a numeric array"):
            ra.RegretEstimate("exhaustive", 0, 0.1, ["a", 0.3], 1, 0.0)

    def test_unknown_version_rejected(self, tmp_path):
        report = ra.run_audit(small_cfg(samples=2))
        path = tmp_path / "report.json"
        ra.write_report(report, path)
        data = json.loads(path.read_text())
        cases = [
            ({**data, "format_version": 12}, "format_version"),
            ({**data, "format_version": True}, "format_version"),  # used to equal 1
            ([data], "JSON object"),
            ({**data, "samples": "x"}, "malformed"),
            ({**data, "records": [{**data["records"][0], "value": -1.0}]}, "malformed"),
            # integers and flags are never coerced: these used to read as 2, 1 and True
            ({**data, "samples": 2.7}, "malformed.*samples 2.7 is not 2"),
            ({**data, "samples": True}, "malformed.*samples True is not 2"),
            ({**data, "records": [{**data["records"][0], "bidder": 1.9}]},
             "malformed.*bidder must be an integer"),
            ({**data, "records": [{**data["records"][0], "flagged": "false"}]},
             "malformed.*flagged must be a bool"),
            # nor are floats: these used to read as 0.5
            ({**data, "records": [{**data["records"][0], "value": "0.5"}, *data["records"][1:]]},
             "malformed.*value must be a number"),
            ({**data, "method_means": {**data["method_means"], data["methods"][0]: "0.5"}},
             "malformed.*method_means .*'0.5'.* is not"),
            ({**data, "method_means": {**data["method_means"], data["methods"][0]:
                                       data["method_means"][data["methods"][0]] + 1e-6}},
             "malformed.*method_means .* is not"),
            # a record past the sample count used to load
            ({**data, "records": [*data["records"], {**data["records"][0], "sample": 2}]},
             r"malformed.*\(2, 0, 'lower_bound'\) is outside samples=2"),
            # so did a config echo the records do not fill
            ({**data, "config": {**data["config"], "samples": 99}},
             r"malformed.*0 records for .*\(2, 0, 'lower_bound'\), expected 1"),
            ({**data, "config": {**data["config"], "methods": ["exhaustive"]}},
             r"malformed.*0 records for .*\(0, 0, 'exhaustive'\), expected 1"),
            # nor did these records and totals, which do not fit the report
            ({**data, "total_mech_evals": 1}, "malformed.*total_mech_evals 1 is not"),
            ({**data, "total_gradient_steps": 123456},
             "malformed.*total_gradient_steps 123456 is not"),
            ({**data, "records": [{**data["records"][0], "bidder": 7}, *data["records"][1:]]},
             r"malformed.*0 records for .*\(0, 0, 'lower_bound'\), expected 1"),
            ({**data, "records": [*data["records"], {**data["records"][0], "bidder": 7}]},
             r"malformed.*\(0, 7, 'lower_bound'\) is outside samples=2, n=2"),
            ({**data, "records": [{**data["records"][0], "best_misreport": [0.1, 0.2, 0.3]},
                                  *data["records"][1:]]},
             r"malformed.*\[0.1, 0.2, 0.3\] is not a row of m=2"),
            ({**data, "records": [*data["records"], data["records"][0]]},
             r"malformed.*2 records for .*\(0, 0, 'lower_bound'\), expected 1"),
        ]
        for bad, match in cases:
            path.write_text(json.dumps(bad))
            with pytest.raises(ra.ReportFormatError, match=match):
                ra.read_report(path)
        with pytest.raises(ra.ReportFormatError, match="cannot read"):
            ra.read_report(tmp_path / "missing.json")

    def test_zero_sample_report_rejected_at_write(self, tmp_path):
        report = ra.run_audit(small_cfg(samples=2))
        report.config["samples"] = 0
        report.records = []
        with pytest.raises(ra.InvalidConfigError):
            ra.write_report(report, tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_record_sample_out_of_range_rejected_at_write(self, tmp_path):
        # used to raise a raw IndexError
        report = ra.run_audit(small_cfg(samples=2))
        report.records.append(ra.AuditRecord(5, report.records[0].estimate))
        with pytest.raises(ra.InvalidConfigError,
                           match=r"\(5, 0, 'lower_bound'\) is outside samples=2"):
            ra.write_report(report, tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_records_must_fit_the_report_at_write(self, tmp_path):
        # each of these reports used to be written, and read back
        report = ra.run_audit(small_cfg(samples=2))
        mutations = [
            (lambda r: setattr(r.records[0].estimate, "bidder", 7),
             r"0 records for .*\(0, 0, 'lower_bound'\), expected 1"),
            (lambda r: r.records.append(ra.AuditRecord(0, replace(r.records[0].estimate,
                                                                  bidder=7))),
             r"\(0, 7, 'lower_bound'\) is outside samples=2, n=2"),
            (lambda r: r.config.update(methods=[]), r"must name a method, got \[\]"),
            (lambda r: r.config.update(methods=["exhaustive"]),
             r"0 records for .*\(0, 0, 'exhaustive'\), expected 1"),
            (lambda r: setattr(r.records[0].estimate, "best_misreport", np.zeros(3)),
             "is not a row of m=2"),
            # written with NaN in the JSON, which read_report then refused
            (lambda r: setattr(r.records[0].estimate, "best_misreport", np.array([2.0, np.nan])),
             r"\[2.0, nan\] is not a row of m=2 bids in \[0, 1\]"),
            (lambda r: r.records.append(r.records[0]), "2 records for"),
            (lambda r: r.records.pop(), "0 records for"),
            (lambda r: r.config.pop("setting"), "no valid setting"),
        ]
        for mutate, match in mutations:
            bad = copy.deepcopy(report)
            mutate(bad)
            with pytest.raises(ra.InvalidConfigError, match=match):
                ra.write_report(bad, tmp_path / "r.json")
            assert not (tmp_path / "r.json").exists()

    def test_report_checks_its_config_and_records(self, tmp_path):
        # a record that is not an AuditRecord raised a raw AttributeError at
        # write, and a config that is not a dict a raw TypeError at its means
        config = {"setting": {"n": 1, "m": 1}, "samples": 1, "methods": ["exhaustive"]}
        with pytest.raises(ra.InvalidInputError, match="record must be of type AuditRecord"):
            ra.write_report(ra.AuditReport(config, ["x"], 0.0), tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()
        with pytest.raises(ra.InvalidInputError, match="config must be of type dict"):
            ra.AuditReport(5, [], 0.0).method_means
        with pytest.raises(ra.InvalidInputError, match="records must be of type list"):
            ra.AuditReport(config, None, 0.0)

    def test_numpy_integers_write_as_python_integers(self, tmp_path):
        # both reports used to stop at the first numpy integer with a raw
        # TypeError, leaving a cut-off JSON file
        def text(path):
            return re.sub(r'"wall_seconds": [^,\n]+', '"wall_seconds": 0.0', path.read_text())

        for i, to in enumerate((int, np.int64)):
            ra.run_audit(small_cfg(grid=ra.GridSpec(to(4)), samples=to(2), seed=to(3),
                                   methods=("lower_bound",), out=tmp_path / f"audit{i}.json"))
            mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
            est = ra.exhaustive_regret(mech, uniform_profile(mech.setting, 0, 7), to(1),
                                       ra.GridSpec(4))
            config = {"setting": {"n": 2, "m": 2}, "samples": 1, "methods": ["exhaustive"]}
            others = ra.RegretEstimate("exhaustive", 0, 0.0, None, 1, 0.0)
            ra.write_report(ra.AuditReport(config, [ra.AuditRecord(0, others),
                                                    ra.AuditRecord(0, est)], 0.0),
                            tmp_path / f"record{i}.json")
        for name in ("audit", "record"):
            assert text(tmp_path / f"{name}1.json") == text(tmp_path / f"{name}0.json")

    def test_unwritable_value_leaves_the_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("an earlier report")
        config = {"setting": {"n": 1, "m": 1}, "samples": 1, "methods": ["item_wise"],
                  "note": object()}
        est = ra.RegretEstimate("item_wise", 0, 0.0, None, 1, 0.0)
        with pytest.raises(ra.AuditError, match="cannot write .*object is not JSON"):
            ra.write_report(ra.AuditReport(config, [ra.AuditRecord(0, est)], 0.0), path)
        assert path.read_text() == "an earlier report"

    def test_record_keys_are_the_estimate_fields(self):
        # a RegretEstimate field is written exactly when it is read back
        assert len(set(_RECORD_KEYS)) == len(_RECORD_KEYS)
        assert set(_RECORD_KEYS) == {f.name for f in dataclasses.fields(ra.RegretEstimate)}

    def test_means_must_name_the_methods(self, tmp_path):
        # a mean of a method the report does not list raised a raw KeyError
        report = ra.run_audit(small_cfg(methods=("item_wise",), samples=2))
        path = tmp_path / "r.json"
        ra.write_report(report, path)
        data = json.loads(path.read_text())
        for means in ({**data["method_means"], "pga": 0.1}, {}):
            path.write_text(json.dumps({**data, "method_means": means}))
            with pytest.raises(ra.ReportFormatError, match="malformed.*method_means .* is not"):
                ra.read_report(path)


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

    def test_spec_file_read_once_per_sweep(self, tmp_path, monkeypatch):
        # each cell read the file again, so a file rewritten during a sweep
        # changed the weights of the cells after it
        path = tmp_path / "mech.json"
        ra.write_neural_spec(small_cfg().mechanism, path)
        reads = []

        def counting_read(spec_path):
            reads.append(spec_path)
            return ra.read_neural_spec(spec_path)

        monkeypatch.setattr(harness, "read_neural_spec", counting_read)
        cfg = small_cfg(mechanism=str(path), methods=("pga",), samples=1)
        rows = ra.run_sweep(cfg, [1, 2, 3], [2, 3, 4])
        assert len(rows) == 9
        assert reads == [str(path)]

    def test_mismatched_spec_fails_before_any_audit(self, monkeypatch):
        # the sweep read a spec path but left its setting to each cell's chunks
        monkeypatch.setattr(harness, "run_audit", lambda *args: pytest.fail("audit ran"))
        spec = ra.generate_neural_spec(ra.AuctionSetting(3, 2), 8, 1)
        with pytest.raises(ra.MechanismLoadError, match="3x2 does not match configured 2x2"):
            ra.run_sweep(small_cfg(mechanism=spec, methods=("pga",)), [1, 2], [5])

    @pytest.mark.parametrize("l_values, r_values", [
        (5, [1]), (np.array([1, 2]), [1]), ([1, 2, 0], [5, 10]), ("12", [1]),
        ([1], [2, True]), ([1.0], [2])],
        ids=["int", "ndarray", "zero_entry", "str", "bool_entry", "float_entry"])
    def test_sweep_lists_checked_before_any_audit(self, l_values, r_values, monkeypatch):
        # 5 and the array raised raw errors, [1, 2, 0] ran four audits before
        # failing, and "12" was read as the cells 1 and 2
        monkeypatch.setattr(harness, "run_audit", lambda *args: pytest.fail("audit ran"))
        with pytest.raises(ra.InvalidConfigError, match="_values"):
            ra.run_sweep(small_cfg(methods=("pga",)), l_values, r_values)

    def test_range_lists(self):
        cfg = small_cfg(methods=("pga",), samples=1)
        rows = ra.run_sweep(cfg, range(1, 3), (2,))
        assert [(row["L"], row["R"]) for row in rows] == [(1, 2), (2, 2)]

    def test_csv_output(self, tmp_path):
        cfg = small_cfg(methods=("pga",), samples=2)
        path = tmp_path / "sweep.csv"
        rows = ra.run_sweep(cfg, [1, 2], [10], out=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L,R,mean_regret,mech_evals,gradient_steps,wall_seconds"
        assert len(lines) == 1 + len(rows)
