"""Misreport search: ascent trajectories, portfolios, guided refinement."""

import numpy as np
import pytest

import regret_audit as ra
from regret_audit import rng

from conftest import NAN_EXAMPLE_PROFILE, ConstantMechanism, NanAboveAuction, uniform_profile


class TestConfigs:
    def test_pga_config_validation(self):
        with pytest.raises(ra.InvalidInputError):
            ra.PgaConfig(gamma=0.0, big_l=1, big_r=1)
        with pytest.raises(ra.InvalidInputError):
            ra.PgaConfig(gamma=0.1, big_l=0, big_r=1)
        with pytest.raises(ra.InvalidInputError):
            ra.PgaConfig(gamma=0.1, big_l=1, big_r=0)

    def test_pga_presets(self):
        assert ra.PGA_PRESETS["regretnet"] == ra.PgaConfig(0.1, 1000, 2000)
        assert ra.PGA_PRESETS["algnet"] == ra.PgaConfig(0.001, 300, 300)
        assert ra.PGA_PRESETS["regretformer"] == ra.PgaConfig(0.1, 1, 1000)
        assert ra.PGA_PRESETS["citransnet"] == ra.PgaConfig(0.001, 100, 200)

    def test_portfolio_presets(self):
        assert ra.PORTFOLIO_PRESETS["regretnet"].k == 0
        assert ra.PORTFOLIO_PRESETS["algnet"].k == 0
        former = ra.PORTFOLIO_PRESETS["regretformer"]
        assert former.k == 80
        assert former.sigma_opt == 0.6 and former.sigma_truth == 0.6

    def test_portfolio_size_formula(self):
        cfg = ra.PortfolioConfig(k=80)
        assert cfg.portfolio_size(2) == 1 + 2 + 240
        assert ra.PortfolioConfig(k=0).portfolio_size(5) == 6

    def test_portfolio_config_validation(self):
        with pytest.raises(ra.InvalidInputError):
            ra.PortfolioConfig(k=-1)
        with pytest.raises(ra.InvalidInputError):
            ra.PortfolioConfig(sigma_opt=-0.1)


class TestPgaSingle:
    def test_constant_mechanism_stays_at_start(self):
        setting = ra.AuctionSetting(2, 2)
        mech = ConstantMechanism(setting)
        profile = uniform_profile(setting, 0, 7)
        start = np.array([0.3, 0.6])
        best_bid, best_u, evals = ra.pga_single(mech, profile, 0, start, gamma=0.1, big_r=20)
        assert np.array_equal(best_bid, start)
        assert best_u == ra.utility(mech, profile[0], profile, 0)

    def test_best_iterate_never_below_start(self, setting_2x2, neural_2x2):
        for sample in range(20):
            profile = uniform_profile(setting_2x2, sample, 41)
            start = rng.spawn_generator(sample, 0).random(2)
            start_util = ra.evaluate_misreports(neural_2x2, profile, 0, start[None, :])[0]
            _, best_u, _ = ra.pga_single(neural_2x2, profile, 0, start, gamma=0.25, big_r=30)
            assert best_u >= start_util

    def test_second_price_from_truthful_adds_nothing(self):
        setting = ra.AuctionSetting(2, 2)
        mech = ra.SecondPriceAuction(setting)
        profile = uniform_profile(setting, 0, 7)
        truthful_util = ra.utility(mech, profile[0], profile, 0)
        _, best_u, _ = ra.pga_single(mech, profile, 0, profile[0], gamma=0.1, big_r=50)
        assert best_u == truthful_util

    def test_eval_accounting_analytic_vs_fd(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        start = np.array([0.5, 0.5])
        # analytic: one combined pass per visited iterate
        _, _, evals = ra.pga_single(neural_2x2, profile, 0, start, gamma=0.1, big_r=10)
        assert evals == 10 + 1
        # finite differences: 2m probes plus one utility per step, plus the start
        mech = ra.SecondPriceAuction(setting_2x2)
        _, _, evals = ra.pga_single(mech, profile, 0, start, gamma=0.1, big_r=10)
        assert evals == 1 + 10 * (2 * 2 + 1)


    @pytest.mark.parametrize("bidder", [-1, 2])
    def test_bidder_out_of_range_rejected(self, bidder):
        # -1 used to answer for bidder n-1, and n raised a raw IndexError
        setting = ra.AuctionSetting(2, 2)
        mech = ra.PerItemFirstPriceAuction(setting)
        with pytest.raises(ra.InvalidInputError, match="out of range"):
            ra.pga_single(mech, uniform_profile(setting, 0, 7), bidder, [0.5, 0.5],
                          gamma=0.1, big_r=5)


class TestRandomRestartPga:
    def test_second_price_zero_for_any_config(self, setting_2x2):
        mech = ra.SecondPriceAuction(setting_2x2)
        for seed in (0, 1, 2):
            profile = uniform_profile(setting_2x2, seed, 13)
            est = ra.random_restart_pga(mech, profile, 0, ra.PgaConfig(0.1, 5, 20), seed)
            assert est.value == 0.0
            assert est.best_misreport.tolist() == profile[0].tolist()

    def test_seed_determinism(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        cfg = ra.PgaConfig(0.1, 8, 40)
        a = ra.random_restart_pga(neural_2x2, profile, 0, cfg, 99)
        b = ra.random_restart_pga(neural_2x2, profile, 0, cfg, 99)
        assert a.value == b.value
        assert np.array_equal(a.best_misreport, b.best_misreport)
        assert a.mech_evals == b.mech_evals
        # distinct seeds draw distinct candidate streams
        s99 = rng.spawn_generator(99, rng.STREAM_CANDIDATE, 0).random(2)
        s100 = rng.spawn_generator(100, rng.STREAM_CANDIDATE, 0).random(2)
        assert not np.array_equal(s99, s100)

    def test_restart_nesting_is_exact(self, setting_2x2, neural_2x2):
        # the first L starts coincide, so more restarts can only help
        for sample in range(5):
            profile = uniform_profile(setting_2x2, sample, 43)
            small = ra.random_restart_pga(neural_2x2, profile, 0, ra.PgaConfig(0.1, 3, 30), 7)
            large = ra.random_restart_pga(neural_2x2, profile, 0, ra.PgaConfig(0.1, 10, 30), 7)
            assert large.value >= small.value

    def test_gradient_step_accounting(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        est = ra.random_restart_pga(neural_2x2, profile, 0, ra.PgaConfig(0.1, 6, 25), 3)
        assert est.gradient_steps == 6 * 25
        assert est.mech_evals == 1 + 6 * 26  # truthful baseline + (R+1) passes per start

    def test_weak_config_underestimates(self, setting_2x2, neural_2x2):
        # same seeds: a starved configuration cannot beat a converged one
        weak_vals, strong_vals = [], []
        for sample in range(10):
            profile = uniform_profile(setting_2x2, sample, 47)
            weak_vals.append(ra.random_restart_pga(
                neural_2x2, profile, 0, ra.PgaConfig(0.1, 1, 50), sample).value)
            strong_vals.append(ra.random_restart_pga(
                neural_2x2, profile, 0, ra.PgaConfig(0.1, 30, 400), sample).value)
        assert np.mean(weak_vals) <= np.mean(strong_vals)


class BrokenGradientMechanism(ra.Mechanism):
    """Analytic gradient turns NaN above a bid threshold; utility is benign."""

    has_analytic_gradient = True

    def _run_batch(self, batch):
        B, n, m = batch.shape
        alloc = np.full((B, n, m), 1.0 / (n + 1))
        pay = np.zeros((B, n))
        return alloc, pay

    def utility_and_gradient_many(self, batch, bidder, valuation_row, validate=True):
        # bidder: an int or one per row; valuation_row: one row or one per row
        batch = self._check_batch(batch, validate)
        B = batch.shape[0]
        self._charge(B)
        n, m = self.setting.n, self.setting.m
        v = np.broadcast_to(np.asarray(valuation_row, dtype=np.float64), (B, m))
        u = (v / (n + 1)).sum(axis=1)
        grad = np.ones((B, m))
        grad[batch[np.arange(B), bidder].max(axis=1) > 0.5] = np.nan
        return u, grad


class TestNonFiniteGradients:
    def test_candidates_freeze_and_flag(self):
        setting = ra.AuctionSetting(2, 2)
        mech = BrokenGradientMechanism(setting)
        profile = np.full((2, 2), 0.4)
        est = ra.random_restart_pga(mech, profile, 0, ra.PgaConfig(0.4, 6, 10), seed=2)
        # no failure: the run completes, reports a value, and is flagged
        assert est.flagged
        assert est.value == 0.0  # constant utility: no deviation gains

    def test_clean_run_not_flagged(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        est = ra.random_restart_pga(neural_2x2, profile, 0, ra.PgaConfig(0.1, 3, 10), seed=2)
        assert not est.flagged


class TestNonFiniteCandidates:
    """A candidate whose best utility is NaN is left out and flags the
    estimate; none finite is an InvalidInputError, never a raw IndexError."""

    def setup_method(self):
        self.mech = NanAboveAuction(ra.AuctionSetting(2, 2))

    def _check_reported(self, est):
        # the reported misreport re-earns the reported gain
        bids = NAN_EXAMPLE_PROFILE.copy()
        bids[0] = est.best_misreport
        gain = (ra.utility(self.mech, NAN_EXAMPLE_PROFILE[0], bids, 0)
                - ra.utility(self.mech, NAN_EXAMPLE_PROFILE[0], NAN_EXAMPLE_PROFILE, 0))
        assert est.flagged
        assert est.value == pytest.approx(gain, abs=1e-12)

    def test_pga_leaves_out_nan_candidates(self):
        starts = [rng.spawn_generator(1, rng.STREAM_CANDIDATE, l).random(2) for l in range(8)]
        assert sum(start.sum() >= self.mech.threshold for start in starts) == 3
        est = ra.random_restart_pga(self.mech, NAN_EXAMPLE_PROFILE, 0,
                                    ra.PgaConfig(0.1, 8, 30), seed=1)
        self._check_reported(est)
        assert est.value > 0.0

    def test_pga_with_no_finite_candidate_raises(self):
        start = rng.spawn_generator(0, rng.STREAM_CANDIDATE, 0).random(2)
        assert start.sum() >= self.mech.threshold
        with pytest.raises(ra.InvalidInputError, match="every pga candidate"):
            ra.random_restart_pga(self.mech, NAN_EXAMPLE_PROFILE, 0,
                                  ra.PgaConfig(0.1, 1, 30), seed=0)

    def test_guided_leaves_out_nan_candidates(self):
        cfg = ra.PortfolioConfig(k=4, sigma_opt=0.5, sigma_truth=0.5,
                                 refine=ra.PgaConfig(0.1, 1, 30))
        grid = ra.GridSpec(10)
        est = ra.guided_refinement(self.mech, NAN_EXAMPLE_PROFILE, 0, grid, cfg, seed=3)
        self._check_reported(est)
        assert est.value == ra.lower_bound_regret(self.mech, NAN_EXAMPLE_PROFILE, 0, grid).value

    def test_guided_grid_phase_raises_on_nan_misreport(self):
        mech = NanAboveAuction(ra.AuctionSetting(2, 2), threshold=1.2)
        with pytest.raises(ra.InvalidInputError, match="non-finite misreport utility"):
            ra.guided_refinement(mech, NAN_EXAMPLE_PROFILE, 0, ra.GridSpec(10),
                                 ra.PortfolioConfig(), seed=0)


class TestPortfolio:
    def test_k_zero_portfolio_shape(self):
        profile = np.array([[0.4, 0.7], [0.2, 0.9]])
        port = ra.build_portfolio(profile, 0, [0.1, 0.7], ra.PortfolioConfig(k=0), seed=1)
        assert port.shape == (3, 2)

    def test_candidate_construction_by_substitution(self):
        # rows: combinatorial, then the single-item candidate of each item
        profile = np.array([[0.4, 0.7], [0.2, 0.9]])
        port = ra.build_portfolio(profile, 0, [0.1, 0.7], ra.PortfolioConfig(k=0), seed=1)
        assert port.tolist() == [[0.1, 0.7], [0.1, 0.7], [0.4, 0.7]]

    def test_full_portfolio_counts_and_clamping(self):
        profile = np.array([[0.4, 0.7], [0.2, 0.9]])
        cfg = ra.PortfolioConfig(k=80, sigma_opt=0.6, sigma_truth=0.6)
        port = ra.build_portfolio(profile, 0, [0.1, 0.7], cfg, seed=5)
        assert port.shape == (1 + 2 + 240, 2) == (cfg.portfolio_size(2), 2)
        assert port[:3].tolist() == [[0.1, 0.7], [0.1, 0.7], [0.4, 0.7]]
        # each group of k comes from its own stream: perturbed-combinatorial,
        # perturbed-truthful, then uniform-random
        groups = port[3:].reshape(3, 80, 2)
        assert not np.array_equal(groups[0], groups[1])
        assert not np.array_equal(groups[1], groups[2])
        assert port.min() >= 0.0 and port.max() <= 1.0
        # sigma 0.6 pushes many draws outside the box before clamping
        assert (port == 0.0).any() or (port == 1.0).any()

    def test_determinism(self):
        profile = np.array([[0.4, 0.7], [0.2, 0.9]])
        cfg = ra.PortfolioConfig(k=3, sigma_opt=0.2, sigma_truth=0.2)
        a = ra.build_portfolio(profile, 0, [0.1, 0.7], cfg, seed=5)
        b = ra.build_portfolio(profile, 0, [0.1, 0.7], cfg, seed=5)
        assert np.array_equal(a, b)


class TestGuidedRefinement:
    def test_second_price_zero(self, setting_2x2):
        mech = ra.SecondPriceAuction(setting_2x2)
        profile = uniform_profile(setting_2x2, 0, 7)
        est = ra.guided_refinement(mech, profile, 0, ra.GridSpec(20),
                                   ra.PortfolioConfig(), seed=1)
        assert est.value == 0.0

    def test_never_below_lower_bound(self, setting_2x2, neural_2x2):
        grid = ra.GridSpec(50)
        cfg = ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 50))
        for sample in range(25):
            profile = uniform_profile(setting_2x2, sample, 53)
            for bidder in range(2):
                lb = ra.lower_bound_regret(neural_2x2, profile, bidder, grid).value
                guided = ra.guided_refinement(neural_2x2, profile, bidder, grid, cfg,
                                              seed=sample).value
                assert guided >= lb, f"guided {guided} fell below lower bound {lb}"

    def test_separable_mechanism_matches_exhaustive(self):
        # The combinatorial candidate is already the joint grid optimum. The
        # refine step must cover the whole bid range (gamma >= 1), otherwise
        # descent through a truthful winning coordinate can land inside the
        # continuous improvement window and legitimately beat the grid.
        setting = ra.AuctionSetting(2, 2)
        mech = ra.PerItemFirstPriceAuction(setting)
        grid = ra.GridSpec(20)
        cfg = ra.PortfolioConfig(refine=ra.PgaConfig(1.0, 1, 25))
        for sample in range(10):
            profile = uniform_profile(setting, sample, 59)
            for bidder in range(2):
                ex = ra.exhaustive_regret(mech, profile, bidder, grid).value
                guided = ra.guided_refinement(mech, profile, bidder, grid, cfg,
                                              seed=sample).value
                assert guided == pytest.approx(ex, abs=1e-9)

    def test_eval_count_includes_grid_phase(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        cfg = ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 10))
        est = ra.guided_refinement(neural_2x2, profile, 0, ra.GridSpec(10), cfg, seed=1)
        # grid phase m*(q+2)+1, then (R+1) combined passes per candidate
        assert est.mech_evals == 2 * 12 + 1 + 3 * 11
        assert est.gradient_steps == 3 * 10

    def test_seed_determinism(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        cfg = ra.PortfolioConfig(k=4, sigma_opt=0.3, sigma_truth=0.3,
                                 refine=ra.PgaConfig(0.1, 1, 20))
        a = ra.guided_refinement(neural_2x2, profile, 0, ra.GridSpec(20), cfg, seed=77)
        b = ra.guided_refinement(neural_2x2, profile, 0, ra.GridSpec(20), cfg, seed=77)
        assert a.value == b.value and np.array_equal(a.best_misreport, b.best_misreport)


class TestOracleAgreement:
    """Continuous search against the exhaustive grid oracle."""

    def test_guided_tracks_oracle_on_seeded_mechanism(self, setting_2x2, neural_2x2):
        grid = ra.GridSpec(50)
        cfg = ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 200))
        tol_hits = 0
        total = 0
        for sample in range(20):
            profile = uniform_profile(setting_2x2, sample, 61)
            for bidder in range(2):
                oracle = ra.exhaustive_regret(neural_2x2, profile, bidder, grid).value
                guided = ra.guided_refinement(neural_2x2, profile, bidder, grid, cfg,
                                              seed=sample).value
                total += 1
                if abs(guided - oracle) <= max(0.02 * oracle, 2.0 / grid.q):
                    tol_hits += 1
                assert guided <= oracle + 2.0 / grid.q + 1e-9
        assert tol_hits >= 0.95 * total

    def test_guided_between_lower_bound_and_converged_proxy(self):
        # sandwich: grid lower bound below, a heavily converged multi-start
        # ascent (the continuous stand-in for the optimum) above plus slack
        proxy_cfg = ra.PgaConfig(0.1, 1000, 2000)
        guided_cfg = ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 200))
        grid = ra.GridSpec(50)
        for n, m in [(1, 2), (2, 2)]:
            setting = ra.AuctionSetting(n, m)
            mech = ra.load_neural_mechanism(ra.generate_neural_spec(setting, 16, 42))
            for sample in range(4):
                profile = uniform_profile(setting, sample, 71)
                for bidder in range(n):
                    lb = ra.lower_bound_regret(mech, profile, bidder, grid).value
                    gd = ra.guided_refinement(mech, profile, bidder, grid, guided_cfg,
                                              seed=sample).value
                    proxy = ra.random_restart_pga(mech, profile, bidder, proxy_cfg,
                                                  seed=sample).value
                    assert lb <= gd
                    assert gd <= proxy + max(0.02 * proxy, 2e-3), (
                        f"{n}x{m} sample {sample}: guided {gd} above proxy {proxy}")

    def test_pga_tracks_oracle_with_generous_budget(self, setting_2x2, neural_2x2):
        grid = ra.GridSpec(50)
        cfg = ra.PgaConfig(0.1, 50, 500)
        for sample in range(6):
            profile = uniform_profile(setting_2x2, sample, 67)
            oracle = ra.exhaustive_regret(neural_2x2, profile, 0, grid).value
            est = ra.random_restart_pga(neural_2x2, profile, 0, cfg, sample).value
            assert abs(est - oracle) <= max(0.02 * oracle, 2.0 / grid.q), (
                f"sample {sample}: pga {est} vs oracle {oracle}")
