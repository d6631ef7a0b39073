"""Mechanism interface, built-ins, the neural mechanism, and gradients."""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import regret_audit as ra
from regret_audit.mechanisms import fd_gradient_rows, rows_to_profiles

from conftest import ConstantMechanism, uniform_profile

GOLDEN = json.loads((Path(__file__).parent / "data" / "neural_2x2_seed42.json").read_text())


class TestSetting:
    def test_rejects_degenerate_counts(self):
        with pytest.raises(ra.InvalidInputError):
            ra.AuctionSetting(0, 2)
        with pytest.raises(ra.InvalidInputError):
            ra.AuctionSetting(2, 0)

    def test_profile_validation(self, setting_2x2):
        with pytest.raises(ra.InvalidInputError):
            ra.as_profile([[0.1, 0.2]], setting_2x2)
        with pytest.raises(ra.InvalidInputError):
            ra.as_profile([[0.1, 1.2], [0.0, 0.5]], setting_2x2)
        with pytest.raises(ra.InvalidInputError):
            ra.as_profile([[np.nan, 0.2], [0.0, 0.5]], setting_2x2)


class TestSecondPrice:
    def test_textbook_outcome(self):
        mech = ra.SecondPriceAuction(ra.AuctionSetting(2, 1))
        alloc, pay = mech.run([[0.8], [0.5]])
        assert alloc.tolist() == [[1.0], [0.0]]
        assert pay.tolist() == [0.5, 0.0]

    def test_winner_utility(self):
        mech = ra.SecondPriceAuction(ra.AuctionSetting(2, 1))
        assert ra.utility(mech, [0.8], [[0.8], [0.5]], 0) == pytest.approx(0.3)

    def test_all_zero_bids_tie_to_lowest_index(self):
        mech = ra.SecondPriceAuction(ra.AuctionSetting(3, 2))
        alloc, pay = mech.run(np.zeros((3, 2)))
        assert alloc[0].tolist() == [1.0, 1.0]
        assert alloc[1:].sum() == 0
        assert pay.tolist() == [0.0, 0.0, 0.0]

    def test_single_bidder_pays_nothing(self):
        mech = ra.SecondPriceAuction(ra.AuctionSetting(1, 2))
        _, pay = mech.run([[0.7, 0.2]])
        assert pay.tolist() == [0.0]

    def test_dsic_on_grid_misreports(self):
        # truthful utility dominates every grid deviation, per bidder
        setting = ra.AuctionSetting(3, 2)
        mech = ra.SecondPriceAuction(setting)
        pts = ra.GridSpec(20).points
        for sample in range(10):
            profile = uniform_profile(setting, sample, 51)
            for bidder in range(setting.n):
                truthful = ra.utility(mech, profile[bidder], profile, bidder)
                for j in range(setting.m):
                    rows = np.broadcast_to(profile[bidder], (pts.size, setting.m)).copy()
                    rows[:, j] = pts
                    utils = ra.evaluate_misreports(mech, profile, bidder, rows)
                    assert utils.max() <= truthful + 1e-15


class TestFirstPrice:
    def test_per_item_outcome(self):
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
        alloc, pay = mech.run([[0.6, 0.2], [0.3, 0.9]])
        assert alloc.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert pay.tolist() == [0.6, 0.9]

    def test_truthful_winner_gets_zero_utility(self):
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 1))
        assert ra.utility(mech, [0.8], [[0.8], [0.3]], 0) == 0.0


class TestMechanismProperties:
    @pytest.mark.parametrize("factory", [ra.SecondPriceAuction, ra.PerItemFirstPriceAuction])
    def test_purity_and_output_invariants(self, factory):
        setting = ra.AuctionSetting(3, 3)
        mech = factory(setting)
        for sample in range(20):
            profile = uniform_profile(setting, sample, 7)
            a1, p1 = mech.run(profile)
            a2, p2 = mech.run(profile)
            assert np.array_equal(a1, a2) and np.array_equal(p1, p2)
            assert a1.min() >= 0.0 and a1.max() <= 1.0
            assert (a1.sum(axis=0) <= 1.0 + 1e-9).all()
            assert (p1 >= 0.0).all()

    def test_neural_output_invariants(self, setting_2x2, neural_2x2):
        for sample in range(20):
            profile = uniform_profile(setting_2x2, sample, 7)
            a1, p1 = neural_2x2.run(profile)
            a2, p2 = neural_2x2.run(profile)
            assert np.array_equal(a1, a2) and np.array_equal(p1, p2)
            assert a1.min() >= 0.0 and a1.max() <= 1.0
            assert (a1.sum(axis=0) <= 1.0 + 1e-9).all()
            assert (p1 >= 0.0).all()

    def test_run_matches_run_many_rows(self, setting_2x2, neural_2x2):
        # batch evaluation must be bitwise equal to row-by-row evaluation
        batch = np.stack([uniform_profile(setting_2x2, s, 3) for s in range(17)])
        alloc_b, pay_b = neural_2x2.run_many(batch)
        for i in range(batch.shape[0]):
            alloc_1, pay_1 = neural_2x2.run(batch[i])
            assert np.array_equal(alloc_b[i], alloc_1)
            assert np.array_equal(pay_b[i], pay_1)

    def test_eval_counter_counts_each_profile(self, setting_2x2, neural_2x2):
        before = neural_2x2.evaluations
        neural_2x2.run(uniform_profile(setting_2x2, 0, 1))
        assert neural_2x2.evaluations == before + 1
        neural_2x2.run_many(np.stack([uniform_profile(setting_2x2, s, 1) for s in range(5)]))
        assert neural_2x2.evaluations == before + 6

    def test_eval_counter_thread_safe(self, setting_2x2, neural_2x2):
        before = neural_2x2.evaluations
        profile = uniform_profile(setting_2x2, 0, 1)

        def hammer():
            for _ in range(50):
                neural_2x2.run(profile)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert neural_2x2.evaluations == before + 400

    def test_dimension_mismatch_raises(self, neural_2x2):
        with pytest.raises(ra.InvalidInputError):
            neural_2x2.run(np.zeros((3, 2)))
        with pytest.raises(ra.InvalidInputError):
            ra.utility(neural_2x2, [0.5, 0.5, 0.5], np.zeros((2, 2)), 0)
        with pytest.raises(ra.InvalidInputError):
            ra.utility(neural_2x2, [0.5, 0.5], np.zeros((2, 2)), 5)


class TestUtility:
    def test_zero_valuation_zero_payment_gives_zero(self):
        setting = ra.AuctionSetting(2, 2)
        mech = ConstantMechanism(setting, alloc_value=0.3, pay_value=0.0)
        assert ra.utility(mech, [0.0, 0.0], np.zeros((2, 2)), 0) == 0.0

    def test_can_be_negative(self, setting_2x2, neural_2x2):
        # an arbitrary subject mechanism may violate individual rationality
        profile = uniform_profile(setting_2x2, 0, 7)
        low_value = ra.utility(neural_2x2, [0.0, 0.0], profile, 0)
        assert low_value < 0.0


class TestGradients:
    def test_constant_mechanism_has_zero_gradient(self):
        setting = ra.AuctionSetting(2, 2)
        mech = ConstantMechanism(setting)
        profile = uniform_profile(setting, 0, 7)
        grad = ra.utility_gradient(mech, profile[0], profile, 0)
        assert np.array_equal(grad, np.zeros(2))

    def test_second_price_gradient_zero_away_from_threshold(self):
        # locally constant allocation and payment for the interior winner
        mech = ra.SecondPriceAuction(ra.AuctionSetting(2, 1))
        grad = ra.utility_gradient(mech, [0.8], [[0.8], [0.3]], 0)
        assert np.array_equal(grad, np.zeros(1))

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 3)])
    def test_analytic_matches_finite_differences(self, n, m):
        setting = ra.AuctionSetting(n, m)
        mech = ra.load_neural_mechanism(ra.generate_neural_spec(setting, 16, 42))
        worst = 0.0
        for sample in range(100):
            profile = uniform_profile(setting, sample, 99)
            for bidder in range(n):
                _, grad = mech.utility_and_gradient_many(profile[None], bidder, profile[bidder])
                fd = fd_gradient_rows(mech, profile, bidder, profile[bidder][None, :])
                worst = max(worst, float(np.abs(grad[0] - fd[0]).max()))
        assert worst <= 1e-4, f"analytic vs finite-difference gradient gap {worst}"

    def test_gradient_utilities_match_run_path(self, setting_2x2, neural_2x2):
        # the combined pass must agree bitwise with the plain evaluation path
        for sample in range(10):
            profile = uniform_profile(setting_2x2, sample, 13)
            u, _ = neural_2x2.utility_and_gradient_many(profile[None], 0, profile[0])
            u_run = ra.evaluate_misreports(neural_2x2, profile, 0, profile[0][None, :])
            assert u[0] == u_run[0]


    @pytest.mark.parametrize("bidder", [0, 2])
    def test_int_bidder_matches_per_row_bidders(self, bidder):
        # one bidder is selected by a slice, per-row bidders by a gather
        setting = ra.AuctionSetting(3, 2)
        mech = ra.load_neural_mechanism(ra.generate_neural_spec(setting, 16, 42))
        profile = uniform_profile(setting, 0, 5)
        rows = np.random.default_rng(3).random((7, 2))
        per_row = np.full(len(rows), bidder)
        batch = rows_to_profiles(profile, bidder, rows)
        assert np.array_equal(batch, rows_to_profiles(profile, per_row, rows))
        assert np.array_equal(ra.evaluate_misreports(mech, profile, bidder, rows),
                              ra.evaluate_misreports(mech, profile, per_row, rows))
        assert np.array_equal(fd_gradient_rows(mech, profile, bidder, rows),
                              fd_gradient_rows(mech, profile, per_row, rows))
        one = mech.utility_and_gradient_many(batch, bidder, profile[bidder])
        many = mech.utility_and_gradient_many(batch, per_row, np.tile(profile[bidder], (7, 1)))
        assert all(np.array_equal(a, b) for a, b in zip(one, many))


class TestNeuralSpec:
    def test_generation_is_deterministic(self, setting_2x2):
        a = ra.generate_neural_spec(setting_2x2, 16, 42)
        b = ra.generate_neural_spec(setting_2x2, 16, 42)
        c = ra.generate_neural_spec(setting_2x2, 16, 43)
        assert a == b
        assert a != c

    def test_weights_in_range(self, setting_2x2):
        spec = ra.generate_neural_spec(setting_2x2, 16, 1)
        assert abs(spec.weights_in).max() <= 1.0
        assert abs(spec.weights_alloc).max() <= 1.0

    def test_file_round_trip_is_bit_exact(self, setting_2x2, tmp_path):
        spec = ra.generate_neural_spec(setting_2x2, 16, 42)
        path = tmp_path / "mech.json"
        ra.write_neural_spec(spec, path)
        again = ra.read_neural_spec(path)
        assert spec == again
        # identical forward outputs after reload
        profile = uniform_profile(setting_2x2, 0, 7)
        a1, p1 = ra.load_neural_mechanism(spec).run(profile)
        a2, p2 = ra.load_neural_mechanism(again).run(profile)
        assert np.array_equal(a1, a2) and np.array_equal(p1, p2)

    def test_malformed_spec_names_offending_dimension(self, setting_2x2):
        spec = ra.generate_neural_spec(setting_2x2, 16, 42)
        bad = ra.NeuralMechanismSpec(
            setting=spec.setting, hidden_width=spec.hidden_width,
            weights_in=spec.weights_in[:, :-1], bias_in=spec.bias_in,
            weights_alloc=spec.weights_alloc, bias_alloc=spec.bias_alloc,
            weights_pay=spec.weights_pay, bias_pay=spec.bias_pay)
        with pytest.raises(ra.MechanismLoadError, match="weights_in"):
            ra.load_neural_mechanism(bad)

    def test_unknown_format_version_rejected(self, setting_2x2, tmp_path):
        spec = ra.generate_neural_spec(setting_2x2, 16, 42)
        path = tmp_path / "mech.json"
        ra.write_neural_spec(spec, path)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ra.MechanismLoadError, match="format_version"):
            ra.read_neural_spec(path)

    def test_zero_weight_spec_gives_uniform_softmax(self):
        setting = ra.AuctionSetting(2, 2)
        h = 8
        zeros = ra.NeuralMechanismSpec(
            setting=setting, hidden_width=h,
            weights_in=np.zeros((4, h)), bias_in=np.zeros(h),
            weights_alloc=np.zeros((h, 6)), bias_alloc=np.zeros(6),
            weights_pay=np.zeros((h, 2)), bias_pay=np.zeros(2))
        mech = ra.load_neural_mechanism(zeros)
        bids = np.array([[0.4, 0.8], [0.2, 0.6]])
        alloc, pay = mech.run(bids)
        np.testing.assert_allclose(alloc, np.full((2, 2), 1.0 / 3.0), atol=1e-15)
        np.testing.assert_allclose(pay, 0.5 * bids.sum(axis=1) / 3.0, atol=1e-15)


class TestGoldenForwardPass:
    """Frozen outputs of the seeded 2x2 reference mechanism."""

    def setup_method(self):
        setting = ra.AuctionSetting(2, 2)
        self.mech = ra.load_neural_mechanism(
            ra.generate_neural_spec(setting, GOLDEN["hidden_width"], GOLDEN["mech_seed"]))
        self.profile = ra.sample_valuations(
            ra.ValuationDistribution(), setting, GOLDEN["sample_index"], GOLDEN["sample_seed"])

    def test_profile_matches(self):
        assert self.profile.tolist() == GOLDEN["profile"]

    def test_forward_pass_matches(self):
        alloc, pay = self.mech.run(self.profile)
        assert alloc.tolist() == GOLDEN["allocation"]
        assert pay.tolist() == GOLDEN["payments"]

    def test_utilities_match(self):
        for bidder in range(2):
            u = ra.utility(self.mech, self.profile[bidder], self.profile, bidder)
            assert u == GOLDEN["utilities"][bidder]
