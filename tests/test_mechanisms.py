"""Mechanism interface, built-ins, the neural mechanism, and gradients."""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import regret_audit as ra
from regret_audit.mechanisms import fd_gradient_rows, rows_to_profiles

from conftest import ConstantMechanism, uniform_profile

#: a mechanism inheriting the finite-difference gradient, and one overriding it
GRADIENT_MECHANISMS = {
    "first_price": ra.PerItemFirstPriceAuction,
    "neural": lambda setting: ra.NeuralMechanism(ra.generate_neural_spec(setting, 16, 42)),
}
GOLDEN = json.loads((Path(__file__).parent / "data" / "neural_2x2_seed42.json").read_text())

PROFILE_2X2 = np.array([[0.3, 0.4], [0.2, 0.5]])
ROWS_2X2 = np.array([[0.3, 0.4], [0.6, 0.1]])
#: malformed queries on a 2x2 setting, as (profile, bidder, rows, valuation). On
#: first price, evaluate_misreports scored the first with a phantom third
#: bidder winning both items, and the others raised raw numpy errors.
MALFORMED_QUERIES = {
    "three_bidder_profile": (np.vstack([PROFILE_2X2, [[0.9, 0.9]]]), 0, ROWS_2X2, None),
    "rows_of_three_items": (PROFILE_2X2, 0, np.array([[0.3, 0.4, 0.5]]), None),
    "one_dimensional_rows": (PROFILE_2X2, 0, np.array([0.3, 0.4]), None),
    "three_item_valuation": (PROFILE_2X2, 0, ROWS_2X2, [0.5, 0.5, 0.5]),
    "one_dimensional_profile": (np.array([0.3, 0.4]), 0, ROWS_2X2, None),
    "three_bidders_for_two_rows": (PROFILE_2X2, np.array([0, 1, 0]), ROWS_2X2, None),
    # these used to raise numpy's raw ValueError
    "ragged_profile": ([[0.3], [0.2, 0.5]], 0, ROWS_2X2, None),
    "string_row": (PROFILE_2X2, 0, [[0.3, "x"]], None),
}


class TestSetting:
    def test_rejects_degenerate_counts(self):
        with pytest.raises(ra.InvalidInputError):
            ra.AuctionSetting(0, 2)
        with pytest.raises(ra.InvalidInputError):
            ra.AuctionSetting(2, 0)
        # counts are never truncated: 2.5 bidders used to run as 2
        for n, m in ((2.5, 2), (2, True)):
            with pytest.raises(ra.InvalidInputError, match="must be an integer"):
                ra.AuctionSetting(n, m)

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

    @pytest.mark.parametrize("factory", [ra.SecondPriceAuction, ra.PerItemFirstPriceAuction,
                                         ConstantMechanism])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.2])
    def test_non_finite_misreport_rows_rejected(self, factory, bad):
        # second price used to score [nan, .4] and [.3, nan] at -0.4 and 0.1,
        # and rows outside [0, 1] were scored too
        mech = factory(ra.AuctionSetting(3, 2))
        profile = np.array([[0.3, 0.4], [0.2, 0.5], [0.6, 0.1]])
        for row in ([bad, 0.4], [0.3, bad]):
            rows = np.array([[0.3, 0.4], row])
            for bidder in (1, np.array([0, 1])):
                with pytest.raises(ra.InvalidInputError, match=rf"\[.*\] of bidder 1 is not"):
                    ra.evaluate_misreports(mech, profile, bidder, rows)
        # first price scored the row [1.5, -0.2] at -1.2 and bidder -1 as
        # bidder 2, and bidder 3 raised a raw IndexError
        with pytest.raises(ra.InvalidInputError, match=r"\[1.5, -0.2\] of bidder 0 is not"):
            ra.evaluate_misreports(mech, profile, 0, np.array([[1.5, -0.2]]))
        for bidder in (-1, 3, np.array([0, 3]), 0.5, np.array([0.0, 1.0]), True):
            with pytest.raises(ra.InvalidInputError, match="out of range"):
                ra.evaluate_misreports(mech, profile, bidder, np.array([[0.3, 0.4]] * 2))
        assert mech.evaluations == 0

    @pytest.mark.parametrize("factory", [ra.SecondPriceAuction, ra.PerItemFirstPriceAuction,
                                         ConstantMechanism])
    def test_misreport_profile_and_valuation_checked(self, factory):
        # first price scored valuation [5, -3] at 4.7 and this profile at 6.7
        mech = factory(ra.AuctionSetting(2, 2))
        profile = np.array([[0.3, 0.4], [0.2, 0.5]])
        row = np.array([[0.3, 0.4]])
        with pytest.raises(ra.InvalidInputError, match="valuations"):
            ra.evaluate_misreports(mech, profile, 0, row, valuation_row=[5.0, -3.0])
        for bad in ([[7.0, 0.4], [0.2, -9.5]], [[0.3, 0.4], [np.nan, 0.5]]):
            with pytest.raises(ra.InvalidInputError, match="profile entries"):
                ra.evaluate_misreports(mech, np.array(bad), 0, row)
        assert mech.evaluations == 0

    @pytest.mark.parametrize("kind", ["first_price", "neural"])
    @pytest.mark.parametrize("case", MALFORMED_QUERIES)
    def test_malformed_query_rejected_by_every_entry(self, kind, case):
        mech = GRADIENT_MECHANISMS[kind](ra.AuctionSetting(2, 2))
        profile, bidder, rows, valuation = MALFORMED_QUERIES[case]
        calls = [lambda: ra.evaluate_misreports(mech, profile, bidder, rows, valuation),
                 lambda: fd_gradient_rows(mech, profile, bidder, rows, valuation)]
        if rows is ROWS_2X2:  # the entries without candidate rows
            v = PROFILE_2X2[0] if valuation is None else valuation
            calls.append(lambda: mech.utility_and_gradient_many([profile] * 2, bidder, v))
            if np.ndim(bidder) == 0:
                calls += [lambda: ra.utility(mech, v, profile, bidder),
                          lambda: ra.utility_gradient(mech, v, profile, bidder)]
        for call in calls:
            with pytest.raises(ra.InvalidInputError):
                call()
        assert mech.evaluations == 0


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
        mech = ra.NeuralMechanism(ra.generate_neural_spec(setting, 16, 42))
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

    @pytest.mark.parametrize("kind", ["first_price", "neural"])
    @pytest.mark.parametrize("bidder", [-1, 2])
    def test_utility_gradient_rejects_bad_bidder(self, setting_2x2, kind, bidder):
        mech = GRADIENT_MECHANISMS[kind](setting_2x2)
        profile = uniform_profile(setting_2x2, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="out of range"):
            ra.utility_gradient(mech, profile[0], profile, bidder)

    @pytest.mark.parametrize("kind", ["first_price", "neural"])
    @pytest.mark.parametrize("valuation", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]] * 2])
    def test_utility_gradient_rejects_bad_valuation_shape(self, setting_2x2, kind, valuation):
        mech = GRADIENT_MECHANISMS[kind](setting_2x2)
        profile = uniform_profile(setting_2x2, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="valuation row shape"):
            ra.utility_gradient(mech, valuation, profile, 0)

    @pytest.mark.parametrize("kind", ["first_price", "neural"])
    @pytest.mark.parametrize("valuation", [[2.0, -1.0], [np.nan, 0.5]])
    @pytest.mark.parametrize("function", [ra.utility, ra.utility_gradient])
    def test_valuations_outside_the_box_rejected(self, setting_2x2, kind, valuation, function):
        # a NaN valuation used to give a NaN utility, and utility_gradient
        # took any values
        mech = GRADIENT_MECHANISMS[kind](setting_2x2)
        profile = uniform_profile(setting_2x2, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="valuations must be finite"):
            function(mech, valuation, profile, 0)

    @pytest.mark.parametrize("bidder", [0, 2])
    def test_int_bidder_matches_per_row_bidders(self, bidder):
        # one bidder is selected by a slice, per-row bidders by a gather
        setting = ra.AuctionSetting(3, 2)
        profile = uniform_profile(setting, 0, 5)
        rows = np.random.default_rng(3).random((7, 2))
        per_row = np.full(len(rows), bidder)
        values = np.tile(profile[bidder], (7, 1))
        batch = rows_to_profiles(profile, bidder, rows)
        assert np.array_equal(batch, rows_to_profiles(profile, per_row, rows))
        for kind, factory in GRADIENT_MECHANISMS.items():
            mech = factory(setting)
            assert np.array_equal(ra.evaluate_misreports(mech, profile, bidder, rows),
                                  ra.evaluate_misreports(mech, profile, per_row, rows))
            assert np.array_equal(fd_gradient_rows(mech, profile, bidder, rows),
                                  fd_gradient_rows(mech, profile, per_row, rows))
            evals0 = mech.evaluations
            one = mech.utility_and_gradient_many(batch, bidder, profile[bidder])
            many = mech.utility_and_gradient_many(batch, per_row, values)
            assert all(np.array_equal(a, b) for a, b in zip(one, many))
            if kind == "first_price":
                # the inherited finite-difference default: 2m+1 evaluations per row
                assert mech.evaluations - evals0 == 2 * 7 * (2 * 2 + 1)
                fd = (ra.evaluate_misreports(mech, batch, bidder, rows, valuation_row=values),
                      fd_gradient_rows(mech, batch, bidder, rows, valuation_row=values))
                assert all(np.array_equal(a, b) for a, b in zip(one, fd))


#: every query entry that takes a bidder, as (rows per query, call(mech, bidder))
BIDDER_ENTRIES = {
    "evaluate_misreports": (2, lambda mech, b: ra.evaluate_misreports(
        mech, PROFILE_2X2, b, ROWS_2X2)),
    "fd_gradient_rows": (2, lambda mech, b: fd_gradient_rows(mech, PROFILE_2X2, b, ROWS_2X2)),
    "utility_and_gradient_many": (2, lambda mech, b: mech.utility_and_gradient_many(
        [PROFILE_2X2] * 2, b, PROFILE_2X2[1])),
    "utility": (1, lambda mech, b: ra.utility(mech, PROFILE_2X2[1], PROFILE_2X2, b)),
    "utility_gradient": (1, lambda mech, b: ra.utility_gradient(
        mech, PROFILE_2X2[1], PROFILE_2X2, b)),
    # evaluates nothing: its cost is 0 for every bidder form
    "build_portfolio": (1, lambda mech, b: ra.build_portfolio(
        PROFILE_2X2, b, [0.5, 0.5], ra.PortfolioConfig(), 0)),
}

#: the entries of one profile and one bidder, which take an integer bidder only
SINGLE_CELL = ("utility", "utility_gradient", "build_portfolio")


def _parts(result):
    """The arrays an entry returns: utilities, gradients or both."""
    return result if isinstance(result, tuple) else (result,)


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_parts(a), _parts(b), strict=True))


@pytest.mark.parametrize("kind", sorted(GRADIENT_MECHANISMS))
@pytest.mark.parametrize("entry", BIDDER_ENTRIES)
class TestBidderForms:
    """One check of every bidder form, for an int and for one bidder per row."""

    def test_integer_scalars_match_their_int(self, kind, entry):
        rows, call = BIDDER_ENTRIES[entry]
        mech = GRADIENT_MECHANISMS[kind](ra.AuctionSetting(2, 2))
        want = call(mech, 1)
        cost = mech.evaluations
        # a single-cell entry takes one integer bidder, not a 0-d array
        forms = [np.int64(1), np.uint8(1)] + ([] if entry in SINGLE_CELL else [np.array(1)])
        for form in forms:
            before = mech.evaluations
            assert _same(call(mech, form), want), form
            assert mech.evaluations - before == cost

    @pytest.mark.parametrize("bidder", [True, np.True_, 1.0, -1, 2, 2**70, "0", None],
                             ids=repr)
    def test_other_scalars_rejected_before_any_evaluation(self, kind, entry, bidder):
        mech = GRADIENT_MECHANISMS[kind](ra.AuctionSetting(2, 2))
        with pytest.raises(ra.InvalidInputError, match="out of range for n=2"):
            BIDDER_ENTRIES[entry][1](mech, bidder)
        assert mech.evaluations == 0

    def test_per_row_bidders_follow_the_shape_rule(self, kind, entry):
        rows, call = BIDDER_ENTRIES[entry]
        mech = GRADIENT_MECHANISMS[kind](ra.AuctionSetting(2, 2))
        for wrong in ([1] * (rows + 1), np.ones((1, rows), dtype=int)):
            with pytest.raises(ra.InvalidInputError, match="bidder shape .* one per row"):
                call(mech, wrong)
        assert mech.evaluations == 0
        if entry in SINGLE_CELL:
            return  # one bidder per row is refused (test_single_cell_entries_refuse_arrays)
        by_bidder = [call(mech, 0), call(mech, 1)]
        for per_row in ([1] * rows, np.full(rows, 1, dtype=np.uint8)):
            assert _same(call(mech, per_row), by_bidder[1])
        if rows > 1:
            mixed = np.arange(rows) % 2  # row i for bidder i mod 2
            got = _parts(call(mech, mixed))
            for i, b in enumerate(mixed):
                assert all(np.array_equal(g[i], w[i]) for g, w in zip(got, _parts(by_bidder[b])))

    @pytest.mark.parametrize("bidder", [np.array(0), np.array([0])], ids=repr)
    def test_single_cell_entries_refuse_arrays(self, kind, entry, bidder):
        # utility_gradient, and then build_portfolio, used to take both forms,
        # where utility refused them
        if entry not in SINGLE_CELL:
            return
        mech = GRADIENT_MECHANISMS[kind](ra.AuctionSetting(2, 2))
        with pytest.raises(ra.InvalidInputError, match="bidder must be an integer"):
            BIDDER_ENTRIES[entry][1](mech, bidder)
        assert mech.evaluations == 0


class ZeroNeural(ra.NeuralMechanism):
    """A neural mechanism whose replaced ``_run_batch`` allocates nothing and
    charges nothing: every utility, and so the true regret, is 0."""

    def _run_batch(self, batch):
        B, n, m = batch.shape
        return np.zeros((B, n, m)), np.zeros((B, n))


class FreeFirstPrice(ra.PerItemFirstPriceAuction):
    """First price's allocation with nothing paid."""

    def _run_batch(self, batch):
        alloc, pay = super()._run_batch(batch)
        return alloc, np.zeros_like(pay)


class TestHookDefaults:
    def test_replacing_run_batch_restores_the_default_product_scan(self):
        # first price's product hook adds its own payments per item; a
        # subclass that pays nothing must not inherit it
        assert FreeFirstPrice._product_utilities is ra.Mechanism._product_utilities
        setting, grid = ra.AuctionSetting(2, 2), ra.GridSpec(4)
        profile = np.array([[0.5, 0.25], [0.25, 0.5]])
        # bidder 1 wins item 1 at its bid and loses item 0 to bidder 0; for
        # free, the first grid row that wins both gains item 0's 0.25
        free = ra.exhaustive_regret(FreeFirstPrice(setting), profile, 1, grid)
        assert (free.value, free.best_misreport.tolist()) == (0.25, [0.75, 0.5])
        paid = ra.exhaustive_regret(ra.PerItemFirstPriceAuction(setting), profile, 1, grid)
        assert paid.value == 0.0

    def test_replacing_run_batch_restores_every_default_hook(self, setting_2x2):
        # the ascent used to take the parent network's utilities from the
        # inherited _gradient_batch: pga reported 0.277 and guided 0.296
        mech = ZeroNeural(ra.generate_neural_spec(setting_2x2, 16, 42))
        assert ra.random_restart_pga(mech, PROFILE_2X2, 0, ra.PgaConfig(0.1, 5, 20), 7).value == 0.0
        assert ra.guided_refinement(mech, PROFILE_2X2, 0, ra.GridSpec(20),
                                    ra.PortfolioConfig(), 7).value == 0.0
        assert ra.exhaustive_regret(mech, PROFILE_2X2, 0, ra.GridSpec(20)).value == 0.0
        batch = np.stack([PROFILE_2X2, ROWS_2X2])
        utils, _ = mech.utility_and_gradient_many(batch, 0, PROFILE_2X2[0])
        rows = batch[:, 0]
        assert np.array_equal(utils, ra.evaluate_misreports(mech, batch, 0, rows, PROFILE_2X2[0]))


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
        a1, p1 = ra.NeuralMechanism(spec).run(profile)
        a2, p2 = ra.NeuralMechanism(again).run(profile)
        assert np.array_equal(a1, a2) and np.array_equal(p1, p2)

    def test_malformed_spec_names_offending_dimension(self, setting_2x2):
        spec = ra.generate_neural_spec(setting_2x2, 16, 42)
        # an invalid spec cannot be built at all
        with pytest.raises(ra.MechanismLoadError, match="weights_in"):
            ra.NeuralMechanismSpec(
                setting=spec.setting, hidden_width=spec.hidden_width,
                weights_in=spec.weights_in[:, :-1], bias_in=spec.bias_in,
                weights_alloc=spec.weights_alloc, bias_alloc=spec.bias_alloc,
                weights_pay=spec.weights_pay, bias_pay=spec.bias_pay)
        # the same and untyped failures, read from a spec's JSON form
        data = ra.mechanisms.spec_to_dict(spec)
        cases = [
            ({**data, "weights_in": [row[:-1] for row in data["weights_in"]]}, "weights_in"),
            ({**data, "hidden_width": "x"}, "malformed"),
            ({**data, "bias_in": ["a"] * len(data["bias_in"])}, "malformed"),  # non-numeric
            ({**data, "weights_pay": [data["weights_pay"][0][:1], *data["weights_pay"][1:]]},
             "malformed"),  # ragged
            ([data], "JSON object"),
            # counts are never truncated: these used to load as width 16, n = 2
            ({**data, "hidden_width": 16.9}, "malformed.*hidden_width must be an integer"),
            ({**data, "setting": {"n": 2.5, "m": 2}}, "malformed.*n must be an integer"),
        ]
        for bad, match in cases:
            with pytest.raises(ra.MechanismLoadError, match=match):
                ra.mechanisms.spec_from_dict(bad)

    def test_numpy_integers_write_as_python_integers(self, tmp_path):
        # the spec file used to stop at a raw TypeError after 49 bytes
        for i, to in enumerate((int, np.int64)):
            spec = ra.generate_neural_spec(ra.AuctionSetting(to(2), 2), to(4), 0)
            ra.write_neural_spec(spec, tmp_path / f"spec{i}.json")
        assert (tmp_path / "spec1.json").read_bytes() == (tmp_path / "spec0.json").read_bytes()

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
        mech = ra.NeuralMechanism(zeros)
        bids = np.array([[0.4, 0.8], [0.2, 0.6]])
        alloc, pay = mech.run(bids)
        np.testing.assert_allclose(alloc, np.full((2, 2), 1.0 / 3.0), atol=1e-15)
        np.testing.assert_allclose(pay, 0.5 * bids.sum(axis=1) / 3.0, atol=1e-15)


class TestGoldenForwardPass:
    """Frozen outputs of the seeded 2x2 reference mechanism."""

    def setup_method(self):
        setting = ra.AuctionSetting(2, 2)
        self.mech = ra.NeuralMechanism(
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
