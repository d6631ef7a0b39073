"""Grid estimators: frozen examples, bound ordering, and cost accounting."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import regret_audit as ra
from regret_audit import estimators

from conftest import NAN_EXAMPLE_PROFILE, NanAboveAuction, uniform_profile

GOLDEN = json.loads((Path(__file__).parent / "data" / "neural_2x2_seed42.json").read_text())


def brute_force_regret(mech, profile, bidder, points):
    """Independent oracle: plain nested loops over the grid product."""
    m = profile.shape[1]
    truthful = ra.utility(mech, profile[bidder], profile, bidder)
    best = 0.0
    for combo in itertools.product(points, repeat=m):
        trial = profile.copy()
        trial[bidder] = combo
        gain = ra.utility(mech, profile[bidder], trial, bidder) - truthful
        best = max(best, gain)
    return best


class TestRegretEstimate:
    @pytest.mark.parametrize("value", [-1e-9, float("nan")])
    def test_rejects_negative_and_nan(self, value):
        with pytest.raises(ra.InvalidInputError):
            ra.RegretEstimate("item_wise", 0, value, None, 1, 0.0)


class TestGridSpec:
    def test_inclusive_points(self):
        grid = ra.GridSpec(10)
        pts = grid.points
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert pts.size == 11
        assert np.all(np.diff(pts) > 0)
        assert np.abs(np.diff(pts) - 0.1).max() <= 1e-15

    def test_open_left_points(self):
        pts = ra.GridSpec(10, "open_left").points
        assert pts[0] == 0.1 and pts[-1] == 1.0 and pts.size == 10

    def test_coarse_points_subset_of_fine(self):
        coarse = ra.GridSpec(25).points
        fine = ra.GridSpec(50).points
        assert np.isin(coarse, fine).all()

    @pytest.mark.parametrize("style", estimators.GRID_STYLES)
    def test_points_are_the_last_size_points_t_over_q(self, style):
        for q in range(1, 201):
            grid = ra.GridSpec(q, style)
            first = 0 if style == "inclusive" else 1
            assert len(grid.points) == grid.size
            assert np.array_equal(grid.points, np.arange(first, q + 1, dtype=np.float64) / q)

    def test_invalid(self):
        with pytest.raises(ra.InvalidInputError):
            ra.GridSpec(0)
        with pytest.raises(ra.InvalidInputError):
            ra.GridSpec(10, "weird")
        # q = 2.5 used to scan the points 0, 0.4, 0.8 and 1.2, outside the bid box
        with pytest.raises(ra.InvalidInputError, match="must be an integer"):
            ra.GridSpec(2.5)


class TestFirstPriceExamples:
    """Separable mechanism with enumerable optima, checked against a
    loop-based oracle and frozen expected values."""

    def setup_method(self):
        self.setting = ra.AuctionSetting(2, 2)
        self.mech = ra.PerItemFirstPriceAuction(self.setting)
        self.profile = np.array([[0.8, 0.5], [0.3, 0.1]])
        self.grid = ra.GridSpec(10)

    def test_single_item_case(self):
        setting = ra.AuctionSetting(2, 1)
        mech = ra.PerItemFirstPriceAuction(setting)
        profile = np.array([[0.8], [0.3]])
        est = ra.exhaustive_regret(mech, profile, 0, self.grid)
        assert est.value == pytest.approx(0.5, abs=1e-12)
        assert est.best_misreport.tolist() == [0.3]
        assert est.value == pytest.approx(
            brute_force_regret(mech, profile, 0, self.grid.points), abs=1e-12)

    def test_item_regrets(self):
        assert ra.item_regret(self.mech, self.profile, 0, 0, self.grid).value == pytest.approx(0.5, abs=1e-12)
        assert ra.item_regret(self.mech, self.profile, 0, 1, self.grid).value == pytest.approx(0.4, abs=1e-12)

    def test_exhaustive_equals_item_wise_by_separability(self):
        ex = ra.exhaustive_regret(self.mech, self.profile, 0, self.grid)
        iw = ra.item_wise_regret(self.mech, self.profile, 0, self.grid)
        assert ex.value == pytest.approx(0.9, abs=1e-12)
        assert iw.value == pytest.approx(0.9, abs=1e-12)
        assert ex.value == pytest.approx(
            brute_force_regret(self.mech, self.profile, 0, self.grid.points), abs=1e-12)

    def test_lower_bound_is_max_item(self):
        lb = ra.lower_bound_regret(self.mech, self.profile, 0, self.grid)
        assert lb.value == pytest.approx(0.5, abs=1e-12)
        # deviation on item 0 only, truthful elsewhere
        assert lb.best_misreport.tolist() == [0.3, 0.5]


class TestSecondPriceZeroRegret:
    @pytest.mark.parametrize("method", [ra.exhaustive_regret, ra.lower_bound_regret, ra.item_wise_regret])
    def test_all_methods_report_zero(self, method):
        setting = ra.AuctionSetting(2, 2)
        mech = ra.SecondPriceAuction(setting)
        grid = ra.GridSpec(10)
        for sample in range(10):
            profile = uniform_profile(setting, sample, 3)
            for bidder in range(2):
                est = method(mech, profile, bidder, grid)
                assert est.value == 0.0
                if est.method != "item_wise":
                    assert est.best_misreport.tolist() == profile[bidder].tolist()

    def test_item_regret_zero_per_item(self):
        setting = ra.AuctionSetting(2, 2)
        mech = ra.SecondPriceAuction(setting)
        profile = uniform_profile(setting, 0, 3)
        for item in range(2):
            assert ra.item_regret(mech, profile, 0, item, ra.GridSpec(10)).value == 0.0


class TestNonFiniteMisreports:
    @pytest.mark.parametrize("estimate", [
        lambda mech, grid: ra.exhaustive_regret(mech, NAN_EXAMPLE_PROFILE, 1, grid),
        lambda mech, grid: ra.item_regret(mech, NAN_EXAMPLE_PROFILE, 1, 0, grid),
        lambda mech, grid: ra.lower_bound_regret(mech, NAN_EXAMPLE_PROFILE, 1, grid),
        lambda mech, grid: ra.item_wise_regret(mech, NAN_EXAMPLE_PROFILE, 1, grid),
    ], ids=["exhaustive", "item", "lower_bound", "item_wise"])
    def test_nan_on_some_misreports_raises(self, estimate):
        # truthful utility finite, NaN wherever bidder 1's bids sum to 1.2 or
        # more; exhaustive used to report a false 0.0 here
        mech = NanAboveAuction(ra.AuctionSetting(2, 2), threshold=1.2)
        with pytest.raises(ra.InvalidInputError,
                           match="bidder 1 a non-finite misreport utility"):
            estimate(mech, ra.GridSpec(10))


class TestEvalAccounting:
    def test_item_wise_total_matches_formula(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        ests = [ra.item_wise_regret(neural_2x2, profile, bidder, ra.GridSpec(10))
                for bidder in range(2)]
        assert sum(e.mech_evals for e in ests) == 2 * (2 * 12 + 1) == 50

    def test_exhaustive_total_off_and_on_grid(self, setting_2x2, neural_2x2):
        def total(profile):
            return sum(ra.exhaustive_regret(neural_2x2, profile, bidder, ra.GridSpec(10)).mech_evals
                       for bidder in range(2))

        assert total(uniform_profile(setting_2x2, 0, 7)) == 2 * (11 ** 2 + 1 + 1) == 246
        assert total(np.array([[0.8, 0.5], [0.3, 0.1]])) == 2 * (11 ** 2 + 1) == 244

    @pytest.mark.parametrize("q", [5, 10, 20])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_count_formulas_across_settings(self, q, m):
        setting = ra.AuctionSetting(2, m)
        mech = ra.NeuralMechanism(ra.generate_neural_spec(setting, 8, 5))
        profile = uniform_profile(setting, 0, 11)  # off-grid a.s.
        grid = ra.GridSpec(q)
        ex = ra.exhaustive_regret(mech, profile, 0, grid)
        assert ex.mech_evals == (q + 1) ** m + 1 + 1
        iw = ra.item_wise_regret(mech, profile, 0, grid)
        assert iw.mech_evals == m * (q + 2) + 1
        lb = ra.lower_bound_regret(mech, profile, 0, grid)
        assert lb.mech_evals == m * (q + 2) + 1
        # one item's estimate is read off the full item scan, and counts it
        it = ra.item_regret(mech, profile, 0, 0, grid)
        assert it.mech_evals == m * (q + 2) + 1

    def test_estimates_read_off_a_scan_count_its_evaluations_and_seconds(
            self, setting_2x2, neural_2x2):
        # item_wise used to report its own microseconds for the scan's 2005 evaluations
        profile = uniform_profile(setting_2x2, 0, 7)
        scan = estimators._scan_all_items(neural_2x2, profile, 0, ra.GridSpec(1000))
        assert scan.seconds > 0.0
        for est in (scan.item(1), scan.lower_bound(), scan.item_wise()):
            assert (est.mech_evals, est.wall_seconds) == (scan.evaluations, scan.seconds)

    def test_counter_delta_matches_reported(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        before = neural_2x2.evaluations
        est = ra.exhaustive_regret(neural_2x2, profile, 0, ra.GridSpec(10))
        assert neural_2x2.evaluations - before == est.mech_evals

    def test_budget_error_names_required_count(self):
        setting = ra.AuctionSetting(2, 4)
        mech = ra.NeuralMechanism(ra.generate_neural_spec(setting, 8, 5))
        profile = uniform_profile(setting, 0, 11)
        before = mech.evaluations
        # the worst case: the grid, the truthful row, and an off-grid truthful row
        with pytest.raises(ra.BudgetExceededError, match=str(101 ** 4 + 2)):
            ra.exhaustive_regret(mech, profile, 0, ra.GridSpec(100), max_evals=10 ** 6)
        assert mech.evaluations == before  # refused before evaluating anything
        # neural 2x2, q=4 spends 25 + 2 evaluations; a budget of 25 used to run them
        mech = ra.NeuralMechanism(ra.generate_neural_spec(ra.AuctionSetting(2, 2), 16, 42))
        profile = uniform_profile(mech.setting, 0, 11)
        with pytest.raises(ra.BudgetExceededError):
            ra.exhaustive_regret(mech, profile, 0, ra.GridSpec(4), max_evals=25)
        assert mech.evaluations == 0
        assert ra.exhaustive_regret(mech, profile, 0, ra.GridSpec(4), max_evals=27).mech_evals == 27

    @pytest.mark.parametrize("style, points", [("inclusive", 100001), ("open_left", 100000)])
    def test_item_scan_charged_against_budget(self, style, points):
        # item scans used to ignore the budget and run all 200,005 evaluations here
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
        profile = uniform_profile(mech.setting, 0, 11)
        grid = ra.GridSpec(100000, style)
        with pytest.raises(ra.BudgetExceededError) as info:
            estimators._scan_all_items(mech, profile, 0, grid, max_evals=100)
        assert (info.value.required, info.value.budget) == (2 * (points + 1) + 1, 100)
        assert mech.evaluations == 0
        small = ra.GridSpec(4, style)
        worst = 2 * (len(small.points) + 1) + 1  # a budget of exactly the worst case runs
        assert estimators._scan_all_items(mech, profile, 0, small, worst).evaluations <= worst


    @pytest.mark.parametrize("style, points", [("inclusive", 10 ** 13 + 1),
                                               ("open_left", 10 ** 13)])
    def test_budget_checked_before_the_points_are_built(self, style, points):
        # the 10**13 points would take 80 TB; they used to be built first,
        # failing with numpy's memory error before the budget could refuse them
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
        profile = uniform_profile(mech.setting, 0, 11)
        grid = ra.GridSpec(10 ** 13, style)
        scan = 2 * (points + 1) + 1
        for required, call in [
                (points ** 2 + 2, lambda: ra.exhaustive_regret(mech, profile, 0, grid)),
                (scan, lambda: ra.lower_bound_regret(mech, profile, 0, grid)),
                (scan, lambda: ra.guided_refinement(mech, profile, 0, grid,
                                                    ra.PortfolioConfig(), 0))]:
            with pytest.raises(ra.BudgetExceededError) as info:
                call()
            assert (info.value.required, info.value.budget) == (required, ra.DEFAULT_EVAL_BUDGET)
        assert mech.evaluations == 0

class TestChargedNotRun:
    """A scan's off-grid truthful slot, and each row through a point the
    product hook drops, is charged, not run: the counts keep the cost
    formulas while the mechanism runs only the rows a scan reads."""

    OFF_GRID = np.array([[0.33, 0.47], [0.2, 0.5]])
    ON_GRID = np.array([[0.8, 0.5], [0.3, 0.1]])

    @pytest.mark.parametrize("profile, exhaustive, item_scan", [
        # item 0 loses below the other bid, 0.2 or 0.3, and item 1 below 0.5
        # or 0.1, and a losing point repeats the one before it: executed
        # 1 + 10 * 7 and 1 + 10 + 7 rows off grid, 1 + 9 * 11 and 1 + 9 + 11
        # on it; the scans used to run 123 and 25, then 122 and 23
        (OFF_GRID, (71, 123), (18, 25)),
        (ON_GRID, (100, 122), (21, 23)),
    ], ids=["off_grid", "on_grid"])
    def test_executed_and_charged_rows(self, monkeypatch, profile, exhaustive, item_scan):
        # the executed rows: the truthful rows, and the product rows a scan
        # asks the product hook for
        executed = []
        hook = ra.PerItemFirstPriceAuction._misreport_utilities
        product = ra.PerItemFirstPriceAuction._product_utilities

        def counted(self, profile, bidder, rows, v):
            executed.append(len(rows))
            return hook(self, profile, bidder, rows, v)

        def counted_product(self, profile, bidder, axes, v):
            kept, utilities = product(self, profile, bidder, axes, v)

            def counted_range(start, stop):
                executed.append(stop - start)
                return utilities(start, stop)
            return kept, counted_range

        monkeypatch.setattr(ra.PerItemFirstPriceAuction, "_misreport_utilities", counted)
        monkeypatch.setattr(ra.PerItemFirstPriceAuction, "_product_utilities", counted_product)
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
        grid = ra.GridSpec(10)
        est = ra.exhaustive_regret(mech, profile, 0, grid)
        assert (sum(executed), est.mech_evals, mech.evaluations) == (*exhaustive, exhaustive[1])
        executed.clear()
        scan = estimators._scan_all_items(mech, profile, 0, grid)
        assert (sum(executed), scan.evaluations) == item_scan

    def test_seed_601_oracle_runs_a_few_percent_of_its_rows(self, monkeypatch):
        # the first-price 2x5 oracle at q=20 of the benchmark's seed 601:
        # a losing bid repeats the point before it, so of the 21^5 rows the
        # scans run 28,800 and 29,952 and charge the rest
        executed = []
        product = ra.PerItemFirstPriceAuction._product_utilities

        def counted_product(self, profile, bidder, axes, v):
            kept, utilities = product(self, profile, bidder, axes, v)
            executed.append(math.prod(len(points) for points in kept))
            return kept, utilities

        monkeypatch.setattr(ra.PerItemFirstPriceAuction, "_product_utilities", counted_product)
        setting = ra.AuctionSetting(2, 5)
        profile = ra.sample_valuations(ra.ValuationDistribution(), setting, 0, 601)
        mech = ra.PerItemFirstPriceAuction(setting)
        evals = [ra.exhaustive_regret(mech, profile, bidder, ra.GridSpec(20)).mech_evals
                 for bidder in range(2)]
        assert executed == [28800, 29952]
        assert evals == [21 ** 5 + 2] * 2


class TestBoundChain:
    """Lower bound <= exhaustive, lower bound <= item-wise <= m * exhaustive."""

    def test_on_seeded_neural_mechanisms(self):
        grid = ra.GridSpec(50)
        for n, m in [(1, 2), (2, 2)]:
            setting = ra.AuctionSetting(n, m)
            for mech_seed in (1, 11, 14):
                mech = ra.NeuralMechanism(ra.generate_neural_spec(setting, 16, mech_seed))
                for sample in range(15):
                    profile = uniform_profile(setting, sample, 4242)
                    for bidder in range(n):
                        lb = ra.lower_bound_regret(mech, profile, bidder, grid).value
                        ex = ra.exhaustive_regret(mech, profile, bidder, grid).value
                        iw = ra.item_wise_regret(mech, profile, bidder, grid).value
                        assert lb <= ex, f"lower bound {lb} above exhaustive {ex}"
                        assert lb <= iw
                        assert iw <= m * ex + 1e-12

    def test_separability_equality_for_first_price(self):
        grid = ra.GridSpec(20)
        setting = ra.AuctionSetting(2, 3)
        mech = ra.PerItemFirstPriceAuction(setting)
        for sample in range(10):
            profile = uniform_profile(setting, sample, 23)
            for bidder in range(2):
                ex = ra.exhaustive_regret(mech, profile, bidder, grid).value
                iw = ra.item_wise_regret(mech, profile, bidder, grid).value
                assert iw == pytest.approx(ex, abs=1e-12)

    def test_refinement_monotonicity(self, setting_2x2, neural_2x2):
        # the coarse inclusive grid is a subset of the doubled grid
        for sample in range(10):
            profile = uniform_profile(setting_2x2, sample, 29)
            coarse = ra.exhaustive_regret(neural_2x2, profile, 0, ra.GridSpec(25)).value
            fine = ra.exhaustive_regret(neural_2x2, profile, 0, ra.GridSpec(50)).value
            assert fine >= coarse - 1e-12

    def test_values_nonnegative_everywhere(self, setting_2x2, neural_2x2):
        grid = ra.GridSpec(10)
        for sample in range(20):
            profile = uniform_profile(setting_2x2, sample, 31)
            ests = [est for bidder in range(2) for est in (
                ra.exhaustive_regret(neural_2x2, profile, bidder, grid),
                *(ra.item_regret(neural_2x2, profile, bidder, item, grid) for item in range(2)),
                ra.lower_bound_regret(neural_2x2, profile, bidder, grid),
                ra.item_wise_regret(neural_2x2, profile, bidder, grid))]
            assert all(e.value >= 0.0 for e in ests)
            for e in ests:
                if e.best_misreport is not None:
                    assert e.best_misreport.min() >= 0.0 and e.best_misreport.max() <= 1.0


class TestGoldenOracle:
    """Frozen exhaustive oracle values for the seeded 2x2 mechanism."""

    def test_oracle_values_match(self):
        setting = ra.AuctionSetting(2, 2)
        mech = ra.NeuralMechanism(
            ra.generate_neural_spec(setting, GOLDEN["hidden_width"], GOLDEN["mech_seed"]))
        profile = np.array(GOLDEN["profile"])
        grid = ra.GridSpec(GOLDEN["oracle_q"])
        for bidder in range(2):
            est = ra.exhaustive_regret(mech, profile, bidder, grid)
            assert est.value == GOLDEN["oracle_values"][bidder]
            assert est.best_misreport.tolist() == GOLDEN["oracle_misreports"][bidder]


class TestDeterministicScan:
    def test_repeated_scans_identical(self, setting_2x2, neural_2x2):
        profile = uniform_profile(setting_2x2, 0, 7)
        a = ra.exhaustive_regret(neural_2x2, profile, 0, ra.GridSpec(30))
        b = ra.exhaustive_regret(neural_2x2, profile, 0, ra.GridSpec(30))
        assert a.value == b.value
        assert np.array_equal(a.best_misreport, b.best_misreport)

    def test_zero_gain_reports_truthful_row(self):
        # constant-utility mechanism: every misreport ties at zero gain
        from conftest import ConstantMechanism
        setting = ra.AuctionSetting(2, 2)
        mech = ConstantMechanism(setting)
        profile = uniform_profile(setting, 0, 7)
        est = ra.exhaustive_regret(mech, profile, 0, ra.GridSpec(4))
        assert est.value == 0.0
        assert est.best_misreport.tolist() == profile[0].tolist()

    def test_positive_ties_break_to_lexicographically_smallest(self):
        # a bid threshold creates a plateau of equally good misreports;
        # the scan must report the smallest one
        class ThresholdMechanism(ra.Mechanism):
            def _run_batch(self, batch):
                B, n, m = batch.shape
                alloc = np.zeros((B, n, m))
                alloc[:, 0, :] = (batch[:, 0, :] >= 0.5).astype(np.float64)
                pay = np.full((B, n), 0.05)
                return alloc, pay

        setting = ra.AuctionSetting(2, 1)
        mech = ThresholdMechanism(setting)
        profile = np.array([[0.1], [0.4]])
        est = ra.exhaustive_regret(mech, profile, 0, ra.GridSpec(10))
        assert est.value == pytest.approx(0.1, abs=1e-15)
        assert est.best_misreport.tolist() == [0.5]
        item = ra.item_regret(mech, profile, 0, 0, ra.GridSpec(10))
        assert item.best_misreport.tolist() == [0.5]

    def test_item_scans_of_more_items_than_numpy_has_dimensions(self):
        # an item scan of m items used to unravel its rows over m dimensions,
        # and numpy's cap of 64 raised a raw ValueError from m = 65 on
        class RowsFirstPrice(ra.PerItemFirstPriceAuction):
            _product_utilities = ra.Mechanism._product_utilities

        setting = ra.AuctionSetting(2, 70)
        profile = uniform_profile(setting, 0, 3)
        terms = ra.item_wise_regret(ra.PerItemFirstPriceAuction(setting), profile, 1,
                                    ra.GridSpec(4))
        rows = ra.item_wise_regret(RowsFirstPrice(setting), profile, 1, ra.GridSpec(4))
        assert terms.value > 0.0
        assert (terms.value, terms.mech_evals) == (rows.value, rows.mech_evals)
        assert ra.lower_bound_regret(ra.SecondPriceAuction(setting), profile, 1,
                                     ra.GridSpec(4)).value == 0.0


#: every single-cell entry, as call(mech, profile, bidder) on first price 2x2, q=4
SINGLE_CELL_ENTRIES = {
    "exhaustive_regret": lambda mech, p, b: ra.exhaustive_regret(mech, p, b, ra.GridSpec(4)),
    "item_regret": lambda mech, p, b: ra.item_regret(mech, p, b, 0, ra.GridSpec(4)),
    "lower_bound_regret": lambda mech, p, b: ra.lower_bound_regret(mech, p, b, ra.GridSpec(4)),
    "item_wise_regret": lambda mech, p, b: ra.item_wise_regret(mech, p, b, ra.GridSpec(4)),
    "random_restart_pga": lambda mech, p, b: ra.random_restart_pga(
        mech, p, b, ra.PgaConfig(0.1, 3, 5), 0),
    "guided_refinement": lambda mech, p, b: ra.guided_refinement(
        mech, p, b, ra.GridSpec(4), ra.PortfolioConfig(refine=ra.PgaConfig(0.1, 1, 5)), 0),
    "pga_single": lambda mech, p, b: ra.pga_single(mech, p, b, [0.5, 0.5], 0.1, 5),
    "utility": lambda mech, p, b: ra.utility(mech, p[0], p, b),
}


def _result_key(result):
    """What a result reports, wall-clock time aside."""
    if isinstance(result, ra.RegretEstimate):
        result = (result.method, result.bidder, result.value, result.best_misreport,
                  result.mech_evals, result.gradient_steps, result.flagged)
    if isinstance(result, tuple):
        return tuple(r.tolist() if isinstance(r, np.ndarray) else r for r in result)
    return result


@pytest.mark.parametrize("entry", SINGLE_CELL_ENTRIES)
class TestSingleCellBidder:
    """A single-cell entry takes one integer bidder: an array of one bidder
    is refused before any evaluation, not read as one bidder per row."""

    @pytest.mark.parametrize("bidder", [np.array(0), np.array([0])], ids=repr)
    def test_arrays_refused_before_any_evaluation(self, entry, bidder):
        # np.array(0) used to run the estimators in full (guided here spent 91
        # evaluations) before the record refused it; np.array([0]) raised raw
        # numpy errors or reported a bidder shape of (2, 1)
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
        profile = uniform_profile(mech.setting, 0, 7)
        with pytest.raises(ra.InvalidInputError, match="bidder must be an integer"):
            SINGLE_CELL_ENTRIES[entry](mech, profile, bidder)
        assert mech.evaluations == 0

    def test_integers_agree(self, entry):
        mech = ra.PerItemFirstPriceAuction(ra.AuctionSetting(2, 2))
        profile = uniform_profile(mech.setting, 0, 7)
        results = [SINGLE_CELL_ENTRIES[entry](mech, profile, b) for b in (0, np.int64(0))]
        assert _result_key(results[0]) == _result_key(results[1])
