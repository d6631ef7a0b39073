"""Properties checked on generated inputs: batch invariance of the lockstep
ascent, report equality across worker counts, restart nesting, monotone
grid refinement, the exact bound chain, and chunk invariance of the grid
scans."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import regret_audit as ra
from regret_audit import estimators
from regret_audit.optimizer import _ascend

from conftest import NanAboveAuction, uniform_profile

SETTING = ra.AuctionSetting(2, 2)
MECHANISMS = {
    "neural": lambda: ra.load_neural_mechanism(ra.generate_neural_spec(SETTING, 16, 42)),
    "first_price": lambda: ra.PerItemFirstPriceAuction(SETTING),
    # NaN utilities far above truthful bids freeze some rows
    "nan_above": lambda: NanAboveAuction(SETTING, threshold=1.2),
}
CELLS, ROWS_PER_CELL, STEPS = 4, 3, 12


def _batch():
    """Rows of four (sample, bidder) cells: profiles, bidders and starts."""
    profiles = np.stack([uniform_profile(SETTING, sample, 5) for sample in (0, 1)
                         for _ in range(2)])
    bidders = np.array([0, 1, 0, 1])
    starts = np.random.default_rng(9).random((CELLS * ROWS_PER_CELL, 2))
    owner = np.repeat(np.arange(CELLS), ROWS_PER_CELL)
    return profiles[owner], bidders[owner], starts


@st.composite
def regroupings(draw):
    """A permutation of the batch rows and cut points splitting it into groups."""
    size = CELLS * ROWS_PER_CELL
    order = draw(st.permutations(range(size)))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=4)))
    return np.array(order), [0, *cuts, size]


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(regrouping=regroupings())
def test_ascent_rows_bitwise_invariant_under_regrouping(name, regrouping):
    mech = MECHANISMS[name]()
    profiles, bidders, starts = _batch()
    whole = _ascend(mech, profiles, bidders, starts, 0.1, STEPS)
    order, cuts = regrouping
    parts = [_ascend(mech, profiles[order[lo:hi]], bidders[order[lo:hi]],
                     starts[order[lo:hi]], 0.1, STEPS)
             for lo, hi in zip(cuts[:-1], cuts[1:])]
    inverse = np.argsort(order)
    for got, want in zip((np.concatenate(arrays)[inverse] for arrays in zip(*parts)), whole):
        assert got.tobytes() == want.tobytes()


def _zero_wall(data):
    if isinstance(data, dict):
        return {k: 0.0 if k == "wall_seconds" else _zero_wall(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_zero_wall(v) for v in data]
    return data


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_reports_equal_across_worker_counts(seed, tmp_path_factory):
    # 5 samples: 2 workers split them 3 + 2, 3 workers 2 + 2 + 1
    out = tmp_path_factory.mktemp("workers")
    texts = []
    for workers in (1, 2, 3):
        cfg = ra.AuditRunConfig(
            setting=SETTING, mechanism=ra.generate_neural_spec(SETTING, 8, 42),
            distribution=ra.ValuationDistribution(), grid=ra.GridSpec(10),
            methods=("lower_bound", "item_wise", "pga", "guided"),
            pga=ra.PgaConfig(0.1, 3, 10),
            portfolio=ra.PortfolioConfig(k=1, sigma_opt=0.2, sigma_truth=0.2,
                                         refine=ra.PgaConfig(0.1, 1, 10)),
            samples=5, seed=seed, out=str(out / f"{workers}.json"))
        ra.run_audit(cfg, workers=workers)
        texts.append(json.dumps(_zero_wall(json.loads((out / f"{workers}.json").read_text())),
                                sort_keys=True))
    assert texts[0] == texts[1] == texts[2]


NEURAL = ra.generate_neural_spec(SETTING, 8, 42)
#: a (2, 2) profile with entries anywhere in [0, 1], ends included
profiles = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).map(
    lambda values: np.array(values).reshape(2, 2))


@settings(max_examples=10, deadline=None)
@given(profile=profiles, bidder=st.integers(0, 1), seed=st.integers(0, 2**31 - 1),
       big_l=st.integers(1, 4), more=st.integers(1, 4))
def test_pga_regret_nondecreasing_in_restarts(profile, bidder, seed, big_l, more):
    # start l comes from its own stream: L + more restarts contain the first L
    mech = ra.load_neural_mechanism(NEURAL)
    fewer = ra.random_restart_pga(mech, profile, bidder, ra.PgaConfig(0.1, big_l, 8), seed)
    most = ra.random_restart_pga(mech, profile, bidder, ra.PgaConfig(0.1, big_l + more, 8), seed)
    assert fewer.value <= most.value


@pytest.mark.parametrize("name", ["neural", "first_price"])
@settings(max_examples=10, deadline=None)
@given(profile=profiles, bidder=st.integers(0, 1), q=st.integers(1, 8))
def test_exhaustive_regret_nondecreasing_under_grid_doubling(name, profile, bidder, q):
    # the inclusive grid with 2q subdivisions contains every point of the q grid
    mech = MECHANISMS[name]()
    coarse = ra.exhaustive_regret(mech, profile, bidder, ra.GridSpec(q))
    fine = ra.exhaustive_regret(mech, profile, bidder, ra.GridSpec(2 * q))
    assert coarse.value <= fine.value


@settings(max_examples=10, deadline=None)
@given(profile=profiles, bidder=st.integers(0, 1), seed=st.integers(0, 2**31 - 1),
       q=st.integers(1, 30))
def test_bound_chain_is_exact(profile, bidder, seed, q):
    mech = ra.load_neural_mechanism(NEURAL)
    grid = ra.GridSpec(q)
    lower = ra.lower_bound_regret(mech, profile, bidder, grid).value
    for item in range(SETTING.m):
        assert ra.item_regret(mech, profile, bidder, item, grid).value <= lower
    assert lower <= ra.item_wise_regret(mech, profile, bidder, grid).value
    cfg = ra.PortfolioConfig(k=1, sigma_opt=0.3, sigma_truth=0.3, refine=ra.PgaConfig(0.1, 1, 8))
    assert lower <= ra.guided_refinement(mech, profile, bidder, grid, cfg, seed).value


def _capped_calls(mech, cap):
    """Record the rows of every run_many call of ``mech``; each must be at most ``cap``."""
    sizes = []
    run_many = mech.run_many

    def recording(batch, validate=True):
        sizes.append(len(batch))
        assert len(batch) <= cap
        return run_many(batch, validate)

    mech.run_many = recording
    return sizes


@pytest.mark.parametrize("name", ["neural", "first_price"])
@settings(max_examples=10, deadline=None)
@given(profile=profiles, bidder=st.integers(0, 1), q=st.integers(1, 25),
       chunk=st.sampled_from([2, 3, 7, 13]))
def test_grid_scans_invariant_under_chunk_size(name, profile, bidder, q, chunk):
    grid = ra.GridSpec(q)

    def scans():
        mech = MECHANISMS[name]()
        sizes = _capped_calls(mech, estimators._SCAN_CHUNK)
        exhaustive = ra.exhaustive_regret(mech, profile, bidder, grid)
        scan = estimators._scan_all_items(mech, profile, bidder, grid)
        return sizes, (exhaustive.value, exhaustive.best_misreport.tobytes(),
                       exhaustive.mech_evals, scan.gains.tobytes(), scan.coords.tobytes(),
                       scan.evaluations)

    _, whole = scans()
    with mock.patch.object(estimators, "_SCAN_CHUNK", chunk):
        sizes, chunked = scans()
    assert chunked == whole
    assert max(sizes) <= chunk
