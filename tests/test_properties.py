"""Properties checked on generated inputs: batch invariance of the lockstep
ascent, and report equality across worker counts."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import regret_audit as ra
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
