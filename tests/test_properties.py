"""Properties checked on generated inputs: batch invariance of the lockstep
ascent, retired ascent rows against the full-batch loop, report equality
across worker counts, restart nesting, monotone grid refinement, the exact
bound chain, chunk invariance of the grid scans,
the built-in auctions' direct misreport utilities, their and the neural
mechanism's product-grid utilities and scans of the kept product, against
the default path, and the closed-form grid regret, the one-call
finite-difference gradient against separately evaluated probes, the neural
affine layer against its in-order loop, the feature-major neural kernel
against a batch-major reference and its gradient pass's utilities against
its misreport utilities, report reading under mutation, and the search's
tie-break among equal best utilities."""

import copy
import json
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import regret_audit as ra
from regret_audit import estimators
from regret_audit.mechanisms import _AFFINE_REDUCE_MAX, _affine, _lex_rows, _row_sum
from regret_audit.optimizer import _ascend, _best_candidate
from regret_audit.report import report_to_dict

from conftest import ConstantMechanism, NanAboveAuction, uniform_profile

SETTING = ra.AuctionSetting(2, 2)
MECHANISMS = {
    "neural": lambda: ra.NeuralMechanism(ra.generate_neural_spec(SETTING, 16, 42)),
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
    whole_charge = mech.evaluations
    order, cuts = regrouping
    parts = [_ascend(mech, profiles[order[lo:hi]], bidders[order[lo:hi]],
                     starts[order[lo:hi]], 0.1, STEPS)
             for lo, hi in zip(cuts[:-1], cuts[1:])]
    inverse = np.argsort(order)
    for got, want in zip((np.concatenate(arrays)[inverse] for arrays in zip(*parts)), whole):
        assert got.tobytes() == want.tobytes()
    # rows retire at different steps in each grouping; the charge stays per row
    assert mech.evaluations - whole_charge == whole_charge


def _full_batch_ascend(mech, profiles, bidders, starts, gamma, steps):
    """The ascent without retirement, the reference for ``_ascend``: every
    row pays a mechanism call at every step, fixed point or not."""
    x = np.clip(np.asarray(starts, dtype=np.float64), 0.0, 1.0).copy()
    v = profiles[np.arange(x.shape[0]), bidders]

    def evaluate(rows, last):
        if last:
            return mech._misreport_utilities(profiles, bidders, rows, v), None
        return mech.utility_and_gradient_many(
            ra.mechanisms.rows_to_profiles(profiles, bidders, rows), bidders, v)

    u, g = evaluate(x, steps == 0)
    best_u, best_x = u.copy(), x.copy()
    frozen = np.zeros(x.shape[0], dtype=bool)
    for step in range(1, steps + 1):
        frozen |= ~np.isfinite(g).all(axis=1)
        g[frozen] = 0.0
        x = np.clip(x + gamma * g, 0.0, 1.0)
        u, g = evaluate(x, step == steps)
        improved = u > best_u
        best_u = np.where(improved, u, best_u)
        best_x[improved] = x[improved]
    return best_x, best_u, frozen


RETIRING = {**MECHANISMS, "second_price": lambda: ra.SecondPriceAuction(SETTING)}


@st.composite
def ascents(draw):
    """``_ascend``'s arguments after the mechanism: rows whose profiles and
    starts often hold box corners and ties, where rows sit at fixed points,
    a step size from creeping to overshooting, and 0 to 12 steps."""
    size = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))

    def block(*shape):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(entry, min_size=count, max_size=count))).reshape(shape)

    bidders = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    return (block(size, 2, 2), bidders, block(size, 2),
            draw(st.sampled_from([0.001, 0.1, 1.0, 10.0])), draw(st.integers(0, 12)))


@pytest.mark.parametrize("name", sorted(RETIRING))
@settings(max_examples=40, deadline=None)
@given(ascent=ascents())
def test_retiring_rows_changes_no_bit_and_no_count(name, ascent):
    # neural (analytic), first and second price (finite differences, the
    # latter flat almost everywhere) and NaN above a bid (frozen rows)
    retiring, full = RETIRING[name](), RETIRING[name]()
    got = _ascend(retiring, *ascent)
    want = _full_batch_ascend(full, *ascent)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert retiring.evaluations == full.evaluations


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
    # run_audit starts at most one worker per CPU; pretend there are 3 so each split runs
    with mock.patch("os.cpu_count", return_value=3):
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
    mech = ra.NeuralMechanism(NEURAL)
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
    mech = ra.NeuralMechanism(NEURAL)
    grid = ra.GridSpec(q)
    lower = ra.lower_bound_regret(mech, profile, bidder, grid).value
    for item in range(SETTING.m):
        assert ra.item_regret(mech, profile, bidder, item, grid).value <= lower
    assert lower <= ra.item_wise_regret(mech, profile, bidder, grid).value
    cfg = ra.PortfolioConfig(k=1, sigma_opt=0.3, sigma_truth=0.3, refine=ra.PgaConfig(0.1, 1, 8))
    assert lower <= ra.guided_refinement(mech, profile, bidder, grid, cfg, seed).value


def _capped_calls(mech, cap):
    """Record the rows of every _misreport_utilities call of ``mech``; each
    must be at most ``cap``."""
    sizes = []
    hook = mech._misreport_utilities

    def recording(profile, bidder, rows, v):
        sizes.append(len(rows))
        assert len(rows) <= cap
        return hook(profile, bidder, rows, v)

    mech._misreport_utilities = recording
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


BUILTINS = {"first_price": ra.PerItemFirstPriceAuction, "second_price": ra.SecondPriceAuction}


@st.composite
def misreport_calls(draw):
    """(mechanism, profile, bidder, rows, v) in one of the four argument forms,
    with every value on a grid of eighths so that bids tie often."""
    n, m, size = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    per_row_profile, per_row_bidder, per_row_v = (draw(st.booleans()) for _ in range(3))

    def coarse(shape):
        return np.array(draw(st.lists(st.integers(0, 8), min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape) / 8

    mech = BUILTINS[draw(st.sampled_from(sorted(BUILTINS)))](ra.AuctionSetting(n, m))
    profile = coarse((size, n, m) if per_row_profile else (n, m))
    bidder = (np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
              if per_row_bidder else draw(st.integers(0, n - 1)))
    return mech, profile, bidder, coarse((size, m)), coarse((size, m) if per_row_v else (m,))


@settings(max_examples=300, deadline=None)
@given(call=misreport_calls())
def test_builtin_misreport_utilities_bitwise_equal_default(call):
    mech, profile, bidder, rows, v = call
    fast = mech._misreport_utilities(profile, bidder, rows, v)
    assert mech.evaluations == len(rows)
    default = ra.Mechanism._misreport_utilities(mech, profile, bidder, rows, v)
    assert mech.evaluations == 2 * len(rows)
    assert fast.tobytes() == default.tobytes()


def product_mechanisms(setting):
    """A factory of a mechanism with its own ``_product_utilities`` for
    ``setting``: a built-in auction, or a neural mechanism of hidden width
    1-20 and any weight seed."""
    specs = st.builds(ra.generate_neural_spec, st.just(setting), st.integers(1, 20),
                      st.integers(0, 2**31 - 1))
    auctions = [partial(BUILTINS[name], setting) for name in sorted(BUILTINS)]
    return st.one_of(st.sampled_from(auctions),
                     specs.map(lambda spec: partial(ra.NeuralMechanism, spec)))


def _every_row(make):
    """The mechanism ``make`` builds, scanning through the default
    ``_product_utilities``: it builds every row."""
    mech = make()
    mech._product_utilities = partial(ra.Mechanism._product_utilities, mech)
    return mech


@st.composite
def product_calls(draw):
    """(mechanism, profile, bidder, axes, start, stop) for a
    ``_product_utilities`` override: values on a grid of eighths, so that
    bids tie, the bidder's row sometimes off it, the axes of an exhaustive
    scan or of one item's scan (the other coordinates truthful singletons),
    and a range of at most 300 rows, sometimes whole copies of a trailing
    block."""
    n, m, q = draw(st.integers(1, 4)), draw(st.integers(1, 10)), draw(st.integers(1, 7))

    def values(count, value):
        return np.array(draw(st.lists(value, min_size=count, max_size=count)))

    mech = draw(product_mechanisms(ra.AuctionSetting(n, m)))()
    profile = values(n * m, st.integers(0, 8)).reshape(n, m) / 8
    bidder = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        profile[bidder] = values(m, st.floats(0.0, 1.0))
    points = ra.GridSpec(q, draw(st.sampled_from(estimators.GRID_STYLES))).points
    item = draw(st.one_of(st.none(), st.integers(0, m - 1)))
    axes = [points if item in (None, k) else profile[bidder, k:k + 1] for k in range(m)]
    sizes = [len(axis) for axis in axes]
    block = draw(st.sampled_from([1] + [b for b in (int(np.prod(sizes[k:])) for k in range(m))
                                        if b <= 300]))
    copies = int(np.prod(sizes)) // block
    start = draw(st.integers(0, copies - 1))
    stop = draw(st.integers(start + 1, min(copies, start + 300 // block)))
    return mech, profile, bidder, axes, start * block, stop * block


def _neural_call(profile, bidder, width, seed, q, item, start, stop):
    """A ``product_calls`` draw of a neural mechanism: ``item``'s scan, or
    the exhaustive one when None, at the inclusive grid of ``q``."""
    profile = np.array(profile)
    mech = ra.NeuralMechanism(ra.generate_neural_spec(ra.AuctionSetting(*profile.shape),
                                                      width, seed))
    points = ra.GridSpec(q).points
    axes = [points if item in (None, k) else profile[bidder, k:k + 1]
            for k in range(profile.shape[1])]
    return mech, profile, bidder, axes, start, stop


@settings(max_examples=400, deadline=None)
@given(call=product_calls())
# guided_default's item scan: 1001 rows put the output layer above the reduce cutoff
@example(call=_neural_call([[0.3, 0.6], [0.55, 0.2]], 0, 16, 42, 1000, 0, 0, 1001))
# m >= 8: numpy sums the m items pairwise
@example(call=_neural_call(np.arange(27).reshape(3, 9) / 27, 1, 7, 3, 2, None, 972, 1215))
# one item and n + 1 >= 8 outcomes: the softmax total is a pairwise sum
@example(call=_neural_call(np.arange(7).reshape(7, 1) / 8, 4, 5, 4, 7, None, 0, 8))
# hidden width 1, on a range that is no whole copy of a block
@example(call=_neural_call([[0.5, 0.25, 1.0, 0.0], [0.125, 0.75, 0.5, 0.5]], 1, 1, 5, 3,
                           None, 5, 77))
# the bidder's row off the grid: its singleton coordinates are off-grid constants
@example(call=_neural_call([[0.5, 0.25, 1.0], [0.3, 0.71, 0.05], [0.0, 0.375, 0.5]], 1, 9, 6,
                           4, 1, 0, 5))
# -0.0 entries, the bidder's truthful singleton among them
@example(call=_neural_call([[-0.0, 0.5], [0.25, -0.0]], 1, 16, 7, 4, 0, 0, 5))
def test_builtin_product_utilities_bitwise_equal_default(call):
    # the broadcast sums add per-item terms in numpy's row-sum order: a sum
    # in item order differs from eight items on, and one not started from
    # +0.0 gave second price -0.0 where the rows give 0.0. The override
    # keeps some points of each axis, its first among them, and each row of
    # the full product has its bits at its representative: each coordinate
    # at the last kept point at or before it on its axis. The neural
    # override keeps every point and adds its input layer in product form
    mech, profile, bidder, axes, start, stop = call
    v = profile[bidder]
    every, default = ra.Mechanism._product_utilities(mech, profile, bidder, axes, v)
    assert every is axes
    want = default(start, stop)
    assert mech.evaluations == stop - start
    kept, fast = mech._product_utilities(profile, bidder, axes, v)
    for axis, points in zip(axes, kept):
        assert points[0] == axis[0] and np.isin(points, axis).all()
        assert (np.diff(points) > 0).all()
    rows = _lex_rows(axes, start, stop)
    at = np.ravel_multi_index([np.searchsorted(points, rows[:, k], side="right") - 1
                               for k, points in enumerate(kept)],
                              [len(points) for points in kept])
    # each run of consecutive representatives in one range
    reps = np.unique(at)
    parts = []
    for run in np.split(reps, np.flatnonzero(np.diff(reps) > 1) + 1):
        evals = mech.evaluations
        parts.append(fast(run[0], run[-1] + 1))
        assert mech.evaluations == evals + len(run)
    got = np.concatenate(parts)[np.searchsorted(reps, at)]
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), rows=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_row_sum_adds_in_numpy_row_sum_order(n, rows, seed):
    # past 128 terms numpy halves the row; the product scans reach such sums
    # only in item scans of m > 128 items, which the property above omits
    g = np.random.default_rng(seed)
    terms = g.standard_normal((rows, n)) * 10.0 ** g.integers(-8, 8, (rows, n))
    terms[g.random((rows, n)) < 0.3] = -0.0
    got = _row_sum([terms[:, k] for k in range(n)])
    assert got.tobytes() == terms.sum(axis=1).tobytes()


def _capped_ranges(mech, cap):
    """Record the length of every range asked of the ``_product_utilities``
    of ``mech``; each must be at most ``cap``."""
    sizes = []
    hook = mech._product_utilities

    def recording(profile, bidder, axes, v):
        kept, utilities = hook(profile, bidder, axes, v)

        def capped(start, stop):
            sizes.append(stop - start)
            assert stop - start <= cap
            return utilities(start, stop)
        return kept, capped

    mech._product_utilities = recording
    return sizes


@pytest.mark.parametrize("name", sorted(BUILTINS) + ["neural"])
@settings(max_examples=10, deadline=None)
@given(profile=profiles, bidder=st.integers(0, 1), q=st.integers(1, 25),
       chunk=st.sampled_from([2, 3, 7, 13]),
       spec=st.tuples(st.integers(1, 20), st.integers(0, 2**31 - 1)))
def test_product_scans_invariant_under_chunk_size(name, profile, bidder, q, chunk, spec):
    grid = ra.GridSpec(q)

    def scans():
        mech = (ra.NeuralMechanism(ra.generate_neural_spec(SETTING, *spec)) if name == "neural"
                else BUILTINS[name](SETTING))
        sizes = _capped_ranges(mech, estimators._SCAN_CHUNK)
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


@st.composite
def scan_cells(draw):
    """(mechanism factory, profile, bidder, grid) for a scan: values on a
    grid of eighths, so that bids tie, the bidder's row sometimes off it."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    profile = np.array(draw(st.lists(st.integers(0, 8), min_size=n * m,
                                     max_size=n * m))).reshape(n, m) / 8
    bidder = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        profile[bidder] = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    grid = ra.GridSpec(draw(st.integers(1, 7)), draw(st.sampled_from(estimators.GRID_STYLES)))
    return draw(product_mechanisms(ra.AuctionSetting(n, m))), profile, bidder, grid


@settings(max_examples=150, deadline=None)
@given(cell=scan_cells())
def test_builtin_scans_equal_scans_of_every_row(cell):
    # the built-in overrides drop points whose rows repeat an earlier row's
    # bits, and the neural one keeps every point; a scan of the kept product
    # reports and charges what a scan of every row through the default hook
    # does
    make, profile, bidder, grid = cell

    def scans(mech):
        exhaustive = ra.exhaustive_regret(mech, profile, bidder, grid)
        scan = estimators._scan_all_items(mech, profile, bidder, grid)
        return (exhaustive.value, exhaustive.best_misreport.tobytes(), exhaustive.mech_evals,
                scan.gains.tobytes(), scan.coords.tobytes(), scan.evaluations, mech.evaluations)

    assert scans(make()) == scans(_every_row(make))


FD_MECHANISMS = {**BUILTINS, "constant": ConstantMechanism}


@st.composite
def gradient_calls(draw):
    """(mechanism, (B, n, m) batch, bidder, valuation) for the inherited
    finite-difference hook, with some bids on the box's faces."""
    n, m, size = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    g = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    batch = g.random((size, n, m))
    batch[g.random(batch.shape) < 0.2] = 0.0
    batch[g.random(batch.shape) < 0.2] = 1.0
    bidder = g.integers(0, n, size) if draw(st.booleans()) else int(g.integers(0, n))
    v = g.random((size, m) if draw(st.booleans()) else m)
    mech = FD_MECHANISMS[draw(st.sampled_from(sorted(FD_MECHANISMS)))](ra.AuctionSetting(n, m))
    return mech, batch, bidder, v


@settings(max_examples=60, deadline=None)
@given(call=gradient_calls())
def test_fd_gradient_is_one_hook_call_of_each_row_and_its_probes(call):
    mech, batch, bidder, v = call
    B, _, m = batch.shape
    sizes = _capped_calls(mech, (2 * m + 1) * B)
    u, grad = mech.utility_and_gradient_many(batch, bidder, v)
    assert sizes == [(2 * m + 1) * B]
    assert mech.evaluations == (2 * m + 1) * B
    # the reference: the rows, then each item's clamped probes, in separate calls
    own = (slice(None), bidder) if np.ndim(bidder) == 0 else (np.arange(B), bidder)
    rows = batch[own]
    assert u.tobytes() == ra.evaluate_misreports(mech, batch, bidder, rows, v).tobytes()
    want = np.empty((B, m))
    for j in range(m):
        hi, lo = rows.copy(), rows.copy()
        hi[:, j] = np.minimum(rows[:, j] + 1e-5, 1.0)
        lo[:, j] = np.maximum(rows[:, j] - 1e-5, 0.0)
        want[:, j] = ((ra.evaluate_misreports(mech, batch, bidder, hi, v)
                       - ra.evaluate_misreports(mech, batch, bidder, lo, v))
                      / (hi[:, j] - lo[:, j]))
    assert grad.tobytes() == want.tobytes()


@st.composite
def grid_cases(draw):
    """A small setting, a profile on a grid of eighths or anywhere in [0, 1],
    a bidder and a grid."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    value = st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0))
    profile = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m))).reshape(n, m)
    return ra.AuctionSetting(n, m), profile, draw(st.integers(0, n - 1)), draw(st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(case=grid_cases())
# second price used to give regret 1.39e-17 here: sum(w * v) - sum(w * p)
# rounded differently for different sets of won items
@example(case=(ra.AuctionSetting(2, 2), np.array([[0.25, 0.05], [0.25, 0.0]]), 0, 1))
def test_exhaustive_regret_matches_closed_form(case):
    setting, profile, bidder, q = case
    grid = ra.GridSpec(q)
    # first price: bid, on each item worth it, the smallest grid point that
    # wins it; ties go to the lowest bidder index
    others = np.delete(profile, bidder, axis=0)
    expected = 0.0
    for j, v in enumerate(profile[bidder]):
        wins = [p for p in grid.points
                if all(p > b or (p == b and bidder < i + (i >= bidder))
                       for i, b in enumerate(others[:, j]))]
        if wins:
            expected += max(0.0, v - wins[0])
    first = ra.exhaustive_regret(ra.PerItemFirstPriceAuction(setting), profile, bidder, grid)
    assert first.value == pytest.approx(expected, rel=0.0, abs=1e-12)
    second = ra.exhaustive_regret(ra.SecondPriceAuction(setting), profile, bidder, grid)
    assert second.value == 0.0


@pytest.mark.parametrize("name, expected", [("first_price", [0.125, 0.25]),
                                            ("second_price", [0.375, 0.375])])
def test_run_batch_override_falls_back_to_run_many(name, expected):
    class Shaded(BUILTINS[name]):
        """The built-in's allocation with every payment halved."""

        def _run_batch(self, batch):
            alloc, pay = super()._run_batch(batch)
            return alloc, pay / 2

    assert Shaded._misreport_utilities is ra.Mechanism._misreport_utilities
    mech = Shaded(ra.AuctionSetting(2, 2))
    profile = np.array([[0.5, 0.25], [0.25, 0.5]])
    rows = np.array([[0.75, 0.0], [0.5, 0.5]])
    with mock.patch.object(mech, "run_many", wraps=mech.run_many) as run_many:
        utils = ra.evaluate_misreports(mech, profile, 0, rows)
    assert run_many.call_count == 1
    # both rows win item 0; the second ties item 1 and wins it on the lower index
    assert utils.tolist() == expected


def _loop_affine(x, w, b):
    """``_affine`` as a loop over the K features: b, then each product in order."""
    out = np.repeat(b, x.shape[1], axis=1)
    term = np.empty_like(out)
    for w_k, x_k in zip(w, x):
        np.multiply(w_k, x_k, out=term)
        out += term
    return out


def _signed(g, shape):
    """Normal draws over twelve decades, so that the order of the additions
    shows in the bits, with some entries 0.0 and some -0.0."""
    a = g.standard_normal(shape) * 10.0 ** g.integers(-6, 7, shape)
    a[g.random(shape) < 0.1] = 0.0
    a[g.random(shape) < 0.1] = -0.0
    return a


@st.composite
def affine_cases(draw):
    """(K, O, B, per-row weights, seed)."""
    return (draw(st.integers(0, 20)), draw(st.integers(1, 12)), draw(st.integers(0, 40)),
            draw(st.booleans()), draw(st.integers(0, 2**31 - 1)))


#: a batch of K + 1 = 8 terms with O = 1 fills the cutoff at B = CUT
CUT = _AFFINE_REDUCE_MAX // 8


@settings(max_examples=200, deadline=None)
@given(case=affine_cases())
@example(case=(5, 3, 0, False, 1))
@example(case=(5, 3, 1, True, 2))
# a -0.0 bias and no terms: numpy's add.reduce starts from 0.0 by default
@example(case=(0, 1, 2, False, 0))
# O·B == 1 with K + 1 >= 8 terms: numpy would sum the terms pairwise
@example(case=(12, 1, 1, False, 3))
@example(case=(7, 1, 1, True, 4))
# the neural 2x2 h16 output layer on each side of the cutoff, and per-row weights above it
@example(case=(16, 8, 48, False, 5))
@example(case=(16, 8, 1001, False, 6))
@example(case=(16, 2, 4096, True, 7))
@example(case=(7, 1, CUT - 1, False, 8))
@example(case=(7, 1, CUT, True, 9))
@example(case=(7, 1, CUT + 1, False, 10))
def test_affine_bitwise_equal_in_order_loop(case):
    K, O, B, per_row, seed = case
    g = np.random.default_rng(seed)
    x, w, b = _signed(g, (K, B)), _signed(g, (K, O, B if per_row else 1)), _signed(g, (O, 1))
    got, want = _affine(x, w, b), _loop_affine(x, w, b)
    assert got.shape == want.shape == (O, B) and got.tobytes() == want.tobytes()


def _batch_major_affine(x, w, b):
    out = np.tile(b, (x.shape[0], 1))
    for k in range(w.shape[0]):
        out += x[:, k, None] * w[k]
    return out


class BatchMajorNeural(ra.NeuralMechanism):
    """The neural passes with activations kept (B, features), a reference
    for the feature-major kernel: the same products, added in the same order."""

    def _forward(self, batch):
        spec, (B, n, m) = self.spec, batch.shape
        h = np.tanh(_batch_major_affine(batch.reshape(B, n * m), spec.weights_in, spec.bias_in))
        scores = _batch_major_affine(h, spec.weights_alloc, spec.bias_alloc).reshape(B, n + 1, m)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        g_full = e / e.sum(axis=1, keepdims=True)
        sig = 1.0 / (1.0 + np.exp(-_batch_major_affine(h, spec.weights_pay, spec.bias_pay)))
        alloc = g_full[:, :n, :]
        reported = (alloc * batch).sum(axis=2)
        return h, g_full, sig, reported, alloc, sig * reported

    def _run_batch(self, batch):
        return self._forward(batch)[4:]

    def _gradient_batch(self, batch, bidder, v):
        spec, (B, n, m) = self.spec, batch.shape
        h, g_full, sig, reported, alloc, pay = self._forward(batch)
        self._charge(B)
        own = (slice(None), bidder) if np.ndim(bidder) == 0 else (np.arange(B), bidder)
        gb, sig_b = g_full[own], sig[own]
        u = (alloc[own] * v).sum(axis=1) - pay[own]
        w = v - sig_b[:, None] * batch[own]
        d_scores = -(w * gb)[:, None, :] * g_full
        d_scores[own] += w * gb
        dudz = -sig_b * (1.0 - sig_b) * reported[own]
        d_flat = d_scores.reshape(B, (n + 1) * m)
        r_h = np.zeros((B, spec.hidden_width))
        for c in range(d_flat.shape[1]):
            r_h += d_flat[:, c, None] * spec.weights_alloc[None, :, c]
        r_h += dudz[:, None] * spec.weights_pay.T[bidder]
        t = (1.0 - h * h) * r_h
        w_in_own = spec.weights_in.reshape(n, m, spec.hidden_width).transpose(0, 2, 1)
        own_w_in = np.broadcast_to(w_in_own[bidder], (B, spec.hidden_width, m))
        grad = np.zeros((B, m))
        for a in range(t.shape[1]):
            grad += t[:, a, None] * own_w_in[:, a, :]
        grad -= sig_b[:, None] * gb
        return u, grad


@st.composite
def kernel_cases(draw):
    """(n, m, hidden width, B, spec seed, per-row bidders, per-row valuations)."""
    return (draw(st.integers(1, 4)), draw(st.integers(1, 10)), draw(st.integers(1, 20)),
            draw(st.sampled_from([1, 2, 48, 1001])), draw(st.integers(0, 2**31 - 1)),
            draw(st.booleans()), draw(st.booleans()))


def _kernel_query(case):
    """The (B, n, m) batch, with some bids 0.0, and the bidder and valuation
    of a ``kernel_cases`` draw."""
    n, m, _, B, seed, per_row_bidder, per_row_v = case
    g = np.random.default_rng(seed)
    batch = g.random((B, n, m))
    batch[g.random(batch.shape) < 0.1] = 0.0
    bidder = g.integers(0, n, B) if per_row_bidder else int(g.integers(0, n))
    return batch, bidder, g.random((B, m) if per_row_v else m)


@settings(max_examples=40, deadline=None)
@given(case=kernel_cases())
# m >= 8: numpy sums the m items pairwise, which only a contiguous axis matches
@example(case=(2, 9, 16, 1001, 3, True, False))
@example(case=(3, 10, 5, 48, 4, False, True))
# one item and n + 1 >= 8 outcomes: the softmax total is a pairwise sum too
@example(case=(8, 1, 6, 48, 5, True, True))
# hidden width 1 and one row: the input layer's 8 + 1 terms reach a single output
@example(case=(2, 4, 1, 1, 6, False, False))
# at B = 1001 the output layer's buffer is above the reduce cutoff, the others below
@example(case=(4, 10, 1, 1001, 7, True, True))
# an ascent call: the gradient pass picks each row's bidder's outputs alone
@example(case=(3, 2, 16, 48, 8, True, False))
@example(case=(4, 2, 16, 48, 9, False, True))
def test_neural_kernel_bitwise_equal_batch_major(case):
    n, m, width, B, seed, per_row_bidder, per_row_v = case
    spec = ra.generate_neural_spec(ra.AuctionSetting(n, m), width, seed)
    kernel, reference = ra.NeuralMechanism(spec), BatchMajorNeural(spec)
    batch, bidder, v = _kernel_query(case)
    for got, want in zip(kernel.run_many(batch), reference.run_many(batch)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got, want in zip(kernel.utility_and_gradient_many(batch, bidder, v),
                         reference.utility_and_gradient_many(batch, bidder, v)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert kernel.evaluations == reference.evaluations == 2 * B


@settings(max_examples=40, deadline=None)
@given(case=kernel_cases())
@example(case=(2, 9, 16, 1001, 3, True, False))
@example(case=(8, 1, 6, 48, 5, True, True))
@example(case=(3, 2, 16, 48, 8, True, False))
def test_neural_gradient_utilities_bitwise_equal_misreport_utilities(case):
    # the ascent's best-so-far compares the gradient pass's utilities with
    # those of _misreport_utilities, which its last step calls
    n, m, width, B, seed, _, _ = case
    mech = ra.NeuralMechanism(ra.generate_neural_spec(ra.AuctionSetting(n, m), width, seed))
    batch, bidder, v = _kernel_query(case)
    u, _ = mech._gradient_batch(batch, bidder, v)
    rows = batch[np.arange(B), bidder]
    assert u.tobytes() == mech._misreport_utilities(batch, bidder, rows, v).tobytes()


GOLDEN_REPORT = json.loads(
    (Path(__file__).parent / "data" / "report_neural_2x2_seed42.json").read_text())


def _report_paths(node, path=()):
    """Every node of a report's JSON tree but the free-form ``config``."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        if path or key != "config":
            yield from _report_paths(child, path + (key,))


DELETE = object()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_report_paths(GOLDEN_REPORT))),
       mutation=st.sampled_from([DELETE, "junk", [], {}, float("nan"), -1]))
def test_mutated_report_is_rejected_or_equal(path, mutation, tmp_path):
    root = {"report": copy.deepcopy(GOLDEN_REPORT)}
    path = ("report",) + path
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    if mutation is not DELETE:
        parent[path[-1]] = mutation
    elif isinstance(parent, dict) and len(path) > 1:
        del parent[path[-1]]
    else:
        return  # only keys of the report's objects can go
    data = root["report"]
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(data))
    try:
        loaded = ra.read_report(target)
    except ra.ReportFormatError:
        return
    assert report_to_dict(loaded) == GOLDEN_REPORT


@st.composite
def candidate_sets(draw):
    """Best utilities and rows drawn from a few values, so that utilities and
    rows tie often; a lone maximum is drawn as well."""
    size, m = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    utils = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25]), min_size=size, max_size=size))
    rows = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m),
                         min_size=size, max_size=size))
    return np.array(utils), np.array(rows)


@settings(max_examples=200, deadline=None)
@given(case=candidate_sets())
@example(case=(np.array([0.0, 0.25, 0.0]), np.array([[0.0], [1.0], [0.5]])))
def test_best_candidate_is_the_lexicographically_smallest_maximum(case):
    utils, rows = case
    top = [i for i in range(len(utils)) if utils[i] == utils.max()]
    smallest = min(tuple(rows[i]) for i in top)
    win = _best_candidate(utils, rows)
    assert win in top and tuple(rows[win]) == smallest
    # equal rows among the maxima: the first of them wins
    assert win == min(i for i in top if tuple(rows[i]) == smallest)
