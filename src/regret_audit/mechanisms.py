"""Auction data model, the mechanism interface, and the built-in mechanisms.

Bids and valuations are (n, m) float64 arrays with entries in [0, 1]. A
mechanism maps a bid profile to an (n, m) allocation matrix (per-item
probabilities, with an implicit dummy share absorbing the remainder) and a
length-n vector of nonnegative payments. Mechanisms are pure: identical
inputs produce bitwise-identical outputs.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import rng
from .errors import (InvalidConfigError, InvalidInputError, MechanismLoadError, check_int,
                     check_type)

FD_STEP = 1e-5

SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AuctionSetting:
    """Bidder and item counts; the bid domain is [0, 1] per item."""

    n: int
    m: int

    def __post_init__(self):
        check_int(self.n, "n", 1)
        check_int(self.m, "m", 1)


def as_floats(value, what: str) -> np.ndarray:
    """``value`` as a float64 array, else InvalidInputError naming ``what``:
    ragged nesting and non-numeric entries do not convert."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be a numeric array: {exc}") from exc


def _check_values(arr: np.ndarray, what: str) -> None:
    """Raise InvalidInputError unless every entry is in [0, 1]; NaN fails both tests."""
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise InvalidInputError(f"{what} must be finite and lie in [0, 1]")


def as_profile(values, setting: AuctionSetting) -> np.ndarray:
    """Validate and return an (n, m) float64 bid/valuation profile."""
    check_type(setting, "setting", AuctionSetting)
    return check_query(setting, [values], 0)[0][0]


def check_query(setting: AuctionSetting, profile, bidder, rows=None, valuation_row=None):
    """The checked float64 ``(profile, rows, v)`` of a mechanism query, else
    InvalidInputError; ``rows`` are returned as given, None when omitted. A
    query is

    * ``profile``: one (n, m) profile, or one per row, (B, n, m);
    * ``bidder``: an int, or one per row;
    * ``rows``: (B, m) candidate bid rows in [0, 1]; without them the rows
      are each profile's row of its bidder, so ``profile`` must be a stack
      (one profile is checked as the stack ``[profile]``);
    * ``valuation_row``: (m,) or (B, m) in [0, 1]; by default each row's
      truthful row.

    The exported entries check their arguments here, once; code below them
    calls the mechanism's hooks with the checked arrays.
    """
    n, m = setting.n, setting.m
    profile = as_floats(profile, "profile")
    if rows is None:
        B = len(profile) if profile.ndim == 3 else 0
        forms = ((B, n, m),)
    else:
        rows = as_floats(rows, "misreport rows")
        if rows.ndim != 2 or rows.shape[1] != m:
            raise InvalidInputError(f"misreport rows shape {rows.shape} != (B, {m})")
        B = len(rows)
        forms = ((n, m), (B, n, m))
    if profile.shape not in forms:
        want = f"a stack (B, {n}, {m})" if rows is None else f"({n}, {m}) or ({B}, {n}, {m})"
        raise InvalidInputError(f"profile shape {profile.shape} does not match {want}")
    index = np.asarray(bidder)
    if not (index.dtype.kind in "iu" and ((index >= 0) & (index < n)).all()):
        raise InvalidInputError(f"bidder {bidder} out of range for n={n}")
    if index.shape not in ((), (B,)):
        raise InvalidInputError(f"bidder shape {index.shape} != ({B},): one per row")
    _check_values(profile, "profile entries")
    if rows is not None and rows.size and not (rows.min() >= 0.0 and rows.max() <= 1.0):
        i = int(np.argmin(((rows >= 0.0) & (rows <= 1.0)).all(axis=1)))
        raise InvalidInputError(f"misreport row {rows[i].tolist()} of bidder "
                                f"{np.broadcast_to(bidder, (B,))[i]} is not in [0, 1]")
    if valuation_row is None:
        return profile, rows, np.broadcast_to(profile, (B, n, m))[np.arange(B), bidder]
    v = as_floats(valuation_row, "valuation row")
    if v.shape not in ((m,), (B, m)):
        raise InvalidInputError(f"valuation row shape {v.shape} != ({m},) or ({B}, {m})")
    _check_values(v, "valuations")
    return profile, rows, v


class Mechanism:
    """Deterministic auction mechanism over (n, m) bid profiles.

    Instances are immutable after construction and may be evaluated from many
    workers at once; the evaluation counter is the only mutable state and is
    incremented under a lock, by exactly one per evaluated profile and by
    each evaluation charged, not run (see ``evaluations``).

    A subclass implements ``_run_batch``, and may override ``_gradient_batch``
    with an analytic gradient, ``_misreport_utilities`` with a direct formula
    for one bidder's utilities and ``_product_utilities`` with one over a
    product grid, so that each profile's result is bitwise independent of the
    rest of its batch. Audits group the rows of many (sample, bidder) searches
    into one call, and which rows share a call depends on the worker count;
    only row independence makes reports equal for every worker count and
    equal to the standalone estimator functions. The hooks receive checked
    arguments. A ``_misreport_utilities`` override must equal the default up
    to rounding (see ``SecondPriceAuction``) and charge one evaluation per
    row; a ``_product_utilities`` override must give the default's bits and
    charge one evaluation per product row. A subclass that replaces
    ``_run_batch`` gets the default of every other hook it does not define
    itself: an inherited override describes its parent's ``_run_batch``, not
    this one.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_run_batch" in cls.__dict__:
            for hook in ("_gradient_batch", "_misreport_utilities", "_product_utilities"):
                if hook not in cls.__dict__:
                    setattr(cls, hook, getattr(Mechanism, hook))

    def __init__(self, setting: AuctionSetting):
        check_type(setting, "setting", AuctionSetting)
        self.setting = setting
        self._evals = 0
        self._eval_lock = threading.Lock()

    @property
    def evaluations(self) -> int:
        """Evaluations charged so far: one per evaluated profile, gradient
        passes included. One that a cost formula counts but no estimate reads
        is charged, not run: each an ascent row skips once it retires at a
        fixed point (``optimizer._ascend``), and a grid scan's off-grid
        truthful slot (``estimators``). So the count can exceed the profiles
        the mechanism actually evaluated."""
        return self._evals

    def _charge(self, count: int) -> None:
        """Add ``count`` run or charged evaluations (see ``evaluations``)."""
        with self._eval_lock:
            self._evals += count

    def utility_and_gradient_many(self, batch, bidder, valuation_row):
        """Utilities (B,) and their gradients (B, m) w.r.t. each row's bidder's
        own bid row of a (B, n, m) batch; ``bidder`` and ``valuation_row`` as
        in ``check_query``. Checks the arguments and calls ``_gradient_batch``."""
        batch, _, v = check_query(self.setting, batch, bidder, valuation_row=valuation_row)
        return self._gradient_batch(batch, bidder, v)

    def _gradient_batch(self, batch: np.ndarray, bidder, v: np.ndarray):
        """Central finite differences, 2m+1 evaluations per profile in one
        ``_misreport_utilities`` call; an analytic gradient overrides this
        hook and ``_charge``s its passes."""
        return _fd_utilities(self, batch, bidder, batch[np.arange(len(batch)), bidder], v)

    def _misreport_utilities(self, profile: np.ndarray, bidder, rows: np.ndarray,
                             v: np.ndarray) -> np.ndarray:
        """Utilities (B,) of candidate rows in [0, 1], each for its bidder with
        valuation ``v`` (one row or one per row), others as in its profile
        (shapes as in ``rows_to_profiles``); one evaluation per row."""
        alloc, pay = self.run_many(rows_to_profiles(profile, bidder, rows))
        own = np.arange(rows.shape[0]), bidder
        return (alloc[own] * v).sum(axis=1) - pay[own]

    def _product_utilities(self, profile: np.ndarray, bidder: int, axes, v: np.ndarray):
        """One bidder's utilities over the lexicographic product of ``axes``
        (one array of points in [0, 1] per coordinate), with valuation row
        ``v``, as a function ``utilities(start, stop)`` of a range of the
        product's rows; one evaluation per row. The default builds the rows
        (``_lex_rows``) and calls ``_misreport_utilities``; an override gives
        the same bits, and does its per-scan work once, in this call."""
        return lambda start, stop: self._misreport_utilities(
            profile, bidder, _lex_rows(axes, start, stop), v)

    def run(self, bids) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate one bid profile, returning (allocation, payments)."""
        alloc, pay = self.run_many([bids])
        return alloc[0], pay[0]

    def run_many(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate a (B, n, m) stack of bid profiles; counts B evaluations.

        Equivalent to B independent ``run`` calls: every built-in computes each
        batch row independently, so results do not depend on the batch layout.
        """
        batch = check_query(self.setting, batch, 0)[0]  # every setting has a bidder 0
        alloc, pay = self._run_batch(batch)
        self._charge(batch.shape[0])
        return alloc, pay

    def _run_batch(self, batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class SecondPriceAuction(Mechanism):
    """Per-item second price: the highest bid wins (ties go to the lowest
    bidder index) and pays the second-highest bid, or 0 when n == 1.

    Truthful bidding is a dominant strategy, so every regret estimator must
    report zero on this mechanism. Misreport utilities sum per-item surplus
    w * (v - p) rather than sum(w * v) - sum(w * p): truthful surplus is
    largest per item and float sums are monotone, so rounding never gains.
    Over a product grid each item's surplus takes one value per point, so a
    scan adds those terms instead of evaluating rows.
    """

    def _run_batch(self, batch):
        B, n, m = batch.shape
        # argmax returns the first maximum, i.e. the lowest bidder index
        winners = np.argmax(batch, axis=1)
        alloc = (np.arange(n)[None, :, None] == winners[:, None, :]).astype(np.float64)
        if n == 1:
            price = np.zeros((B, m))
        else:
            price = np.partition(batch, n - 2, axis=1)[:, n - 2, :]
        pay = (alloc * price[:, None, :]).sum(axis=2)
        return alloc, pay

    def _misreport_utilities(self, profile, bidder, rows, v):
        w, omax = _wins(profile, bidder, rows)
        self._charge(rows.shape[0])
        price = omax if self.setting.n > 1 else np.zeros_like(omax)
        return (w * (v - price)).sum(axis=1)

    def _product_utilities(self, profile, bidder, axes, v):
        wins, omax = _axis_wins(profile, bidder, axes)
        gap = v - (omax if self.setting.n > 1 else np.zeros_like(omax))
        surplus = [w * gap[j] for j, w in enumerate(wins)]
        return lambda start, stop: _product_sums(self, start, stop, surplus)[0]


class PerItemFirstPriceAuction(Mechanism):
    """Per-item first price: the highest bid wins (ties go to the lowest
    bidder index) and pays its own bid. Not incentive compatible; because the
    items never interact, item-wise regret equals the joint optimum. Over a
    product grid, as for second price, a scan adds per-item terms: each
    item's won value and its payment, summed apart as ``_misreport_utilities``
    sums them.
    """

    def _run_batch(self, batch):
        B, n, m = batch.shape
        winners = np.argmax(batch, axis=1)
        alloc = (np.arange(n)[None, :, None] == winners[:, None, :]).astype(np.float64)
        pay = (alloc * batch).sum(axis=2)
        return alloc, pay

    def _misreport_utilities(self, profile, bidder, rows, v):
        w, _ = _wins(profile, bidder, rows)
        self._charge(rows.shape[0])
        return (w * v).sum(axis=1) - (w * rows).sum(axis=1)

    def _product_utilities(self, profile, bidder, axes, v):
        wins, _ = _axis_wins(profile, bidder, axes)
        won = [w * v[j] for j, w in enumerate(wins)]
        paid = [w * axis for w, axis in zip(wins, axes)]
        return lambda start, stop: np.subtract(*_product_sums(self, start, stop, won, paid))


def _wins(profile: np.ndarray, bidder, rows: np.ndarray):
    """The highest-bid-wins allocation of each row's bidder, as ``(w, omax)``:
    the (B, m) float64 win mask and the others' per-item maximum bid.

    The others' maximum and its owner, the lowest other bidder holding it,
    are computed once for one profile and one bidder, else once per row. A
    row wins item j iff it bids above the maximum, or ties it while its
    bidder's index is below the owner's: the lowest-index tie-break of
    ``argmax`` over the full profile. A tie wins exactly when the bid is
    above the next float below the maximum, so one comparison decides both.
    """
    bidder = np.expand_dims(bidder, -1)
    others = np.where((np.arange(profile.shape[-2]) == bidder)[..., None], -np.inf, profile)
    omax = others.max(axis=-2)
    tie_wins = bidder < others.argmax(axis=-2)
    threshold = np.where(tie_wins, np.nextafter(omax, -np.inf), omax)
    return (rows > threshold).astype(np.float64), omax


def _axis_wins(profile: np.ndarray, bidder: int, axes):
    """``_wins`` of every axis's points on its own item, in one call on the
    stacked per-axis rows (row t holds point t of each axis that long): the
    win mask of each axis's points, and the others' per-item maximum bid."""
    rows = np.zeros((max(len(axis) for axis in axes), len(axes)))
    for j, axis in enumerate(axes):
        rows[:len(axis), j] = axis
    w, omax = _wins(profile, bidder, rows)
    return [w[:len(axis), j] for j, axis in enumerate(axes)], omax


def _product_index(sizes, start: int, stop: int):
    """The shape (copies, *block sizes) of rows ``start`` to ``stop`` of the
    lexicographic product of axes of ``sizes``, and each axis's point
    indices, shaped to broadcast to it.

    An axis of one point takes index 0 and adds no dimension, so an item
    scan's shape has at most two, whatever m. Over the other axes, the range
    is whole copies of a trailing block, the product of the last axes; with
    the largest such block the leading axes' indices have one entry per copy,
    shape (copies, 1, ...), and the block's axes are aranges on their own
    dimensions.
    """
    varying = [k for k, size in enumerate(sizes) if size > 1]
    spans = [sizes[k] for k in varying]
    lead = len(spans)
    while lead and not (start % math.prod(spans[lead - 1:]) or
                        (stop - start) % math.prod(spans[lead - 1:])):
        lead -= 1
    block = math.prod(spans[lead:])
    shape = ((stop - start) // block, *spans[lead:])
    ones = (1,) * (len(spans) - lead)
    leading = np.unravel_index(np.arange(start // block, stop // block), spans[:lead]) if lead else ()
    spanned = [i.reshape((-1,) + ones) for i in leading] + [
        np.arange(size).reshape((1,) + ones[:d] + (size,) + ones[d + 1:])
        for d, size in enumerate(spans[lead:])]
    index = [np.zeros(1, dtype=np.intp)] * len(sizes)
    for k, i in zip(varying, spanned):
        index[k] = i
    return shape, index


def _lex_rows(axes, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop`` of the lexicographic product of ``axes``:
    one broadcast assignment per coordinate, so a trailing block is tiled
    under its leading coordinates (``_product_index``)."""
    shape, index = _product_index([len(axis) for axis in axes], start, stop)
    rows = np.empty(shape + (len(axes),))
    for k, (axis, i) in enumerate(zip(axes, index)):
        rows[..., k] = axis[i]
    return rows.reshape(-1, len(axes))


def _row_sum(terms):
    """The sum of ``terms``, arrays that broadcast together, in the order in
    which numpy's ``sum(axis=1)`` adds a contiguous row of them, and so with
    its bits: from +0.0 (never a -0.0 sum); below 8 terms in order; up to
    128 in eight strided accumulators t[k] + t[k+8] + ..., reduced as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in order; above
    128 as two halves, the first a multiple of 8 long."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(terms[:half]) + _row_sum(terms[half:])
    total = 0.0
    if n >= 8:
        r = list(terms[:8])
        for i in range(8, n - n % 8, 8):
            r = [a + b for a, b in zip(r, terms[i:i + 8])]
        total = total + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
        terms = terms[n - n % 8:]
    for term in terms:
        total = total + term
    return total


def _product_sums(mech: Mechanism, start: int, stop: int, *terms):
    """Per row ``start`` to ``stop`` of a lexicographic product, the
    ``_row_sum`` of its points' entries in each of ``terms`` (per axis, one
    entry per point of the axis); charges one evaluation per row."""
    _, index = _product_index([len(term) for term in terms[0]], start, stop)
    mech._charge(stop - start)
    return [_row_sum([term[i] for term, i in zip(per_axis, index)]).reshape(-1)
            for per_axis in terms]


BUILTIN_MECHANISMS = {
    "second_price": SecondPriceAuction,
    "first_price": PerItemFirstPriceAuction,
}


#: the largest (K+1)·O·B buffer that ``_affine`` reduces in one call; above it the
#: per-feature loop is mostly faster. A sweep over the neural layers' (K, O) shapes
#: (4, 16), (16, 8), (6, 16), (16, 2) and (30, 30), B from 1 to 4096, on a 2-core
#: Xeon with 2 MB of L2: up to 6.5e4 elements the reduce took 0.11-0.92 of the
#: loop's time, from 8e4 on 0.89-1.9 and 4.7 at 3.8e6. In us, loop -> reduce: (16, 8)
#: at B=48 29 -> 12, (4, 16) at B=48 11.4 -> 8.3 and at B=4096 145 -> 269.
_AFFINE_REDUCE_MAX = 1 << 16


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # out[j] = b[j] + sum_k w[k, j] * x[k], feature-major: x (K, B), b (O, 1), w (K, O, 1)
    # or (K, O, B) per column. Adding in increasing k instead of a BLAS matmul keeps
    # each column bitwise independent of the batch, which the exact-equality
    # invariants (restart nesting, guided >= lower bound) rely on. Small batches
    # stack b and the K products into one (K+1, O, B) buffer and reduce its outer
    # axis, which numpy does by in-order accumulation: the loop's bits, in three
    # calls. The reduce starts from -0.0, not its default 0.0, which would turn a
    # -0.0 bias into 0.0. When O·B == 1 numpy collapses the buffer to the reduced
    # axis and sums it pairwise (different bits from eight terms on), so that case
    # keeps the loop.
    (K, B), O = x.shape, b.shape[0]
    if O * B != 1 and (K + 1) * O * B <= _AFFINE_REDUCE_MAX:
        terms = np.empty((K + 1, O, B))
        terms[0] = b
        np.multiply(w, x[:, None, :], out=terms[1:])
        return np.add.reduce(terms, axis=0, initial=-0.0)
    out = np.repeat(b, B, axis=1)
    term = np.empty_like(out)
    for w_k, x_k in zip(w, x):
        np.multiply(w_k, x_k, out=term)
        out += term
    return out


#: each neural spec weight array, in draw order, and its shape for (n, m, hidden width)
_SPEC_SHAPES = {
    "weights_in": lambda n, m, h: (n * m, h),
    "bias_in": lambda n, m, h: (h,),
    "weights_alloc": lambda n, m, h: (h, (n + 1) * m),
    "bias_alloc": lambda n, m, h: ((n + 1) * m,),
    "weights_pay": lambda n, m, h: (h, n),
    "bias_pay": lambda n, m, h: (n,),
}


@dataclass(frozen=True, eq=False)
class NeuralMechanismSpec:
    """Weights of a fixed feedforward softmax mechanism (never trained).

    Forward pass: h = tanh(flat(bids) @ W_in + b_in); allocation scores are
    reshaped to (n+1, m) and column-softmaxed (row n is the unallocated dummy
    share); payments are sigmoid(h @ W_pay + b_pay) times the bidder's
    reported value of its allocation, which keeps payments nonnegative. The
    constructor stores each weight array as float64 and raises
    MechanismLoadError naming the first of the wrong shape or non-finite.
    """

    setting: AuctionSetting
    hidden_width: int
    weights_in: np.ndarray
    bias_in: np.ndarray
    weights_alloc: np.ndarray
    bias_alloc: np.ndarray
    weights_pay: np.ndarray
    bias_pay: np.ndarray

    def __post_init__(self):
        check_type(self.setting, "setting", AuctionSetting, MechanismLoadError)
        check_int(self.hidden_width, "hidden_width", 1)
        n, m, h = self.setting.n, self.setting.m, self.hidden_width
        for field_name, shape_of in _SPEC_SHAPES.items():
            arr = np.asarray(getattr(self, field_name), dtype=np.float64)
            object.__setattr__(self, field_name, arr)
            if arr.shape != shape_of(n, m, h):
                raise MechanismLoadError(
                    f"{field_name} has shape {arr.shape}, expected {shape_of(n, m, h)} "
                    f"for setting {n}x{m} with hidden width {h}"
                )
            if not np.all(np.isfinite(arr)):
                raise MechanismLoadError(f"{field_name} contains non-finite entries")

    def __eq__(self, other):
        if not isinstance(other, NeuralMechanismSpec):
            return NotImplemented
        return spec_to_dict(self) == spec_to_dict(other)


def generate_neural_spec(setting: AuctionSetting, hidden_width: int, seed: int) -> NeuralMechanismSpec:
    """Draw all weights i.i.d. uniform on [-1, 1] from the weight stream.

    The same seed always yields a bitwise-identical spec; draw order is
    W_in, b_in, W_alloc, b_alloc, W_pay, b_pay.
    """
    check_type(setting, "setting", AuctionSetting)
    check_int(hidden_width, "hidden_width", 1)
    g = rng.spawn_generator(seed, rng.STREAM_WEIGHTS)
    return NeuralMechanismSpec(setting, hidden_width, **{
        f: g.uniform(-1.0, 1.0, size=shape_of(setting.n, setting.m, hidden_width))
        for f, shape_of in _SPEC_SHAPES.items()})


def spec_to_dict(spec: NeuralMechanismSpec) -> dict:
    return {
        "format_version": SPEC_FORMAT_VERSION,
        "setting": {"n": spec.setting.n, "m": spec.setting.m},
        "hidden_width": spec.hidden_width,
        # row-major nested lists; json round-trips float64 exactly via repr
        **{f: getattr(spec, f).tolist() for f in _SPEC_SHAPES},
    }


def spec_from_dict(data: dict) -> NeuralMechanismSpec:
    check_format(data, "mechanism spec", SPEC_FORMAT_VERSION, MechanismLoadError)
    try:
        return NeuralMechanismSpec(
            setting=AuctionSetting(data["setting"]["n"], data["setting"]["m"]),
            hidden_width=data["hidden_width"],
            **{f: data[f] for f in _SPEC_SHAPES},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MechanismLoadError(f"malformed mechanism spec: {exc}") from exc


def write_json(data, path) -> None:
    """Write ``data`` as indented JSON with a trailing newline, numpy scalars
    as the Python numbers they hold. The text is built before the file is
    opened, so a value JSON cannot hold leaves the file as it was."""
    try:
        text = json.dumps(data, indent=2, default=_python_scalar) + "\n"
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _python_scalar(value):
    if not isinstance(value, np.generic):
        raise TypeError(f"a {type(value).__name__} is not JSON serializable")
    return value.item()


def read_json(path, what: str, error):
    """The JSON value stored at ``path``, else ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def check_format(data, what: str, version: int, error) -> None:
    """Raise ``error`` unless ``data`` is a JSON object of format ``version``."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object, got {type(data).__name__}")
    if type(data.get("format_version")) is not int or data["format_version"] != version:
        raise error(f"unsupported {what} format_version {data.get('format_version')!r}, "
                    f"expected {version}")


def write_neural_spec(spec: NeuralMechanismSpec, path) -> None:
    write_json(spec_to_dict(spec), path)


def read_neural_spec(path) -> NeuralMechanismSpec:
    return spec_from_dict(read_json(path, "mechanism spec", MechanismLoadError))


class NeuralMechanism(Mechanism):
    """Fixed-weight feedforward softmax mechanism with analytic gradients."""

    def __init__(self, spec: NeuralMechanismSpec):
        check_type(spec, "spec", NeuralMechanismSpec, MechanismLoadError)
        super().__init__(spec.setting)
        self.spec = spec
        n, m, h = spec.setting.n, spec.setting.m, spec.hidden_width
        # both heads read h: [W_alloc | W_pay], scores first
        self._w_out = np.concatenate([spec.weights_alloc, spec.weights_pay], axis=1)[:, :, None]
        self._b_out = np.concatenate([spec.bias_alloc, spec.bias_pay])[:, None]
        # (hidden, m, n): the input weights of each bidder's own bid row
        self._w_in_own = spec.weights_in.reshape(n, m, h).transpose(2, 1, 0).copy()
        # the backward pass adds 0.0 first, as the forward adds its bias: it turns a
        # leading -0.0 product into 0.0, as a batch-major sum from zeros does
        self._zero_h, self._zero_m = np.zeros((h, 1)), np.zeros((m, 1))

    def _forward(self, batch):
        B = batch.shape[0]
        n, m = self.setting.n, self.setting.m
        x = np.ascontiguousarray(batch.reshape(B, n * m).T)
        h = np.tanh(_affine(x, self.spec.weights_in[:, :, None], self.spec.bias_in[:, None]))
        out = _affine(h, self._w_out, self._b_out)
        scores = out[:(n + 1) * m].reshape(n + 1, m, B)
        e = np.exp(scores - scores.max(axis=0))
        # batch-major, one item's n+1 scores are contiguous and sum pairwise
        total = e.sum(axis=0) if m > 1 else np.ascontiguousarray(e[:, 0].T).sum(axis=1)
        g_full = e / total
        sig = np.ascontiguousarray((1.0 / (1.0 + np.exp(-out[(n + 1) * m:]))).T)
        alloc = np.ascontiguousarray(g_full[:n].transpose(2, 0, 1))
        # m-sums stay batch-major: numpy adds a contiguous axis pairwise from 8 terms on
        reported = (alloc * batch).sum(axis=2)
        pay = sig * reported
        return h, g_full, sig, reported, alloc, pay

    def _run_batch(self, batch):
        _, _, _, _, alloc, pay = self._forward(batch)
        return alloc, pay

    def _gradient_batch(self, batch, bidder, v):
        """The analytic gradient: one combined forward/backward pass per
        profile, charged as a single evaluation each."""
        B, n, m = batch.shape

        h, g_full, sig, reported, alloc, pay = self._forward(batch)
        self._charge(B)

        own = np.arange(B), bidder
        gb = alloc[own]
        sig_b = sig[own]
        u = (gb * v).sum(axis=1) - pay[own]

        # cotangent of the allocation scores: w_j * g_bj * (delta_rb - g_rj)
        wg = ((v - sig_b[:, None] * batch[own]) * gb).T
        d_scores = -wg * g_full
        d_scores.transpose(2, 0, 1)[own] += wg.T
        dudz = -sig_b * (1.0 - sig_b) * reported[own]

        cols = np.reshape(bidder, -1)  # each row's bidder: one column, or one per row
        r_h = _affine(d_scores.reshape((n + 1) * m, B),
                      self.spec.weights_alloc.T[:, :, None], self._zero_h)
        r_h += self.spec.weights_pay[:, cols] * dudz
        t = (1.0 - h * h) * r_h
        grad = np.ascontiguousarray(_affine(t, self._w_in_own[:, :, cols], self._zero_m).T)
        grad -= sig_b[:, None] * gb
        return u, grad


def rows_to_profiles(profile: np.ndarray, bidder, rows: np.ndarray) -> np.ndarray:
    """Stack copies of the profile with each row's bidder's row replaced by it.

    ``profile`` is one (n, m) profile or one per row, (B, n, m); ``bidder``
    is an int or a (B,) array of per-row bidders.
    """
    B = rows.shape[0]
    batch = np.broadcast_to(profile, (B,) + profile.shape[-2:]).copy()
    batch[np.arange(B), bidder] = rows
    return batch


def evaluate_misreports(mech: Mechanism, profile: np.ndarray, bidder,
                        rows: np.ndarray, valuation_row=None) -> np.ndarray:
    """Utilities of candidate bid rows, each for its bidder, others as in
    its profile; the arguments are a query as in ``check_query``.

    Costs one mechanism evaluation per candidate row, through the
    mechanism's ``_misreport_utilities``.
    """
    check_type(mech, "mech", Mechanism)
    profile, rows, v = check_query(mech.setting, profile, bidder, rows, valuation_row)
    return mech._misreport_utilities(profile, bidder, rows, v)


def fd_gradient_rows(mech: Mechanism, profile: np.ndarray, bidder,
                     rows: np.ndarray, valuation_row=None) -> np.ndarray:
    """Central finite-difference utility gradients for a stack of bid rows
    (a query as in ``evaluate_misreports``), at 2m+1 evaluations per row
    (see ``_fd_utilities``)."""
    check_type(mech, "mech", Mechanism)
    profile, rows, v = check_query(mech.setting, profile, bidder, rows, valuation_row)
    return _fd_utilities(mech, profile, bidder, rows, v)[1]


def _fd_utilities(mech: Mechanism, profile: np.ndarray, bidder, rows: np.ndarray,
                  v: np.ndarray):
    """Utilities (B,) of checked candidate rows and their central
    finite-difference gradients (B, m).

    Probe points are clamped to [0, 1], degrading to one-sided differences at
    the boundary. Each row and its 2m probes go to the mechanism's
    ``_misreport_utilities`` in one call, (2m+1)B rows in all.
    """
    B, m = rows.shape
    hi = np.minimum(rows + FD_STEP, 1.0)
    lo = np.maximum(rows - FD_STEP, 0.0)
    points = np.broadcast_to(rows[:, None, :], (B, 2 * m + 1, m)).copy()
    idx = np.arange(m)
    points[:, 1 + 2 * idx, idx] = hi
    points[:, 2 + 2 * idx, idx] = lo

    def per_point(a, ndim):
        """``a`` as is when it is one entry of ``ndim`` dimensions, else its
        entry of each row repeated for each of the row's 2m+1 points."""
        return a if np.ndim(a) == ndim else np.repeat(a, 2 * m + 1, axis=0)

    u = mech._misreport_utilities(per_point(profile, 2), per_point(bidder, 0),
                                  points.reshape(-1, m), per_point(v, 1)).reshape(B, 2 * m + 1)
    return u[:, 0], (u[:, 1::2] - u[:, 2::2]) / (hi - lo)


def utility(mech: Mechanism, valuation_row, bids, bidder: int) -> float:
    """Additive utility: sum_j v_j * g_[bidder,j](bids) - p_[bidder](bids)."""
    check_type(mech, "mech", Mechanism)
    profile, _, v = check_query(mech.setting, [bids], bidder, valuation_row=valuation_row)
    check_int(bidder, "bidder", 0)  # one bidder, not one per row of the stack [bids]
    alloc, pay = mech.run_many(profile)
    return float((alloc[0, bidder] * v).sum() - pay[0, bidder])


def utility_gradient(mech: Mechanism, valuation_row, bids, bidder: int) -> np.ndarray:
    """Gradient of the bidder's utility w.r.t. its own bid row: analytic where
    the mechanism overrides ``_gradient_batch``, else central finite
    differences with step 1e-5 and boundary clamping."""
    check_type(mech, "mech", Mechanism)
    profile, _, v = check_query(mech.setting, [bids], bidder, valuation_row=valuation_row)
    check_int(bidder, "bidder", 0)  # one bidder, not one per row of the stack [bids]
    return mech._gradient_batch(profile, bidder, v)[1][0]
