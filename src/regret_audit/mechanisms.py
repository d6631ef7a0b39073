"""Auction data model, the mechanism interface, and the built-in mechanisms.

Bids and valuations are (n, m) float64 arrays with entries in [0, 1]. A
mechanism maps a bid profile to an (n, m) allocation matrix (per-item
probabilities, with an implicit dummy share absorbing the remainder) and a
length-n vector of nonnegative payments. Mechanisms are pure: identical
inputs produce bitwise-identical outputs.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import rng
from .errors import InvalidInputError, MechanismLoadError

FD_STEP = 1e-5

SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AuctionSetting:
    """Bidder and item counts; the bid domain is [0, 1] per item."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidInputError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")


def as_profile(values, setting: AuctionSetting) -> np.ndarray:
    """Validate and return an (n, m) float64 bid/valuation profile."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (setting.n, setting.m):
        raise InvalidInputError(
            f"profile shape {arr.shape} does not match setting ({setting.n}, {setting.m})"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("profile entries must be finite")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InvalidInputError("profile entries must lie in [0, 1]")
    return arr


def check_bidder(setting: AuctionSetting, bidder) -> None:
    """Raise InvalidInputError unless ``bidder`` (an int or an array of
    per-row indices) names bidders of the setting."""
    index = np.asarray(bidder)
    if index.size and (index.min() < 0 or index.max() >= setting.n):
        raise InvalidInputError(f"bidder {bidder} out of range for n={setting.n}")


class Mechanism:
    """Deterministic auction mechanism over (n, m) bid profiles.

    Instances are immutable after construction and may be evaluated from many
    workers at once; the evaluation counter is the only mutable state and is
    incremented under a lock, by exactly one per evaluated profile.

    A subclass implements ``_run_batch`` (and, with an analytic gradient,
    ``utility_and_gradient_many``) so that each profile's result is bitwise
    independent of the rest of its batch. Audits group the rows of many
    (sample, bidder) searches into one call, and which rows share a call
    depends on the worker count; only row independence makes reports equal
    for every worker count and equal to the standalone estimator functions.
    """

    #: provides utility_and_gradient_many instead of finite differences
    has_analytic_gradient = False

    def __init__(self, setting: AuctionSetting):
        self.setting = setting
        self._evals = 0
        self._eval_lock = threading.Lock()

    @property
    def evaluations(self) -> int:
        """Total profiles evaluated so far (gradient passes included)."""
        return self._evals

    def _charge(self, count: int) -> None:
        with self._eval_lock:
            self._evals += count

    def _check_batch(self, batch, validate: bool) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        n, m = self.setting.n, self.setting.m
        if batch.ndim != 3 or batch.shape[1:] != (n, m):
            raise InvalidInputError(
                f"bid batch shape {batch.shape} does not match (B, {n}, {m})"
            )
        if validate and batch.size:
            if not np.all(np.isfinite(batch)):
                raise InvalidInputError("bids must be finite")
            if batch.min() < 0.0 or batch.max() > 1.0:
                raise InvalidInputError("bids must lie in [0, 1]")
        return batch

    def run(self, bids, validate: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate one bid profile, returning (allocation, payments)."""
        alloc, pay = self.run_many(np.asarray(bids, dtype=np.float64)[None, ...], validate=validate)
        return alloc[0], pay[0]

    def run_many(self, batch, validate: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate a (B, n, m) stack of bid profiles; counts B evaluations.

        Equivalent to B independent ``run`` calls: every built-in computes each
        batch row independently, so results do not depend on the batch layout.
        """
        batch = self._check_batch(batch, validate)
        alloc, pay = self._run_batch(batch)
        self._charge(batch.shape[0])
        return alloc, pay

    def _run_batch(self, batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class SecondPriceAuction(Mechanism):
    """Per-item second price: the highest bid wins (ties go to the lowest
    bidder index) and pays the second-highest bid, or 0 when n == 1.

    Truthful bidding is a dominant strategy, so every regret estimator must
    report zero on this mechanism.
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


class PerItemFirstPriceAuction(Mechanism):
    """Per-item first price: the highest bid wins (ties go to the lowest
    bidder index) and pays its own bid. Not incentive compatible; because the
    items never interact, item-wise regret equals the joint optimum.
    """

    def _run_batch(self, batch):
        B, n, m = batch.shape
        winners = np.argmax(batch, axis=1)
        alloc = (np.arange(n)[None, :, None] == winners[:, None, :]).astype(np.float64)
        pay = (alloc * batch).sum(axis=2)
        return alloc, pay


BUILTIN_MECHANISMS = {
    "second_price": SecondPriceAuction,
    "first_price": PerItemFirstPriceAuction,
}


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Fixed-order accumulation instead of a BLAS matmul: each output row is
    # then bitwise independent of the batch size, which the exact-equality
    # invariants (restart nesting, guided >= lower bound) rely on.
    out = np.tile(b, (x.shape[0], 1))
    for k in range(w.shape[0]):
        out += x[:, k, None] * w[k]
    return out


@dataclass(frozen=True, eq=False)
class NeuralMechanismSpec:
    """Weights of a fixed feedforward softmax mechanism (never trained).

    Forward pass: h = tanh(flat(bids) @ W_in + b_in); allocation scores are
    reshaped to (n+1, m) and column-softmaxed (row n is the unallocated dummy
    share); payments are sigmoid(h @ W_pay + b_pay) times the bidder's
    reported value of its allocation, which keeps payments nonnegative.
    """

    setting: AuctionSetting
    hidden_width: int
    weights_in: np.ndarray
    bias_in: np.ndarray
    weights_alloc: np.ndarray
    bias_alloc: np.ndarray
    weights_pay: np.ndarray
    bias_pay: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, NeuralMechanismSpec):
            return NotImplemented
        return (
            self.setting == other.setting
            and self.hidden_width == other.hidden_width
            and all(
                np.array_equal(getattr(self, f), getattr(other, f))
                for f in _SPEC_ARRAY_FIELDS
            )
        )


_SPEC_ARRAY_FIELDS = (
    "weights_in",
    "bias_in",
    "weights_alloc",
    "bias_alloc",
    "weights_pay",
    "bias_pay",
)


def validate_neural_spec(spec: NeuralMechanismSpec) -> None:
    """Raise MechanismLoadError naming the first offending dimension."""
    n, m, h = spec.setting.n, spec.setting.m, spec.hidden_width
    if h < 1:
        raise MechanismLoadError(f"hidden_width must be >= 1, got {h}")
    expected = {
        "weights_in": (n * m, h),
        "bias_in": (h,),
        "weights_alloc": (h, (n + 1) * m),
        "bias_alloc": ((n + 1) * m,),
        "weights_pay": (h, n),
        "bias_pay": (n,),
    }
    for field_name, shape in expected.items():
        arr = getattr(spec, field_name)
        if arr.shape != shape:
            raise MechanismLoadError(
                f"{field_name} has shape {arr.shape}, expected {shape} "
                f"for setting {n}x{m} with hidden width {h}"
            )
        if not np.all(np.isfinite(arr)):
            raise MechanismLoadError(f"{field_name} contains non-finite entries")


def generate_neural_spec(setting: AuctionSetting, hidden_width: int, seed: int) -> NeuralMechanismSpec:
    """Draw all weights i.i.d. uniform on [-1, 1] from the weight stream.

    The same seed always yields a bitwise-identical spec; draw order is
    W_in, b_in, W_alloc, b_alloc, W_pay, b_pay.
    """
    if hidden_width < 1:
        raise InvalidInputError(f"hidden_width must be >= 1, got {hidden_width}")
    g = rng.spawn_generator(seed, rng.STREAM_WEIGHTS)
    n, m, h = setting.n, setting.m, hidden_width
    return NeuralMechanismSpec(
        setting=setting,
        hidden_width=h,
        weights_in=g.uniform(-1.0, 1.0, size=(n * m, h)),
        bias_in=g.uniform(-1.0, 1.0, size=h),
        weights_alloc=g.uniform(-1.0, 1.0, size=(h, (n + 1) * m)),
        bias_alloc=g.uniform(-1.0, 1.0, size=(n + 1) * m),
        weights_pay=g.uniform(-1.0, 1.0, size=(h, n)),
        bias_pay=g.uniform(-1.0, 1.0, size=n),
    )


def spec_to_dict(spec: NeuralMechanismSpec) -> dict:
    return {
        "format_version": SPEC_FORMAT_VERSION,
        "setting": {"n": spec.setting.n, "m": spec.setting.m},
        "hidden_width": spec.hidden_width,
        # row-major nested lists; json round-trips float64 exactly via repr
        **{f: getattr(spec, f).tolist() for f in _SPEC_ARRAY_FIELDS},
    }


def spec_from_dict(data: dict) -> NeuralMechanismSpec:
    version = data.get("format_version")
    if version != SPEC_FORMAT_VERSION:
        raise MechanismLoadError(
            f"unsupported mechanism spec format_version {version!r}, expected {SPEC_FORMAT_VERSION}"
        )
    try:
        setting = AuctionSetting(int(data["setting"]["n"]), int(data["setting"]["m"]))
        spec = NeuralMechanismSpec(
            setting=setting,
            hidden_width=int(data["hidden_width"]),
            **{f: np.asarray(data[f], dtype=np.float64) for f in _SPEC_ARRAY_FIELDS},
        )
    except (KeyError, TypeError) as exc:
        raise MechanismLoadError(f"malformed mechanism spec: {exc}") from exc
    validate_neural_spec(spec)
    return spec


def write_neural_spec(spec: NeuralMechanismSpec, path) -> None:
    validate_neural_spec(spec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def read_neural_spec(path) -> NeuralMechanismSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MechanismLoadError(f"cannot read mechanism spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MechanismLoadError(f"mechanism spec {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(data)


class NeuralMechanism(Mechanism):
    """Fixed-weight feedforward softmax mechanism with analytic gradients."""

    has_analytic_gradient = True
    def __init__(self, spec: NeuralMechanismSpec):
        validate_neural_spec(spec)
        super().__init__(spec.setting)
        self.spec = spec
        self._w_in = np.asarray(spec.weights_in, dtype=np.float64)
        self._b_in = np.asarray(spec.bias_in, dtype=np.float64)
        self._w_alloc = np.asarray(spec.weights_alloc, dtype=np.float64)
        self._b_alloc = np.asarray(spec.bias_alloc, dtype=np.float64)
        self._w_pay = np.asarray(spec.weights_pay, dtype=np.float64)
        self._b_pay = np.asarray(spec.bias_pay, dtype=np.float64)
        n, m, h = spec.setting.n, spec.setting.m, spec.hidden_width
        # per bidder, the (hidden, m) input weights of its own bid row
        self._w_in_own = self._w_in.reshape(n, m, h).transpose(0, 2, 1).copy()

    def _forward(self, batch):
        B = batch.shape[0]
        n, m = self.setting.n, self.setting.m
        x = batch.reshape(B, n * m)
        h = np.tanh(_affine(x, self._w_in, self._b_in))
        scores = _affine(h, self._w_alloc, self._b_alloc).reshape(B, n + 1, m)
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        g_full = e / e.sum(axis=1, keepdims=True)
        sig = 1.0 / (1.0 + np.exp(-_affine(h, self._w_pay, self._b_pay)))
        alloc = g_full[:, :n, :]
        reported = (alloc * batch).sum(axis=2)
        pay = sig * reported
        return h, g_full, sig, reported, alloc, pay

    def _run_batch(self, batch):
        _, _, _, _, alloc, pay = self._forward(batch)
        return alloc, pay

    def utility_and_gradient_many(self, batch, bidder, valuation_row,
                                  validate: bool = True):
        """Utility and its gradient w.r.t. each row's bidder's own bid row.

        ``bidder`` is an int or a (B,) array of per-row bidders, and
        ``valuation_row`` an (m,) row or one row per profile. One combined
        forward/backward pass per profile, charged as a single evaluation
        each. Returns (utilities (B,), gradients (B, m)).
        """
        batch = self._check_batch(batch, validate)
        n, m = self.setting.n, self.setting.m
        check_bidder(self.setting, bidder)
        B = batch.shape[0]
        v = np.asarray(valuation_row, dtype=np.float64)
        if v.shape not in ((m,), (B, m)):
            raise InvalidInputError(f"valuation row shape {v.shape} != ({m},) or ({B}, {m})")

        h, g_full, sig, reported, alloc, pay = self._forward(batch)
        self._charge(B)

        own = _own(B, bidder)
        own_bids = batch[own]
        gb = g_full[own]
        sig_b = sig[own]
        u = (alloc[own] * v).sum(axis=1) - pay[own]

        # cotangent of the allocation scores: w_j * g_bj * (delta_rb - g_rj)
        w = v - sig_b[:, None] * own_bids
        d_scores = -(w * gb)[:, None, :] * g_full
        d_scores[own] += w * gb
        dudz = -sig_b * (1.0 - sig_b) * reported[own]

        d_flat = d_scores.reshape(B, (n + 1) * m)
        r_h = np.zeros((B, self.spec.hidden_width))
        for c in range(d_flat.shape[1]):
            r_h += d_flat[:, c, None] * self._w_alloc[None, :, c]
        r_h += dudz[:, None] * self._w_pay.T[bidder]

        t = (1.0 - h * h) * r_h
        grad = np.zeros((B, m))
        # (B, hidden, m): the input weights of each row's own bids
        own_w_in = np.broadcast_to(self._w_in_own[bidder], (B,) + self._w_in_own.shape[1:])
        for a in range(t.shape[1]):
            grad += t[:, a, None] * own_w_in[:, a, :]
        grad -= sig_b[:, None] * gb
        return u, grad


def load_neural_mechanism(spec: NeuralMechanismSpec) -> NeuralMechanism:
    """Build the pure mechanism for a validated weight spec."""
    return NeuralMechanism(spec)


def _own(batch_size: int, bidder):
    """Index of each profile's bidder entry in a (B, n, ...) array.

    Both forms select the same values. One bidder gets a slice, which reads
    as a view: the exhaustive scan's large single-bidder batches run about
    7% faster on first price than with the gather that per-row bidders need.
    """
    if np.ndim(bidder) == 0:
        return slice(None), int(bidder)
    return np.arange(batch_size), bidder


def rows_to_profiles(profile: np.ndarray, bidder, rows: np.ndarray) -> np.ndarray:
    """Stack copies of the profile with each row's bidder's row replaced by it.

    ``profile`` is one (n, m) profile or one per row, (B, n, m); ``bidder``
    is an int or a (B,) array of per-row bidders.
    """
    B = rows.shape[0]
    batch = np.broadcast_to(profile, (B,) + profile.shape[-2:]).copy()
    batch[_own(B, bidder)] = rows
    return batch


def evaluate_misreports(mech: Mechanism, profile: np.ndarray, bidder,
                        rows: np.ndarray, valuation_row=None) -> np.ndarray:
    """Utilities of candidate bid rows, each for its bidder, others as in
    its profile (shapes as in ``rows_to_profiles``).

    ``valuation_row`` (one row, or one per candidate) defaults to each
    bidder's truthful row. Costs one mechanism evaluation per candidate row.
    """
    own = _own(rows.shape[0], bidder)
    if valuation_row is None:
        v = np.broadcast_to(profile, (rows.shape[0],) + profile.shape[-2:])[own]
    else:
        v = np.asarray(valuation_row, dtype=np.float64)
    alloc, pay = mech.run_many(rows_to_profiles(profile, bidder, rows), validate=False)
    return (alloc[own] * v).sum(axis=1) - pay[own]


def fd_gradient_rows(mech: Mechanism, profile: np.ndarray, bidder,
                     rows: np.ndarray, valuation_row=None) -> np.ndarray:
    """Central finite-difference utility gradients for a stack of bid rows
    (shapes as in ``evaluate_misreports``).

    Probe points are clamped to [0, 1], degrading to one-sided differences at
    the boundary. Costs 2*m evaluations per row.
    """
    rows = np.asarray(rows, dtype=np.float64)
    B, m = rows.shape
    hi = np.minimum(rows + FD_STEP, 1.0)
    lo = np.maximum(rows - FD_STEP, 0.0)
    probes = np.broadcast_to(rows[:, None, None, :], (B, m, 2, m)).copy()
    idx = np.arange(m)
    probes[:, idx, 0, idx] = hi
    probes[:, idx, 1, idx] = lo

    def per_probe(a, shape):
        """``a``, one entry per row, repeated for each of the row's 2m probes."""
        return np.repeat(np.broadcast_to(a, (B,) + shape), 2 * m, axis=0)

    profiles = per_probe(profile, profile.shape[-2:])
    if valuation_row is not None:
        valuation_row = per_probe(np.asarray(valuation_row, dtype=np.float64), (m,))
    u = evaluate_misreports(mech, profiles, per_probe(bidder, ()),
                            probes.reshape(B * m * 2, m), valuation_row=valuation_row)
    u = u.reshape(B, m, 2)
    return (u[:, :, 0] - u[:, :, 1]) / (hi - lo)


def utility(mech: Mechanism, valuation_row, bids, bidder: int) -> float:
    """Additive utility: sum_j v_j * g_[bidder,j](bids) - p_[bidder](bids)."""
    m = mech.setting.m
    check_bidder(mech.setting, bidder)
    v = np.asarray(valuation_row, dtype=np.float64)
    if v.shape != (m,):
        raise InvalidInputError(f"valuation row shape {v.shape} != ({m},)")
    if v.size and (v.min() < 0.0 or v.max() > 1.0):
        raise InvalidInputError("valuations must lie in [0, 1]")
    alloc, pay = mech.run(bids)
    return float((alloc[bidder] * v).sum() - pay[bidder])


def utility_gradient(mech: Mechanism, valuation_row, bids, bidder: int) -> np.ndarray:
    """Gradient of the bidder's utility w.r.t. its own bid row.

    Uses the mechanism's analytic gradient when advertised, otherwise central
    finite differences with step 1e-5 and boundary clamping.
    """
    bids = as_profile(bids, mech.setting)
    if mech.has_analytic_gradient:
        _, grad = mech.utility_and_gradient_many(bids[None, ...], bidder, valuation_row)
        return grad[0]
    return fd_gradient_rows(mech, bids, bidder, bids[bidder][None, :],
                            valuation_row=valuation_row)[0]
