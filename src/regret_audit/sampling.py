"""Valuation distributions and deterministic per-sample profile draws."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import rng
from .errors import InvalidConfigError, check_float, check_int, check_type
from .mechanisms import AuctionSetting

KIND_UNIFORM = "uniform01"
KIND_CONTEXTUAL = "truncated_normal_context"
DISTRIBUTION_KINDS = (KIND_UNIFORM, KIND_CONTEXTUAL)


@dataclass(frozen=True)
class ValuationDistribution:
    """Either i.i.d. uniform on [0, 1], or a contextual truncated normal.

    The contextual kind assigns each bidder a context x_i and each item a
    context y_j, both in {1..10}; entry (i, j) is drawn from a normal with
    mean ((x_i + y_j) mod 10 + 1) / 11 and the given std in (0, 1], truncated
    to [0, 1]. Only the contextual kind takes contexts, integers in 1..10.
    """

    kind: str = KIND_UNIFORM
    x_contexts: Optional[Tuple[int, ...]] = None
    y_contexts: Optional[Tuple[int, ...]] = None
    std: float = 0.05

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise InvalidConfigError(f"unknown distribution kind {self.kind!r}")
        check_float(self.std, "std", positive=True, error=InvalidConfigError)
        if self.std > 1.0:  # a wider normal truncated to [0, 1] needs ever more redraws
            raise InvalidConfigError(f"std must be <= 1, the width of [0, 1], got {self.std!r}")
        for name, ctx in (("x_contexts", self.x_contexts), ("y_contexts", self.y_contexts)):
            if (ctx is None) == (self.kind == KIND_CONTEXTUAL):
                raise InvalidConfigError(f"{name} must be given for {KIND_CONTEXTUAL} and only "
                                         f"for it; got {ctx!r} for kind {self.kind!r}")
            for c in ctx or ():
                check_int(c, f"{name} entries", 1, InvalidConfigError)
                if c > 10:
                    raise InvalidConfigError(f"{name} entries must be in 1..10, got {ctx}")


def contextual_means(dist: ValuationDistribution, setting: AuctionSetting) -> np.ndarray:
    """The (n, m) matrix of untruncated normal means implied by the contexts."""
    x = np.asarray(dist.x_contexts, dtype=np.int64)
    y = np.asarray(dist.y_contexts, dtype=np.int64)
    if x.shape != (setting.n,) or y.shape != (setting.m,):
        raise InvalidConfigError(
            f"contexts have lengths {x.size}/{y.size}, need {setting.n}/{setting.m}"
        )
    return ((x[:, None] + y[None, :]) % 10 + 1) / 11.0


def random_contexts(length: int, seed: int, stream: int = 0) -> Tuple[int, ...]:
    """Uniform contexts in {1..10}; distinct streams for bidder/item draws."""
    g = rng.spawn_generator(seed, rng.STREAM_CONTEXT, stream)
    return tuple(int(c) for c in g.integers(1, 11, size=length))


def sample_valuations(dist: ValuationDistribution, setting: AuctionSetting,
                      sample_index: int, seed: int) -> np.ndarray:
    """Draw the (n, m) valuation profile for one sample index.

    Each (seed, sample_index) pair has its own stream, so profiles are
    reproducible and independent of how samples are scheduled. The truncated
    normal redraws out-of-range entries from the same stream until all lie in
    [0, 1].
    """
    check_type(dist, "dist", ValuationDistribution, InvalidConfigError)
    check_type(setting, "setting", AuctionSetting, InvalidConfigError)
    check_int(sample_index, "sample_index", 0)
    g = rng.spawn_generator(seed, rng.STREAM_VALUATION, sample_index)
    shape = (setting.n, setting.m)
    if dist.kind == KIND_UNIFORM:
        return g.random(shape)
    means = contextual_means(dist, setting)
    vals = g.normal(means, dist.std)
    bad = (vals < 0.0) | (vals > 1.0)
    while bad.any():
        vals[bad] = g.normal(means[bad], dist.std)
        bad = (vals < 0.0) | (vals > 1.0)
    return vals
