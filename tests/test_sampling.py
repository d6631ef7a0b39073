"""Valuation sampling: support, determinism, contextual means."""

import math

import numpy as np
import pytest

import regret_audit as ra
from regret_audit.sampling import contextual_means


def truncated_normal_mean(mu, sigma, lo=0.0, hi=1.0, steps=20001):
    """Simpson quadrature of the truncated normal mean; independent oracle."""
    xs = np.linspace(lo, hi, steps)
    pdf = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    weights = np.ones(steps)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / (steps - 1)
    z = (weights * pdf).sum() * h / 3.0
    first_moment = (weights * xs * pdf).sum() * h / 3.0
    return first_moment / z


class TestUniform:
    def test_support_and_shape(self):
        setting = ra.AuctionSetting(3, 4)
        prof = ra.sample_valuations(ra.ValuationDistribution(), setting, 0, 1)
        assert prof.shape == (3, 4)
        assert prof.min() >= 0.0 and prof.max() <= 1.0

    def test_determinism_per_sample_index(self):
        setting = ra.AuctionSetting(2, 2)
        dist = ra.ValuationDistribution()
        a = ra.sample_valuations(dist, setting, 5, 9)
        b = ra.sample_valuations(dist, setting, 5, 9)
        c = ra.sample_valuations(dist, setting, 6, 9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_independent_of_draw_order(self):
        setting = ra.AuctionSetting(2, 2)
        dist = ra.ValuationDistribution()
        later_first = ra.sample_valuations(dist, setting, 3, 9)
        _ = ra.sample_valuations(dist, setting, 0, 9)
        again = ra.sample_valuations(dist, setting, 3, 9)
        assert np.array_equal(later_first, again)


class TestContextual:
    def test_mean_parameter_formula(self):
        setting = ra.AuctionSetting(1, 1)
        dist = ra.ValuationDistribution(kind="truncated_normal_context",
                                        x_contexts=(3,), y_contexts=(5,))
        assert contextual_means(dist, setting)[0, 0] == pytest.approx(9.0 / 11.0)

    def test_mod_wraparound(self):
        setting = ra.AuctionSetting(1, 1)
        dist = ra.ValuationDistribution(kind="truncated_normal_context",
                                        x_contexts=(7,), y_contexts=(5,))
        # (7 + 5) mod 10 + 1 = 3
        assert contextual_means(dist, setting)[0, 0] == pytest.approx(3.0 / 11.0)

    def test_support_and_determinism(self):
        setting = ra.AuctionSetting(2, 3)
        dist = ra.ValuationDistribution(kind="truncated_normal_context",
                                        x_contexts=(1, 10), y_contexts=(2, 5, 9))
        a = ra.sample_valuations(dist, setting, 0, 3)
        b = ra.sample_valuations(dist, setting, 0, 3)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_empirical_mean_tracks_oracle(self):
        # one boundary-adjacent cell, moderate draw count; the acceptance
        # suite sweeps the full context square
        setting = ra.AuctionSetting(1, 1)
        dist = ra.ValuationDistribution(kind="truncated_normal_context",
                                        x_contexts=(5,), y_contexts=(5,))
        mu = 1.0 / 11.0  # (5+5) mod 10 + 1 = 1
        draws = np.array([
            ra.sample_valuations(dist, setting, i, 21)[0, 0] for i in range(20000)
        ])
        oracle = truncated_normal_mean(mu, 0.05)
        assert abs(draws.mean() - oracle) < 0.005
        assert oracle > mu  # truncation at 0 pulls the mean up

    def test_validation(self):
        with pytest.raises(ra.InvalidConfigError):
            ra.ValuationDistribution(kind="truncated_normal_context")
        with pytest.raises(ra.InvalidConfigError):
            ra.ValuationDistribution(kind="truncated_normal_context",
                                     x_contexts=(0,), y_contexts=(5,))
        with pytest.raises(ra.InvalidConfigError):
            ra.ValuationDistribution(kind="nope")
        with pytest.raises(ra.InvalidConfigError):
            ra.ValuationDistribution(std=0.0)

    @pytest.mark.parametrize("contexts", [dict(x_contexts=(1, 2)), dict(y_contexts=(3,)),
                                          dict(x_contexts=(1, 2), y_contexts=(3,))])
    def test_only_the_contextual_kind_takes_contexts(self, contexts):
        # uniform01 used to keep contexts it never reads
        with pytest.raises(ra.InvalidConfigError, match="only for it"):
            ra.ValuationDistribution(**contexts)

    @pytest.mark.parametrize("std", [float("inf"), float("nan"), -0.05, 1.5, 1e5])
    def test_std_must_be_finite_and_positive(self, std):
        # an infinite std would make the truncation redraw loop never end, and
        # one wider than [0, 1] makes it take rounds without bound (10 s at 1e5)
        with pytest.raises(ra.InvalidConfigError):
            ra.ValuationDistribution(kind="truncated_normal_context", x_contexts=(1,),
                                     y_contexts=(2,), std=std)
