import numpy as np
import pytest

import regret_audit as ra


class ConstantMechanism(ra.Mechanism):
    """Allocation and payments independent of the bids; zero gradient."""

    def __init__(self, setting, alloc_value=0.25, pay_value=0.1):
        super().__init__(setting)
        self._alloc = np.full((setting.n, setting.m), alloc_value)
        self._pay = np.full(setting.n, pay_value)

    def _run_batch(self, batch):
        B = batch.shape[0]
        return (np.broadcast_to(self._alloc, (B,) + self._alloc.shape).copy(),
                np.broadcast_to(self._pay, (B,) + self._pay.shape).copy())


class NanPaymentAuction(ra.PerItemFirstPriceAuction):
    """First-price allocation with NaN payments: every utility is NaN."""

    def _run_batch(self, batch):
        alloc, pay = super()._run_batch(batch)
        return alloc, np.full_like(pay, np.nan)


class NanAboveAuction(ra.PerItemFirstPriceAuction):
    """First price, except that a bidder's payment is NaN wherever its own
    bids sum to ``threshold`` or more: finite near truthful reports, NaN on
    some misreports."""

    def __init__(self, setting, threshold=1.5):
        super().__init__(setting)
        self.threshold = threshold

    def _run_batch(self, batch):
        alloc, pay = super()._run_batch(batch)
        pay[batch.sum(axis=2) >= self.threshold] = np.nan
        return alloc, pay


class ShadedQuadraticMechanism(ra.Mechanism):
    """A custom mechanism written to the documented contract, ``_run_batch``
    plus an analytic ``_gradient_batch`` charged one evaluation per profile.

    Bidder i gets 1/n of item j times its bid b_ij and pays b_ij^2 / (4n)
    for it, so its utility sum_j (v_j b_ij - b_ij^2 / 4) / n peaks at
    b_ij = min(2 v_j, 1): overbidding gains.
    """

    def _run_batch(self, batch):
        n = self.setting.n
        return batch / n, (batch * batch).sum(axis=2) / (4 * n)

    def _gradient_batch(self, batch, bidder, v):
        B, n, _ = batch.shape
        own = batch[np.arange(B), bidder]
        self._charge(B)
        return (v * own - own * own / 4).sum(axis=1) / n, (v - own / 2) / n


#: the profile of the NaN examples; both bidders' bids sum to 0.7
NAN_EXAMPLE_PROFILE = np.array([[0.3, 0.4], [0.2, 0.5]])


@pytest.fixture
def setting_2x2():
    return ra.AuctionSetting(2, 2)


@pytest.fixture
def neural_2x2(setting_2x2):
    return ra.NeuralMechanism(ra.generate_neural_spec(setting_2x2, 16, 42))


def uniform_profile(setting, sample, seed):
    return ra.sample_valuations(ra.ValuationDistribution(), setting, sample, seed)
