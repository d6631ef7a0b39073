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


@pytest.fixture
def setting_2x2():
    return ra.AuctionSetting(2, 2)


@pytest.fixture
def neural_2x2(setting_2x2):
    return ra.load_neural_mechanism(ra.generate_neural_spec(setting_2x2, 16, 42))


def uniform_profile(setting, sample, seed):
    return ra.sample_valuations(ra.ValuationDistribution(), setting, sample, seed)
