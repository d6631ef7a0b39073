"""The three benchmark workloads and the set-up path each audit starts from.

A workload fixes everything except the audit seed: the mechanism (weight
seeds are part of a workload's identity), the estimator settings, the
number of samples in one repetition and the worker count. ``build_config``
is the set-up that ``setup_s`` times: it reads the mechanism spec from its
JSON file and builds the ``AuditRunConfig``, as ``regret-audit eval`` does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import regret_audit as ra

NEURAL = "neural"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    mechanism: str  # a builtin mechanism name, or NEURAL for a seeded spec
    methods: tuple
    q: int
    pga: tuple  # (gamma, L, R)
    refine: tuple  # (gamma, R) of the guided ascent
    samples: int  # samples audited in one repetition
    workers: int
    invariant: str  # name of the cross-method check in checks.INVARIANTS
    hidden: int = 0
    weight_seed: int = 42

    def spec_path(self, work_dir) -> Optional[str]:
        if self.mechanism != NEURAL:
            return None
        return os.path.join(work_dir, f"mech_{self.n}x{self.m}_h{self.hidden}_s{self.weight_seed}.json")


WORKLOADS = {w.name: w for w in (
    # `regret-audit eval` defaults: most of its time is gradient calls of
    # three rows each, and three methods repeat one item scan.
    Workload("guided_default", 2, 2, NEURAL, ("lower_bound", "item_wise", "guided"),
             q=1000, pga=(0.1, 50, 200), refine=(0.1, 200), samples=8, workers=1,
             invariant="bound_chain", hidden=16),
    # No workload runs the converged optimizer of acceptance criterion 5
    # (neural 3x5, L=500, R=2000): one of its audits takes about 7 s, too
    # long for the host-speed reference timed around it to match the speed
    # it ran at, and its runs spread by about 0.15 of their median.

    # acceptance criterion 4: the 21^5 exhaustive oracle dominates; no
    # analytic gradients, large run_many batches.
    Workload("oracle_separable", 2, 5, "first_price", ("exhaustive", "item_wise", "guided"),
             q=20, pga=(0.1, 1, 1), refine=(1.0, 25), samples=1, workers=1,
             invariant="separable"),
    # acceptance criterion 1: many cheap tasks through the process pool,
    # finite-difference gradients, and a zero-regret certificate. 40 samples
    # keep a repetition near a second, short enough for the host-speed
    # reference timed around it to match the speed it ran at.
    Workload("dsic_pool", 2, 2, "second_price",
             ("exhaustive", "lower_bound", "item_wise", "pga", "guided"),
             q=50, pga=(0.1, 10, 100), refine=(0.1, 100), samples=40, workers=2,
             invariant="zero_regret"),
)}


def write_spec(workload: Workload, work_dir) -> None:
    """Write the workload's seeded mechanism spec, as `regret-audit gen-mech` does."""
    path = workload.spec_path(work_dir)
    if path is not None:
        setting = ra.AuctionSetting(workload.n, workload.m)
        ra.write_neural_spec(ra.generate_neural_spec(setting, workload.hidden,
                                                     workload.weight_seed), path)


def build_config(workload: Workload, seed: int, work_dir, out=None) -> ra.AuditRunConfig:
    gamma, big_l, big_r = workload.pga
    refine_gamma, refine_r = workload.refine
    spec_path = workload.spec_path(work_dir)
    return ra.AuditRunConfig(
        setting=ra.AuctionSetting(workload.n, workload.m),
        mechanism=workload.mechanism if spec_path is None else ra.read_neural_spec(spec_path),
        distribution=ra.ValuationDistribution(),
        grid=ra.GridSpec(workload.q),
        methods=workload.methods,
        pga=ra.PgaConfig(gamma, big_l, big_r),
        portfolio=ra.PortfolioConfig(k=0, refine=ra.PgaConfig(refine_gamma, 1, refine_r)),
        samples=workload.samples,
        seed=seed,
        out=out,
    )
