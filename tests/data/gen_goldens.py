"""Regenerate the frozen golden values (run from the repo root).

The goldens pin the deterministic forward pass and the exhaustive grid
oracle of the seeded 2x2 reference mechanism, and the whole report of a
small serial audit of it with every wall-clock field zeroed. Regenerate
only for a deliberate, logged numerics change, and review the diff.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import regret_audit as ra

OUT = Path(__file__).parent / "neural_2x2_seed42.json"
REPORT_OUT = Path(__file__).parent / "report_neural_2x2_seed42.json"

SETTING = ra.AuctionSetting(2, 2)
MECH_SEED = 42
HIDDEN = 16
SAMPLE_SEED = 7
ORACLE_Q = 50


def report_config() -> ra.AuditRunConfig:
    """The golden audit: every estimator of the five-method set on 2 samples."""
    return ra.AuditRunConfig(
        setting=SETTING,
        mechanism=ra.generate_neural_spec(SETTING, HIDDEN, MECH_SEED),
        distribution=ra.ValuationDistribution(),
        grid=ra.GridSpec(ORACLE_Q),
        methods=("exhaustive", "lower_bound", "item_wise", "pga", "guided"),
        pga=ra.PgaConfig(0.1, 5, 50),
        portfolio=ra.PortfolioConfig(k=2, sigma_opt=0.3, sigma_truth=0.3,
                                     refine=ra.PgaConfig(0.1, 1, 50)),
        samples=2,
        seed=SAMPLE_SEED,
    )


def zero_wall_clock(data):
    if isinstance(data, dict):
        return {k: (0.0 if k == "wall_seconds" else zero_wall_clock(v)) for k, v in data.items()}
    if isinstance(data, list):
        return [zero_wall_clock(v) for v in data]
    return data


def golden_report_text(out_dir) -> str:
    """Run the golden audit serially and return its report with wall clock
    zeroed, serialized as the golden file stores it."""
    path = Path(out_dir) / "report.json"
    ra.run_audit(replace(report_config(), out=str(path)), workers=1)
    data = zero_wall_clock(json.loads(path.read_text(encoding="utf-8")))
    return json.dumps(data, indent=2) + "\n"


def main():
    spec = ra.generate_neural_spec(SETTING, HIDDEN, MECH_SEED)
    mech = ra.NeuralMechanism(spec)
    profile = ra.sample_valuations(ra.ValuationDistribution(), SETTING, 0, SAMPLE_SEED)
    alloc, pay = mech.run(profile)
    grid = ra.GridSpec(ORACLE_Q)
    oracle = [ra.exhaustive_regret(mech, profile, b, grid) for b in range(SETTING.n)]
    data = {
        "mech_seed": MECH_SEED,
        "hidden_width": HIDDEN,
        "sample_seed": SAMPLE_SEED,
        "sample_index": 0,
        "oracle_q": ORACLE_Q,
        "profile": profile.tolist(),
        "allocation": alloc.tolist(),
        "payments": pay.tolist(),
        "utilities": [ra.utility(mech, profile[b], profile, b) for b in range(SETTING.n)],
        "oracle_values": [est.value for est in oracle],
        "oracle_misreports": [est.best_misreport.tolist() for est in oracle],
    }
    OUT.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    with tempfile.TemporaryDirectory() as tmp:
        REPORT_OUT.write_text(golden_report_text(tmp), encoding="utf-8")
    print(f"wrote {REPORT_OUT}")


if __name__ == "__main__":
    main()
