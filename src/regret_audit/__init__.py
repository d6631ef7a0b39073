"""regret-audit: incentive-compatibility auditing for auction mechanisms.

Estimates per-bidder ex-post regret with five estimators (an exhaustive grid
oracle, per-item scans, a provable lower bound, an item-wise proxy, and an
item-wise guided gradient refinement), plus the standard multi-start
projected-gradient evaluator, and quantifies their accuracy and cost against
each other on deterministic subject mechanisms.
"""

from .errors import (
    AuditError,
    BudgetExceededError,
    InvalidConfigError,
    InvalidInputError,
    MechanismLoadError,
    ReportFormatError,
)
from .estimators import (
    DEFAULT_EVAL_BUDGET,
    METHOD_EXHAUSTIVE,
    METHOD_GUIDED,
    METHOD_ITEM,
    METHOD_ITEM_WISE,
    METHOD_LOWER_BOUND,
    METHOD_PGA,
    GridSpec,
    RegretEstimate,
    exhaustive_regret,
    item_regret,
    item_wise_regret,
    lower_bound_regret,
)
from .harness import (
    RUN_METHODS,
    AuditRunConfig,
    resolve_mechanism,
    run_audit,
    run_sweep,
    write_sweep_csv,
)
from .mechanisms import (
    AuctionSetting,
    Mechanism,
    NeuralMechanism,
    NeuralMechanismSpec,
    PerItemFirstPriceAuction,
    SecondPriceAuction,
    as_profile,
    evaluate_misreports,
    generate_neural_spec,
    read_neural_spec,
    utility,
    utility_gradient,
    write_neural_spec,
)
from .optimizer import (
    PGA_PRESETS,
    PORTFOLIO_PRESETS,
    PgaConfig,
    PortfolioConfig,
    build_portfolio,
    guided_refinement,
    pga_single,
    random_restart_pga,
)
from .report import (
    REPORT_FORMAT_VERSION,
    AuditRecord,
    AuditReport,
    read_report,
    write_report,
)
from .sampling import ValuationDistribution, sample_valuations

__version__ = "0.1.0"
