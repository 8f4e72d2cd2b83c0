"""Exact arbitrage verdicts, super-hedging prices, and dual measures for
finite discrete-time markets whose hedging options quote with bid-ask
spreads, under a finitely generated family of scenario weightings.

Everything is exact rational arithmetic end to end; every verdict ships a
certificate that replays outside the solver.
"""

from .arbitrage import (
    ArbitrageCertificate,
    MartingaleMeasure,
    NaVerdict,
    NarVerdict,
    RobustnessWitness,
    check_na,
    check_nar,
    dominating_measure,
    scenario_pricing_measure,
    verify_measure,
    verify_na_certificate,
    verify_nar_witness,
    strictly_inside_quotes,
)
from .errors import (
    ArbitrageError,
    DomainError,
    HedgecertError,
    PreconditionError,
    RobustArbitrageError,
    SoundnessError,
    StructureError,
)
from .model import (
    Claim,
    CompiledMarket,
    MarketModel,
    MeasureFamily,
    Node,
    OptionQuote,
    Rational,
    ScenarioTree,
    Strategy,
    ValidationReport,
    market_without_option,
    rat,
    require_valid,
    support,
    terminal_gain,
    validate_market,
)
from .redundancy import (
    NonredundancyVerdict,
    ReplicationCertificate,
    SharperFtapBundle,
    SpreadOptionsReport,
    all_spread_options_nonredundant,
    check_nonredundant,
    sharper_ftap,
    verify_replication,
)
from .superhedge import (
    PricingReport,
    claim_price_bounds,
    dual_price,
    duality_report,
    price_bounds_excluding,
    strict_dual_approx,
    superhedge_price,
    verify_super_replication,
)

__version__ = "0.1.0"
