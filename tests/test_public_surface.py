"""The package's public top-level names, listed in full, so that a new export,
or a dropped one, is a deliberate change to this list. The exact LP kernel
is not among them: its programs are built from compiled markets only, and
the market-level certificates are the contract."""

import types

import hedgecert

PUBLIC = [
    # verdicts, certificates and their replays
    "ArbitrageCertificate", "MartingaleMeasure", "NaVerdict", "NarVerdict", "RobustnessWitness",
    "check_na", "check_nar", "dominating_measure", "scenario_pricing_measure",
    "strictly_inside_quotes", "verify_measure", "verify_na_certificate", "verify_nar_witness",
    # errors
    "ArbitrageError", "DomainError", "HedgecertError", "PreconditionError",
    "RobustArbitrageError", "SoundnessError", "StructureError",
    # markets
    "Claim", "CompiledMarket", "MarketModel", "MeasureFamily", "Node", "OptionQuote", "Rational",
    "ScenarioTree", "Strategy", "ValidationReport", "market_without_option", "rat",
    "require_valid", "support", "terminal_gain", "validate_market",
    # redundancy
    "NonredundancyVerdict", "ReplicationCertificate", "SharperFtapBundle", "SpreadOptionsReport",
    "all_spread_options_nonredundant", "check_nonredundant", "sharper_ftap", "verify_replication",
    # prices
    "PricingReport", "claim_price_bounds", "dual_price", "duality_report",
    "price_bounds_excluding", "strict_dual_approx", "superhedge_price", "verify_super_replication",
]


def test_the_public_names_are_exactly_the_listed_ones():
    # submodules become package attributes once imported anywhere, so they
    # are left out; every other name without a leading underscore counts
    names = {name for name, value in vars(hedgecert).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == len(set(PUBLIC))
    assert names == set(PUBLIC)

