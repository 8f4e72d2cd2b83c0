"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Everything asserts exact rational identities; there are no tolerances
anywhere, only time budgets.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pytest

from hedgecert import lp
from hedgecert.arbitrage import (
    check_na,
    check_nar,
    dominating_measure,
    strictly_inside_quotes,
    verify_measure,
)
from hedgecert.errors import ArbitrageError
from hedgecert.cli import main
from hedgecert.model import Claim, MarketModel, OptionQuote, support
from oracle import definitional_nar_scan, enumerate_consistent_measures
from hedgecert.redundancy import all_spread_options_nonredundant, verify_replication
from hedgecert.superhedge import (
    claim_price_bounds,
    dual_price,
    superhedge_price,
    verify_super_replication,
)
from markets import (
    nar_fixture_markets,
    random_arbitrage_free_market,
    random_arbitrary_market,
    random_claim,
    random_lp,
    routed,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out


def test_criterion_1_pinned_quote_counterexample(capsys):
    with criterion(1, "no-arbitrage holds while the robust check fails on the pinned-quote market"):
        code, out = _cli(capsys, "check-na", str(DATA / "m2.json"))
        assert code == 0 and out["verdict"] == "holds"
        code, out = _cli(capsys, "check-nar", str(DATA / "m2.json"))
        assert code == 3 and out["verdict"] == "fails"
        assert out["diagnostics"]["blocking"]


def test_criterion_2_robustness_without_nonredundancy(capsys):
    with criterion(2, "robust no-arbitrage holds yet a spread option is redundant, with replaying certificate"):
        code, out = _cli(capsys, "check-nar", str(DATA / "m3.json"))
        assert code == 0 and out["verdict"] == "holds"
        code, out = _cli(capsys, "redundancy", str(DATA / "m3.json"))
        assert code == 3 and out["verdict"] == "fails"
        assert set(out["certificates"]["replications"]) == {"g1", "g2"}
        # replay the reported certificate independently of the CLI
        from hedgecert.marketio import parse_market
        from hedgecert.redundancy import check_nonredundant

        m = parse_market((DATA / "m3.json").read_text())
        verdict = check_nonredundant(m, 1)
        assert not verdict.non_redundant
        assert verify_replication(m, 1, verdict.certificate)


def test_criterion_3_strong_duality_on_random_robust_markets():
    with criterion(3, "primal equals dual exactly and strategies super-replicate on 500 robust markets"):
        rng = random.Random(20240817)
        checked = 0
        while checked < 500:
            roll = rng.random()
            if roll < 0.60:
                m = random_arbitrage_free_market(
                    rng, max_periods=2, max_assets=2, max_leaves=8, max_options=3
                )
            elif roll < 0.90:
                m = random_arbitrage_free_market(
                    rng, max_periods=3, max_assets=3, max_leaves=16, max_options=4,
                    min_periods=2,
                )
            else:
                m = random_arbitrage_free_market(
                    rng, max_periods=4, max_assets=3, max_leaves=24, max_options=5,
                    min_periods=3,
                )
            f = random_claim(rng, m)
            price, strategy = superhedge_price(m, f)
            value, measure = dual_price(m, f)
            assert price == value
            assert verify_super_replication(m, f, price, strategy)
            assert verify_measure(m, measure)
            if checked % 25 == 0:
                assert check_nar(m).holds
            checked += 1
        assert checked >= 500


def test_criterion_4_oracle_equivalence():
    with criterion(4, "dual prices match vertex maxima and the slack program matches the definitional scan"):
        rng = random.Random(7041982)
        checked = 0
        while checked < 200:
            if rng.random() < 0.5:
                m = random_arbitrage_free_market(
                    rng, max_periods=2, max_assets=1, max_leaves=8, max_options=2
                )
            else:
                m = random_arbitrary_market(
                    rng, max_periods=2, max_assets=1, max_leaves=8, max_options=2
                )
            vertices = enumerate_consistent_measures(m)
            f = random_claim(rng, m)
            best = vertices.best_value(f.payoff)
            if best is None:
                with pytest.raises(ArbitrageError):
                    dual_price(m, f)
            else:
                value, _ = dual_price(m, f)
                assert value == best
            assert check_nar(m).holds == definitional_nar_scan(m, 20).holds
            checked += 1
        assert checked >= 200


def test_criterion_5_nonredundant_spreads_make_robustness_automatic():
    with criterion(5, "over 1000 markets with non-redundant spread options, no-arbitrage always implies robustness"):
        rng = random.Random(562951413)
        processed = 0
        na_held = 0
        while processed < 1000:
            if rng.random() < 0.5:
                m = random_arbitrage_free_market(
                    rng, max_periods=2, max_assets=1, max_leaves=6, max_options=2
                )
            else:
                m = random_arbitrary_market(
                    rng, max_periods=2, max_assets=1, max_leaves=6, max_options=2
                )
            if not all_spread_options_nonredundant(m).all_non_redundant:
                continue
            processed += 1
            if check_na(m).holds:
                na_held += 1
                assert check_nar(m).holds, "plain no-arbitrage without robustness"
        assert processed >= 1000
        assert na_held > 100  # the implication was exercised, not vacuous


def test_criterion_6_dual_package_for_every_generator():
    with criterion(6, "dominating measures are exact, strictly interior, and charge each generator's support"):
        for m in nar_fixture_markets():
            for k, generator in enumerate(m.measures.generators):
                q = dominating_measure(m, k)
                assert verify_measure(m, q)
                assert strictly_inside_quotes(m, q)
                assert all(q.weights[pos] > 0 for pos, w in enumerate(generator) if w > 0)
                assert all(q.weights[pos] > 0 for pos in support(m))


def test_criterion_7_pricing_coherence():
    with criterion(7, "translation, positive homogeneity, subadditivity, and ordering hold exactly on 200 pairs"):
        rng = random.Random(31415926)
        for _ in range(200):
            m = random_arbitrage_free_market(
                rng, max_periods=2, max_assets=2, max_leaves=8, max_options=2
            )
            f = random_claim(rng, m)
            g = random_claim(rng, m)
            c = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            lam = F(rng.randint(0, 8), rng.choice([1, 2, 4]))
            pf, _ = superhedge_price(m, f)
            pg, _ = superhedge_price(m, g)
            shifted, _ = superhedge_price(m, Claim([v + c for v in f.payoff]))
            scaled, _ = superhedge_price(m, Claim([lam * v for v in f.payoff]))
            combined, _ = superhedge_price(
                m, Claim([a + b for a, b in zip(f.payoff, g.payoff)])
            )
            minus, _ = superhedge_price(m, Claim([-v for v in f.payoff]))
            assert shifted == pf + c
            assert scaled == lam * pf
            assert combined <= pf + pg
            assert -minus <= pf


def test_criterion_8_quoting_inside_bounds_preserves_robustness():
    with criterion(8, "quotes strictly inside the implied interval keep robustness; outside quotes create arbitrage"):
        rng = random.Random(27182818)
        extended = 0
        while extended < 100:
            m = random_arbitrage_free_market(
                rng, max_periods=2, max_assets=1, max_leaves=6, max_options=2
            )
            leaves = len(m.measures.generators[0])
            payoff = [F(rng.randint(-4, 8), rng.choice([1, 2])) for _ in range(leaves)]
            lower, upper = claim_price_bounds(m, Claim(payoff))

            def extend(bid, ask):
                options = list(m.options) + [OptionQuote("new", payoff, bid, ask)]
                return MarketModel(m.tree, options, m.measures)

            if lower < upper:
                width = upper - lower
                inside = extend(lower + width / 3, upper - width / 3)
            else:
                inside = extend(lower, lower)
            assert check_nar(inside).holds

            too_high = extend(upper + 1, upper + 1)
            assert not check_na(too_high).holds
            too_low = extend(lower - 1, lower - 1)
            assert not check_na(too_low).holds
            extended += 1
        assert extended >= 100


def test_criterion_9_lp_kernel_soundness(solver_audit):
    with criterion(9, "every program in the suite verified; 1000 fuzzed degenerate programs terminate and verify"):
        rng = random.Random(1618034)
        statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
        for _ in range(1000):
            problem = routed(random_lp(rng))
            outcome = lp.solve_lp(problem)  # session audit re-verifies each call
            statuses[outcome.status] += 1
        assert sum(statuses.values()) == 1000
        assert all(count > 0 for count in statuses.values())
        assert solver_audit.failures == 0
        assert solver_audit.calls >= 1000
