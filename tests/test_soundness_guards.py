"""Soundness guards: with a fault injected below each one, the library
raises its SoundnessError, and every CLI command that reaches the guard
exits 5 and prints no report.

Each guard stands for a solver invariant that holds on every input, so no
market reaches it without a fault; a guard no test reaches is a check
nobody has seen fire."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from hedgecert import arbitrage, lp, redundancy, superhedge
from hedgecert.cli import main
from hedgecert.errors import SoundnessError
from hedgecert.marketio import claim_to_json, dump_market, parse_claim, parse_market
from hedgecert.model import Claim
from markets import binomial_with_free_option, routed, sparse_rows, spread_option_only_market

DATA = Path(__file__).parent / "data"
M1 = str(DATA / "m1.json")


def _m1():
    return parse_market((DATA / "m1.json").read_bytes())


def _dumped(tmp_path, m) -> str:
    path = tmp_path / "m.json"
    path.write_text(dump_market(m))
    return str(path)


def _unbounded(solve):
    def solve_lp(p):
        zero = [F(0)] * len(p.objective)
        return lp.LpOutcome(lp.UNBOUNDED, primal=zero, ray=zero)
    return solve_lp


def _with_gap(hedge_side):
    def shifted(c, solved):
        price, strategy = hedge_side(c, solved)
        return price + 1, strategy
    return shifted


def _flipped(hedge):
    def flipped(c, solved):
        capital, strategy = hedge(c, solved)
        return -capital, strategy
    return flipped


def _zeroed(measure):
    """`_measure` with the first charged leaf's weight zeroed; some
    generator charges that leaf, so the measure fails to dominate it."""
    def zeroed(c, values):
        q = measure(c, values)
        q.weights[c.charged[0]] = F(0)
        return q
    return zeroed


def _superhedge_free_option(tmp_path) -> list[str]:
    """The superhedge command line of a claim on the free-option market."""
    m = binomial_with_free_option()
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps(claim_to_json(m, Claim([F(1), F(0)]))))
    return ["superhedge", _dumped(tmp_path, m), "--claim", str(claim)]


# guard -> (module, name, fault from the original, its message, library
# calls that reach it, CLI command lines that reach it)
GUARDS = {
    "measure program unbounded": (
        lp, "solve_lp", _unbounded, "measure program unbounded",
        [lambda: arbitrage.check_na(_m1())],
        [lambda tmp: ["check-na", M1]],
    ),
    "no strict leaf": (
        arbitrage, "_terminal_gain", lambda gain: lambda c, s: [F(0)] * len(c.leaves),
        "no strictly positive gain",
        [lambda: arbitrage.check_na(binomial_with_free_option())],
        [lambda tmp: ["check-na", _dumped(tmp, binomial_with_free_option())]],
    ),
    "witness fails to dominate": (
        arbitrage, "_measure", _zeroed, "fails to dominate",
        [lambda: arbitrage.dominating_measure(_m1(), 0),
         lambda: redundancy.sharper_ftap(spread_option_only_market()),
         lambda: arbitrage.check_nar(_m1())],
        [lambda tmp: ["dominate", M1, "--generator", "up"],
         lambda tmp: ["sharper-ftap", _dumped(tmp, spread_option_only_market())],
         lambda tmp: ["check-nar", M1]],
    ),
    "sharper theorem contradicted": (
        redundancy, "check_na", lambda check_na: lambda m: arbitrage.NaVerdict(True),
        "contradicts an exact implication",
        [lambda: redundancy.sharper_ftap(binomial_with_free_option())],
        [lambda tmp: ["sharper-ftap", _dumped(tmp, binomial_with_free_option())]],
    ),
    "pricing duality gap": (
        superhedge, "_hedge_side", _with_gap, "duality gap 1 is nonzero",
        [lambda: superhedge.duality_report(_m1(), parse_claim((DATA / "call.json").read_bytes(), _m1()))],
        [],  # no command prints a duality report
    ),
    "robust-arbitrage ray replay": (
        superhedge, "_hedge", _flipped, "robust-arbitrage ray",
        [],  # the library raises the ray without replaying it
        [_superhedge_free_option],
    ),
    "phase-1 unbounded": (
        lp, "_optimize", lambda optimize: lambda *args: 0, "phase-1 unbounded",
        [lambda: lp.solve_lp(routed(lp.LpProblem([F(1)], sparse_rows([[F(1)]]), [lp.LE], [F(1)]))),
         lambda: arbitrage.check_nar(_m1())],
        [lambda tmp: ["check-nar", M1]],
    ),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_each_soundness_guard_raises_and_exits_5(case, capsys, monkeypatch, tmp_path):
    module, name, fault, message, calls, commands = GUARDS[case]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    for call in calls:
        with pytest.raises(SoundnessError, match=message):
            call()
    for command in commands:
        assert main(command(tmp_path)) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "soundness" and message in error["message"]
