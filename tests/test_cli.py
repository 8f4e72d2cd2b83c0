import importlib
import json
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from hedgecert.arbitrage import check_nar
from hedgecert.cli import main
from hedgecert.errors import RobustArbitrageError
from hedgecert.marketio import claim_to_json, dump_market, parse_claim, parse_market
from hedgecert.model import Claim, Strategy
from hedgecert.superhedge import verify_super_replication
from fresh_process import fresh_process
from markets import (
    binomial_market,
    binomial_with_free_option,
    measure_of,
    spread_option_only_market,
    trinomial_straddle_market,
    wide_quote_identical_options_market,
)

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def test_malformed_command_lines_exit_4_with_a_json_error(capsys):
    # argparse would exit 2 and print its usage; a bad command line is
    # invalid input like any other: exit 4, JSON on stderr, nothing on stdout
    m1 = str(DATA / "m1.json")
    for argv in (
        [],
        ["check-na"],
        ["superhedge", m1],
        ["bounds", m1],
        ["dominate", m1],
        ["strict-dual", m1, "--claim", m1],
        ["check-na", m1, "--bogus"],
        ["no-such-command", m1],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err["error"]["type"]) == (4, None, "invalid-input"), argv
    with pytest.raises(SystemExit) as stopped:
        main(["check-na", "--help"])
    assert stopped.value.code == 0
    assert "usage: hedgecert check-na" in capsys.readouterr().out


def test_bounds_excluding_named_option(capsys, tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(dump_market(wide_quote_identical_options_market()))
    code, out, _ = run(capsys, "bounds", str(path), "--option", "g2")
    assert code == 0
    assert out["values"] == {"lower": "1", "upper": "2"}


def test_redundancy_all_clear(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dump_market(spread_option_only_market()))
    code, out, _ = run(capsys, "redundancy", str(path))
    assert code == 0
    assert out["verdict"] == "holds"


def test_sharper_ftap_positive(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dump_market(spread_option_only_market()))
    code, out, _ = run(capsys, "sharper-ftap", str(path), "--verify")
    assert code == 0
    assert out["verdict"] == "holds"
    assert set(out["certificates"]["dominating"]) == {"P0", "P1"}


def test_sharper_ftap_arbitrage(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(dump_market(binomial_with_free_option()))
    code, out, _ = run(capsys, "sharper-ftap", str(path))
    assert code == 3
    assert out["certificates"]["arbitrage"]["gains"] == ["1", "1"]


def test_strict_dual(capsys, tmp_path):
    claim = tmp_path / "claim.json"
    m = wide_quote_identical_options_market()
    claim.write_text(json.dumps(claim_to_json(m, Claim([F(1), F(0)]))))
    code, out, _ = run(
        capsys,
        "strict-dual",
        str(DATA / "m3.json"),
        "--claim",
        str(claim),
        "--eps",
        "1/4",
        "--verify",
    )
    assert code == 0
    assert out["values"]["value"] == "15/16"
    assert out["certificates"]["measure"]["weights"] == ["15/16", "1/16"]


def _m1_with(mutate) -> bytes:
    doc = json.loads((DATA / "m1.json").read_text())
    mutate(doc)
    return json.dumps(doc).encode()


# (market bytes, claim bytes or None); each must end in exit 4, never a traceback
INVALID_INPUTS = [
    (b'{"schemaVersion": 1}', None),
    (_m1_with(lambda d: d["measures"][0]["weights"].__setitem__(0, "1" + "0" * 5000)), None),
    (_m1_with(lambda d: None)[:-1] + b"\xff\xfe}", None),
    (b"[" * 100_000, None),
    (
        (DATA / "m1.json").read_bytes(),
        json.dumps({"schemaVersion": 1, "leafOrder": [1, "2"], "payoff": ["0", "0"]}).encode(),
    ),
]


def test_invalid_market_file_exit_code(capsys, tmp_path):
    for market, claim in INVALID_INPUTS:
        bad = tmp_path / "bad.json"
        bad.write_bytes(market)
        argv = ["check-na", str(bad)]
        if claim is not None:
            claim_path = tmp_path / "claim.json"
            claim_path.write_bytes(claim)
            argv = ["superhedge", str(bad), "--claim", str(claim_path)]
        code, out, err = run(capsys, *argv)
        assert code == 4, market[:40]
        assert out is None
        assert err["error"]["type"] == "invalid-input"


def test_superhedge_on_arbitrage_market_exit_3(capsys, tmp_path):
    market = tmp_path / "m.json"
    market.write_text(dump_market(binomial_with_free_option()))
    claim = tmp_path / "f.json"
    claim.write_text(json.dumps({"schemaVersion": 1, "leafOrder": [1, 2], "payoff": ["0", "0"]}))
    code, out, err = run(capsys, "superhedge", str(market), "--claim", str(claim))
    assert code == 3
    assert out["verdict"] == "fails"
    assert err["error"]["type"] == "arbitrage"


def _exact(text: str) -> F:
    # Decimal parses digits of any length; int(text) stops at the int-string limit
    num, _, den = text.partition("/")
    return F(int(Decimal(num)), int(Decimal(den or "1")))


def test_superhedge_prints_a_price_past_the_int_string_limit(capsys, tmp_path):
    d = int("7" * 3000)
    x = int("9" * 3000)
    market = {
        "schemaVersion": 1,
        "tree": {
            "nodes": [
                {"id": 0, "time": 0, "parent": None, "prices": ["1"]},
                {"id": 1, "time": 1, "parent": 0, "prices": [f"{d + 1}/{d}"]},
                {"id": 2, "time": 1, "parent": 0, "prices": ["1/2"]},
            ]
        },
        "options": [],
        "measures": [{"name": "full", "weights": ["1/2", "1/2"]}],
        "leafOrder": [1, 2],
    }
    claim = {"schemaVersion": 1, "leafOrder": [1, 2], "payoff": [str(x), "0"]}
    (tmp_path / "m.json").write_text(json.dumps(market))
    (tmp_path / "c.json").write_text(json.dumps(claim))
    code, out, err = run(
        capsys, "superhedge", str(tmp_path / "m.json"), "--claim", str(tmp_path / "c.json")
    )
    assert code == 0
    assert err is None
    price = out["values"]["price"]
    assert len(price) > 6000
    assert _exact(price) == F(x * d, d + 2)


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "check-nar", str(DATA / "m3.json"))
    _, second, _ = run(capsys, "check-nar", str(DATA / "m3.json"))
    assert json.dumps(first) == json.dumps(second)


def test_pretty_flag_changes_layout_not_content(capsys):
    code = main(["check-na", str(DATA / "m1.json"), "--pretty"])
    pretty = capsys.readouterr().out
    assert code == 0
    assert "\n  " in pretty
    assert json.loads(pretty)["verdict"] == "holds"


def test_verify_flag_keeps_verdict(capsys):
    code, out, _ = run(capsys, "check-nar", str(DATA / "m3.json"), "--verify")
    assert code == 0
    assert out["verdict"] == "holds"


def test_verify_replay_failure_exits_5(capsys, monkeypatch):
    # simulate a broken certificate to exercise the soundness exit path
    import hedgecert.arbitrage as arbitrage_mod

    monkeypatch.setattr(arbitrage_mod, "verify_nar_witness", lambda m, w: False)
    code, out, err = run(capsys, "check-nar", str(DATA / "m3.json"), "--verify")
    assert code == 5
    assert out is None
    assert err["error"]["type"] == "soundness"


def test_dual_verify_replays_the_printed_value(capsys, monkeypatch):
    # a measure that passes every check but does not attain the printed value
    import hedgecert.superhedge as superhedge_mod

    dual_price = superhedge_mod.dual_price

    def off_by_one(m, f):
        value, measure = dual_price(m, f)
        return value + 1, measure

    monkeypatch.setattr(superhedge_mod, "dual_price", off_by_one)
    argv = ["dual", str(DATA / "m1.json"), "--claim", str(DATA / "call.json")]
    for flags in ([], ["--verify"]):  # the replay runs with or without the flag
        code, out, err = run(capsys, *argv, *flags)
        assert code == 5
        assert out is None
        assert err["error"]["type"] == "soundness"


def test_sharper_ftap_verify_replays_domination(capsys, monkeypatch, tmp_path):
    # an extreme martingale measure of the trinomial tree is consistent and,
    # with no option quoted, strictly inside every quote, but it leaves the
    # middle leaf the flat generator charges uncharged; and the report names
    # one dominating measure per generator, so a bundle with fewer or more is
    # unsound too, where zipping it printed fewer or dropped some
    import hedgecert.redundancy as redundancy_mod

    trinomial = replace(trinomial_straddle_market(), options=[])
    extreme = measure_of(trinomial, [F(1, 2), F(0), F(1, 2)])
    binomial = binomial_market()  # two generators
    sharper_ftap = redundancy_mod.sharper_ftap
    witness = sharper_ftap(binomial).nar_witness.interior_measure
    cases = [(trinomial, [extreme], "domination"),
             (binomial, [], "dominating measure count"),
             (binomial, [witness] * 3, "dominating measure count")]
    for m, dominating, failed in cases:
        monkeypatch.setattr(redundancy_mod, "sharper_ftap",
                            lambda m: replace(sharper_ftap(m), dominating=dominating))
        market = _dumped(tmp_path, m)
        for flags in ([], ["--verify"]):  # the replay runs with or without the flag
            code, out, err = run(capsys, "sharper-ftap", market, *flags)
            assert (code, out, err["error"]["type"]) == (5, None, "soundness")
            assert err["error"]["message"] == f"certificate replay failed: {failed}"


def _dumped(tmp_path, m) -> str:
    path = tmp_path / "m.json"
    path.write_text(dump_market(m))
    return str(path)


def _first_leaf_claim(tmp_path) -> str:
    """A claim paying 1 on leaf 1 of a two-leaf market, 0 on leaf 2."""
    path = tmp_path / "claim.json"
    path.write_text(json.dumps({"schemaVersion": 1, "leafOrder": [1, 2], "payoff": ["1", "0"]}))
    return str(path)


# each command's report, and a replay it runs before printing: (command
# line, module, replay function)
REPLAYED = {
    "check-na": (lambda tmp: ["check-na", _dumped(tmp, binomial_with_free_option())],
                 "arbitrage", "verify_na_certificate"),
    "check-nar": (lambda tmp: ["check-nar", str(DATA / "m3.json")], "arbitrage", "verify_nar_witness"),
    "superhedge": (lambda tmp: ["superhedge", str(DATA / "m1.json"), "--claim", str(DATA / "call.json")],
                   "superhedge", "verify_super_replication"),
    "superhedge ray": (lambda tmp: ["superhedge", _dumped(tmp, binomial_with_free_option()),
                                    "--claim", _first_leaf_claim(tmp)],
                       "superhedge", "verify_super_replication"),
    "dual": (lambda tmp: ["dual", str(DATA / "m1.json"), "--claim", str(DATA / "call.json")],
             "arbitrage", "verify_measure"),
    "bounds": (lambda tmp: ["bounds", str(DATA / "m2.json"), "--option", "g1"],
               "superhedge", "verify_super_replication"),
    "redundancy": (lambda tmp: ["redundancy", str(DATA / "m3.json")], "redundancy", "verify_replication"),
    "sharper-ftap": (lambda tmp: ["sharper-ftap", _dumped(tmp, spread_option_only_market())],
                     "arbitrage", "verify_nar_witness"),
    "sharper-ftap arbitrage": (lambda tmp: ["sharper-ftap", _dumped(tmp, binomial_with_free_option())],
                               "arbitrage", "verify_na_certificate"),
    "dominate": (lambda tmp: ["dominate", str(DATA / "m1.json"), "--generator", "up"],
                 "arbitrage", "strictly_inside_quotes"),
    "strict-dual": (lambda tmp: ["strict-dual", str(DATA / "m3.json"), "--claim", _first_leaf_claim(tmp),
                                 "--eps", "1/4"],
                    "arbitrage", "strictly_inside_quotes"),
}


@pytest.mark.parametrize("case", sorted(REPLAYED))
def test_every_command_replays_its_report_without_verify(capsys, monkeypatch, tmp_path, case):
    # --verify changes no byte, and a failed replay exits 5 without it
    build, module, replay = REPLAYED[case]
    argv = build(tmp_path)
    plain = main(argv), capsys.readouterr()
    assert plain == (main([*argv, "--verify"]), capsys.readouterr())
    assert plain[0] in (0, 3)
    monkeypatch.setattr(importlib.import_module(f"hedgecert.{module}"), replay, lambda *args: False)
    code, out, err = run(capsys, *argv)
    assert (code, out, err["error"]["type"]) == (5, None, "soundness")


def test_sharper_ftap_replays_its_one_measure_once(capsys, monkeypatch, tmp_path):
    # every dominating measure is the robustness witness's interior measure,
    # which verify_nar_witness replays; the command replays it no second time
    import hedgecert.arbitrage as arbitrage_mod

    replayed = []
    verify = arbitrage_mod.verify_measure

    def counting(m, q):
        replayed.append(q)
        return verify(m, q)

    monkeypatch.setattr(arbitrage_mod, "verify_measure", counting)
    code, out, _ = run(capsys, "sharper-ftap", _dumped(tmp_path, spread_option_only_market()))
    assert code == 0 and out["certificates"]["dominating"]
    assert len(replayed) == 1


def test_bounds_replays_both_hedges_on_the_reduced_market(capsys, monkeypatch):
    # m2 less g1 keeps g2, quoted 1/4 to 1/2 on g1's payoff: the upper bound
    # super-replicates the payoff, the lower one's negation its negation
    import hedgecert.superhedge as superhedge_mod

    replayed = []

    def recording(m, f, price, strategy):
        replayed.append(([opt.name for opt in m.options], f.payoff, price))
        return verify_super_replication(m, f, price, strategy)

    monkeypatch.setattr(superhedge_mod, "verify_super_replication", recording)
    code, out, _ = run(capsys, "bounds", str(DATA / "m2.json"), "--option", "g1")
    assert code == 0 and out["values"] == {"lower": "1/4", "upper": "1/2"}
    assert replayed == [(["g2"], [F(0), F(1)], F(1, 2)), (["g2"], [F(0), F(-1)], F(-1, 4))]


def test_pretty_colours_the_verdict_on_a_terminal_unless_no_color(capsys, monkeypatch):
    argv = ["check-na", str(DATA / "m1.json"), "--pretty"]
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    assert main(argv) == 0
    assert '"verdict": "\x1b[32mholds\x1b[0m"' in capsys.readouterr().out
    monkeypatch.setenv("NO_COLOR", "1")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "\x1b[" not in out and json.loads(out)["verdict"] == "holds"


def test_solver_fault_exits_5(capsys, monkeypatch):
    # a broken kernel is a soundness failure, never "invalid input": the
    # elimination that factors the face's basis finds no pivot, and the
    # factorization must raise, not return
    import hedgecert.lp as lp_mod

    monkeypatch.setattr(lp_mod, "_reduce", lambda rows, n: [])
    code, out, err = run(capsys, "check-nar", str(DATA / "m1.json"))
    assert code == 5
    assert out is None
    assert err["error"]["type"] == "soundness"
    assert "basis matrix singular" in err["error"]["message"]


def test_reused_parser_leaks_no_option_into_later_commands(capsys):
    # the process keeps one parser; --pretty on one command must not reach
    # the next, and each report is the single compact line a new process prints
    market = str(DATA / "m1.json")
    code = main(["superhedge", market, "--claim", str(DATA / "call.json"), "--pretty"])
    assert code == 0 and "\n  " in capsys.readouterr().out
    for argv in (["check-na", market], ["check-na", market, "--verify"]):
        code = main(argv)
        out = capsys.readouterr().out
        fresh = fresh_process(*argv)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        assert out.count("\n") == 1 and out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


def test_superhedge_reports_the_robust_arbitrage_ray(capsys, tmp_path):
    # with no consistent measure the report names that cause and ships the
    # ray: negative capital whose strategy covers the zero claim
    m = binomial_with_free_option()
    market = tmp_path / "m.json"
    market.write_text(dump_market(m))
    claim = tmp_path / "f.json"
    claim.write_text(json.dumps({"schemaVersion": 1, "leafOrder": [1, 2], "payoff": ["1", "0"]}))
    code, out, err = run(capsys, "superhedge", str(market), "--claim", str(claim), "--verify")
    assert code == 3
    assert err["error"]["type"] == "arbitrage"
    assert out["verdict"] == "fails" and out["values"] == {}
    assert out["diagnostics"]["blocking"] == check_nar(m).blocking
    ray = out["certificates"]["ray"]
    capital = F(ray["capital"])
    strategy = Strategy(
        {int(nid): [F(v) for v in pos] for nid, pos in ray["strategy"]["dynamic"].items()},
        [F(v) for v in ray["strategy"]["buyLeg"]],
        [F(v) for v in ray["strategy"]["sellLeg"]],
    )
    assert capital < 0
    assert verify_super_replication(m, Claim([F(0), F(0)]), capital, strategy)


ARB_CLAIM = [str(DATA / "arb.json"), "--claim", str(DATA / "arb-claim.json")]


def _dual_raising_the_ray(monkeypatch) -> RobustArbitrageError:
    """The RobustArbitrageError superhedge_price raises on arb.json with
    arb-claim.json, ray included; dual_price is patched to raise it too."""
    import hedgecert.superhedge as superhedge_mod

    m = parse_market((DATA / "arb.json").read_bytes())
    with pytest.raises(RobustArbitrageError) as raised:
        superhedge_mod.superhedge_price(m, parse_claim((DATA / "arb-claim.json").read_bytes(), m))
    error = raised.value
    assert error.ray is not None

    def raising(m, f):
        raise error

    monkeypatch.setattr(superhedge_mod, "dual_price", raising)
    return error


def test_a_raised_ray_is_printed_whatever_the_command(capsys, monkeypatch):
    # main, not the command, reports a raised arbitrage failure: dual, made
    # to raise superhedge's error, prints the ray superhedge prints
    _dual_raising_the_ray(monkeypatch)
    code, hedged, _ = run(capsys, "superhedge", *ARB_CLAIM)
    assert code == 3 and hedged["certificates"]["ray"]
    code, out, err = run(capsys, "dual", *ARB_CLAIM)
    assert (code, out["command"], err["error"]["type"]) == (3, "dual", "arbitrage")
    assert out["certificates"]["ray"] == hedged["certificates"]["ray"]


def test_a_raised_ray_is_replayed_whatever_the_command(capsys, monkeypatch):
    # with its capital made positive the ray covers nothing: dual exits 5
    # and prints no report
    error = _dual_raising_the_ray(monkeypatch)
    capital, strategy = error.ray
    error.ray = (-capital, strategy)
    code, out, err = run(capsys, "dual", *ARB_CLAIM)
    assert (code, out, err["error"]["type"]) == (5, None, "soundness")
    assert "robust-arbitrage ray" in err["error"]["message"]


def test_missing_field_errors_are_the_same_bytes_under_every_hash_seed(tmp_path):
    # missing fields are named in one sorted issue, never in set order
    market = json.loads((DATA / "m1.json").read_text())
    for key in ("options", "measures", "leafOrder"):
        del market[key]
    bad_market = tmp_path / "market.json"
    bad_market.write_text(json.dumps(market))
    bad_claim = tmp_path / "claim.json"
    bad_claim.write_text(json.dumps({"schemaVersion": 1}))
    cases = {
        ("check-na", str(bad_market)): "$: missing fields: leafOrder, measures, options",
        ("superhedge", str(DATA / "m1.json"), "--claim", str(bad_claim)):
            "$: missing fields: leafOrder, payoff",
    }
    for argv, message in cases.items():
        runs = [fresh_process(*argv, PYTHONHASHSEED=str(seed)) for seed in range(4)]
        assert {r.returncode for r in runs} == {4}
        errors = {r.stderr for r in runs}
        assert len(errors) == 1, errors
        assert json.loads(errors.pop())["error"]["message"] == message
