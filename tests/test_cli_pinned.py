"""Byte-level pins of the CLI reports.

`TRANSCRIPTS` gives each command line on a `tests/data` file, run from the
repository root, its exact exit code, stdout and stderr. `PINNED` gives
every subcommand, run with `--verify` on each generated market, its exit
code and the sha256 of its stdout. So a refactor that changes any report
byte (key order, fraction form, which optimizer is returned) fails here.
"""

import hashlib
import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from hedgecert.cli import main
from hedgecert.marketio import claim_to_json, dump_market
from hedgecert.model import Strategy
from hedgecert.superhedge import verify_super_replication
from fresh_process import ROOT, fresh_process
from markets import (
    binomial_with_free_option,
    random_arbitrage_free_market,
    random_claim,
    trinomial_straddle_market,
    two_period_stock_market,
    wide_quote_identical_options_market,
)

MARKETS = {
    "two-period": two_period_stock_market,
    "trinomial-straddle": trinomial_straddle_market,
    "wide-quote": wide_quote_identical_options_market,
    "free-option": binomial_with_free_option,
    "random-3": lambda: random_arbitrage_free_market(random.Random(3), min_periods=2),
    "random-12": lambda: random_arbitrage_free_market(random.Random(12), min_periods=2),
}

# (market, subcommand) -> (exit code, sha256 of stdout)
PINNED = {
    ("free-option", "bounds"): (0, "204d646571fb80e148a40342ec436e9dc65924ef377f99b497cc7606dc150017"),
    ("free-option", "check-na"): (3, "e24bc8a9569ce16095800ea6747691c631ca0a96e23cf37e994294b344c817c6"),
    ("free-option", "check-nar"): (3, "2fbe8dad21886860a241aefcf041c3fa7d461b1368b047c2fa78575ccabe4b1a"),
    ("free-option", "dominate"): (3, "44c9639ac56f9513e675db317770503081a14a5c35b748625d85192e9001b547"),
    # re-recorded when dual's blocking sentence became superhedge's: the report differs in it alone
    ("free-option", "dual"): (3, "2068fce51c8a46434ba90d273b0285c612628cf03f0e65c6fc176a536a23fc8a"),
    ("free-option", "redundancy"): (0, "de0f6d836488d68bb95969a9405a81b8828c316d0f034ad3f218b44ed483921b"),
    ("free-option", "sharper-ftap"): (3, "14af52a470910a27c4e8c0ee7ec7c20667c28a7539a447ae80377340e2699f3b"),
    ("free-option", "strict-dual"): (3, "8798ff126c63b87e9e73f74bdfe577b207c66135b745fbfae0bbe1125c61763b"),
    ("free-option", "superhedge"): (3, "97bea2ccf27426ea4926ed72ce8270807555dfd286b24b2f93fd9155ab1471ba"),
    ("random-12", "bounds"): (0, "4a2560b68fda0beb5b697f8358b84143157da971dc26bd94720279c9c4bfbae7"),
    ("random-12", "check-na"): (0, "915f4f13e4fe704a6569004b686729911e9ce20e98bdd1b88ba4363d95967373"),
    ("random-12", "check-nar"): (0, "e830001808e74cae749b0faf158e5087212bd71fb5f1517525827adafaa191fb"),
    ("random-12", "dominate"): (0, "5ef426c5975abf0e8da98997a74a74c40f7b395c854e960a26dc4e95fad8e333"),
    ("random-12", "dual"): (0, "4b17d3dc72c23e1f7700e70005f4387f5acaa154fc44e2c12441e13269739e27"),
    ("random-12", "redundancy"): (0, "d81dff5f073401f552de5c7791c24d83e174add5652ef3e8a91085115261c7a0"),
    ("random-12", "sharper-ftap"): (0, "5c19ab35df10b39c1e8391fc136f87ed67339aa8d025f4cfae19a1d3660ce780"),
    ("random-12", "strict-dual"): (0, "32aec7bf25c01746f10e31cc4a90eb2b713d556928b929714786a0baf4ddf0e2"),
    ("random-12", "superhedge"): (0, "c7bc48e86d0ca9fcfe12b145cb4c5646219a510c88a3682e2831f1194ea9b0a1"),
    ("random-3", "bounds"): (0, "63caec107d5bdadbc5dfa0d62c11327c7f343bc23cf1799273608e0ee05be6a5"),
    ("random-3", "check-na"): (0, "915f4f13e4fe704a6569004b686729911e9ce20e98bdd1b88ba4363d95967373"),
    ("random-3", "check-nar"): (0, "f4ebe50cbe6923f245be7b3abdc95f1406fb565249e598b801b7d3c18b434c86"),
    ("random-3", "dominate"): (0, "9be5ec1ed955e8d399e8cd739f15b533b812fad5d725472dd25aa8c5ff31baad"),
    ("random-3", "dual"): (0, "4638400236959ad31c4fc9af4f2e4ef3a8ab46dde2bc7dd618df97a96031480a"),
    ("random-3", "redundancy"): (3, "c6a8d7899344f39d68196aaa4b7bee88af3aa5df5b9bb99caabbd0c2d1bb13bb"),
    ("random-3", "sharper-ftap"): (3, "ed00e13405b05aae8a4b5f1db04b258cd5594d6e266b57972b1c37776b0c1384"),
    ("random-3", "strict-dual"): (0, "82c58a7bacdb277ba27dd4b2a17cd417f7d4e3116fa8877ee101fe217e29db0d"),
    ("random-3", "superhedge"): (0, "647a8c6cc9e9d09a8c0a950da4873766cd630bb6818db79c28742cc8f5f5d4a7"),
    ("trinomial-straddle", "bounds"): (0, "cc2e6e196049f1cc08eb7949dc71a1efdd1524a82c2fb9195a8c378ca9e6e01b"),
    ("trinomial-straddle", "check-na"): (0, "915f4f13e4fe704a6569004b686729911e9ce20e98bdd1b88ba4363d95967373"),
    ("trinomial-straddle", "check-nar"): (0, "7c4726dc8d659e1573892f8fbdba1e4f7845927149fdd99008536bdd56efb045"),
    ("trinomial-straddle", "dominate"): (0, "6512a8bbb977230149f7a08979672fe5be2344956daecb2aed5b78029f87d0da"),
    ("trinomial-straddle", "dual"): (0, "8779c685f4a40d88e23ed3ed4afe60c940712381eadf27d3f482af3f5ee6ed27"),
    ("trinomial-straddle", "redundancy"): (0, "de0f6d836488d68bb95969a9405a81b8828c316d0f034ad3f218b44ed483921b"),
    ("trinomial-straddle", "sharper-ftap"): (0, "416ecbef0cbd54d5b93e21fd5974352042f59e5f45d12398c71138c3f52b4d5d"),
    ("trinomial-straddle", "strict-dual"): (0, "cb1bc37c5214c6726d42dc6a11321afab2ce028106e11e1dace67aa6311e7a9a"),
    ("trinomial-straddle", "superhedge"): (0, "1cab10425a9ec313dce6d8cf9245ec3a638b7f9d3db14269ea0fe0eb266a5907"),
    ("two-period", "bounds"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("two-period", "check-na"): (0, "915f4f13e4fe704a6569004b686729911e9ce20e98bdd1b88ba4363d95967373"),
    ("two-period", "check-nar"): (0, "3fec51a5cc44a922b019c42ec0a4fca5c8e5a37616d00d9a8f935c5c5b967637"),
    ("two-period", "dominate"): (0, "ef588373392ecf953ad331578bbf817a9fabc85a9c60d2c8da1f01f206ee2634"),
    ("two-period", "dual"): (0, "3c0120f1a9bde05c9ecfc4bce25d8e5489b6bce8031bdeb761164f4705e6398b"),
    ("two-period", "redundancy"): (0, "de0f6d836488d68bb95969a9405a81b8828c316d0f034ad3f218b44ed483921b"),
    ("two-period", "sharper-ftap"): (0, "c87aa58c4670afc92dd2e0c2861299b44d6039315989f39d1b8a67093f4f1e6e"),
    ("two-period", "strict-dual"): (0, "43f5bdfd073a41cfe352e7abf7cb776a23344e2f844903abb7efca120a95ca6c"),
    ("two-period", "superhedge"): (0, "046819bd861e3a97b191732b3e4f7f818637ff26540090f44d5bf3e91dd443c3"),
    ("wide-quote", "bounds"): (0, "685da1b240168fb1be0626b6a2c15f7a3739cc18e5b9a8a3bf1196fb1691379a"),
    ("wide-quote", "check-na"): (0, "915f4f13e4fe704a6569004b686729911e9ce20e98bdd1b88ba4363d95967373"),
    ("wide-quote", "check-nar"): (0, "9e80d048f7ca1c006de38d63c21114082442695a7fafe811b5f0a6e9480ce109"),
    ("wide-quote", "dominate"): (0, "fba224eca0c221678eb6984ca13f43d09bfa40c930c50b7cb554b7207db121ea"),
    ("wide-quote", "dual"): (0, "3be043117c3f5afcadc600522f0491ff0274eb87be4625cc78f469e20447b118"),
    ("wide-quote", "redundancy"): (3, "103be182a48b24764e06f75122905c99e54cfc30494a3a53bf72dd893c69d7c9"),
    ("wide-quote", "sharper-ftap"): (3, "63e872fe932a02207b76b2c224e010f1f3156629c90aeed02103696a35832184"),
    ("wide-quote", "strict-dual"): (0, "96da8d34f7e8ff0c5644b119c5ddf8f9575db8a1ee5ba21b9110919b6d2c82c8"),
    ("wide-quote", "superhedge"): (0, "7c6be1a1f553c8d506adac1ba316b209135fb1cd933039b5996f7fb948d0539c"),
}


# argv, run from the repository root -> (exit code, stdout, stderr)
TRANSCRIPTS = {
    # the one line CI also runs through the installed console script
    ("check-na", "tests/data/m1.json"): (
        0,
        '{"command":"check-na","verdict":"holds","values":{},"certificates":{},'
        '"diagnostics":{}}\n',
        "",
    ),
    # the compiled market parse_market returns feeds parse_claim, the query and its replay
    ("dual", "tests/data/m1.json", "--claim", "tests/data/call.json", "--verify"): (
        0,
        '{"command":"dual","verdict":"priced","values":{"value":"1/3"},'
        '"certificates":{"measure":{"weights":["1/3","2/3"],"optionValues":[]}},'
        '"diagnostics":{}}\n',
        "",
    ),
    # the super-hedge, whose phase 2 starts from the crash basis of phase 1, hedge replayed
    ("superhedge", "tests/data/m1.json", "--claim", "tests/data/call.json", "--verify"): (
        0,
        '{"command":"superhedge","verdict":"priced","values":{"price":"1/3"},'
        '"certificates":{"strategy":{"dynamic":{"0":["2/3"]},"buyLeg":[],"sellLeg":[],'
        '"net":[]}},"diagnostics":{}}\n',
        "",
    ),
    # the robust program and both pricing programs of m2 less g1 share that market's phase 1
    ("bounds", "tests/data/m2.json", "--option", "g1", "--verify"): (
        0,
        '{"command":"bounds","verdict":"computed","values":{"lower":"1/4","upper":"1/2"},'
        '"certificates":{},"diagnostics":{"option":"g1"}}\n',
        "",
    ),
    # a free digital exits 3 with the certificate it replayed; leaves 1 and 2 hang under node 3
    ("check-na", "tests/data/arb.json"): (
        3,
        '{"command":"check-na","verdict":"fails","values":{},'
        '"certificates":{"arbitrage":{"strategy":{"dynamic":{"0":["-1/2"],"3":["-1"],'
        '"4":["0"]},"buyLeg":["4"],"sellLeg":["0"],"net":["4"]},"gains":["1","1","1","1"],'
        '"strictLeaf":0}},"diagnostics":{"strictLeaf":0}}\n',
        "",
    ),
    # the sharper theorem hands out the arbitrage check-na derives: the same certificate
    ("sharper-ftap", "tests/data/arb.json"): (
        3,
        '{"command":"sharper-ftap","verdict":"fails","values":{},'
        '"certificates":{"arbitrage":{"strategy":{"dynamic":{"0":["-1/2"],"3":["-1"],'
        '"4":["0"]},"buyLeg":["4"],"sellLeg":["0"],"net":["4"]},"gains":["1","1","1","1"],'
        '"strictLeaf":0}},"diagnostics":{"strictLeaf":0}}\n',
        "",
    ),
    # likewise where the robust program is its own: an option paying 0 or 3/2, asked 0, bid -1
    ("sharper-ftap", "tests/data/free-call.json"): (
        3,
        '{"command":"sharper-ftap","verdict":"fails","values":{},'
        '"certificates":{"arbitrage":{"strategy":{"dynamic":{"0":[]},"buyLeg":["2/3"],'
        '"sellLeg":["0"],"net":["2/3"]},"gains":["0","1"],"strictLeaf":1}},'
        '"diagnostics":{"strictLeaf":1}}\n',
        "",
    ),
    # no consistent measure: any claim's super-hedge exits 3 with the face's ray, replayed on zero
    ("superhedge", "tests/data/arb.json", "--claim", "tests/data/arb-claim.json", "--verify"): (
        3,
        '{"command":"superhedge","verdict":"fails","values":{},'
        '"certificates":{"ray":{"capital":"-1","strategy":{"dynamic":{"0":["-1/2"],"3":["-1"],'
        '"4":["0"]},"buyLeg":["4"],"sellLeg":["0"],"net":["4"]}}},'
        '"diagnostics":{"blocking":"no quote-consistent martingale measure is supported on the '
        'charged scenarios"}}\n',
        '{"error":{"type":"arbitrage","message":"market admits robust arbitrage: super-hedging '
        'cost decreases without bound"}}\n',
    ),
    # a raised arbitrage failure with no ray, from main's one failure path: no certificates,
    # and superhedge's blocking sentence, since one cause has one
    ("dual", "tests/data/arb.json", "--claim", "tests/data/arb-claim.json"): (
        3,
        '{"command":"dual","verdict":"fails","values":{},"certificates":{},'
        '"diagnostics":{"blocking":"no quote-consistent martingale measure is supported on the '
        'charged scenarios"}}\n',
        '{"error":{"type":"arbitrage","message":"no quote-consistent martingale measure '
        'exists: the market admits arbitrage on some charged scenario"}}\n',
    ),
    # so is one the library raises for a generator no measure dominates without robustness
    ("dominate", "tests/data/m2.json", "--generator", "w1"): (
        3,
        '{"command":"dominate","verdict":"fails","values":{},"certificates":{},'
        '"diagnostics":{"blocking":"maximal uniform slack is 0: every consistent martingale '
        'measure touches a quote bound or drops a charged scenario"}}\n',
        '{"error":{"type":"arbitrage","message":"robust no-arbitrage fails: maximal uniform '
        "slack is 0: every consistent martingale measure touches a quote bound or drops a "
        'charged scenario"}}\n',
    ),
    # two identical spread options exit 3, each replicated by the other: g1 takes the pivot
    ("redundancy", "tests/data/m3.json"): (
        3,
        '{"command":"redundancy","verdict":"fails","values":{},'
        '"certificates":{"replications":{"g1":{"option":"g1","initialCapital":"0",'
        '"dynamic":{"0":[]},"staticSigned":[{"option":"g2","position":"1"}]},'
        '"g2":{"option":"g2","initialCapital":"0","dynamic":{"0":[]},'
        '"staticSigned":[{"option":"g1","position":"1"}]}}},'
        '"diagnostics":{"spreadOptions":[{"option":"g1","verdict":"redundant"},{"option":"g2",'
        '"verdict":"redundant"}]}}\n',
        "",
    ),
    # robust no-arbitrage blocked by a pinned quote: exit 3 with no certificate
    ("check-nar", "tests/data/m2.json"): (
        3,
        '{"command":"check-nar","verdict":"fails","values":{},"certificates":{},'
        '"diagnostics":{"blocking":"maximal uniform slack is 0: every consistent martingale '
        'measure touches a quote bound or drops a charged scenario"}}\n',
        "",
    ),
    # the sharper theorem refused for redundant spread options: exit 3 with no certificate
    ("sharper-ftap", "tests/data/m3.json"): (
        3,
        '{"command":"sharper-ftap","verdict":"precondition-failed","values":{},'
        '"certificates":{},"diagnostics":{"reason":"redundant spread options: g1, g2"}}\n',
        '{"error":{"type":"precondition","message":"redundant spread options: g1, g2"}}\n',
    ),
    # a spread-only market: each dominating measure is the interior one, option values included
    ("sharper-ftap", "tests/data/spread.json", "--verify"): (
        0,
        '{"command":"sharper-ftap","verdict":"holds","values":{"slack":"1/8"},'
        '"certificates":{"witness":{"shrunkBids":["5/16"],"shrunkAsks":["7/16"],"slack":"1/8",'
        '"interiorMeasure":{"weights":["5/8","3/8"],"optionValues":["3/8"]}},'
        '"dominating":{"P0":{"weights":["5/8","3/8"],"optionValues":["3/8"]},'
        '"P1":{"weights":["5/8","3/8"],"optionValues":["3/8"]}}},"diagnostics":{}}\n',
        "",
    ),
    # that measure again, as the one dominating the generator P0
    ("dominate", "tests/data/spread.json", "--generator", "P0", "--verify"): (
        0,
        '{"command":"dominate","verdict":"computed","values":{"generator":"P0"},'
        '"certificates":{"measure":{"weights":["5/8","3/8"],"optionValues":["3/8"]}},'
        '"diagnostics":{}}\n',
        "",
    ),
    # a command line without its market is invalid input: exit 4
    ("check-na",): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"hedgecert check-na: the following '
        'arguments are required: market"}}\n',
    ),
    # so is a literal outside the ASCII grammar, here with a trailing newline
    ("strict-dual", "tests/data/m1.json", "--claim", "tests/data/call.json", "--eps", "1/100\n"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"not a rational string: \'1/100\\\\n\'"}}\n',
    ),
    # a node's prices given as the string "1", whose characters would each parse
    ("check-na", "tests/data/prices-string.json"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"tree.nodes[0].prices: expected a list of '
        'rational strings"}}\n',
    ),
    # a claim whose first payoff is true: exit 4, naming the entry
    ("dual", "tests/data/m1.json", "--claim", "tests/data/claim-bool.json"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"payoff[0]: not a rational string: True"}}\n',
    ),
    # a claim listing its leaves in the other order, read by the leaf-order reader: same price
    ("superhedge", "tests/data/m1.json", "--claim", "tests/data/call-flipped.json"): (
        0,
        '{"command":"superhedge","verdict":"priced","values":{"price":"1/3"},'
        '"certificates":{"strategy":{"dynamic":{"0":["2/3"]},"buyLeg":[],"sellLeg":[],'
        '"net":[]}},"diagnostics":{}}\n',
        "",
    ),
    # a payoff that is a string, not a list: one issue, and no count of its entries
    ("superhedge", "tests/data/m1.json", "--claim", "tests/data/claim-string.json"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"payoff: expected a list of rational '
        'strings"}}\n',
    ),
    # m2 has no arbitrage, only its robust form fails (check-nar above)
    ("check-na", "tests/data/m2.json"): (
        0,
        '{"command":"check-na","verdict":"holds","values":{},"certificates":{},'
        '"diagnostics":{}}\n',
        "",
    ),
    # robust no-arbitrage holds on m3, with slack 1/2 and the even measure as witness
    ("check-nar", "tests/data/m3.json"): (
        0,
        '{"command":"check-nar","verdict":"holds","values":{"slack":"1/2"},'
        '"certificates":{"witness":{"shrunkBids":["3/4","3/4"],"shrunkAsks":["11/4","11/4"],'
        '"slack":"1/2","interiorMeasure":{"weights":["1/2","1/2"],"optionValues":["3/2",'
        '"3/2"]}}},"diagnostics":{}}\n',
        "",
    ),
    # the super-hedge and its dual, without --verify: they replay regardless
    ("superhedge", "tests/data/m1.json", "--claim", "tests/data/call.json"): (
        0,
        '{"command":"superhedge","verdict":"priced","values":{"price":"1/3"},'
        '"certificates":{"strategy":{"dynamic":{"0":["2/3"]},"buyLeg":[],"sellLeg":[],'
        '"net":[]}},"diagnostics":{}}\n',
        "",
    ),
    ("dual", "tests/data/m1.json", "--claim", "tests/data/call.json"): (
        0,
        '{"command":"dual","verdict":"priced","values":{"value":"1/3"},'
        '"certificates":{"measure":{"weights":["1/3","2/3"],"optionValues":[]}},'
        '"diagnostics":{}}\n',
        "",
    ),
    # arb.json plus an option extra has no consistent measure, nor has it less extra: that
    # robust failure is the reduced market's, so it carries no ray to replay against the
    # command's own market
    ("bounds", "tests/data/arb-extra.json", "--option", "extra"): (
        3,
        '{"command":"bounds","verdict":"fails","values":{},"certificates":{},'
        '"diagnostics":{"blocking":"no quote-consistent martingale measure is supported on the '
        'charged scenarios"}}\n',
        '{"error":{"type":"arbitrage","message":"market without option \'extra\' fails robust '
        "no-arbitrage: no quote-consistent martingale measure is supported on the charged "
        'scenarios"}}\n',
    ),
    # an option the market does not quote
    ("bounds", "tests/data/m3.json", "--option", "zzz"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"no option named \'zzz\'"}}\n',
    ),
    # m1's one consistent measure dominates its generator
    ("dominate", "tests/data/m1.json", "--generator", "up", "--verify"): (
        0,
        '{"command":"dominate","verdict":"computed","values":{"generator":"up"},'
        '"certificates":{"measure":{"weights":["1/3","2/3"],"optionValues":[]}},'
        '"diagnostics":{}}\n',
        "",
    ),
    # eps must be a positive rational
    ("strict-dual", "tests/data/m3.json", "--claim", "tests/data/call.json", "--eps", "0"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"eps must be positive, got 0"}}\n',
    ),
    # a non-ASCII digit is outside the literal grammar too
    ("strict-dual", "tests/data/m1.json", "--claim", "tests/data/call.json", "--eps", "\u0661/100"): (
        4,
        "",
        '{"error":{"type":"invalid-input","message":"not a rational string: \'\\u0661/100\'"}}\n',
    ),
    # the io error names the path it was given
    ("check-na", "tests/data/nosuchfile.json"): (
        4,
        "",
        '{"error":{"type":"io-error","message":"[Errno 2] No such file or directory: '
        '\'tests/data/nosuchfile.json\'"}}\n',
    ),
}

# the rows whose point rests on a fresh process: the console script's one
# command, a query and its replay sharing one process, and literals read
# from that process's own command line
FRESH = [
    ("check-na", "tests/data/m1.json"),
    ("dual", "tests/data/m1.json", "--claim", "tests/data/call.json", "--verify"),
    ("strict-dual", "tests/data/m1.json", "--claim", "tests/data/call.json", "--eps", "1/100\n"),
    ("check-na", "tests/data/prices-string.json"),
    ("dual", "tests/data/m1.json", "--claim", "tests/data/claim-bool.json"),
    ("sharper-ftap", "tests/data/spread.json", "--verify"),
]


def _row_id(argv):
    return " ".join(arg.removeprefix("tests/data/") for arg in argv)


@pytest.mark.parametrize("argv", list(TRANSCRIPTS), ids=_row_id)
def test_data_file_transcripts(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == TRANSCRIPTS[argv]


@pytest.mark.parametrize("argv", FRESH, ids=_row_id)
def test_data_file_transcripts_in_a_fresh_process(argv):
    run = fresh_process(*argv)
    assert (run.returncode, run.stdout, run.stderr) == TRANSCRIPTS[argv]


def test_every_data_file_is_read_by_a_test():
    # a data file no test reads would leave its bytes unchecked
    named = {Path(arg).name for argv in TRANSCRIPTS for arg in argv if arg.startswith("tests/data/")}
    sources = [path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))
               if path.name != Path(__file__).name]
    unread = [path.name for path in sorted((ROOT / "tests" / "data").glob("*.json"))
              if path.name not in named
              and not any(re.search(f'["/]{re.escape(path.name)}"', source) for source in sources)]
    assert unread == []


def _argv(command, market, claim, option, generator):
    extra = {
        "superhedge": ["--claim", claim],
        "dual": ["--claim", claim],
        "bounds": ["--option", option],
        "dominate": ["--generator", generator],
        "strict-dual": ["--claim", claim, "--eps", "1/100"],
    }.get(command, [])
    return [command, market, *extra, "--verify"]


COMMANDS = ("check-na", "check-nar", "superhedge", "dual", "bounds", "redundancy",
            "sharper-ftap", "dominate", "strict-dual")


def _run_all(tmp_path, capsys, label):
    m = MARKETS[label]()
    market = tmp_path / "market.json"
    market.write_text(dump_market(m))
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps(claim_to_json(m, random_claim(random.Random(label), m))))
    option = m.options[0].name if m.options else "none"
    generator = (m.measures.names or ["P0"])[0]
    got = {}
    for command in COMMANDS:
        code = main(_argv(command, str(market), str(claim), option, generator))
        out = capsys.readouterr().out
        got[(label, command)] = (code, hashlib.sha256(out.encode()).hexdigest())
    return got


@pytest.mark.parametrize("label", sorted(MARKETS))
def test_cli_report_bytes_are_pinned(tmp_path, capsys, label):
    got = _run_all(tmp_path, capsys, label)
    assert got == {key: PINNED[key] for key in got}


# The random-3 superhedge pin was re-recorded when phase 1 began from a
# crash basis: phase 2 starts from another vertex and ends on another
# optimal hedge, with the same price. Both hedges replay at that price,
# and neither below it.
RANDOM_3_HEDGES = {
    "before the crash basis": {0: ["43/378", "-109/378"], 1: ["-4/9", "-61/18"],
                               2: ["2", "0"], 3: ["0", "-5/24"]},
    "from the crash basis": {0: ["43/378", "-109/378"], 1: ["-4/9", "-61/18"],
                             2: ["2", "0"], 3: ["5/9", "0"]},
}


def test_the_random_3_superhedge_before_and_after_the_crash_basis_replay_at_one_price(
        tmp_path, capsys):
    label = "random-3"
    m = MARKETS[label]()
    claim = random_claim(random.Random(label), m)
    price = F(79, 54)
    for name, dynamic in RANDOM_3_HEDGES.items():
        legs = [F(0)] * len(m.options)
        hedge = Strategy({nid: [F(v) for v in held] for nid, held in dynamic.items()}, legs, legs)
        assert verify_super_replication(m, claim, price, hedge), name
        assert not verify_super_replication(m, claim, price - F(1, 10**6), hedge), name
    market, claim_path = tmp_path / "market.json", tmp_path / "claim.json"
    market.write_text(dump_market(m))
    claim_path.write_text(json.dumps(claim_to_json(m, claim)))
    assert main(["superhedge", str(market), "--claim", str(claim_path), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"] == {"price": "79/54"}
    assert report["certificates"]["strategy"]["dynamic"] == {
        str(nid): held for nid, held in RANDOM_3_HEDGES["from the crash basis"].items()}
