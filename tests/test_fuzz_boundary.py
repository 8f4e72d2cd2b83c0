"""Hostile market and claim files never escape the exit-code contract.

Valid small documents are mutated: keys dropped or renamed, values swapped
for other JSON types, zero and negative denominators, huge integers (as
strings and as JSON literals), non-ASCII names and truncated bytes.
`parse_market` and `parse_claim` either return or raise StructureError, and
`cli.main` returns 0, 3 or 4 and raises nothing.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hedgecert import cli, marketio
from hedgecert.errors import StructureError
from markets import binomial_with_spread_option, trinomial_straddle_market

DATA = Path(__file__).parent / "data"
# replaced, quotes included, by a JSON integer literal past the int-string limit
HUGE_LITERAL = "@huge-literal@"


def _bases():
    docs = [json.loads((DATA / name).read_text()) for name in ("m1.json", "m3.json")]
    docs += [marketio.market_to_json(m)
             for m in (binomial_with_spread_option(), trinomial_straddle_market())]
    bases = []
    for doc in docs:
        leaves = doc["leafOrder"]
        claim = {"schemaVersion": 1, "leafOrder": list(reversed(leaves)),
                 "payoff": [str(k % 3) for k in range(len(leaves))]}
        bases.append((doc, claim))
    return bases


BASES = _bases()
NAMES = sorted({item["name"] for doc, _ in BASES for key in ("options", "measures")
                for item in doc[key]} | {"zzz", "ü"})

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from([
        "1/0", "-3/0", "0/0", "2/-3", "-1/2", "1e3", "0.5", " 1", "NaN", "١", "½",
        "9" * 5000, "1/" + "7" * 5000, "-" + "3" * 4000 + "/7", HUGE_LITERAL,
    ]),
    st.lists(st.sampled_from(["1", "0", "1/2", "-1", 2, None]), max_size=4),
    st.dictionaries(st.sampled_from(["id", "name", "ü"]), st.sampled_from(["1", 0, None]),
                    max_size=2),
)
COMMANDS = ["check-na", "check-nar", "superhedge", "dual", "bounds", "redundancy",
            "sharper-ftap", "dominate", "strict-dual"]
KEYS = st.sampled_from(["name", "weights", "prices", "nodes", "x", "名前", "ünknown", ""])


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, prefix + (k,))


def _mutated(data, doc) -> bytes:
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = data.draw(st.sampled_from(["drop", "set", "rename"]))
        if action == "drop":
            del parent[key]
        elif action == "set":
            parent[key] = data.draw(ODD_VALUES)
        elif isinstance(parent, dict):
            parent[data.draw(KEYS)] = parent.pop(key)
        else:
            parent.insert(key, data.draw(ODD_VALUES))
    text = json.dumps(doc, ensure_ascii=data.draw(st.booleans()))
    text = text.replace(f'"{HUGE_LITERAL}"', "1" + "0" * 5000)
    raw = text.encode()
    if data.draw(st.booleans()):
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    return raw


def _command(data, market: str, claim: str) -> list[str]:
    command = data.draw(st.sampled_from(COMMANDS))
    argv = [command, market]
    if command in ("superhedge", "dual", "strict-dual"):
        argv += ["--claim", claim]
    if command == "bounds":
        argv.append("--option=" + data.draw(st.sampled_from(NAMES)))
    if command == "dominate":
        argv.append("--generator=" + data.draw(st.sampled_from(NAMES)))
    if command == "strict-dual":
        argv.append("--eps=" + data.draw(st.sampled_from(["1/100", "1/2", "0", "-1/3", "1/0", "x"])))
    if data.draw(st.booleans()):
        argv.append("--verify")
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, data):
    doc, claim_doc = data.draw(st.sampled_from(BASES))
    market_bytes = _mutated(data, doc) if data.draw(st.booleans()) else json.dumps(doc).encode()
    claim_bytes = _mutated(data, claim_doc)

    try:
        marketio.parse_market(market_bytes)
    except StructureError:
        pass
    try:
        marketio.parse_claim(claim_bytes, marketio.parse_market(json.dumps(doc)))
    except StructureError:
        pass

    market, claim = tmp_path / "market.json", tmp_path / "claim.json"
    market.write_bytes(market_bytes)
    claim.write_bytes(claim_bytes)
    argv = _command(data, str(market), str(claim))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 3, 4), argv
