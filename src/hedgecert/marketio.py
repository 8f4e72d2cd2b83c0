"""JSON market and claim files, plus the serializers the CLI reports use.

Rationals travel as strings: integers ("3", "-2"), fractions ("1/3"), or
finite decimals ("0.25") parsed exactly as p/10^k. Output always uses the
canonical lowest-terms form, so identical models print identical bytes.
Leaf ordering is explicit in every file (`leafOrder`), never inferred, and
payoff/weight arrays align with it.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction

from .arbitrage import ArbitrageCertificate, MartingaleMeasure, RobustnessWitness
from .errors import StructureError
from .model import (
    Claim,
    Market,
    MarketModel,
    MeasureFamily,
    Node,
    OptionQuote,
    ScenarioTree,
    Strategy,
    leaf_ids,
    require_valid,
    validate_market,
)
from .redundancy import ReplicationCertificate

SCHEMA_VERSION = 1

_RATIONAL_RE = re.compile(r"^-?\d+$|^-?\d+/\d+$|^-?\d+\.\d+$")

_MARKET_KEYS = {"schemaVersion", "tree", "options", "measures", "leafOrder"}
_TREE_KEYS = {"nodes"}
_NODE_KEYS = {"id", "time", "parent", "prices"}
_OPTION_KEYS = {"name", "payoff", "bid", "ask"}
_MEASURE_KEYS = {"name", "weights"}
_CLAIM_KEYS = {"schemaVersion", "leafOrder", "payoff"}


class MarketParseError(StructureError):
    """Carries every located problem found in an input file."""

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = issues
        super().__init__("; ".join(f"{path}: {message}" for path, message in issues))


class _Issues:
    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.items.append((path, message))

    def mark(self) -> int:
        return len(self.items)

    def raise_if_added(self, mark: int) -> None:
        # this section's problems block further parsing; report everything so far
        if len(self.items) > mark:
            raise MarketParseError(self.items)

    def raise_if_any(self) -> None:
        if self.items:
            raise MarketParseError(self.items)


def parse_rational_text(text) -> Fraction:
    """Strict rational grammar; raises StructureError on anything else."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise StructureError(f"not a rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise StructureError("zero denominator") from None
    except ValueError:  # the grammar matched, so only the int-string limit is left
        raise StructureError(f"rational string of {len(text)} characters is too long") from None


def format_rational(value: Fraction) -> str:
    # Decimal(int) converts exactly and, unlike str(int), has no digit limit
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _load_object(data: bytes | str) -> dict:
    """Decode and parse one JSON document whose top level is an object."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarketParseError([("$", f"not UTF-8: invalid byte at offset {exc.start}")]) from None
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MarketParseError([("$", f"malformed JSON: {exc.msg} at line {exc.lineno}")]) from None
    except RecursionError:
        raise MarketParseError([("$", "malformed JSON: nested too deeply")]) from None
    except ValueError as exc:  # an integer literal past the int-string limit
        raise MarketParseError([("$", f"malformed JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise MarketParseError([("$", "top level must be an object")])
    return raw


def _is_id_list(obj) -> bool:
    return isinstance(obj, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in obj
    )


def _take_rational(obj, path: str, issues: _Issues) -> Fraction | None:
    try:
        return parse_rational_text(obj)
    except StructureError as exc:
        issues.add(path, str(exc))
        return None


def _take_rational_list(obj, path: str, issues: _Issues) -> list[Fraction]:
    if not isinstance(obj, list):
        issues.add(path, "expected a list of rational strings")
        return []
    out = []
    for k, item in enumerate(obj):
        v = _take_rational(item, f"{path}[{k}]", issues)
        out.append(v if v is not None else Fraction(0))
    return out


def _check_keys(obj: dict, allowed: set[str], path: str, issues: _Issues) -> None:
    for key in obj:
        if key not in allowed:
            issues.add(f"{path}.{key}", "unknown field")


def _take_int(obj, path: str, issues: _Issues, allow_none: bool = False):
    if allow_none and obj is None:
        return None
    if isinstance(obj, bool) or not isinstance(obj, int):
        issues.add(path, f"expected an integer, got {obj!r}")
        return None
    return obj


def _parse_nodes(raw, issues: _Issues) -> list[Node]:
    nodes = []
    if not isinstance(raw, list) or not raw:
        issues.add("tree.nodes", "expected a non-empty list")
        return nodes
    for k, item in enumerate(raw):
        path = f"tree.nodes[{k}]"
        if not isinstance(item, dict):
            issues.add(path, "expected an object")
            continue
        _check_keys(item, _NODE_KEYS, path, issues)
        missing = _NODE_KEYS - set(item)
        if missing:
            issues.add(path, f"missing fields: {', '.join(sorted(missing))}")
            continue
        nid = _take_int(item["id"], f"{path}.id", issues)
        time = _take_int(item["time"], f"{path}.time", issues)
        parent = _take_int(item["parent"], f"{path}.parent", issues, allow_none=True)
        prices = _take_rational_list(item["prices"], f"{path}.prices", issues)
        if nid is None or time is None:
            continue
        nodes.append(Node(nid, time, parent, prices))
    return nodes


def _named_entries(raw, section: str, keys: set[str], vector: str, reorder: list[int],
                   issues: _Issues):
    """Yield (path, entry, name, vector) for each entry of "options" or
    "measures" that is an object with exactly `keys` and a unique non-empty
    name; its `vector` field is parsed and put in canonical leaf order."""
    if not isinstance(raw, list):
        issues.add(section, "expected a list")
        issues.raise_if_any()
    kind = section[:-1]
    seen_names = set()
    for k, item in enumerate(raw):
        path = f"{section}[{k}]"
        if not isinstance(item, dict):
            issues.add(path, "expected an object")
            continue
        _check_keys(item, keys, path, issues)
        missing = keys - set(item)
        if missing:
            issues.add(path, f"missing fields: {', '.join(sorted(missing))}")
            continue
        name = item["name"]
        if not isinstance(name, str) or not name:
            issues.add(f"{path}.name", "expected a non-empty string")
            continue
        if name in seen_names:
            issues.add(f"{path}.name", f"duplicate {kind} name {name!r}")
        seen_names.add(name)
        values = _take_rational_list(item[vector], f"{path}.{vector}", issues)
        if len(values) == len(reorder):
            values = [values[i] for i in reorder]
        yield path, item, name, values


def parse_market(data: bytes | str) -> MarketModel:
    """Exact parse of a market file; every problem is reported with its path."""
    issues = _Issues()
    raw = _load_object(data)
    version = raw.get("schemaVersion")
    if version != SCHEMA_VERSION:
        raise MarketParseError([("schemaVersion", f"unsupported value {version!r}, expected {SCHEMA_VERSION}")])
    _check_keys(raw, _MARKET_KEYS, "$", issues)
    missing_top = _MARKET_KEYS - set(raw)
    if missing_top:
        for key in missing_top:
            issues.add(key, "missing field")
        issues.raise_if_any()

    mark = issues.mark()
    tree_raw = raw["tree"]
    if not isinstance(tree_raw, dict):
        issues.add("tree", "expected an object")
        issues.raise_if_any()
    _check_keys(tree_raw, _TREE_KEYS, "tree", issues)
    nodes = _parse_nodes(tree_raw.get("nodes"), issues)
    issues.raise_if_added(mark)

    periods = max(node.time for node in nodes)
    roots = [n for n in nodes if n.parent is None]
    num_assets = len(roots[0].prices) if roots else 0
    tree = ScenarioTree(nodes, periods, num_assets)

    mark = issues.mark()
    leaves = leaf_ids(tree)
    order_raw = raw["leafOrder"]
    if not _is_id_list(order_raw):
        issues.add("leafOrder", "expected a list of node ids")
    elif sorted(order_raw) != leaves:
        issues.add("leafOrder", "must list exactly the nodes at the final period")
    issues.raise_if_added(mark)
    slot = {leaf: k for k, leaf in enumerate(order_raw)}
    reorder = [slot[leaf] for leaf in leaves]  # file index per canonical position

    options = []
    entries = _named_entries(raw["options"], "options", _OPTION_KEYS, "payoff", reorder, issues)
    for path, item, name, payoff in entries:
        bid = _take_rational(item["bid"], f"{path}.bid", issues)
        ask = _take_rational(item["ask"], f"{path}.ask", issues)
        if bid is not None and ask is not None:
            options.append(OptionQuote(name, payoff, bid, ask))

    generators, gen_names = [], []
    entries = _named_entries(raw["measures"], "measures", _MEASURE_KEYS, "weights", reorder, issues)
    for _, _, name, weights in entries:
        generators.append(weights)
        gen_names.append(name)
    issues.raise_if_any()

    market = MarketModel(tree, options, MeasureFamily(generators, gen_names))
    report = validate_market(market)
    if not report.ok:
        raise MarketParseError([("market", v) for v in report.violations])
    return market


def market_to_json(m: Market) -> dict:
    c = require_valid(m)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "tree": {
            "nodes": [
                {
                    "id": node.id,
                    "time": node.time,
                    "parent": node.parent,
                    "prices": [format_rational(p) for p in node.prices],
                }
                for node in sorted(m.tree.nodes, key=lambda n: n.id)
            ]
        },
        "options": [
            {
                "name": opt.name,
                "payoff": [format_rational(v) for v in opt.payoff],
                "bid": format_rational(opt.bid),
                "ask": format_rational(opt.ask),
            }
            for opt in m.options
        ],
        "measures": [
            {"name": name, "weights": [format_rational(w) for w in weights]}
            for name, weights in zip(c.generator_names, m.measures.generators)
        ],
        "leafOrder": leaf_ids(m.tree),
    }


def dump_market(m: Market) -> str:
    return json.dumps(market_to_json(m), indent=2)


def parse_claim(data: bytes | str, m: Market) -> Claim:
    """Parse a claim file against a market's leaves."""
    issues = _Issues()
    raw = _load_object(data)
    if raw.get("schemaVersion") != SCHEMA_VERSION:
        raise MarketParseError([("schemaVersion", f"unsupported value {raw.get('schemaVersion')!r}")])
    _check_keys(raw, _CLAIM_KEYS, "$", issues)
    for key in _CLAIM_KEYS - set(raw):
        issues.add(key, "missing field")
    issues.raise_if_any()

    leaves = leaf_ids(m.tree)
    order = raw["leafOrder"]
    if not _is_id_list(order) or sorted(order) != leaves:
        issues.add("leafOrder", "must list exactly the market's final-period nodes")
        issues.raise_if_any()
    payoff = _take_rational_list(raw["payoff"], "payoff", issues)
    if len(payoff) != len(order):
        issues.add("payoff", f"{len(payoff)} entries for {len(order)} leaves")
    issues.raise_if_any()
    slot = {leaf: k for k, leaf in enumerate(order)}
    return Claim([payoff[slot[leaf]] for leaf in leaves])


def claim_to_json(m: Market, f: Claim) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "leafOrder": leaf_ids(m.tree),
        "payoff": [format_rational(v) for v in f.payoff],
    }


def strategy_to_json(m: Market, s: Strategy) -> dict:
    return {
        "dynamic": {
            str(nid): [format_rational(v) for v in s.dynamic[nid]]
            for nid in sorted(s.dynamic)
        },
        "buyLeg": [format_rational(v) for v in s.buy_leg],
        "sellLeg": [format_rational(v) for v in s.sell_leg],
        "net": [format_rational(b - v) for b, v in zip(s.buy_leg, s.sell_leg)],
    }


def measure_to_json(q: MartingaleMeasure) -> dict:
    return {
        "weights": [format_rational(w) for w in q.weights],
        "optionValues": [format_rational(v) for v in q.option_values],
    }


def na_certificate_to_json(m: Market, cert: ArbitrageCertificate) -> dict:
    return {
        "strategy": strategy_to_json(m, cert.strategy),
        "gains": [format_rational(g) for g in cert.gains],
        "strictLeaf": cert.strict_leaf,
    }


def witness_to_json(m: Market, w: RobustnessWitness) -> dict:
    return {
        "shrunkBids": [format_rational(v) for v in w.shrunk_bids],
        "shrunkAsks": [format_rational(v) for v in w.shrunk_asks],
        "slack": format_rational(w.slack),
        "interiorMeasure": measure_to_json(w.interior_measure),
    }


def replication_to_json(m: Market, i: int, cert: ReplicationCertificate) -> dict:
    others = [k for k in range(len(m.options)) if k != i]
    return {
        "option": m.options[i].name,
        "initialCapital": format_rational(cert.initial_capital),
        "dynamic": {
            str(nid): [format_rational(v) for v in cert.dynamic[nid]]
            for nid in sorted(cert.dynamic)
        },
        "staticSigned": [
            {"option": m.options[k].name, "position": format_rational(h)}
            for k, h in zip(others, cert.static_signed)
        ],
    }
