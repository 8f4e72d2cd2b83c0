"""Run the test suite under a tracer that follows only the certificate
replays, and fail with every statement of theirs that never ran.

A replay answers False on each way a certificate can be wrong; a branch
that no test reaches is a rejection nobody has seen work. The tracer is
`sys.settrace` (and `threading.settrace` for the suite's threads) and
follows only the replay functions' own frames, so it needs nothing beyond
the standard library.

    python tests/replay_coverage.py [pytest arguments]

Exits 1 when the suite fails or a replay statement never ran, listing
each as path:line: source.
"""

import ast
import inspect
import os
import sys
import textwrap
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hedgecert import arbitrage, lp, redundancy, superhedge  # noqa: E402

REPLAYS = (
    arbitrage.dominates,
    arbitrage.verify_measure,
    arbitrage.strictly_inside_quotes,
    arbitrage.verify_na_certificate,
    arbitrage.verify_nar_witness,
    lp.verify_certificate,
    redundancy.verify_replication,
    superhedge.verify_super_replication,
)


def statements(fn) -> dict[int, str]:
    """The first line of every statement in fn's body that has code, with
    its source; the docstring is not a statement here."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    body = tree.body[0].body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    starts = {node.lineno + first - 1 for stmt in body for node in ast.walk(stmt)
              if isinstance(node, ast.stmt)}
    coded = {line for _, _, line in fn.__code__.co_lines() if line is not None}
    return {line: lines[line - first].strip() for line in sorted(starts & coded)}


def main(args: list[str]) -> int:
    codes = {fn.__code__: fn for fn in REPLAYS}
    ran: set[tuple[object, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return local

    def follow(frame, event, arg):
        return local if frame.f_code in codes else None

    threading.settrace(follow)
    sys.settrace(follow)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [f"{os.path.relpath(inspect.getsourcefile(fn))}:{line}: {source}"
              for code, fn in codes.items()
              for line, source in statements(fn).items() if (code, line) not in ran]
    total = sum(len(statements(fn)) for fn in REPLAYS)
    print(f"replay coverage: {total - len(missed)} of {total} statements in "
          f"{len(REPLAYS)} replay functions ran")
    print("\n".join(missed) or "every replay statement ran")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
