"""Run the test suite under a tracer that follows every function of the
package, and fail with every statement of theirs that never ran.

A replay answers False on each way a certificate can be wrong, a guard
raises on each way the solver can fault and a parser names each way its
input can be malformed; a statement that no test reaches is a branch nobody
has seen work. The tracer is `sys.settrace` (and `threading.settrace` for
the suite's threads) and follows only frames of code under
`src/hedgecert/`, so it needs nothing beyond the standard library. Every
statement in the body of a function counts, methods, nested functions and
closures included; module-level code runs on import, before the tracer
starts, and is left out, cli.py's `if __name__ == "__main__":` body with it.

    python tests/replay_coverage.py [pytest arguments]

Prints how many statements ran, in the replay functions of `REPLAYS` and in
the whole package, and exits 1 when the suite fails or a statement never
ran, listing each as path:line: source.
"""

import ast
import inspect
import os
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hedgecert import arbitrage, lp, redundancy, superhedge  # noqa: E402

PACKAGE = Path(lp.__file__).parent
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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def statements(path: Path) -> dict[int, str]:
    """The first line of every statement with code in the body of one of the
    module's functions, at any depth, with its source. A docstring has no
    code, so it is not a statement here."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    starts = {sub.lineno for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
              for stmt in fn.body for sub in ast.walk(stmt) if isinstance(sub, ast.stmt)}
    coded, codes = set(), [compile(tree, str(path), "exec")]
    while codes:
        code = codes.pop()
        coded |= {line for _, _, line in code.co_lines() if line is not None}
        codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    lines = source.splitlines()
    return {line: lines[line - 1].strip() for line in sorted(starts & coded)}


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def follow(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(follow)
    sys.settrace(follow)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    found = {path: statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    missed = [(path, line) for path, lines in found.items() for line in lines
              if (str(path), line) not in ran]
    replay_lines = set()
    for fn in REPLAYS:
        source, first = inspect.getsourcelines(fn)
        replay_lines |= {(Path(inspect.getsourcefile(fn)), line)
                         for line in range(first, first + len(source))}
    replays = {key for key in replay_lines if key[1] in found[key[0]]}
    total = sum(map(len, found.values()))
    print(f"replay coverage: {len(replays - set(missed))} of {len(replays)} statements in "
          f"{len(REPLAYS)} replay functions ran")
    print(f"package coverage: {total - len(missed)} of {total} statements in the functions "
          f"of {len(found)} modules ran")
    print("\n".join(f"{os.path.relpath(path)}:{line}: {found[path][line]}" for path, line in missed)
          or "every statement ran")
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
