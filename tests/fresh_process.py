"""Run the checkout's CLI in a new interpreter, for the checks that rest on a
fresh process: its one parser, its hash seed, its own command line."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fresh_process(*argv, **env) -> subprocess.CompletedProcess:
    """Run `python -m hedgecert.cli argv` from the repository root on the
    checkout's package, as the in-process tests run it, with `env` added to
    the environment."""
    src = str(ROOT / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "hedgecert.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT)
