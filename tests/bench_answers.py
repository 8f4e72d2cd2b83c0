"""Fail unless a benchmark run reports correct answers and no failed operation.

bench/run.py exits 0 even when an answer is wrong, so its stdout is read here:

    python3 bench/run.py --seed 0 --seconds 1 --trace 0 | python3 tests/bench_answers.py

The run holds unless it prints exactly three summary rows, one JSON object a
line, each with `correct` true and `failed` 0; the exit status is 0 or 1.
"""

import json
import sys


def answers_hold(lines) -> bool:
    rows = [json.loads(line) for line in lines if line.startswith("{")]
    return len(rows) == 3 and all(row["correct"] is True and row["failed"] == 0 for row in rows)


if __name__ == "__main__":
    sys.exit(not answers_hold(sys.stdin))
