import json

import pytest

from bench_answers import answers_hold

ROW = {"correct": True, "attempted": 149, "failed": 0}


@pytest.mark.parametrize("rows, holds", [
    ([ROW] * 3, True),
    ([ROW] * 2, False),
    ([ROW] * 4, False),
    ([ROW, ROW, {**ROW, "correct": False}], False),
    ([ROW, ROW, {**ROW, "correct": 1}], False),  # true, not truthy
    ([ROW, {**ROW, "failed": 1}, ROW], False),
])
def test_a_run_holds_on_three_correct_rows_without_a_failure(rows, holds):
    lines = ["== tree-ladder seed=0 correct=True attempted=149 failed=0\n",
             *(json.dumps(row) + "\n" for row in rows)]
    assert answers_hold(lines) is holds
