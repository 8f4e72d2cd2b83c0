"""Run the README's python blocks in order in one namespace, as a reader
would paste them. Any block that raises fails the run, and so does a
one-line bare expression whose trailing comment does not begin with the
repr of its value, as in `price   # Fraction(1, 3)`.

    PYTHONPATH=src python tests/readme_examples.py

Run from the repository root. Prints how many blocks ran and how many
commented results were checked, then each wrong result, and exits 1 on one.
"""
import ast
import io
import re
import sys
import tokenize
text = open("README.md", encoding="utf-8").read()
blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
assert blocks, "no python block found in README.md"
namespace = {}
checked, wrong = 0, []
for i, block in enumerate(blocks, 1):
    name = f"README.md python block {i}"
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    for stmt in ast.parse(block, name).body:
        comment = comments.get(stmt.lineno)
        if isinstance(stmt, ast.Expr) and stmt.end_lineno == stmt.lineno and comment:
            value = eval(compile(ast.Expression(stmt.value), name, "eval"), namespace)
            checked += 1
            if not comment.startswith(repr(value)):
                wrong.append(f"{name}, line {stmt.lineno}: {repr(value)} is not # {comment}")
        else:
            exec(compile(ast.Module([stmt], []), name, "exec"), namespace)
print(f"{len(blocks)} README python blocks ran, {checked} commented results checked")
sys.exit("\n".join(wrong) or None)
