"""Line counts of a package's modules, as a Markdown table.

    python tools/code_size.py src/raspen

A code line holds a token outside docstrings and comments; a docstring
line is a line of the leading string of a module, class or function body.
Blank and comment-only lines count in the total only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source):
    """(total, code, docstring) line counts of a module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring), len(docstring)


def main(package):
    rows = [(path.stem, *counts(path.read_text()))
            for path in sorted(Path(package).glob("*.py"))]
    rows.sort(key=lambda row: -row[2])
    print(f"### Code size of `{package}`\n")
    print("| module | lines | code | docstring |\n|---|---:|---:|---:|")
    for name, *numbers in rows + [("total", *map(sum, zip(*(r[1:] for r in rows))))]:
        print(f"| {name} | " + " | ".join(f"{n:,}" for n in numbers) + " |")


if __name__ == "__main__":
    main(sys.argv[1])
