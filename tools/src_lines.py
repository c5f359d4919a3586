"""Count the lines of the package under ``src/``, by kind.

For every module it prints its total lines and how many of them are
docstring, comment, blank and code lines, then the totals:

* docstring: a line of a module, class or function docstring, its blank
  lines included;
* comment: a line that holds only a comment;
* blank: an empty or whitespace-only line outside docstrings;
* code: every other line, code with a trailing comment included.

    python3 tools/src_lines.py [<checkout>]

The checkout defaults to the one this tool is in.  Not a test; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("total", "docstring", "comment", "blank", "code")


def count(source: str) -> dict[str, int]:
    """Lines of one module's ``source`` by kind."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()  # lines with a token other than a comment
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstring:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in code:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
    counts["total"] = len(lines)
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    src = Path(args.checkout) / "src"
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<28}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(src.rglob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{str(path.relative_to(src)):<28}"
              + "".join(f"{counts[kind]:>10,}" for kind in KINDS))
    print(f"{'total':<28}" + "".join(f"{totals[kind]:>10,}" for kind in KINDS))


if __name__ == "__main__":
    main()
