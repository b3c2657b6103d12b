"""Count the code lines of the bracketkit package, per module and in total.

A line counts when it holds a token other than a comment and lies outside
every module, class and function docstring; blank lines, comment lines and
docstring lines do not count.

Run from the repo root:

    python3 tools/code_lines.py [package directory, default src/bracketkit]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in ``source``, by the rule above."""
    lines = {
        line
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _LAYOUT
        for line in range(token.start[0], token.end[0] + 1)
    }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0] if args else "src/bracketkit")
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6,d}  {name}")
    print(f"{sum(counts.values()):6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
