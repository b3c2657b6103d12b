"""The counting rule of ``tools/code_lines.py``, the size metric of the
package, pinned on a small source.  The tool is loaded from its path."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code


# A comment line.
class Box:
    """Class docstring."""

    side = 2

    def area(self):
        """Function docstring,

        over three lines."""
        return math.prod(
            (self.side,
             self.side),
        )
'''


def _tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files under tools/
    spec = importlib.util.spec_from_file_location("tools_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_and_not_docstrings_comments_or_blanks(monkeypatch):
    code_lines = _tool(monkeypatch).code_lines
    # import, class, side, def, and the four lines of the return expression.
    assert code_lines(SOURCE) == 8
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines("x = (\n    1,\n    2,\n)\n") == 4
    # A string that is not the first statement of its body is code.
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_code_lines_prints_each_module_and_the_total(monkeypatch, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 2\n")
    assert _tool(monkeypatch).main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     8  a.py", "     1  b.py", "     9  total"]
