import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is
    not a docstring"""
    return (x +
            1)
'''


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, def, the two lines of s, the two of return
    assert code_lines.code_lines(SOURCE) == 6
