"""The source line counter, tools/src_size.py."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "src_size", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                             "src_size.py"))
src_size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_size)

# lines 1-3 and 10 are docstrings (line 2 blank inside one), 5 a comment,
# 6, 9 and 11 code, 4, 7 and 8 blank
SOURCE = '''"""Module docstring.

Second paragraph."""

# a comment-only line
x = 1  # code with a comment


def f():
    """One-line docstring."""
    return x
'''


def test_counts_each_kind_of_line(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert src_size.count_file(str(tmp_path / "mod.py")) == {
        "code": 3, "docstring": 3, "comment": 1, "blank": 4}
    src_size.main(["src_size.py", str(tmp_path)])
    assert capsys.readouterr().out == (
        "code=3 docstring=3 comment=1 blank=4 total=11\n")


@pytest.mark.parametrize("name", ["mod.py", "missing", "empty"])
def test_refuses_a_path_with_no_source(tmp_path, name):
    """A file, a missing path and a directory with no .py file exit
    non-zero, naming the path, where os.walk alone would count nothing."""
    (tmp_path / "mod.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "empty").mkdir()
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as exc:
        src_size.main(["src_size.py", path])
    assert exc.value.code == (
        f"src_size: {path} is not a directory that holds .py files")
