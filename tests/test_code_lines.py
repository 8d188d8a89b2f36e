"""``tools/code_lines.py`` counts the lines that hold a token outside docstrings and comments."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, capsys):
    f = tmp_path / "m.py"
    f.write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment line\n"
        "x = 1  # a trailing comment\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One-line docstring."""\n'
        "    return '''a string\n"
        "over two lines'''\n",
        encoding="utf-8",
    )
    tool = _tool()
    assert tool.code_lines(f.read_text(encoding="utf-8")) == 5
    assert tool.main([str(f)]) == 0
    assert capsys.readouterr().out.split() == ["5", str(f), "5", "total"]
