"""The commands of ``tools/output_matrix.py``, in-process, against the committed manifest.

``tests/data/output_manifest.json`` holds the sha256 of each command's
``report.json``, ``nodes.csv``, ``replicas.csv`` and ``exit_code``; it is
the ``manifest.json`` that ``python3 tools/output_matrix.py OUT_DIR``
writes, and is regenerated that way when an output changes on purpose.
"""

import importlib.util
import json
from pathlib import Path

from bimotif.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "output_manifest.json"


def _tool():
    spec = importlib.util.spec_from_file_location("output_matrix", ROOT / "tools" / "output_matrix.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_matrix_matches_manifest(tmp_path, monkeypatch, capsys):
    tool = _tool()
    expected = json.loads(MANIFEST.read_text())
    tool.write_inputs(tmp_path)
    # report.json echoes --input and --ci-file, so run where the tool's relative paths hold
    monkeypatch.chdir(tmp_path)
    for n, args in enumerate(tool.commands(), start=1):
        code = main([*args, "--out", str(n)])
        (tmp_path / str(n) / "exit_code").write_text(f"{code}\n")
    assert capsys.readouterr() == ("", "")

    got = tool.manifest(tmp_path)
    assert len(got["commands"]) == len(expected["commands"])
    mismatched = [
        f"{n} ({want['command']}): {name}"
        for n, (want, have) in enumerate(zip(expected["commands"], got["commands"]), start=1)
        for name in sorted(want["files"].keys() | have["files"].keys())
        if want["command"] != have["command"] or want["files"].get(name) != have["files"].get(name)
    ]
    versions = (f"manifest made with Python {expected['python']}, numpy {expected['numpy']}; "
                f"this run has Python {got['python']}, numpy {got['numpy']}")
    assert not mismatched, "outputs differ from the manifest:\n" + "\n".join(mismatched) + "\n" + versions
