"""Run a fixed matrix of CLI commands and keep every output, for diffing two checkouts.

Usage:
    python3 tools/output_matrix.py OUT_DIR

Runs ``python -m bimotif.cli`` from this checkout (``PYTHONPATH=src``),
one command at a time, with OUT_DIR as the working directory and
relative paths, since ``report.json`` echoes ``--input`` and
``--ci-file``.  Command n writes its files into ``OUT_DIR/<n>/``,
next to ``command`` (its arguments), ``exit_code``, ``stdout``,
``stderr`` and ``wall_s``: the seconds its cold CLI process took from
start to exit, which the manifest leaves out, so that one run of the
matrix times every command.  The inputs are written into
``OUT_DIR/inputs/`` by ``bench/inputs.py``.  Last,
``OUT_DIR/manifest.json`` gets one sha256 per command and per file of
``FILES``, under a header naming the Python and numpy versions;
``tests/data/output_manifest.json`` is that file, and
``tests/test_output_matrix.py`` checks the CLI against it in-process.

The matrix: Southern Women × both sides × the three semantics ×
{analyze, ensemble density, ensemble degree, report, report
--literal-divisor, score, score --literal-divisor}, where score reads
the density ensemble's ``report.json`` and score --literal-divisor the
degree ensemble's; then ``analyze`` on the seed-1 dense input,
``report --null-model degree --runs 3`` on the seed-1 skewed input,
``report --runs 50`` on Southern Women, ``analyze --side
secondary`` on the seed-1 skewed and dense inputs, where the opposite
side has 1,000 and 100 nodes, ``ensemble --runs 2`` and ``report
--runs 2000`` on Southern Women, whose intervals use the Student-t
quantile at 1 and 1,999 degrees of freedom, and ``ensemble
--null-model degree --side secondary --runs 3`` on the seed-1 skewed
input, whose replicas are counted with the 300-node side as rows, and
``ensemble --null-model degree --runs 2000`` on Southern Women, 31
chunks of degree replicas whose deep triples span many census steps.
New commands go at the end, so the earlier ones keep their numbers.

Two checkouts give the same outputs when ``diff -r`` of their OUT_DIRs
finds nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402

SEMANTICS = ("configuration", "at-least-one", "pair-count")
# The files of a command's directory that the manifest pins, where present.
FILES = ("report.json", "nodes.csv", "replicas.csv", "exit_code")


def commands() -> list[list[str]]:
    """The matrix, in order; each score command reads an earlier ensemble's output."""
    women = "inputs/southern_women.csv"
    out = []
    for side in ("primary", "secondary"):
        for semantics in SEMANTICS:
            common = ["--input", women, "--side", side, "--semantics", semantics]
            density = len(out) + 1
            out.append(["ensemble", *common, "--null-model", "density"])
            degree = len(out) + 1
            out.append(["ensemble", *common, "--null-model", "degree"])
            out.append(["analyze", *common])
            out.append(["report", *common])
            out.append(["report", *common, "--literal-divisor"])
            out.append(["score", *common, "--ci-file", f"{density}/report.json"])
            out.append(["score", *common, "--ci-file", f"{degree}/report.json", "--literal-divisor"])
    out.append(["analyze", "--input", "inputs/dense.tsv"])
    out.append(["report", "--input", "inputs/skewed.tsv", "--null-model", "degree", "--runs", "3"])
    out.append(["report", "--input", women, "--runs", "50"])
    out.append(["analyze", "--input", "inputs/skewed.tsv", "--side", "secondary"])
    out.append(["analyze", "--input", "inputs/dense.tsv", "--side", "secondary"])
    out.append(["ensemble", "--input", women, "--runs", "2"])
    out.append(["report", "--input", women, "--runs", "2000"])
    out.append(["ensemble", "--input", "inputs/skewed.tsv", "--null-model", "degree",
                "--side", "secondary", "--runs", "3"])
    out.append(["ensemble", "--input", women, "--null-model", "degree", "--runs", "2000"])
    return out


def write_inputs(out_dir: Path) -> None:
    """The seed-1 inputs the commands read, in ``out_dir/inputs/``."""
    (out_dir / "inputs").mkdir()
    inputs.southern_women(1, out_dir / "inputs" / "southern_women.csv")
    inputs.dense_uniform(1, out_dir / "inputs" / "dense.tsv")
    inputs.skewed_degree(1, out_dir / "inputs" / "skewed.tsv")


def manifest(out_dir: Path) -> dict:
    """The sha256 of each file of ``FILES`` in each command's directory of ``out_dir``."""
    entries = []
    for n, args in enumerate(commands(), start=1):
        run_dir = out_dir / str(n)
        entries.append({
            "command": " ".join([*args, "--out", str(n)]),
            "files": {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                      for name in FILES if (run_dir / name).exists()},
        })
    return {"python": platform.python_version(), "numpy": np.__version__, "commands": entries}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        print(f"{out_dir} is not empty", file=sys.stderr)
        return 2
    write_inputs(out_dir)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for n, args in enumerate(commands(), start=1):
        args = [*args, "--out", str(n)]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "bimotif.cli", *args],
            cwd=out_dir, env=env, capture_output=True, text=True,
        )
        wall_s = time.perf_counter() - start
        run_dir = out_dir / str(n)
        run_dir.mkdir(exist_ok=True)
        (run_dir / "command").write_text(" ".join(args) + "\n")
        (run_dir / "exit_code").write_text(f"{done.returncode}\n")
        (run_dir / "stdout").write_text(done.stdout)
        (run_dir / "stderr").write_text(done.stderr)
        (run_dir / "wall_s").write_text(f"{wall_s:.3f}\n")
        print(f"{n:2d} exit {done.returncode} {wall_s:7.3f} s  {' '.join(args)}", file=sys.stderr)
    (out_dir / "manifest.json").write_text(json.dumps(manifest(out_dir), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
