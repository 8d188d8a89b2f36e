import csv
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bimotif
from bimotif import BimotifError, Side
from bimotif.cli import main
from expected_values import INFLUENTIAL_PRIMARY, MIDPOINTS_PRIMARY
from bimotif.census import _chunk_step
from graphs import RING_EDGES, edge_list, heavy_tailed, random_bipartite
from oracles import naive_opsahl

WOMEN = str(files("bimotif") / "data" / "southern_women.csv")
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
OUTPUTS = ("report.json", "nodes.csv", "replicas.csv")


def write_c6(tmp_path):
    path = tmp_path / "c6.tsv"
    lines = [f"{a}\t{b}" for a, b in RING_EDGES]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_midpoints(tmp_path, side="primary"):
    path = tmp_path / "ci.json"
    payload = {"side": side, "ci_midpoints": [float(m) for m in MIDPOINTS_PRIMARY]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_json(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def test_analyze_bundled_fixture(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", WOMEN, "--out", str(out)]) == 0
    obj = read_json(out)
    assert obj["schema_version"] == 1
    assert obj["config"]["command"] == "analyze"
    assert obj["input"]["format"] == "biadjacency"
    assert obj["input"]["primary_count"] == 18
    assert obj["input"]["edge_count"] == 89
    assert obj["global"]["cc_display"] == ["0.4446", "0.6532", "0.5984", "0.5604"]
    assert obj["opsahl"]["tau_star"] > 0
    assert len(obj["nodes"]) == 18
    with (out / "nodes.csv").open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["label", "degree", "cc0", "cc1", "cc2", "cc3"]
    assert len(rows) == 19
    assert rows[1][0] == "Evelyn"
    assert rows[1][2] == "0.3957"


def test_analyze_reference_measure_matches_naive_recount(tmp_path, davis):
    def ratio(closed, tau):
        return float(Fraction(closed, tau)) if tau else None

    for side in ("primary", "secondary"):
        out = tmp_path / side
        assert main(["analyze", "--input", WOMEN, "--side", side, "--out", str(out)]) == 0
        obj = read_json(out)
        tau, closed, per_tau, per_closed = naive_opsahl(davis, Side(side))
        assert obj["opsahl"] == {
            "tau_star": tau,
            "tau_star_closed": closed,
            "c_star": ratio(closed, tau),
        }
        assert [n["opsahl_c"] for n in obj["nodes"]] == [
            ratio(k, t) for k, t in zip(per_closed, per_tau)
        ]


def test_analyze_c6_secondary(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input", str(write_c6(tmp_path)),
            "--side", "secondary",
            "--out", str(out),
        ]
    )
    assert code == 0
    obj = read_json(out)
    assert obj["input"]["format"] == "edgelist"
    assert obj["global"]["cc"] == [1.0, 0.0, None, None]
    assert obj["global"]["cc_display"] == ["1", "0", "n/a", "n/a"]
    assert obj["global"]["exact"][0] == [1, 1]


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    argv = [
        "report",
        "--input", WOMEN,
        "--runs", "5",
        "--seed", "7",
        "--out", str(out),
    ]
    assert main(argv) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("report.json", "nodes.csv", "replicas.csv")
    }
    assert main(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_replicas_independent_of_out_dir(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        argv = [
            "ensemble",
            "--input", WOMEN,
            "--runs", "4",
            "--seed", "3",
            "--out", str(out),
        ]
        assert main(argv) == 0
    assert (outs[0] / "replicas.csv").read_bytes() == (outs[1] / "replicas.csv").read_bytes()


def test_report_independent_of_out_dir(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b" / "nested"]
    for out in outs:
        argv = ["report", "--input", WOMEN, "--runs", "5", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
    for name in OUTPUTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_analyze_independent_of_blas_threads(tmp_path):
    # the census sums exact integers, so the summation order of a
    # multi-threaded matrix product cannot change a count
    g = random_bipartite(random.Random(40), 40, 40, 0.3)
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in edge_list(g)), encoding="utf-8")
    out = tmp_path / "out"
    src = str(Path(bimotif.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "bimotif.cli", "analyze", "--input", str(path), "--out", str(out)],
            env=env, check=True, timeout=120,
        )
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_startup_leaves_scipy_unimported(tmp_path):
    # the Student-t quantile comes from the standard library; importing
    # scipy.stats cost every cold command over a second.  Replicas are drawn
    # from the standard library's generator too: numpy.random adds about
    # 6 MB of memory and 15 ms of startup.
    src = str(Path(bimotif.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = (
        "import sys\n"
        "import bimotif.cli\n"
        "assert 'scipy' not in sys.modules and 'numpy.random' not in sys.modules\n"
        "argv = ['report', '--input', sys.argv[1], '--null-model', 'degree', '--runs', '3',\n"
        "        '--out', sys.argv[2]]\n"
        "assert bimotif.cli.main(argv) == 0\n"
        "assert 'scipy' not in sys.modules and 'numpy.random' not in sys.modules\n"
    )
    imported = subprocess.run(
        [sys.executable, "-c", script, WOMEN, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (imported.returncode, imported.stderr) == (0, "")
    assert (tmp_path / "out" / "replicas.csv").exists()
    version = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bimotif.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (version.returncode, version.stdout) == (0, f"bimotif {bimotif.__version__}\n")
    modules = [line.rsplit("|", 1)[-1].strip() for line in version.stderr.splitlines()]
    assert "bimotif.null_model" in modules
    assert not [m for m in modules if m.split(".")[0] in ("scipy", "logging", "array")]


def test_census_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 14 ms of a cold command
    src = str(Path(bimotif.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import bimotif.cli\n"
        "for argv in (['analyze'], ['report', '--runs', '50']):\n"
        "    assert bimotif.cli.main(argv + ['--input', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "    assert 'numpy.ma' not in sys.modules, argv[0]\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, WOMEN, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "out" / "replicas.csv").exists()


def test_report_independent_of_blas_threads(tmp_path):
    # an ensemble chunk's part-1 products run through BLAS; the counts stay exact
    # integers.  The 200x60 graph is one replica per kernel call, so each of its
    # replicas is counted in its own forked worker where numpy's BLAS can be held
    # at one thread.
    g = heavy_tailed(random.Random(5), 200, 60, 900)
    assert _chunk_step(200, 60) == 1
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in edge_list(g)), encoding="utf-8")
    src = str(Path(bimotif.__file__).resolve().parents[1])
    for flags in (["--input", WOMEN, "--runs", "50"],
                  ["--input", str(path), "--null-model", "degree", "--runs", "4"]):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-m", "bimotif.cli", "report", *flags, "--out", str(out)],
                env=env, check=True, timeout=120,
            )
            outputs.append({name: (out / name).read_bytes() for name in OUTPUTS})
        assert outputs[0] == outputs[1]


def test_repeated_edge_row_is_counted_not_warned(tmp_path):
    path = tmp_path / "repeated.tsv"
    path.write_text("a\tx\nb\tx\na\tx\nb\ty\n", encoding="utf-8")
    out = tmp_path / "out"
    src = str(Path(bimotif.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "bimotif.cli", "analyze", "--input", str(path), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    meta = read_json(out)["input"]
    assert meta["duplicate_rows"] == 1
    assert meta["edge_count"] == 3


def test_ensemble_outputs(tmp_path):
    out = tmp_path / "out"
    argv = [
        "ensemble",
        "--input", WOMEN,
        "--runs", "6",
        "--seed", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    obj = read_json(out)
    ens = obj["ensemble"]
    assert ens["runs"] == 6
    assert ens["null_model"] == "density"
    assert len(ens["classes"]) == 4
    assert len(ens["replica_values"]) == 6
    for cls in ens["classes"]:
        assert cls["defined_count"] == 6
        assert cls["ci_low"] < cls["midpoint"] < cls["ci_high"]
    with (out / "replicas.csv").open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["replica", "cc0", "cc1", "cc2", "cc3"]
    assert len(rows) == 7


def test_score_outputs(tmp_path):
    out = tmp_path / "out"
    argv = [
        "score",
        "--input", WOMEN,
        "--ci-file", str(write_midpoints(tmp_path)),
        "--out", str(out),
    ]
    assert main(argv) == 0
    obj = read_json(out)
    assert set(obj["scores"]["influential"]) == INFLUENTIAL_PRIMARY
    assert obj["scores"]["ds_global"] == pytest.approx(0.297, abs=5e-4)
    text = (out / "nodes.csv").read_text(encoding="utf-8")
    first, header = text.splitlines()[:2]
    assert first.startswith("# ds_global=")
    assert float(first.split("=", 1)[1]) == pytest.approx(0.297, abs=5e-4)
    assert header.split(",") == [
        "label", "degree",
        "cc0", "dir0", "cc1", "dir1", "cc2", "dir2", "cc3", "dir3",
        "ds", "influential",
    ]
    with (out / "nodes.csv").open(encoding="utf-8", newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    body = rows[1:]
    assert len(body) == 18
    arrows = {cell for row in body for cell in row[3:10:2]}
    assert arrows <= {"↓", "=", "↑", "n/a"}
    # midpoint-only bands: every defined local is off the point value
    verne = next(r for r in body if r[0] == "Verne")
    assert verne[11] in ("true", "false")


def test_report_composes_everything(tmp_path):
    out = tmp_path / "out"
    argv = [
        "report",
        "--input", WOMEN,
        "--runs", "5",
        "--seed", "2",
        "--out", str(out),
    ]
    assert main(argv) == 0
    for name in ("report.json", "nodes.csv", "replicas.csv"):
        assert (out / name).exists()
    obj = read_json(out)
    for key in ("global", "opsahl", "nodes", "ensemble", "ci", "scores"):
        assert key in obj
    assert obj["ci"]["source"] == "ensemble"
    assert obj["config"]["null_model"] == "density"


def test_score_against_ensemble_report(tmp_path):
    ens_out = tmp_path / "ens"
    argv = [
        "ensemble",
        "--input", WOMEN,
        "--runs", "5",
        "--seed", "11",
        "--out", str(ens_out),
    ]
    assert main(argv) == 0
    score_out = tmp_path / "score"
    argv = [
        "score",
        "--input", WOMEN,
        "--ci-file", str(ens_out / "report.json"),
        "--out", str(score_out),
    ]
    assert main(argv) == 0
    obj = read_json(score_out)
    assert obj["ci"]["source"].endswith("report.json")
    assert all(b is not None for b in obj["ci"]["bands"])


def test_report_scores_against_ci_file(tmp_path):
    out = tmp_path / "out"
    ci = write_midpoints(tmp_path)
    argv = [
        "report",
        "--input", WOMEN,
        "--runs", "5",
        "--seed", "2",
        "--ci-file", str(ci),
        "--out", str(out),
    ]
    assert main(argv) == 0
    obj = read_json(out)
    assert obj["ci"]["source"] == str(ci)
    assert [b["midpoint"] for b in obj["ci"]["bands"]] == [float(m) for m in MIDPOINTS_PRIMARY]
    assert set(obj["scores"]["influential"]) == INFLUENTIAL_PRIMARY
    assert obj["ensemble"]["runs"] == 5
    assert len(obj["ensemble"]["replica_values"]) == 5
    assert (out / "replicas.csv").exists()


def test_failed_report_writes_nothing(tmp_path):
    out = tmp_path / "out"
    argv = ["report", "--input", WOMEN, "--runs", "5", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    before = {name: (out / name).read_bytes() for name in OUTPUTS}
    ci = write_midpoints(tmp_path, side="secondary")
    assert main(argv + ["--ci-file", str(ci)]) == 3
    assert {name: (out / name).read_bytes() for name in OUTPUTS} == before


def test_failed_write_keeps_earlier_files_whole(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["report", "--input", WOMEN, "--runs", "5", "--out", str(out)]
    assert main(argv + ["--seed", "2"]) == 0
    before = {name: (out / name).read_bytes() for name in OUTPUTS}

    def write_then_fail(f, stats):
        f.write("replica,cc0,cc1\n0,")
        raise OSError("no space left on device")

    monkeypatch.setattr(bimotif.cli, "_write_replicas_csv", write_then_fail)
    # another seed, so an overwritten report.json or nodes.csv would differ
    assert main(argv + ["--seed", "3"]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_semantics_flag_changes_output(tmp_path):
    outs = {}
    for semantics in ("configuration", "pair-count"):
        out = tmp_path / semantics
        argv = [
            "analyze",
            "--input", WOMEN,
            "--semantics", semantics,
            "--out", str(out),
        ]
        assert main(argv) == 0
        outs[semantics] = read_json(out)
    assert outs["pair-count"]["config"]["semantics"] == "pair-count"
    assert outs["pair-count"]["global"]["cc"] != outs["configuration"]["global"]["cc"]


def test_exit_code_missing_file(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 1


def test_exit_code_malformed_input(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\tc\n", encoding="utf-8")
    assert main(["analyze", "--input", str(bad), "--out", str(tmp_path)]) == 1
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    assert main(["analyze", "--input", str(empty), "--out", str(tmp_path)]) == 1


def test_exit_code_bipartite_violation(tmp_path):
    bad = tmp_path / "sides.tsv"
    bad.write_text("a\tb\nb\tc\n", encoding="utf-8")
    assert main(["analyze", "--input", str(bad), "--out", str(tmp_path)]) == 2


def test_exit_code_flag_misuse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--input", WOMEN, "--out", str(tmp_path)])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", WOMEN, "--format", "weird"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_exit_code_bad_runs(tmp_path):
    argv = [
        "ensemble",
        "--input", WOMEN,
        "--runs", "1",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 3


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_exit_code_seed_outside_64_bits(tmp_path, capsys, seed):
    # replica_seed reads a base seed modulo 2⁶⁴, so -1 would give the ensemble of 2⁶⁴ − 1
    with pytest.raises(bimotif.InvalidConfig):
        bimotif.EnsembleConfig(seed=seed)
    assert bimotif.EnsembleConfig(seed=(1 << 64) - 1).seed == (1 << 64) - 1
    out = tmp_path / "out"
    argv = ["ensemble", "--input", WOMEN, "--runs", "2", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"bimotif: ERROR: seed must be in [0, 2**64), got {seed}\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be in [0, 2**64), got -1"),
    ("--runs", "1", "runs must be >= 2, got 1"),
])
def test_ensemble_flags_checked_before_any_stage(tmp_path, capsys, monkeypatch, flag, value,
                                                 message):
    cli = sys.modules["bimotif.cli"]
    counted = []
    census = cli.census

    def recorded(*args, **kwargs):
        counted.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(cli, "census", recorded)
    out = tmp_path / "out"
    assert main(["report", "--input", WOMEN, flag, value, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"bimotif: ERROR: {message}\n"
    assert counted == []
    assert not (out / "report.json").exists()


def test_exit_code_ci_side_mismatch(tmp_path):
    ci = write_midpoints(tmp_path, side="secondary")
    argv = [
        "score",
        "--input", WOMEN,
        "--ci-file", str(ci),
        "--out", str(tmp_path),
    ]
    assert main(argv) == 3


def test_exit_code_ci_semantics_mismatch(tmp_path, capsys):
    ensemble = tmp_path / "ensemble"
    argv = ["ensemble", "--input", WOMEN, "--semantics", "pair-count", "--runs", "5"]
    assert main(argv + ["--out", str(ensemble)]) == 0
    score = ["score", "--input", WOMEN, "--ci-file", str(ensemble / "report.json")]
    assert main(score + ["--semantics", "pair-count", "--out", str(tmp_path / "same")]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(score + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "bimotif: ERROR: --ci-file is for the pair-count semantics, requested configuration\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


def test_exit_code_ci_bounds_short(tmp_path):
    ci = tmp_path / "ci.json"
    payload = {
        "side": "primary",
        "ci_midpoints": [float(m) for m in MIDPOINTS_PRIMARY],
        "ci_low": [0.6, 0.5, 0.4],
    }
    ci.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["score", "--input", WOMEN, "--ci-file", str(ci), "--out", str(tmp_path / "out")]
    assert main(argv) == 3


def test_exit_code_ci_unknown_side(tmp_path):
    ci = write_midpoints(tmp_path, side="sideways")
    argv = ["score", "--input", WOMEN, "--ci-file", str(ci), "--out", str(tmp_path / "out")]
    assert main(argv) == 3


def _score_argv(tmp_path, ci_text, *extra):
    ci = tmp_path / "ci.json"
    ci.write_text(ci_text, encoding="utf-8")
    return ["score", "--input", WOMEN, "--ci-file", str(ci), "--out", str(tmp_path / "out"), *extra]


# what a refused interval file writes after "bimotif: ERROR: "; {ci} is its path
NOT_FINITE = "interval values must be finite and within the float range"
NOT_A_NUMBER = "interval values must be numbers or null, got "
OUT_OF_ORDER = "interval bounds must satisfy low <= midpoint <= high"
BAD_SIDE = "side must be 'primary' or 'secondary' in {ci}"
BAD_CLASSES = "expected stats for exactly 4 classes, one object each"


@pytest.mark.parametrize(
    "ci_text, message",
    [
        pytest.param('{"ci_midpoints": [NaN, 0.5, 0.4, 0.3]}', NOT_FINITE, id="nan-midpoint"),
        pytest.param('{"ci_midpoints": [Infinity, 0.5, 0.4, 0.3]}', NOT_FINITE,
                     id="infinite-midpoint"),
        pytest.param('{"ci_midpoints": [1e400, 0.5, 0.4, 0.3]}', NOT_FINITE,
                     id="out-of-float-range-midpoint"),
        pytest.param('{"ci_midpoints": ["abc", 0.5, 0.4, 0.3]}', NOT_A_NUMBER + "str",
                     id="string-midpoint"),
        pytest.param('{"ci_midpoints": [[1], 0.5, 0.4, 0.3]}', NOT_A_NUMBER + "list",
                     id="list-midpoint"),
        pytest.param('{"ci_midpoints": ["0.6", 0.5, 0.4, 0.3]}', NOT_A_NUMBER + "str",
                     id="numeric-string-midpoint"),
        pytest.param('{"ci_midpoints": [true, 0.5, 0.4, 0.3]}', NOT_A_NUMBER + "bool",
                     id="bool-midpoint"),
        pytest.param('{"ci_midpoints": [0.6, 0.5, 0.4, 0.3], "ci_low": [0.7, null, null, null]}',
                     OUT_OF_ORDER, id="low-above-midpoint"),
        pytest.param('{"ci_midpoints": [0.6, 0.5, 0.4, 0.3], "ci_high": [null, 0.4, null, null]}',
                     OUT_OF_ORDER, id="high-below-midpoint"),
        pytest.param('{"side": 1e5000, "ci_midpoints": [0.6, 0.5, 0.4, 0.3]}', BAD_SIDE,
                     id="huge-number-side"),
        pytest.param('{"ci_midpoints": [1e20000000, 0.5, 0.4, 0.3]}', NOT_FINITE,
                     id="huge-exponent-midpoint"),
        pytest.param('{"ci_midpoints": [1e-999999999, 0.5, 0.4, 0.3]}', NOT_FINITE,
                     id="tiny-exponent-midpoint"),
        pytest.param('{"ci_midpoints": [%s, 0.5, 0.4, 0.3]}' % ("9" * 5000), NOT_FINITE,
                     id="long-integer-midpoint"),
        pytest.param('{"side": %s, "ci_midpoints": [0.6, 0.5, 0.4, 0.3]}' % ("9" * 5000),
                     BAD_SIDE, id="long-integer-side"),
        pytest.param('{"ci_midpoints": [0.%s, 0.5, 0.4, 0.3]}' % ("3" * 4301),
                     "interval values may have at most 4300 significant digits",
                     id="long-decimal-midpoint"),
        pytest.param('{"classes": [1, 2, 3, 4]}', BAD_CLASSES, id="classes-of-numbers"),
        pytest.param('{"classes": {"a": 1, "b": 2, "c": 3, "d": 4}}', BAD_CLASSES,
                     id="classes-object"),
        pytest.param('{"classes": 2}', BAD_CLASSES, id="classes-number"),
        pytest.param('{"ensemble": {"classes": [{"midpoint": NaN}, {}, {}, {}]}}', NOT_FINITE,
                     id="ensemble-class-nan"),
        pytest.param('{"config": {"semantics": "pairs"}, "ci_midpoints": [0.6, 0.5, 0.4, 0.3]}',
                     "semantics must be one of configuration, at-least-one, pair-count in {ci}",
                     id="unknown-semantics"),
    ],
)
def test_exit_code_bad_interval_values(tmp_path, capsys, ci_text, message):
    assert main(_score_argv(tmp_path, ci_text)) == 3
    message = message.format(ci=tmp_path / "ci.json")
    assert capsys.readouterr().err == f"bimotif: ERROR: {message}\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "command, text, extra, code",
    [
        pytest.param("analyze", None, (), 1, id="OSError"),
        pytest.param("analyze", "# nothing\n", (), 1, id="EmptyInput"),
        pytest.param("analyze", "a\tb\tc\n", (), 1, id="MalformedInput"),
        pytest.param("analyze", ",x,y\na,1,2\n", (), 1, id="NonBinaryEntry"),
        pytest.param("analyze", ",x,y\na,1\n", (), 1, id="DimensionMismatch"),
        pytest.param("analyze", "a\tb\nb\tc\n", (), 2, id="BipartiteViolation"),
        pytest.param("analyze", "x\tx\n", (), 2, id="BipartiteViolation-equal-labels"),
        pytest.param("analyze", "a\ty\nx\tx\n", (), 2, id="BipartiteViolation-equal-labels-later"),
        pytest.param("score", "{", (), 1, id="JSONDecodeError"),
        pytest.param("score", "[" * 100_000 + "]" * 100_000, (), 1, id="deeply-nested"),
        pytest.param(
            "score", '{"ci_midpoints": %s}' % ("[" * 100_000 + "]" * 100_000), (), 1,
            id="deeply-nested-midpoints",
        ),
        pytest.param("score", '{"ci_midpoints": [null, null, null, null]}', (), 2, id="AllUndefined"),
        pytest.param("score", '{"foo": 1}', (), 3, id="MissingCI"),
        pytest.param(
            "score", '{"side": "secondary", "ci_midpoints": [0.5, 0.5, 0.5, 0.5]}', (), 3,
            id="InvalidConfig",
        ),
        pytest.param(
            "score", '{"ci_midpoints": [1, 1, 1, 1]}', ("--semantics", "pair-count"), 3,
            id="DegenerateMidpoint",
        ),
    ],
)
def test_exit_code_table(tmp_path, command, text, extra, code):
    """One input per error class the command line can reach.

    ``analyze`` cases give the input file (None: missing); ``score``
    cases give the interval file for the bundled network.
    """
    if command == "score":
        argv = _score_argv(tmp_path, text, *extra)
    else:
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = ["analyze", "--input", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == code


def test_exit_code_census_too_large(tmp_path, capsys, monkeypatch):
    # shrink the exactness bound instead of building a huge graph
    monkeypatch.setattr(sys.modules["bimotif.census"], "_EXACT64", 1000)
    assert main(["analyze", "--input", WOMEN, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "bimotif: ERROR: graph too large to count exactly: 18 analysis nodes, "
        "maximum degrees 8 and 14\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("cause", ["exactness", "memory"])
def test_exit_code_census_too_large_in_ensemble_chunk(tmp_path, capsys, monkeypatch, cause):
    census_module = sys.modules["bimotif.census"]
    # seven Southern Women replicas per kernel call, so `--runs 7` is one call
    monkeypatch.setattr(census_module, "_CHUNK_CELLS", 7 * 18 * 14)
    if cause == "exactness":
        # the input, with maximum degrees 8 and 14, passes; of the first chunk
        # of seed 4, replicas 0-2 pass and replica 3, with a degree 9, does not
        g = bimotif.load_southern_women()
        degrees = [
            max(bimotif.density_rewire(g, bimotif.replica_seed(4, r)).degree_sequence(Side.PRIMARY))
            for r in range(4)
        ]
        assert degrees == [7, 8, 8, 9]
        monkeypatch.setattr(census_module, "_EXACT64", 8 ** 3 * 19 ** 2 + 1)
        message = "graph too large to count exactly: 18 analysis nodes, maximum degrees 11 and 12"
    else:
        counted = census_module._add_row_blocks

        def exhausted(acc, bits, *rest):
            if len(bits) > 1:  # a chunk of several graphs, not the input
                raise MemoryError
            counted(acc, bits, *rest)

        monkeypatch.setattr(census_module, "_add_row_blocks", exhausted)
        message = "graph too large to count in memory: 18 analysis and 14 opposite nodes"
    argv = ["report", "--input", WOMEN, "--runs", "7", "--seed", "4", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"bimotif: ERROR: {message}\n"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("null_model", ["density", "degree"])
def test_exit_code_census_too_large_in_replica(tmp_path, capsys, monkeypatch, null_model):
    # each generator allocates its replica's cells first; fail that allocation
    def exhausted(size):
        raise MemoryError

    monkeypatch.setattr(sys.modules["bimotif.null_model"], "bytearray", exhausted, raising=False)
    argv = ["ensemble", "--input", WOMEN, "--null-model", null_model, "--runs", "3",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "bimotif: ERROR: graph too large to count in memory: 18 analysis and 14 opposite nodes\n"
    )
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("failure", ["memory", "exactness", "exit"])
def test_failed_worker_exits_cleanly(tmp_path, capfd, monkeypatch, failure):
    # 200 Southern Women replicas are four kernel calls of 65, so with two CPUs
    # each of two forked workers counts two chunks, and this process none
    monkeypatch.setattr(sys.modules["bimotif.null_model"], "_usable_cpus", lambda: 2)
    parent = os.getpid()
    if failure == "exactness":
        census_module = sys.modules["bimotif.census"]
        check = census_module._check_exact

        def check_in_worker(na, max_degree, max_opposite_degree):
            if os.getpid() != parent:
                max_opposite_degree = census_module._EXACT32
            check(na, max_degree, max_opposite_degree)

        monkeypatch.setattr(census_module, "_check_exact", check_in_worker)
        # the degree is of the worker's chunk; the opposite one is the bound set above
        message = (r"graph too large to count exactly: 18 analysis nodes, maximum degrees \d+ "
                   f"and {census_module._EXACT32}")
    else:
        def fail_in_worker(*args):
            if os.getpid() != parent:
                if failure == "memory":
                    raise MemoryError
                os._exit(1)  # ends without sending its totals
            return bytearray(*args)

        monkeypatch.setattr(sys.modules["bimotif.null_model"], "bytearray", fail_in_worker,
                            raising=False)
        message = ("graph too large to count in memory: 18 analysis and 14 opposite nodes"
                   if failure == "memory"
                   else r"ensemble worker \d+ ended without its values \(exit status 1\)")
    argv = ["report", "--input", WOMEN, "--runs", "200", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert not (tmp_path / "out" / "report.json").exists()
    out, err = capfd.readouterr()
    assert out == ""
    assert re.fullmatch(f"bimotif: ERROR: {message}\n", err), err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_failed_parent_stops_its_workers(tmp_path, monkeypatch, error):
    # with four CPUs, four workers count one of four chunks each; each sleeps
    # for a minute, so the run ends in time only if they are killed.  This
    # process fails while it reads the first worker's pipe.
    null_model = sys.modules["bimotif.null_model"]
    monkeypatch.setattr(null_model, "_usable_cpus", lambda: 4)
    parent = os.getpid()

    def sleep_in_worker(*args):
        assert os.getpid() != parent
        time.sleep(60)
        os._exit(1)

    class FailingPipe:
        def __init__(self, pipe):
            self.pipe = pipe

        def read(self):
            raise error

        def close(self):
            self.pipe.close()

    def failing_open(fd, mode):
        pipe = open(fd, mode)
        return FailingPipe(pipe) if os.getpid() == parent else pipe

    monkeypatch.setattr(null_model, "bytearray", sleep_in_worker, raising=False)
    monkeypatch.setattr(null_model, "open", failing_open, raising=False)
    argv = ["ensemble", "--input", WOMEN, "--runs", "200", "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
    assert time.perf_counter() - start < 30
    assert not (tmp_path / "out" / "report.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_error_exit_codes_match_readme():
    documented = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(\d)` \|", line)
        if row:
            for name in re.findall(r"`([A-Z]\w+)`", line):
                documented[name] = int(row.group(1))
    exported = {
        name
        for name in bimotif.__all__
        if isinstance(getattr(bimotif, name), type)
        and issubclass(getattr(bimotif, name), BimotifError)
    }
    assert set(documented) == exported
    for name, code in documented.items():
        assert getattr(bimotif, name).exit_code == code, name


def test_benchmark_trace_hooks_exist():
    # bench/traced.py wraps these module attributes by name; a missing one breaks `--trace 1`
    spec = importlib.util.spec_from_file_location("traced", ROOT / "bench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, names in (
        (sys.modules["bimotif.cli"], traced.CLI_NAMES),
        (sys.modules["bimotif.null_model"], traced.NULL_MODEL_NAMES),
    ):
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"


_CI_KEYS = ("side", "config", "ci_midpoints", "ci_low", "ci_high", "ensemble", "classes", "midpoint")
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["primary", "secondary"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, min_size=4, max_size=4)
    | st.dictionaries(st.sampled_from(_CI_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(value=_JSON_VALUES)
def test_any_json_interval_file_exits_cleanly(tmp_path, value):
    assert main(_score_argv(tmp_path, json.dumps(value))) in (0, 1, 2, 3)


_INPUT_PIECES = ["0", "1", "2", "a", "b", "x", " ", "\t", ",", "#", '"', "\x00", "\ufeff", "\r", "\n"]


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=st.lists(st.sampled_from(_INPUT_PIECES), max_size=40).map("".join))
def test_any_network_file_exits_cleanly(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8", newline="")
    for fmt in ("auto", "edgelist", "biadjacency"):
        for side in ("primary", "secondary"):
            argv = [
                "analyze", "--input", str(path), "--format", fmt,
                "--side", side, "--out", str(tmp_path / "out"),
            ]
            assert main(argv) in (0, 1, 2, 3)


def _written(value) -> str:
    f = io.StringIO()
    sys.modules["bimotif.cli"]._write_json(f, value)
    return f.getvalue()


_WRITER_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([1 << 64, -(1 << 64) - 1, 10 ** 40])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f", "é\u2028😀", "\ud800", '"\\/\b\f\n\r\t']),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["", "\x00é😀"]), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(value=_WRITER_VALUES)
def test_report_writer_bytes_equal_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"


def test_lazy_section_writes_the_bytes_of_its_list():
    cli = sys.modules["bimotif.cli"]
    built = []

    def row(i):
        built.append(i)
        return {"label": f"n{i}", "cc": [i / 3, None], "exact": [[i, 3]], "hub": i == 2}

    section = cli._Rows(range(3), row)
    assert len(section) == 3 and built == []
    listed = [row(i) for i in range(3)]
    obj = {"nodes": section, "none": cli._Rows((), row), "nested": [section, {"rows": section}]}
    expected = {"nodes": listed, "none": [], "nested": [listed, {"rows": listed}]}
    assert _written(obj) == json.dumps(expected, indent=2, allow_nan=False) + "\n"
    assert _written(obj) == _written(expected)  # and it can be read again
    assert built == [0, 1, 2] * 7


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_report_writer_refuses_non_finite_floats(bad):
    cli = sys.modules["bimotif.cli"]
    for value in (bad, [1.0, bad], {"nodes": cli._Rows(range(2), lambda i: {"ds": [bad][:i]})}):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _written(value)


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_report_json_is_written_without_its_node_sections(tmp_path, monkeypatch, command):
    # 1,000 analysis nodes.  Traced from the end of the command's last stage
    # to the end of the report.json write, the run may add only a small part of
    # what its node sections would hold as dicts, as json.loads builds them.
    g = heavy_tailed(random.Random(1), 1000, 300, 8000)
    path = tmp_path / "input.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in edge_list(g)), encoding="utf-8")
    cli = sys.modules["bimotif.cli"]
    monkeypatch.setattr(sys.modules["bimotif.null_model"], "_usable_cpus", lambda: 1)
    last_stage = "classify" if command == "report" else "opsahl"
    stage, write_json, marks = getattr(cli, last_stage), cli._write_json, {}

    def staged(*args, **kwargs):
        result = stage(*args, **kwargs)
        marks["held"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return result

    def written(f, obj):
        write_json(f, obj)
        marks["written"] = tracemalloc.get_traced_memory()[1] - marks["held"]

    monkeypatch.setattr(cli, last_stage, staged)
    monkeypatch.setattr(cli, "_write_json", written)
    out = tmp_path / "out"
    argv = [command, "--input", str(path), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv + ["--runs", "2"] if command == "report" else argv) == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        start = tracemalloc.get_traced_memory()[0]
        obj = json.loads(text)
        materialized = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(obj["nodes"]) == 1000
    assert marks["written"] < materialized / 4, (marks["written"], materialized)
