import csv
import json
from fractions import Fraction
from importlib.resources import files

import pytest

from bimotif import Side
from bimotif.cli import main
from expected_values import INFLUENTIAL_PRIMARY, MIDPOINTS_PRIMARY
from graphs import RING_EDGES
from oracles import naive_opsahl

WOMEN = str(files("bimotif") / "data" / "southern_women.csv")


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


def test_report_with_external_ci_file(tmp_path):
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


def test_exit_code_ci_side_mismatch(tmp_path):
    ci = write_midpoints(tmp_path, side="secondary")
    argv = [
        "score",
        "--input", WOMEN,
        "--ci-file", str(ci),
        "--out", str(tmp_path),
    ]
    assert main(argv) == 3


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
