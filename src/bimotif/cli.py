"""Command-line front end.

Every subcommand runs the same pipeline, :func:`_run`: load the graph,
read --ci-file if one is given, then run the stages the command names
in order: ``analyze`` (census, coefficients, reference measure),
``ensemble`` (null-model intervals) and ``score`` (driving scores
against --ci-file or the fresh ensemble).  ``report`` runs all three.
Files are written only after every stage has succeeded: a
``report.json`` into --out, plus ``nodes.csv`` (analyze/score/report)
and ``replicas.csv`` (ensemble/report).  Every file is written from
``report.json``'s object: the CSV files read its ``nodes``, ``scores``
and ``ensemble`` sections, and the sections present choose the files.
The two per-node sections are built while they are written, one node
at a time, from the census and the driving scores the stages keep;
``report.json`` itself is written one item at a time, with the bytes
of ``json.dump(obj, f, indent=2, allow_nan=False)``.  Each file is
written under a temporary name first and replaced whole once all of
them are written.

Exit codes: 0 success, otherwise the failing error's ``exit_code``
(1 input parse error, 2 validation error, 3 configuration error); an
unreadable file exits 1.  A failure writes one line to stderr,
``bimotif: ERROR: <message>``.  All randomness flows from --seed;
outputs are byte-identical across reruns with the same flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from . import __version__
from .census import census, opsahl
from .coefficients import (
    SEMANTICS,
    format_value,
    global_profile,
    local_profile,
)
from .errors import BimotifError
from .graph import (
    BipartiteGraph,
    Side,
    detect_format,
    load_graph,
)
from .null_model import (
    NULL_MODELS,
    EnsembleConfig,
    EnsembleStats,
    InvalidConfig,
    run_ensemble,
)
from .scoring import (
    DrivingScoreReport,
    NodeScore,
    bands_from_classes,
    classify,
    load_ci_bands,
)

SCHEMA_VERSION = 1

_ARROWS = {"below": "↓", "inside": "=", "above": "↑", None: "n/a"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag misuse with the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bimotif",
        description="Structure-aware clustering analysis for two-mode networks.",
    )
    parser.add_argument("--version", action="version", version=f"bimotif {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--input", required=True, help="path to the network file")
        p.add_argument(
            "--format",
            choices=("auto", "edgelist", "biadjacency"),
            default="auto",
            help="input format (default: detected from the file)",
        )
        p.add_argument(
            "--side",
            choices=("primary", "secondary"),
            default="primary",
            help="which side to analyze (default: primary)",
        )
        p.add_argument(
            "--semantics",
            choices=SEMANTICS,
            default="configuration",
            help="closure counting policy (default: configuration)",
        )
        p.add_argument("--out", default=".", help="output directory (default: .)")

    def ensemble_flags(p):
        p.add_argument("--runs", type=int, default=100, help="replica count (default: 100)")
        p.add_argument("--seed", type=int, default=0, help="base random seed (default: 0)")
        p.add_argument(
            "--swaps-per-edge",
            type=int,
            default=10,
            help="degree model: Curveball rounds, as 3/2 of this rounded down "
            "(default: 10, so 15 rounds)",
        )
        p.add_argument(
            "--null-model",
            choices=NULL_MODELS,
            default="density",
            help="replica generator (default: density)",
        )

    def score_flags(p, ci_required):
        p.add_argument(
            "--ci-file",
            required=ci_required,
            help="JSON with interval midpoints or a prior ensemble report",
        )
        p.add_argument(
            "--literal-divisor",
            action="store_true",
            help="average node scores over 4 instead of the defined components",
        )

    p = sub.add_parser("analyze", help="census, coefficients and the reference measure")
    common(p)

    p = sub.add_parser("ensemble", help="random-replica confidence intervals")
    common(p)
    ensemble_flags(p)

    p = sub.add_parser("score", help="driving scores against supplied intervals")
    common(p)
    score_flags(p, ci_required=True)

    p = sub.add_parser("report", help="analyze + ensemble + score in one run")
    common(p)
    ensemble_flags(p)
    score_flags(p, ci_required=False)

    return parser


def _float(x) -> Optional[float]:
    return None if x is None else float(x)


def _profile_json(p) -> dict:
    return {
        "cc": [_float(v) for v in p.cc],
        "cc_display": list(p.rounded()),
        "numerators": list(p.numerators),
        "denominators": list(p.denominators),
        "exact": [
            None if v is None else [v.numerator, v.denominator] for v in p.cc
        ],
    }


def _load(args) -> tuple[BipartiteGraph, dict]:
    fmt = args.format
    if fmt == "auto":
        fmt = detect_format(args.input)
    g, duplicates = load_graph(args.input, fmt)
    meta = {
        "path": args.input,
        "format": fmt,
        "primary_count": len(g.primary_labels),
        "secondary_count": len(g.secondary_labels),
        "edge_count": g.edge_count,
        "duplicate_rows": duplicates,
    }
    return g, meta


def _config_echo(args, fmt: str) -> dict:
    echo = {
        "command": args.command,
        "input": args.input,
        "format": fmt,
        "side": args.side,
        "semantics": args.semantics,
        "runs": getattr(args, "runs", None),
        "seed": getattr(args, "seed", None),
        "swaps_per_edge": getattr(args, "swaps_per_edge", None),
        "null_model": getattr(args, "null_model", None),
        "ci_file": getattr(args, "ci_file", None),
        "literal_divisor": getattr(args, "literal_divisor", None),
    }
    return echo


def _report_skeleton(args, meta: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "bimotif", "version": __version__},
        "config": _config_echo(args, meta["format"]),
        "input": meta,
    }


class _Rows:
    """A section of one row per item, each built by ``build`` when it is read; it can be read again."""

    def __init__(self, items, build):
        self.items, self.build = items, build

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return map(self.build, self.items)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(v, level: int) -> str:
    """``v`` as ``json.dumps(v, indent=2, allow_nan=False)`` writes it, ``level`` containers deep."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return _CONSTANTS[v]
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return float.__repr__(v)
    if not isinstance(v, (dict, list, tuple, _Rows)):
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if not len(v):
        return "{}" if isinstance(v, dict) else "[]"
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(v, dict):
        items = (f"{encode_basestring_ascii(k)}: {_encode(x, level + 1)}" for k, x in v.items())
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    return "[" + inner + ("," + inner).join(_encode(x, level + 1) for x in v) + outer + "]"


def _write(f, v, level: int) -> None:
    """Write ``v`` as ``_encode`` would, one item at a time.

    A dict's values are written by ``_write`` again, a sequence's items
    each encoded whole: the longest string made is one node, class or
    replica row of a section.
    """
    if not isinstance(v, (dict, list, tuple, _Rows)) or not len(v):
        f.write(_encode(v, level))
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(v, dict):
        f.write("{")
        for n, (k, x) in enumerate(v.items()):
            f.write(f"{',' if n else ''}{inner}{encode_basestring_ascii(k)}: ")
            _write(f, x, level + 1)
        f.write(outer + "}")
    else:
        f.write("[")
        for n, x in enumerate(v):
            f.write(f"{',' if n else ''}{inner}{_encode(x, level + 1)}")
        f.write(outer + "]")


def _write_json(f, obj: dict) -> None:
    """Write ``obj`` as ``json.dump(obj, f, indent=2, allow_nan=False)`` would, and a final newline."""
    _write(f, obj, 0)
    f.write("\n")


def _analysis_sections(g: BipartiteGraph, side: Side, semantics: str):
    c = census(g, side)
    gp = global_profile(c, semantics)
    ops = opsahl(c)
    labels = g.labels(side)
    degrees = g.degree_sequence(side)

    def node(i: int) -> dict:
        return {
            "label": labels[i],
            "degree": degrees[i],
            **_profile_json(local_profile(c, i, semantics)),
            "opsahl_c": _float(ops.per_node_c[i]),
        }

    sections = {
        "global": {"semantics": semantics, **_profile_json(gp)},
        "opsahl": {
            "tau_star": ops.tau_star,
            "tau_star_closed": ops.tau_star_closed,
            "c_star": _float(ops.c_star),
        },
        "nodes": _Rows(range(c.node_count), node),
    }
    return c, sections


def _write_analyze_csv(f, nodes: _Rows) -> None:
    w = csv.writer(f)
    w.writerow(["label", "degree", "cc0", "cc1", "cc2", "cc3"])
    for n in nodes:
        w.writerow([n["label"], n["degree"], *n["cc_display"]])


def _stats_json(stats: EnsembleStats) -> dict:
    return {
        "runs": stats.config.runs,
        "seed": stats.config.seed,
        "swaps_per_edge": stats.config.swaps_per_edge,
        "null_model": stats.config.null_model,
        "classes": [
            {
                "mean": c.mean,
                "std": c.std,
                "ci_low": c.ci_low,
                "ci_high": c.ci_high,
                "midpoint": c.midpoint,
                "defined_count": c.defined_count,
            }
            for c in stats.classes
        ],
        "replica_values": stats.replica_values,
    }


def _write_replicas_csv(f, ensemble: dict) -> None:
    w = csv.writer(f)
    w.writerow(["replica", "cc0", "cc1", "cc2", "cc3"])
    for r, row in enumerate(ensemble["replica_values"]):
        w.writerow([r] + [format_value(v) for v in row])


def _bands_json(bands, source: Optional[str]) -> dict:
    return {
        "source": source,
        "bands": [
            None
            if b is None
            else {
                "midpoint": _float(b.midpoint),
                "low": _float(b.low),
                "high": _float(b.high),
            }
            for b in bands
        ],
    }


def _node_score_json(n: NodeScore) -> dict:
    return {
        "label": n.label,
        "degree": n.degree,
        "cc": [_float(v) for v in n.local_cc],
        "cc_display": [format_value(v) for v in n.local_cc],
        "directions": list(n.directions),
        "ds": _float(n.ds),
        "ds_display": format_value(n.ds),
        "defined_components": n.defined_component_count,
        "influential": n.influential,
        "anti_driver": n.anti_driver,
    }


def _score_sections(report: DrivingScoreReport) -> dict:
    return {
        "ds_global": _float(report.ds_global),
        "ds_global_display": format_value(report.ds_global),
        "influential": list(report.influential_labels),
        "anti_drivers": list(report.anti_driver_labels),
        "nodes": _Rows(report.nodes, _node_score_json),
    }


def _write_score_csv(f, scores: dict) -> None:
    f.write(f"# ds_global={scores['ds_global_display']}\n")
    w = csv.writer(f)
    w.writerow(
        [
            "label",
            "degree",
            "cc0", "dir0",
            "cc1", "dir1",
            "cc2", "dir2",
            "cc3", "dir3",
            "ds",
            "influential",
        ]
    )
    for n in scores["nodes"]:
        row = [n["label"], n["degree"]]
        for v, d in zip(n["cc_display"], n["directions"]):
            row.append(v)
            row.append(_ARROWS[d])
        row.append(n["ds_display"])
        row.append("true" if n["influential"] else "false")
        w.writerow(row)


def _write_files(out_dir: Path, files) -> None:
    """Write each (name, writer, data) under a temporary name, then move all into place.

    A run that fails while writing leaves an earlier run's files whole
    and removes the temporaries it made.
    """
    temps = []
    try:
        for name, write, data in files:
            tmp = out_dir / f".{name}.{os.getpid()}.tmp"
            temps.append(tmp)
            with open(tmp, "w", encoding="utf-8", newline="") as f:
                write(f, data)
        for tmp, (name, _, _) in zip(temps, files):
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise


def _file_bands(args):
    """The bands of ``--ci-file``, refused unless the side and semantics it names are the flags'."""
    file_side, file_semantics, bands = load_ci_bands(args.ci_file)
    named = {"side": file_side and file_side.value, "semantics": file_semantics}
    for key, value in named.items():
        if value is not None and value != getattr(args, key):
            raise InvalidConfig(f"--ci-file is for the {value} {key}, requested {getattr(args, key)}")
    return bands


def _run(args, out_dir: Path) -> None:
    """Load once, run the stages the command names, then write every file."""
    g, meta = _load(args)
    side = Side(args.side)
    command = args.command
    ci_source = getattr(args, "ci_file", None)
    bands = None if ci_source is None else _file_bands(args)
    # checked before any stage runs, as the --ci-file is
    cfg = None
    if command in ("ensemble", "report"):
        cfg = EnsembleConfig(
            runs=args.runs,
            seed=args.seed,
            swaps_per_edge=args.swaps_per_edge,
            side=side,
            null_model=args.null_model,
            semantics=args.semantics,
        )
    obj = _report_skeleton(args, meta)
    c = None
    if command in ("analyze", "report"):
        c, sections = _analysis_sections(g, side, args.semantics)
        obj.update(sections)
    if cfg is not None:
        if command == "ensemble":
            obj["side"] = args.side
        obj["ensemble"] = _stats_json(run_ensemble(g, cfg))
    if command in ("score", "report"):
        if bands is None:
            bands, ci_source = bands_from_classes(obj["ensemble"]["classes"]), "ensemble"
        report = classify(
            g, bands, side=side, semantics=args.semantics,
            literal_divisor=args.literal_divisor, census_result=c,
        )
        obj["ci"] = _bands_json(bands, ci_source)
        # same content as the analyze stage's, so on report the key keeps its place
        obj["global"] = {"semantics": args.semantics, **_profile_json(report.global_cc)}
        obj["scores"] = _score_sections(report)
    files = [("report.json", _write_json, obj)]
    if "scores" in obj:
        files.append(("nodes.csv", _write_score_csv, obj["scores"]))
    elif "nodes" in obj:
        files.append(("nodes.csv", _write_analyze_csv, obj["nodes"]))
    if "ensemble" in obj:
        files.append(("replicas.csv", _write_replicas_csv, obj["ensemble"]))
    _write_files(out_dir, files)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _run(args, out_dir)
    except (BimotifError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"bimotif: ERROR: {exc}\n")
        return exc.exit_code if isinstance(exc, BimotifError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
