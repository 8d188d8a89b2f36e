"""Run one ``bimotif`` command in-process with every layer boundary traced.

Usage: python bench/traced.py SPANS_FILE FACTS_FILE -- CLI_ARGS...

The public functions that ``bimotif.cli`` and ``bimotif.null_model``
imported are replaced by wrappers that record a span (id, name, start,
end, parent id) around each call.  Spans stay in memory and are
written to SPANS_FILE as JSON lines once ``main`` returns; the
originals are restored before anything else runs.  FACTS_FILE gets the
counts read from the wrapped calls' results, the time spent here after
``main`` returned (``after_main_s``), and the outcome of the
cross-checks below, which run with the originals back in place:

* the CLI's global numerators and denominators equal a fresh census of
  the same file (default side and semantics, which every workload uses);
* the reference measure agrees with the census it duplicates:
  ``tau_star`` is the summed path totals and ``tau_star_closed`` is
  ``path_closed_any_total``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Names wrapped in each calling module; a span is named "<caller>.<name>",
# so "cli.census" is the input census and "null_model.census" a replica's.
CLI_NAMES = ("load_graph", "census", "opsahl", "global_profile", "local_profile",
             "run_ensemble", "classify")
NULL_MODEL_NAMES = ("census", "density_rewire", "randomize", "global_profile")
KEPT = ("load_graph", "census", "opsahl", "classify", "density_rewire", "randomize")


class Tracer:
    """In-memory span recorder that patches module attributes and undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.results: dict[str, list] = {}

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, module, caller: str, attr: str, keep: bool) -> None:
        """Trace calls to ``module.attr``; with ``keep``, also hold on to each result."""
        original = getattr(module, attr)
        name = f"{caller}.{attr}"
        kept = self.results.setdefault(name, [])

        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if keep:
                kept.append(result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched.clear()
        return ok


def _edge_set(g) -> set[tuple[int, int]]:
    return {(i, j) for i, nbrs in enumerate(g.adjacency_primary) for j in nbrs}


def main(argv: list[str]) -> int:
    spans_file, facts_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_FILE FACTS_FILE -- CLI_ARGS...")

    import bimotif.cli
    import bimotif.null_model
    from bimotif.census import census
    from bimotif.coefficients import global_profile
    from bimotif.graph import load_graph

    tracer = Tracer()
    for attr in CLI_NAMES:
        tracer.wrap(bimotif.cli, "cli", attr, attr in KEPT)
    for attr in NULL_MODEL_NAMES:
        tracer.wrap(bimotif.null_model, "null_model", attr, attr in KEPT)
    try:
        code = tracer.call("cli.main", bimotif.cli.main, cli_args)
    finally:
        restored = tracer.restore()
    main_end = perf_counter()

    with open(spans_file, "w", encoding="utf-8") as f:
        for sid, name, start, end, parent in tracer.spans:
            f.write(json.dumps({"id": sid, "name": name, "start": start,
                                "end": end, "parent": parent}) + "\n")

    r = tracer.results
    facts: dict = {"exit_code": code, "restored": restored}
    if code == 0:
        (graph, _), = r["cli.load_graph"]
        (c,), (ops,) = r["cli.census"], r["cli.opsahl"]
        facts["edges"] = graph.edge_count
        facts["config_totals"] = list(c.config_totals)
        facts["scored_nodes"] = sum(len(rep.nodes) for rep in r["cli.classify"])
        edges = _edge_set(graph)
        replicas = r["null_model.density_rewire"] + r["null_model.randomize"]
        facts["edges_moved"] = [len(edges - _edge_set(g)) / len(edges) for g in replicas]
        facts["opsahl_matches_census"] = (
            ops.tau_star == sum(c.path_totals)
            and ops.tau_star_closed == c.path_closed_any_total
        )
        out = cli_args[cli_args.index("--out") + 1]
        with open(f"{out}/report.json", encoding="utf-8") as f:
            reported = json.load(f)["global"]
        fresh = global_profile(census(load_graph(cli_args[cli_args.index("--input") + 1])[0]))
        facts["cli_matches_fresh_census"] = (
            reported["numerators"] == list(fresh.numerators)
            and reported["denominators"] == list(fresh.denominators)
        )
    # time spent here after main, so the caller can leave it out of the overhead
    facts["after_main_s"] = perf_counter() - main_end
    with open(facts_file, "w", encoding="utf-8") as f:
        json.dump(facts, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
