"""Independent recounts used only to verify the package implementation.

Everything here is written as directly as possible, with loop
structures chosen to be different from the library's kernels.
"""

from dataclasses import dataclass
from fractions import Fraction

from bimotif import BipartiteGraph, MotifCensus, Side, SixCycleClass


class NotAPath(Exception):
    """The given nodes do not form a valid 4-path."""


class TooLarge(Exception):
    """Graph exceeds the brute-force size guard."""


@dataclass(frozen=True)
class FourPath:
    """A canonical 4-path: ends-(vias)-center on the analysis side.

    ``ends`` are the outer analysis nodes (v0, v2), ``vias`` the
    opposite-side nodes (w0, w1) with w0 on the v0 branch.  For
    extra_edges == 1 the orientation puts the extra edge at v0-w1;
    otherwise ends are ordered by index.
    """

    center: int
    ends: tuple[int, int]
    vias: tuple[int, int]
    extra_edges: int


def _adjacency_sets(g: BipartiteGraph, side: Side):
    """(analysis-side, other-side) adjacency as sets for membership tests."""
    return (
        [set(t) for t in g.adjacency(side)],
        [set(t) for t in g.adjacency(side.other())],
    )


def canonical_four_path(
    g: BipartiteGraph, v0: int, w0: int, v1: int, w1: int, v2: int,
    side: Side = Side.PRIMARY,
) -> FourPath:
    """Validate the nodes as a 4-path and return its canonical form."""
    adj_a, _ = _adjacency_sets(g, side)
    na = g.node_count(side)
    ns = g.node_count(side.other())
    for v in (v0, v1, v2):
        if not 0 <= v < na:
            raise NotAPath(f"analysis node {v} out of range")
    for w in (w0, w1):
        if not 0 <= w < ns:
            raise NotAPath(f"via node {w} out of range")
    if len({v0, v1, v2}) != 3 or w0 == w1:
        raise NotAPath("path nodes repeat")
    for v, w in ((v0, w0), (v1, w0), (v1, w1), (v2, w1)):
        if w not in adj_a[v]:
            raise NotAPath(f"missing edge between {v} and {w}")
    extra_a = w1 in adj_a[v0]
    extra_b = w0 in adj_a[v2]
    extra = int(extra_a) + int(extra_b)
    if (extra == 1 and extra_b) or (extra != 1 and v2 < v0):
        v0, v2 = v2, v0
        w0, w1 = w1, w0
    return FourPath(center=v1, ends=(v0, v2), vias=(w0, w1), extra_edges=extra)


def classify_four_path(
    g: BipartiteGraph, v0: int, w0: int, v1: int, w1: int, v2: int,
    side: Side = Side.PRIMARY,
) -> int:
    """Number of extra edges (0, 1 or 2) on a validated 4-path."""
    return canonical_four_path(g, v0, w0, v1, w1, v2, side).extra_edges


def closures_of(
    g: BipartiteGraph, p: FourPath, side: Side = Side.PRIMARY,
) -> list[tuple[int, SixCycleClass]]:
    """All closing nodes of a path with the class of the resulting 6-cycle."""
    adj_a, _ = _adjacency_sets(g, side)
    v0, v2 = p.ends
    candidates = (adj_a[v0] & adj_a[v2]) - set(p.vias)
    out = []
    for w2 in sorted(candidates):
        bump = 1 if w2 in adj_a[p.center] else 0
        cls = SixCycleClass(p.extra_edges + bump)
        out.append((w2, cls))
    return out


def brute_force_census(g: BipartiteGraph, side: Side = Side.PRIMARY) -> MotifCensus:
    """Census by exhaustive 5-tuple iteration; small graphs only.

    Enumerates every ordered node 5-tuple, keeps the valid 4-paths via
    explicit canonicalization, then assembles configurations by
    grouping paths on their 5-node support.  Intentionally simple and
    slow.
    """
    na = g.node_count(side)
    ns = g.node_count(side.other())
    if na > 16 or ns > 16:
        raise TooLarge(f"brute force limited to 16 nodes per side, got {na}x{ns}")
    adj_a, _ = _adjacency_sets(g, side)

    found: set[FourPath] = set()
    for v0 in range(na):
        for w0 in range(ns):
            if w0 not in adj_a[v0]:
                continue
            for v1 in range(na):
                if v1 == v0 or w0 not in adj_a[v1]:
                    continue
                for w1 in range(ns):
                    if w1 == w0 or w1 not in adj_a[v1]:
                        continue
                    for v2 in range(na):
                        if v2 in (v0, v1) or w1 not in adj_a[v2]:
                            continue
                        found.add(canonical_four_path(g, v0, w0, v1, w1, v2, side))

    paths = [[0, 0, 0] for _ in range(na)]
    path_closed = [[0, 0, 0, 0] for _ in range(na)]
    pairs = [[0, 0, 0, 0] for _ in range(na)]
    path_any = [0] * na
    by_support: dict[tuple, list[FourPath]] = {}
    for p in found:
        paths[p.center][p.extra_edges] += 1
        closures = closures_of(g, p, side)
        classes = set()
        for _, cls in closures:
            pairs[p.center][cls] += 1
            classes.add(cls)
        for cls in classes:
            path_closed[p.center][cls] += 1
        if closures:
            path_any[p.center] += 1
        key = (frozenset({p.center, *p.ends}), frozenset(p.vias))
        by_support.setdefault(key, []).append(p)

    configs = [[0, 0, 0] for _ in range(na)]
    config_closed = [[0, 0, 0, 0] for _ in range(na)]
    config_totals = [0, 0, 0]
    closed_totals = [0, 0, 0, 0]
    for (vs, ws), members in by_support.items():
        induced = sum(1 for v in vs for w in ws if w in adj_a[v])
        cls = induced - 4
        assert all(p.extra_edges == cls for p in members)
        centers = {p.center for p in members}
        assert len(centers) == cls + 1
        config_totals[cls] += 1
        closed_to = set()
        for p in members:
            for _, c in closures_of(g, p, side):
                closed_to.add(c)
        for c in closed_to:
            closed_totals[c] += 1
        for z in centers:
            configs[z][cls] += 1
            for c in closed_to:
                config_closed[z][c] += 1

    return MotifCensus(
        path_counts=tuple(tuple(r) for r in paths),
        path_closed=tuple(tuple(r) for r in path_closed),
        closure_pairs=tuple(tuple(r) for r in pairs),
        path_closed_any=tuple(path_any),
        config_counts=tuple(tuple(r) for r in configs),
        config_closed=tuple(tuple(r) for r in config_closed),
        config_totals=tuple(config_totals),
        config_closed_totals=tuple(closed_totals),
    )


def raw_six_cycles(g: BipartiteGraph) -> int:
    """Distinct 6-cycles, counted as node-distinct closed 6-walks.

    Walks start on the primary side, so each cycle is seen 6 times
    (3 starting nodes x 2 directions).
    """
    adj = [set(t) for t in g.adjacency_primary]
    na = len(adj)
    count = 0
    for v0 in range(na):
        for w0 in adj[v0]:
            for v1 in range(na):
                if v1 == v0 or w0 not in adj[v1]:
                    continue
                for w1 in adj[v1]:
                    if w1 == w0:
                        continue
                    for v2 in range(na):
                        if v2 in (v0, v1) or w1 not in adj[v2]:
                            continue
                        for w2 in adj[v2]:
                            if w2 in (w0, w1):
                                continue
                            if w2 in adj[v0]:
                                count += 1
    assert count % 6 == 0
    return count // 6


def naive_opsahl(g: BipartiteGraph, side: Side):
    """(tau, closed, per-node tau, per-node closed) by raw 5-tuple scan."""
    adj = [set(t) for t in g.adjacency(side)]
    na = len(adj)
    ns = g.node_count(side.other())
    tau2 = [0] * na
    closed2 = [0] * na
    for v0 in range(na):
        for w0 in range(ns):
            if w0 not in adj[v0]:
                continue
            for v1 in range(na):
                if v1 == v0 or w0 not in adj[v1]:
                    continue
                for w1 in range(ns):
                    if w1 == w0 or w1 not in adj[v1]:
                        continue
                    for v2 in range(na):
                        if v2 in (v0, v1) or w1 not in adj[v2]:
                            continue
                        tau2[v1] += 1
                        if (adj[v0] & adj[v2]) - {w0, w1}:
                            closed2[v1] += 1
    # every path was visited once per direction
    per_tau = [t // 2 for t in tau2]
    per_closed = [c // 2 for c in closed2]
    return sum(per_tau), sum(per_closed), per_tau, per_closed


def g_branches(cc, ci) -> Fraction:
    """The global score component, written branch by branch."""
    cc = Fraction(cc)
    ci = Fraction(ci)
    if cc < ci:
        return (ci - cc) / ci
    return (cc - ci) / (1 - ci)


def f_branches(cc_global, cc_local, ci) -> Fraction:
    """The per-node score component, written branch by branch."""
    cc_global = Fraction(cc_global)
    cc_local = Fraction(cc_local)
    ci = Fraction(ci)
    if cc_global < ci and cc_local < ci:
        return (ci - cc_local) / ci
    if cc_global < ci and cc_local >= ci:
        return -(cc_local - ci) / (1 - ci)
    if cc_global >= ci and cc_local >= ci:
        return (cc_local - ci) / (1 - ci)
    return -(ci - cc_local) / ci
