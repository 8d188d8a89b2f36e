"""Independent recounts used only to verify the package implementation.

Everything here is written as directly as possible, with loop
structures chosen to be different from the library's kernels.
``pairwise_census`` is the package's earlier census kernel, a walk over
pairs of opposite-side nodes; it is fast enough for graphs beyond the
brute-force guard.  ``region_terms`` states the kernel's 16 per-triple
counts directly, one function of the regions each, for the kernel's
closed forms to be checked against.  ``set_curveball`` is the degree
model on one neighbour set per row, and ``divmod_density_rewire`` the
density model on tuples, drawing through ``sample``.
``tuple_set_randomize`` is the swap chain the degree model replaced,
kept as the reference its mixing is compared with.  ``fraction_g``,
``fraction_f``, ``fraction_ds`` and ``fraction_direction`` are the
driving score's components, node score and directions computed in
``Fraction`` arithmetic, as the package did before it scored in
integers; ``g_branches`` and ``f_branches`` write g and f branch by
branch.
"""

import random
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from math import comb

import numpy as np

from bimotif import BipartiteGraph, DegenerateMidpoint, MotifCensus, Side, from_indexed_edges
from bimotif.census import (
    _ANY, _K0, _K1, _K2, _K3, _P0, _Q0, _Q1, _Q2, _Q3, _S1, _S2, _U0, _U1, _V1, _V2,
)
from graphs import neighbours


class SixCycleClass(IntEnum):
    """6-cycle classes, valued by the number of extra edges among the six nodes."""

    UNCONNECTED = 0
    SPARSE = 1
    HIGH = 2
    COMPLETE = 3


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


def canonical_four_path(
    adj_a: list[set[int]], v0: int, w0: int, v1: int, w1: int, v2: int,
) -> FourPath:
    """Validate the nodes as a 4-path and return its canonical form.

    ``adj_a`` is the analysis side's ``neighbours``; a via outside the
    opposite side is in none of them, so it fails as a missing edge.
    """
    for v in (v0, v1, v2):
        if not 0 <= v < len(adj_a):
            raise NotAPath(f"analysis node {v} out of range")
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


def classify_four_path(adj_a: list[set[int]], v0: int, w0: int, v1: int, w1: int, v2: int) -> int:
    """Number of extra edges (0, 1 or 2) on a validated 4-path."""
    return canonical_four_path(adj_a, v0, w0, v1, w1, v2).extra_edges


def closures_of(adj_a: list[set[int]], p: FourPath) -> list[tuple[int, SixCycleClass]]:
    """All closing nodes of a path with the class of the resulting 6-cycle."""
    v0, v2 = p.ends
    candidates = (adj_a[v0] & adj_a[v2]) - set(p.vias)
    out = []
    for w2 in sorted(candidates):
        bump = 1 if w2 in adj_a[p.center] else 0
        cls = SixCycleClass(p.extra_edges + bump)
        out.append((w2, cls))
    return out


def _path_totals(path_counts, path_closed, closure_pairs, path_closed_any) -> dict:
    """The four path-level totals of a census, each the sum of its per-node rows."""

    def summed(rows, width):
        return tuple(sum(row[k] for row in rows) for k in range(width))

    return dict(
        path_totals=summed(path_counts, 3),
        path_closed_totals=summed(path_closed, 4),
        closure_pair_totals=summed(closure_pairs, 4),
        path_closed_any_total=sum(path_closed_any),
    )


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
    adj_a = neighbours(g, side)

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
                        found.add(canonical_four_path(adj_a, v0, w0, v1, w1, v2))

    paths = [[0, 0, 0] for _ in range(na)]
    path_closed = [[0, 0, 0, 0] for _ in range(na)]
    pairs = [[0, 0, 0, 0] for _ in range(na)]
    path_any = [0] * na
    by_support: dict[tuple, list[FourPath]] = {}
    for p in found:
        paths[p.center][p.extra_edges] += 1
        closures = closures_of(adj_a, p)
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
            for _, c in closures_of(adj_a, p):
                closed_to.add(c)
        for c in closed_to:
            closed_totals[c] += 1
        for z in centers:
            configs[z][cls] += 1
            for c in closed_to:
                config_closed[z][c] += 1

    return MotifCensus(
        **_path_totals(paths, path_closed, pairs, path_any),
        path_counts=tuple(tuple(r) for r in paths),
        path_closed=tuple(tuple(r) for r in path_closed),
        closure_pairs=tuple(tuple(r) for r in pairs),
        path_closed_any=tuple(path_any),
        config_counts=tuple(tuple(r) for r in configs),
        config_closed=tuple(tuple(r) for r in config_closed),
        config_totals=tuple(config_totals),
        config_closed_totals=tuple(closed_totals),
    )


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def pairwise_census(g: BipartiteGraph, side: Side = Side.PRIMARY) -> MotifCensus:
    """Count paths, configurations and their closures for one side.

    The package's earlier kernel, kept as a fast oracle for graphs
    beyond the brute-force guard.

    Single pass over pairs of opposite-side nodes.  For a pair
    (w0, w1): B holds the analysis nodes adjacent to both (the possible
    centers), U0/U1 those adjacent to only one (the possible ends).
    Every configuration on the pair is then one of: center + one end
    from each U (class 0), two centers + one end (class 1), or three
    centers (class 2).
    """
    na = g.node_count(side)
    adj_a = [0] * na
    for i, nbrs in enumerate(neighbours(g, side)):
        for w in nbrs:
            adj_a[i] |= 1 << w
    other = neighbours(g, side.other())
    ns = len(other)
    adj_w = [0] * ns
    for w, nbrs in enumerate(other):
        for i in nbrs:
            adj_w[w] |= 1 << i

    path_closed = [[0, 0, 0, 0] for _ in range(na)]
    pairs = [[0, 0, 0, 0] for _ in range(na)]
    path_any = [0] * na
    configs = [[0, 0, 0] for _ in range(na)]
    # class-0 configuration closures (column 0) are derived after the loop
    config_closed = [[0, 0, 0, 0] for _ in range(na)]
    closed_totals = [0, 0, 0, 0]

    for w0 in range(ns):
        m0 = adj_w[w0]
        for w1 in range(w0 + 1, ns):
            m1 = adj_w[w1]
            both = m0 & m1
            if not both:
                continue
            excl = ~((1 << w0) | (1 << w1))
            bl = _bits(both)
            u0l = _bits(m0 & ~m1)
            u1l = _bits(m1 & ~m0)
            nb = len(bl)
            n0 = len(u0l)
            n1 = len(u1l)

            for c in bl:
                configs[c][0] += n0 * n1
                configs[c][1] += (nb - 1) * (n0 + n1)
                configs[c][2] += comb(nb - 1, 2)

            # class 0: one center, one end on each branch, one path
            for x in u0l:
                ax = adj_a[x]
                for y in u1l:
                    common = ax & adj_a[y] & excl
                    if not common:
                        continue
                    for c in bl:
                        flat = common & ~adj_a[c]
                        up = common & adj_a[c]
                        path_any[c] += 1
                        if flat:
                            path_closed[c][0] += 1
                            pairs[c][0] += flat.bit_count()
                        if up:
                            closed_totals[1] += 1
                            config_closed[c][1] += 1
                            path_closed[c][1] += 1
                            pairs[c][1] += up.bit_count()

            # class 1: two centers and one end; two internal paths,
            # one per choice of center.  A closing node adjacent to
            # both centers lifts both paths, so they share one mask.
            if nb >= 2 and (n0 or n1):
                ul = u0l + u1l
                for i in range(nb):
                    c1 = bl[i]
                    a1 = adj_a[c1]
                    for j in range(i + 1, nb):
                        c2 = bl[j]
                        a2 = adj_a[c2]
                        for u in ul:
                            au = adj_a[u] & excl
                            up = a1 & a2 & au
                            flat1 = a2 & au & ~a1  # path centered at c1
                            flat2 = a1 & au & ~a2  # path centered at c2
                            for c, flat in ((c1, flat1), (c2, flat2)):
                                if flat or up:
                                    path_any[c] += 1
                                if flat:
                                    path_closed[c][1] += 1
                                    pairs[c][1] += flat.bit_count()
                                if up:
                                    path_closed[c][2] += 1
                                    pairs[c][2] += up.bit_count()
                            if flat1 or flat2:
                                closed_totals[1] += 1
                                config_closed[c1][1] += 1
                                config_closed[c2][1] += 1
                            if up:
                                closed_totals[2] += 1
                                config_closed[c1][2] += 1
                                config_closed[c2][2] += 1

            # class 2: three centers; each center yields two paths that
            # differ only in via orientation, so tallies go up in twos.
            # A closing node adjacent to all three lifts every path.
            if nb >= 3:
                for ti in range(nb):
                    ax = adj_a[bl[ti]]
                    for tj in range(ti + 1, nb):
                        ay = adj_a[bl[tj]]
                        for tk in range(tj + 1, nb):
                            az = adj_a[bl[tk]]
                            triple = (bl[ti], bl[tj], bl[tk])
                            up = ax & ay & az & excl
                            flats = (
                                ay & az & excl & ~ax,
                                ax & az & excl & ~ay,
                                ax & ay & excl & ~az,
                            )
                            for z, flat in zip(triple, flats):
                                if flat or up:
                                    path_any[z] += 2
                                if flat:
                                    path_closed[z][2] += 2
                                    pairs[z][2] += 2 * flat.bit_count()
                                if up:
                                    path_closed[z][3] += 2
                                    pairs[z][3] += 2 * up.bit_count()
                            if any(flats):
                                closed_totals[2] += 1
                                for z in triple:
                                    config_closed[z][2] += 1
                            if up:
                                closed_totals[3] += 1
                                for z in triple:
                                    config_closed[z][3] += 1

    # A class-0 configuration has one center and one path, so it closes
    # to class 0 exactly when that path does.  A class-e configuration
    # is anchored at each of its e+1 centers, so the per-node sums count
    # it e+1 times.  Each center has one path per configuration in
    # classes 0 and 1, and two in class 2.
    flat_closed = [r[0] for r in path_closed]
    closed_totals[0] = sum(flat_closed)
    paths = [(r[0], r[1], 2 * r[2]) for r in configs]
    return MotifCensus(
        **_path_totals(paths, path_closed, pairs, path_any),
        path_counts=tuple(paths),
        path_closed=tuple(tuple(r) for r in path_closed),
        closure_pairs=tuple(tuple(r) for r in pairs),
        path_closed_any=tuple(path_any),
        config_counts=tuple(tuple(r) for r in configs),
        config_closed=tuple((k, *r[1:]) for k, r in zip(flat_closed, config_closed)),
        config_totals=tuple(sum(r[e] for r in configs) // (e + 1) for e in range(3)),
        config_closed_totals=tuple(closed_totals),
    )


def region_terms(a, b, f, t):
    """The 16 per-triple counts for the regions a, b, f, t of one center, one row each.

    These are the package kernel's 16 rows, stated directly from the
    region algebra in the ``bimotif.census`` docstring.
    """
    ab = a * b
    ts = t * (a + b)  # class-1 paths
    tt = t * (t - 1)  # class-2 paths
    flat = f > 0
    counts = {
        _K0: ab,  # class-0 configurations
        _K1: ts,  # class-1 configurations
        _K2: tt // 2,  # class-2 configurations
        _P0: ab * flat,  # class-0 paths closed flat
        _U0: ab * (t > 0),  # class-0 paths closed up
        _V1: ts * flat,  # class-1 paths closed flat
        _U1: ts * (t > 1),  # class-1 paths closed up
        _V2: tt * flat,  # class-2 paths closed flat
        _K3: tt // 2 * (t > 2),  # class-2 configurations closed up
        _Q0: ab * f,  # (path, closing node) pairs of class 0-3
        _Q1: ab * t + ts * f,
        _Q2: tt * (a + b + f),
        _Q3: tt * (t - 2),
        _ANY: ab * (f + t > 0) + ts * (f + t > 1) + tt * (f + t > 2),  # paths closed
        _S1: t * (b * (flat | (a > 0)) + a * (flat | (b > 0))),  # class-1 configurations closed flat
        _S2: tt // 2 * (flat | (a > 0) | (b > 0)),  # class-2 configurations closed flat
    }
    out = np.empty((16,) + np.shape(ab), dtype=np.int64)
    for row, count in counts.items():
        out[row] = count
    return out


def raw_six_cycles(g: BipartiteGraph) -> int:
    """Distinct 6-cycles, counted as node-distinct closed 6-walks.

    Walks start on the primary side, so each cycle is seen 6 times
    (3 starting nodes x 2 directions).
    """
    adj = neighbours(g)
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
    adj = neighbours(g, side)
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


def tuple_set_randomize(g: BipartiteGraph, seed: int, swaps_per_edge: int = 10) -> BipartiteGraph:
    """The earlier degree model: attempted double edge swaps on a list and a set of edge tuples."""
    edges = []
    for i, nbrs in enumerate(neighbours(g)):
        for j in sorted(nbrs):
            edges.append((i, j))
    m = len(edges)
    if m < 2:
        return g
    eset = set(edges)
    rng = random.Random(seed)
    for _ in range(swaps_per_edge * m):
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        a, x = edges[i]
        b, y = edges[j]
        if a == b or x == y:
            continue
        if (a, y) in eset or (b, x) in eset:
            continue
        eset.remove((a, x))
        eset.remove((b, y))
        eset.add((a, y))
        eset.add((b, x))
        edges[i] = (a, y)
        edges[j] = (b, x)
    return from_indexed_edges(g.primary_labels, g.secondary_labels, edges)


def set_curveball(g: BipartiteGraph, seed: int, swaps_per_edge: int = 10) -> BipartiteGraph:
    """The degree model: a global Curveball on one neighbour set per primary node.

    Edge slot s is the s-th edge in row order, then column order; it
    keeps its column.  Each of swaps_per_edge * 3 // 2 rounds takes
    n + m keys of 64 bits, lowest first, from one ``getrandbits`` call:
    one per row, then one per slot.  The rows are paired in key order.
    Each pair's slots whose column only one of its rows has are put in
    key order, and the first row gets as many of them as it had.  Keys
    are compared without their low bits, which the package fills with
    indices: (n − 1).bit_length() of them for a row, and for a slot
    (n // 2).bit_length() + (m − 1).bit_length(); ties go by index.
    """
    nbrs = neighbours(g)
    n = len(nbrs)
    cols = [j for row in nbrs for j in sorted(row)]
    owner = [i for i, row in enumerate(nbrs) for _ in row]
    m = len(cols)
    if n < 2 or m == 0:
        return g
    row_shift = (n - 1).bit_length()
    slot_shift = (n // 2).bit_length() + (m - 1).bit_length()
    rng = random.Random(seed)
    for _ in range(swaps_per_edge * 3 // 2):
        drawn = rng.getrandbits(64 * (n + m))
        keys = [drawn >> (64 * i) & (2**64 - 1) for i in range(n + m)]
        order = sorted(range(n), key=lambda i: (keys[i] >> row_shift, i))
        for a, b in zip(order[0::2], order[1::2]):
            both = nbrs[a] & nbrs[b]
            moving = [s for s in range(m) if owner[s] in (a, b) and cols[s] not in both]
            moving.sort(key=lambda s: (keys[n + s] >> slot_shift, s))
            kept = len(nbrs[a]) - len(both)
            for s in moving[:kept]:
                owner[s] = a
            for s in moving[kept:]:
                owner[s] = b
            nbrs[a] = both | {cols[s] for s in moving[:kept]}
            nbrs[b] = both | {cols[s] for s in moving[kept:]}
    return from_indexed_edges(g.primary_labels, g.secondary_labels, list(zip(owner, cols)))


def divmod_density_rewire(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    """The density model: ``edge_count`` sampled cells, split into (row, column) by divmod."""
    n_s = len(g.secondary_labels)
    cells = random.Random(seed).sample(range(len(g.primary_labels) * n_s), g.edge_count)
    return from_indexed_edges(g.primary_labels, g.secondary_labels, [divmod(c, n_s) for c in cells])


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


def _branch(numerator: Fraction, denominator: Fraction) -> Fraction:
    """A score branch: 0/0 is 0, and any other zero denominator is DegenerateMidpoint."""
    if denominator == 0:
        if numerator == 0:
            return Fraction(0)
        raise DegenerateMidpoint("zero denominator in score branch")
    return numerator / denominator


def fraction_g(cc_k, ci_k) -> Fraction:
    """g_component in Fractions."""
    cc_k = Fraction(cc_k)
    ci_k = Fraction(ci_k)
    if cc_k < ci_k:
        return _branch(ci_k - cc_k, ci_k)
    return _branch(cc_k - ci_k, 1 - ci_k)


def fraction_f(cc_global, cc_local, ci_k) -> Fraction:
    """f_component in Fractions: g of the local value, negated when it opposes the global side."""
    ci_k = Fraction(ci_k)
    g = fraction_g(cc_local, ci_k)
    if (Fraction(cc_global) < ci_k) != (Fraction(cc_local) < ci_k):
        return -g
    return g


def fraction_ds(local, global_cc, midpoints, literal_divisor=False):
    """(node score, defined component count) in Fractions; (None, 0) when no class is defined."""
    comps = [
        fraction_f(g, l, m)
        for g, l, m in zip(global_cc, local, midpoints)
        if g is not None and l is not None and m is not None
    ]
    if not comps:
        return None, 0
    divisor = 4 if literal_divisor else len(comps)
    return sum(comps, Fraction(0)) / divisor, len(comps)


def fraction_direction(local, band):
    """direction_of by Fraction comparisons; a missing bound is the midpoint."""
    if local is None or band is None:
        return None
    low = band.low if band.low is not None else band.midpoint
    high = band.high if band.high is not None else band.midpoint
    if local < low:
        return "below"
    if local > high:
        return "above"
    return "inside"
