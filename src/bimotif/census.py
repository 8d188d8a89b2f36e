"""4-path and 6-cycle census for two-mode graphs.

The analysis walks every 4-path (v0-w0-v1-w1-v2) whose three outer
nodes sit on the analysis side, classifies it by how many of the two
possible extra edges (v0-w1, v2-w0) are present, and looks for closing
nodes w2 adjacent to both ends.  A closure turns the path into a
6-cycle whose class equals the path's extra edges, plus one when the
closing node is also adjacent to the path's center.

Counting happens at two granularities:

* path level: each 4-path belongs to exactly one center; a path is
  "closed for class c" when at least one of its closures has class c,
  and (path, closure) pairs are tallied separately.
* configuration level: the 5-node set {three analysis nodes, two via
  nodes} induced by a path.  A configuration of class e (its induced
  edge count minus 4) has e+1 centers and closes to class c when any
  of its internal paths does.  Per-node counts anchor a configuration
  at each of its centers; global totals count it once.

The configuration level is what the clustering coefficients use by
default; the path level feeds the alternate closure policies and the
reference measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from math import comb
from typing import Optional

from .graph import BipartiteGraph, Side


class SixCycleClass(IntEnum):
    """6-cycle classes, valued by the number of extra edges among the six nodes."""

    UNCONNECTED = 0
    SPARSE = 1
    HIGH = 2
    COMPLETE = 3


@dataclass(frozen=True)
class MotifCensus:
    """Per-node and aggregate counts from one census run.

    Path-level globals are sums of the per-node values; configuration
    totals are deduplicated (a configuration with several centers is
    counted once globally), so they are stored explicitly.
    """

    path_counts: tuple[tuple[int, int, int], ...]
    path_closed: tuple[tuple[int, int, int, int], ...]
    closure_pairs: tuple[tuple[int, int, int, int], ...]
    path_closed_any: tuple[int, ...]
    config_counts: tuple[tuple[int, int, int], ...]
    config_closed: tuple[tuple[int, int, int, int], ...]
    config_totals: tuple[int, int, int]
    config_closed_totals: tuple[int, int, int, int]

    @property
    def node_count(self) -> int:
        return len(self.path_counts)

    def _summed(self, rows, width):
        totals = [0] * width
        for row in rows:
            for k in range(width):
                totals[k] += row[k]
        return tuple(totals)

    @property
    def path_totals(self) -> tuple[int, int, int]:
        return self._summed(self.path_counts, 3)

    @property
    def path_closed_totals(self) -> tuple[int, int, int, int]:
        return self._summed(self.path_closed, 4)

    @property
    def closure_pair_totals(self) -> tuple[int, int, int, int]:
        return self._summed(self.closure_pairs, 4)

    @property
    def path_closed_any_total(self) -> int:
        return sum(self.path_closed_any)


@dataclass(frozen=True)
class OpsahlStats:
    """Reference 4-path closure measure, global and per node."""

    tau_star: int
    tau_star_closed: int
    c_star: Optional[Fraction]
    per_node_tau: tuple[int, ...]
    per_node_closed: tuple[int, ...]
    per_node_c: tuple[Optional[Fraction], ...]


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def census(g: BipartiteGraph, side: Side = Side.PRIMARY) -> MotifCensus:
    """Count paths, configurations and their closures for one side.

    Single pass over pairs of opposite-side nodes.  For a pair
    (w0, w1): B holds the analysis nodes adjacent to both (the possible
    centers), U0/U1 those adjacent to only one (the possible ends).
    Every configuration on the pair is then one of: center + one end
    from each U (class 0), two centers + one end (class 1), or three
    centers (class 2).
    """
    na = g.node_count(side)
    adj_a = [0] * na
    for i, nbrs in enumerate(g.adjacency(side)):
        for w in nbrs:
            adj_a[i] |= 1 << w
    other = g.adjacency(side.other())
    ns = len(other)
    adj_w = [0] * ns
    for w, nbrs in enumerate(other):
        for i in nbrs:
            adj_w[w] |= 1 << i

    paths = [[0, 0, 0] for _ in range(na)]
    path_closed = [[0, 0, 0, 0] for _ in range(na)]
    pairs = [[0, 0, 0, 0] for _ in range(na)]
    path_any = [0] * na
    configs = [[0, 0, 0] for _ in range(na)]
    config_closed = [[0, 0, 0, 0] for _ in range(na)]
    config_totals = [0, 0, 0]
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

            config_totals[0] += nb * n0 * n1
            config_totals[1] += comb(nb, 2) * (n0 + n1)
            config_totals[2] += comb(nb, 3)
            for c in bl:
                configs[c][0] += n0 * n1
                configs[c][1] += (nb - 1) * (n0 + n1)
                configs[c][2] += comb(nb - 1, 2)
                paths[c][0] += n0 * n1
                paths[c][1] += (nb - 1) * (n0 + n1)
                paths[c][2] += 2 * comb(nb - 1, 2)

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
                            closed_totals[0] += 1
                            config_closed[c][0] += 1
                            path_closed[c][0] += 1
                            pairs[c][0] += flat.bit_count()
                        if up:
                            closed_totals[1] += 1
                            config_closed[c][1] += 1
                            path_closed[c][1] += 1
                            pairs[c][1] += up.bit_count()

            # class 1: two centers and one end; two internal paths,
            # one per choice of center
            if nb >= 2 and (n0 or n1):
                ul = u0l + u1l
                for i in range(nb):
                    c1 = bl[i]
                    a1 = adj_a[c1]
                    for j in range(i + 1, nb):
                        c2 = bl[j]
                        a2 = adj_a[c2]
                        for u in ul:
                            au = adj_a[u]
                            com1 = a2 & au & excl  # path centered at c1
                            com2 = a1 & au & excl  # path centered at c2
                            flat1 = com1 & ~a1
                            up1 = com1 & a1
                            flat2 = com2 & ~a2
                            up2 = com2 & a2
                            if com1:
                                path_any[c1] += 1
                            if com2:
                                path_any[c2] += 1
                            if flat1:
                                path_closed[c1][1] += 1
                                pairs[c1][1] += flat1.bit_count()
                            if up1:
                                path_closed[c1][2] += 1
                                pairs[c1][2] += up1.bit_count()
                            if flat2:
                                path_closed[c2][1] += 1
                                pairs[c2][1] += flat2.bit_count()
                            if up2:
                                path_closed[c2][2] += 1
                                pairs[c2][2] += up2.bit_count()
                            if flat1 or flat2:
                                closed_totals[1] += 1
                                config_closed[c1][1] += 1
                                config_closed[c2][1] += 1
                            if up1 or up2:
                                closed_totals[2] += 1
                                config_closed[c1][2] += 1
                                config_closed[c2][2] += 1

            # class 2: three centers; each center yields two paths that
            # differ only in via orientation, so tallies go up in twos
            if nb >= 3:
                for ti in range(nb):
                    for tj in range(ti + 1, nb):
                        for tk in range(tj + 1, nb):
                            triple = (bl[ti], bl[tj], bl[tk])
                            any_flat = False
                            any_up = False
                            for z in triple:
                                p, q = (t for t in triple if t != z)
                                com = adj_a[p] & adj_a[q] & excl
                                flat = com & ~adj_a[z]
                                up = com & adj_a[z]
                                if com:
                                    path_any[z] += 2
                                if flat:
                                    any_flat = True
                                    path_closed[z][2] += 2
                                    pairs[z][2] += 2 * flat.bit_count()
                                if up:
                                    any_up = True
                                    path_closed[z][3] += 2
                                    pairs[z][3] += 2 * up.bit_count()
                            if any_flat:
                                closed_totals[2] += 1
                            if any_up:
                                closed_totals[3] += 1
                            for z in triple:
                                if any_flat:
                                    config_closed[z][2] += 1
                                if any_up:
                                    config_closed[z][3] += 1

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


def opsahl(c: MotifCensus) -> OpsahlStats:
    """Reference closure measure: closed 4-paths over all 4-paths.

    Opsahl's ratio (Social Networks 35, 2013), read from the census path
    layer: a node's 4-paths are its path counts summed over the three
    classes, and its closed ones are those with at least one closure.
    """
    per_tau = tuple(sum(row) for row in c.path_counts)
    per_closed = c.path_closed_any
    tau = sum(per_tau)
    closed = sum(per_closed)
    per_c = tuple(
        Fraction(k, t) if t else None for k, t in zip(per_closed, per_tau)
    )
    return OpsahlStats(
        tau_star=tau,
        tau_star_closed=closed,
        c_star=Fraction(closed, tau) if tau else None,
        per_node_tau=per_tau,
        per_node_closed=per_closed,
        per_node_c=per_c,
    )
