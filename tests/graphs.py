"""Small graph builders shared across the test modules."""

import random

import numpy as np
from hypothesis import strategies as st

from bimotif import BipartiteGraph, Side, from_edge_list, from_indexed_edges

RING_EDGES = [
    ("v0", "w0"), ("v1", "w0"), ("v1", "w1"),
    ("v2", "w1"), ("v2", "w2"), ("v0", "w2"),
]

# chords a 6-ring can carry; 0, 1, 2 or all 3 of them
RING_CHORDS = [("v0", "w1"), ("v1", "w2"), ("v2", "w0")]


def neighbours(g: BipartiteGraph, side: Side = Side.PRIMARY) -> list[set[int]]:
    """Each ``side`` node's opposite-side neighbours, as a set of indices."""
    rows = g.biadjacency if side is Side.PRIMARY else g.biadjacency.T
    return [set(np.flatnonzero(row).tolist()) for row in rows]


def edge_list(g: BipartiteGraph) -> list[tuple[str, str]]:
    """Edges as (primary_label, secondary_label) pairs in index order."""
    return [(g.primary_labels[i], g.secondary_labels[j])
            for i, nbrs in enumerate(neighbours(g)) for j in sorted(nbrs)]


def biadjacency(g: BipartiteGraph, side: Side = Side.PRIMARY) -> np.ndarray:
    """A writable copy of the boolean biadjacency with ``side`` as rows."""
    return np.array(g.biadjacency if side is Side.PRIMARY else g.biadjacency.T)


def mirror(g: BipartiteGraph) -> BipartiteGraph:
    """The same graph with primary and secondary roles exchanged."""
    return BipartiteGraph(g.secondary_labels, g.primary_labels, g.biadjacency.T)


def c6() -> BipartiteGraph:
    g, _ = from_edge_list(RING_EDGES)
    return g


def ring_plus_chords(n: int) -> BipartiteGraph:
    g, _ = from_edge_list(RING_EDGES + RING_CHORDS[:n])
    return g


def k33() -> BipartiteGraph:
    g, _ = from_edge_list([(f"v{i}", f"w{j}") for i in range(3) for j in range(3)])
    return g


def three_disjoint_edges() -> BipartiteGraph:
    g, _ = from_edge_list([("a", "x"), ("b", "y"), ("c", "z")])
    return g


def divisor_gadget() -> BipartiteGraph:
    """Six nodes where cc0 is undefined but the other classes are defined.

    For center v1 the class counts are [0, 2, 1]: no plain 4-path is
    anchored there, so the first coefficient has a zero denominator
    while the remaining three are defined.  A 5-node two-mode graph
    cannot produce this pattern (it has only one 3+2 node split), so
    this is the minimal fixture for the defined-component divisor.
    """
    g, _ = from_edge_list([
        ("v1", "w0"), ("v1", "w1"), ("v1", "w2"),
        ("a", "w0"), ("a", "w1"),
        ("b", "w0"), ("b", "w1"), ("b", "w2"),
    ])
    return g


def random_bipartite(rng: random.Random, na: int, ns: int, density: float) -> BipartiteGraph:
    m = max(1, round(density * na * ns))
    cells = rng.sample(range(na * ns), m)
    return from_indexed_edges(
        [f"p{i}" for i in range(na)],
        [f"s{j}" for j in range(ns)],
        [divmod(c, ns) for c in cells],
    )


def hub_graph(rng: random.Random, na: int, ns: int, density: float) -> BipartiteGraph:
    """A random graph whose secondary s0 meets every primary node and s1 every other one."""
    cells = {divmod(c, ns) for c in rng.sample(range(na * ns), round(density * na * ns))}
    cells |= {(i, 0) for i in range(na)} | {(i, 1) for i in range(0, na, 2)}
    return from_indexed_edges(
        [f"p{i}" for i in range(na)],
        [f"s{j}" for j in range(ns)],
        sorted(cells),
    )


def heavy_tailed(rng: random.Random, na: int, ns: int, m: int) -> BipartiteGraph:
    """Up to m edges, each secondary s_r drawn in proportion to (r + 1)^-0.6: a few hubs, a long tail."""
    weights = [(r + 1) ** -0.6 for r in range(ns)]
    cells = {(rng.randrange(na), s) for s in rng.choices(range(ns), weights, k=m)}
    return from_indexed_edges(
        [f"p{i}" for i in range(na)],
        [f"s{j}" for j in range(ns)],
        sorted(cells),
    )


@st.composite
def small_graphs(draw, max_side: int) -> BipartiteGraph:
    """Up to ``max_side`` nodes per side; the edge count, and so the density, is drawn first."""
    na = draw(st.integers(1, max_side))
    ns = draw(st.integers(1, max_side))
    m = draw(st.integers(0, na * ns))
    cells = draw(st.permutations(range(na * ns)))[:m]
    return from_indexed_edges(
        [f"p{i}" for i in range(na)],
        [f"s{j}" for j in range(ns)],
        [divmod(c, ns) for c in cells],
    )
