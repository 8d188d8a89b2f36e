"""4-path and 6-cycle census for two-mode graphs.

The analysis counts every 4-path (v0-w0-v1-w1-v2) whose three outer
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
  of its internal paths does.

The configuration level is what the clustering coefficients use by
default; the path level feeds the alternate closure policies and the
reference measure.

Region algebra.  Every count is a sum over triples of analysis nodes:
a center c and an unordered pair of ends {i, j}.  With N the
neighbour sets, A the biadjacency and D = A·Aᵀ the co-degrees, write
x = D_ci, y = D_cj, z = D_ij and t = |N_c ∩ N_i ∩ N_j|.  The four
regions a = x − t, b = y − t, f = z − t and t decide everything:

* c has ab class-0 paths with these ends, t(a+b) class-1 paths and
  t(t−1) class-2 paths.  Each class-0 and class-1 path is one
  configuration at c; a class-2 configuration has two paths at c, so
  there are C(t, 2) of them.
* A path of class e closes flat through the f region (f closing nodes)
  and up through the t region less its own vias (t − e nodes).
* A class-1 configuration of the term tb has the centers c and j; it
  closes to class 1 when f > 0 or a > 0, and the ta term likewise with
  b.  Both close to class 2 when t > 1.  A class-2 configuration closes
  to class 2 when a, b or f is positive, and to class 3 when t > 2.

These per-triple counts g(a, b, f, t) are the 16 rows named below
(``_K0`` to ``_S2``); the test oracle ``tests/oracles.py::region_terms``
states each one directly as a function of the regions.  The kernel sums
each g over all triples in three parts:

1. The sum of g(x, y, z, 0) over every triple.  At t = 0 only xy,
   xy·[z > 0] and xyz survive, and per center they are closed forms in
   matrix products over the opposite side.  The shared-neighbour term
   xy·[z > 0] is xyz less xy·(z − 1) over the end pairs with z ≥ 2, so
   part 1 reads it from the same pairs as part 3.
2. For each opposite node w, the sum over the triples inside N(w) of
   g(·, 1) − g(·, 0), so a triple with t ≥ 1 is counted t times.  Per
   w these are row sums over the co-degree block of N(w) and one
   product of two such blocks: a hub costs one d×d block, not C(d, 3)
   triples.  The N(w) are sorted by size and stacked in that order,
   each padded to its stack's largest size with an empty node, so a
   stack of mixed sizes is one run of equal blocks.
3. For each triple with t ≥ 2, g(t) − g(0) − t·(g(1) − g(0)).  These
   triples are listed explicitly, each once as p < q < r with every
   two of them sharing at least two neighbours, and evaluated a pool
   at a time, pooled across the steps that list them.  There
   x, y, z ≥ t ≥ 2, so every indicator in g(0) and g(1) is fixed, and
   :func:`_deep_terms` yields the combination one short expression per
   row; each row is added to the per-center sums as it is computed, and
   no stack of the 16 rows is held.

Parts 1 and 3 run in one pass over blocks of analysis rows: each
block's rows of D are computed once, from the block's first column on
(the upper triangle, with the block's own square), and their pairs
p < q with D_pq ≥ 2 feed both.  Part 2 is a separate pass over the
opposite side's nodes w.

The kernel, :func:`_count`, takes the biadjacency of a chunk of graphs
with the same node counts as one (chunk, na, ns) boolean array, and
every array after it carries that leading chunk axis: a row block of
parts 1 and 3 is the same rows of every graph in the chunk, and a
part-2 stack takes its N(w) from any of them, with node indices offset
per graph.

The boolean array is the kernel's one source: both sides' degrees are
summed from it once, for :func:`_check_exact` and parts 1 and 2, the
rows of A (part 1) are read from it, and a contiguous boolean copy of
its transpose gives the later rows of a block's product and the members
of each N(w) (part 2).  Part 1's co-degree product, a block's rows of
D, is a float32 matrix product over only the columns the block's rows
use; its product with U reads only the rows that share two neighbours
with some row of the block.  No float copy of the whole of A is held.
The rows, packed once into uint64 bit sets, are used only where
popcounts count overlaps: part 2's co-degree blocks and part 3's t.

:func:`_groups` is the one table from the kernel's 16 per-center sums
to the six count groups: applied to each center's sums it gives the
per-node rows, and applied to their sums over all centers the global
totals.  :func:`census_totals` reads the totals of each graph of a
stack, and :func:`census` reads both for one graph.

All arithmetic is on integers, in int64 or in floating-point products
whose values are integers small enough to be exact;
:func:`_check_exact` refuses a chunk whose degrees, read from the
kernel's input, could break that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CensusTooLarge, _in_memory
from .graph import BipartiteGraph, Side

# Analysis rows per block of D (parts 1 and 3).
_ROW_BLOCK = 32
# Array entries per step: a run of d×d blocks in part 2, pairs × candidates in
# part 3.  Of 2¹² to 2¹⁵, 2¹⁴ counted a 65-replica Southern Women chunk and a
# 100x100 graph of 2,000 edges fastest, for 1.1-1.4 MB more tracemalloc peak
# than 2¹²; 2¹⁵ was no faster and held 1.3-1.9 MB more again.
_STACK = 1 << 14
# Part 3's triples with t ≥ 2 pooled across steps and row blocks before they
# are counted.  The pool is counted before it would pass this many, so no count
# holds more than this or one step's triples, as when each step was counted
# alone.  A skewed 1,000x300 graph lists about 800 in some 30 steps, about one
# per row block, and counts them in two or three flushes; a 100x100 graph of
# 2,000 edges lists a median of 1,275 a step, so its steps are mostly counted
# one at a time, as they are listed.
_POOL = _STACK // 32
# Graphs counted per kernel call by census_totals, and the step at which
# run_ensemble cuts replicas into ranges for its forked workers (_chunk_step):
# as many as fit graphs × na × ns within this budget, and at least one, so a
# larger graph's replicas are split one at a time.  Southern Women (18x14)
# gets 65 a call.  With part 1's products in float32, 2,000 of its
# density replicas were counted in 0.41 s here (medians of 5, two runs), and
# in 0.37, 0.37-0.39 and 0.38-0.39 s at 2¹⁵, 2¹⁶ and 2¹⁷, where a chunk's
# tracemalloc peak grows from 2.34 MB to 3.12, 4.67 and 8.09 MB: too little
# gain for the memory.
_CHUNK_CELLS = 1 << 14
# Integers up to these bounds are exact in float64 and float32.
_EXACT64 = 1 << 53
_EXACT32 = 1 << 24

# Rows of the per-triple counts: class-0, 1 and 2 configurations (K0-K2);
# class-0 paths closed flat (P0) and up (U0); class-1 paths closed flat (V1)
# and up (U1); class-2 paths closed flat (V2); class-2 configurations closed
# up (K3); (path, closing node) pairs of class 0-3 (Q0-Q3); paths closed (ANY);
# class-1 and class-2 configurations closed flat (S1, S2).
(_K0, _K1, _K2, _P0, _U0, _V1, _U1, _V2, _K3,
 _Q0, _Q1, _Q2, _Q3, _ANY, _S1, _S2) = range(16)
# The rows that can be nonzero at t = 1.
_AT_T1 = [_K0, _K1, _P0, _U0, _V1, _Q0, _Q1, _ANY, _S1]


@dataclass(frozen=True)
class CensusTotals:
    """The global counts of one census, which are all the global coefficients read."""

    path_totals: tuple[int, int, int]
    path_closed_totals: tuple[int, int, int, int]
    closure_pair_totals: tuple[int, int, int, int]
    path_closed_any_total: int
    config_totals: tuple[int, int, int]
    config_closed_totals: tuple[int, int, int, int]


@dataclass(frozen=True)
class MotifCensus(CensusTotals):
    """The global totals of one census run, with one row per analysis node in each group.

    A node's row holds the counts anchored at it (see :func:`_groups`).
    """

    path_counts: tuple[tuple[int, int, int], ...]
    path_closed: tuple[tuple[int, int, int, int], ...]
    closure_pairs: tuple[tuple[int, int, int, int], ...]
    path_closed_any: tuple[int, ...]
    config_counts: tuple[tuple[int, int, int], ...]
    config_closed: tuple[tuple[int, int, int, int], ...]

    @property
    def node_count(self) -> int:
        return len(self.path_counts)


@dataclass(frozen=True)
class OpsahlStats:
    """Reference 4-path closure measure, global and per node."""

    tau_star: int
    tau_star_closed: int
    c_star: Optional[Fraction]
    per_node_tau: tuple[int, ...]
    per_node_closed: tuple[int, ...]
    per_node_c: tuple[Optional[Fraction], ...]


def _deep_terms(x, y, z, t):
    """g(t) + (t − 1)·g(0) − t·g(1) for triples with x, y, z ≥ t ≥ 2, yielded as 16 rows.

    With every region of g(0) and g(1) then positive, each of their
    indicators is fixed, and the combination reduces to these closed forms,
    each row computed as it is yielded from region terms computed once.
    """
    tt = t * (t - 1)
    half = tt // 2
    a, b = x - t, y - t
    flat = z > t
    a_closes, b_closes = flat | (b > 0), flat | (a > 0)
    s = x + y + z
    yield tt  # _K0
    yield -2 * tt  # _K1
    yield half  # _K2
    yield a * b * flat + t * (x + y - 1) - x * y  # _P0
    yield (t - 1) * (t - x * y)  # _U0
    yield t * ((a + b) * flat - x - y + 2)  # _V1
    yield t * (a + b)  # _U1
    yield tt * flat  # _V2
    yield half * (t > 2)  # _K3
    yield tt * (s - t - 1)  # _Q0
    yield tt * (3 * t + 3 - 2 * s)  # _Q1
    yield tt * (s - 3 * t)  # _Q2
    yield tt * (t - 2)  # _Q3
    yield -tt * (z == 2)  # _ANY
    yield t * (a * a_closes + b * b_closes - x - y + 2)  # _S1
    yield half * (a_closes | b_closes)  # _S2


def _check_exact(na: int, max_degree: int, max_opposite_degree: int) -> None:
    """Raise :class:`CensusTooLarge` unless every count stays an exact integer.

    A center has at most ``reach`` = min(na, max_degree · max_opposite_degree)
    other analysis nodes within two steps, and every region size is at most
    max_degree.  So every per-center sum, and every partial sum on the way
    to it, is within a small factor (under 2¹⁰) of
    max_degree³ · (reach + 1)²; below 2⁵³ that is exact in float64 and
    cannot overflow int64.  This covers part 2's product ĀF, whose
    entries are at most d · max_degree for a neighbourhood of d ≤ reach + 1
    nodes, and part 1's float64 sums of D_cj² and D_cj²·deg_j, at most
    (reach + 1) · max_degree³.

    Part 1 counts the rows of D and AᵀA in float32.  The rows of D are
    at most max_degree, which the first bound keeps below 2¹⁷ (reach ≥ 1
    for any node with an edge); the entries of AᵀA are at most
    max_opposite_degree.  Every partial sum of such a product adds
    non-negative integers, so it is an integer no larger than the final
    value, and float32 accumulates it exactly below 2²⁴.  Its products
    with U = (D − 1)·[D ≥ 2] stay in float64: an entry of Aᵀ·U·A is at
    most max_degree · max_opposite_degree², and max_opposite_degree ≤
    reach + 1, since the members of one N(w) are within two steps of
    each other, so the first bound covers them.
    """
    reach = min(na, max_degree * max_opposite_degree)
    if (max_degree ** 3 * (reach + 1) ** 2 >= _EXACT64
            or max_opposite_degree >= _EXACT32):
        raise CensusTooLarge(
            f"graph too large to count exactly: {na} analysis nodes, maximum "
            f"degrees {max_degree} and {max_opposite_degree}"
        )


def _popcount(packed):
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


def _words(bits):
    """Rows of a boolean array (..., n, m) as bit sets packed into uint64 words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8),), dtype=np.uint64)
    words.view(np.uint8)[..., :packed.shape[-1]] = packed
    return words


def _overlaps(a, b):
    """|a_i ∩ b_j| for bit-set rows a (..., n, w) and b (..., m, w), as float64 (..., n, m)."""
    out = np.zeros(a.shape[:-1] + b.shape[-2:-1])
    for k in range(a.shape[-1]):
        out += np.bitwise_count(a[..., :, None, k] & b[..., None, :, k])
    return out


def _rows_used(rows, dtype):
    """Boolean rows of A as ``dtype``, restricted to the columns any of them uses.

    Only those columns of a block can add to its rows of D, AᵀA and E,
    or be read by its (D³)_cc and a_cᵀ·E·a_c; only those of the rows
    ``later`` can add to E.
    """
    used = np.flatnonzero(rows.any((0, 1)))
    return rows[..., used].astype(dtype), used


def _add_row_blocks(acc, bits, bits_t, words, deg, opposite_deg) -> None:
    """Parts 1 and 3, a block of analysis rows of every graph in the chunk at a time.

    Each block's rows of D are computed once, and only from the block's
    first column on: the float32 product of the block's rows of A with
    the rows of ``bits_t``, the transposed biadjacency, that those rows
    use, from that column on.  Part 1's sums Σ_j D_cj² and
    Σ_j D_cj²·deg_j, with the analysis degrees ``deg``, are the block's
    row sums over these columns, plus, for each later row j, the column
    sums of D_pj over the rows p of every earlier block; both are one
    float64 product with (1, deg).  Σ_j D_cj is a row's degrees on the
    opposite side, ``opposite_deg``, summed over its neighbours.  The
    block's pairs p < q with D_pq ≥ 2 give ``upper``, the block's rows
    of U = (D − 1)·[D ≥ 2] above the diagonal; part 1 reads half of
    Aᵀ·U·A from it, and part 3 lists its triples with t ≥ 2 from the
    same pairs.  Only part 3 reads the bit-set rows ``words``.

    Part 1 adds the sum of g(x, y, z, 0) over all end pairs of each
    center.  Per center c, with r1 and s2 the sums of D_ci and D_ci²
    over i ≠ c: the sum of xy is (r1² − s2)/2, of xyz is ((D³)_cc −
    Σ_i D_ci²·deg_i − 2·deg_c·s2)/2, and of xy·[z > 0] is ((D·K·D)_cc −
    2·deg_c·r1)/2 with K = [D > 0] off the diagonal.  K is D less its
    diagonal less U, so (D·K·D)_cc = (D³)_cc − Σ_i D_ci²·deg_i −
    (D·U·D)_cc.  (D³)_cc = |Aᵀ·A·a_c|² and (D·U·D)_cc = a_cᵀ·(Aᵀ·U·A)·a_c
    = 2·a_cᵀ·E·a_c, where E = Σ over p < q of U_pq·a_p·a_qᵀ is half of
    Aᵀ·U·A, so no na×na array is formed.  The first pass over the row
    blocks accumulates both ns×ns forms, AᵀA and ``excess`` = E, from
    each block's rows of A and of U; the second reads ``cube`` =
    (D³)_cc and ``excess_quad`` = a_cᵀ·E·a_c from them.

    Part 3's triples are pooled across steps and row blocks.  The pool
    is counted before it would pass ``_POOL`` triples, at once when one
    step alone lists that many, and at the end.
    """
    chunk, na, ns = bits.shape
    gram = np.zeros((chunk, ns, ns), dtype=np.float32)  # AᵀA: common neighbours of opposite nodes
    excess = np.zeros((chunk, ns, ns))  # E, half of Aᵀ·U·A
    sums = np.zeros((chunk, na, 2))  # Σ_j D_cj² and Σ_j D_cj²·deg_j
    reach = np.empty((chunk, na))
    cube, excess_quad = np.empty((chunk, na)), np.empty((chunk, na))
    opposite = opposite_deg.astype(np.float64)[..., None]
    weights = np.stack([np.ones((chunk, na)), deg], axis=-1)
    above = ~np.tri(_ROW_BLOCK, dtype=bool)
    pool = []  # part 3's triples with t ≥ 2, one tuple of arrays per step
    for lo in range(0, na, _ROW_BLOCK):
        rows, used = _rows_used(bits[:, lo:lo + _ROW_BLOCK], np.float32)
        n = rows.shape[1]
        gram[:, used[:, None], used] += rows.transpose(0, 2, 1) @ rows
        reach[:, lo:lo + n] = (rows @ opposite[:, used])[..., 0]
        # rows of D from the block's first column on; the entries before it are
        # column sums of earlier blocks
        co = rows @ bits_t[:, used, lo:].astype(np.float32)
        co2 = np.square(co, dtype=np.float64)
        sums[:, lo:lo + n] += co2 @ weights[:, lo:]
        sums[:, lo + n:] += co2[:, :, n:].transpose(0, 2, 1) @ weights[:, lo:lo + n]
        del co2
        # the block's rows of U for q > p (above the diagonal within its own slab),
        # at the columns ``later`` where any of them is nonzero
        twice = co >= 2
        twice[:, :, :n] &= above[:n, :n]
        later = np.flatnonzero(twice.any((0, 1))) + lo
        upper = np.where(twice[:, :, later - lo], co[:, :, later - lo] - 1, 0).astype(np.int64)
        del co, twice  # so that they are not held while part 3 counts a pool
        # in float64: these products can pass 2²⁴
        later_rows, later_used = _rows_used(bits[:, later], np.float64)
        excess[:, used[:, None], later_used] += rows.transpose(0, 2, 1) @ (
            upper.astype(np.float64) @ later_rows)
        for found in _deep_triples(words, lo, upper, later):
            if pool and len(found[0]) + sum(len(f[0]) for f in pool) > _POOL:
                _add_deep_triples(acc, words, pool)
            pool.append(found)
            if len(found[0]) >= _POOL:
                _add_deep_triples(acc, words, pool)
    _add_deep_triples(acc, words, pool)
    for lo in range(0, na, _ROW_BLOCK):
        rows, used = _rows_used(bits[:, lo:lo + _ROW_BLOCK], np.float64)
        n = rows.shape[1]
        cube[:, lo:lo + n] = np.square(rows @ gram[:, used].astype(np.float64)).sum(-1)
        excess_quad[:, lo:lo + n] = ((rows @ excess[:, used[:, None], used]) * rows).sum(-1)
    sq, wdeg = sums.astype(np.int64).transpose(2, 0, 1)
    r1 = reach.astype(np.int64) - deg
    s2 = sq - deg * deg
    cube = cube.astype(np.int64)
    xy_shared = (cube - wdeg - 2 * deg * r1) // 2 - excess_quad.astype(np.int64)
    acc[_K0] += (r1 * r1 - s2) // 2
    acc[_P0] += xy_shared
    acc[_ANY] += xy_shared
    acc[_Q0] += (cube - wdeg - 2 * deg * s2) // 2


def _add_single_shares(acc, bits_t, words, opposite_deg) -> None:
    """Part 2: add g(·, 1) − g(·, 0) over the triples inside each N(w).

    Each w's degree comes from ``opposite_deg`` and the members of N(w)
    from its row of ``bits_t``, the chunk's transposed biadjacency; the
    co-degree block of N(w) is counted from the members' bit-set rows in
    ``words``.  Per w of degree d: X is the co-degree block of N(w),
    Ā = max(X − 1, 0) and F = [Ā > 0], both with a zero diagonal.  For a
    triple (c; i, j) inside N(w), taken with t = 1, a = Ā_ci, b = Ā_cj,
    f = Ā_ij, [a > 0] = F_ci and [f > 0] = F_ij, so every sum over the
    end pairs of c is a row sum of Ā, F and the product ĀF.

    The w of degree 3 or more, from every graph of the chunk, are sorted
    by degree and cut in that order into stacks of at most ``_STACK``
    entries, counting each block at the stack's largest degree; a w
    larger than that is a stack alone.  Each N(w) is padded to its
    stack's largest degree with the empty bit-set row after the chunk's
    last node, so padded rows and columns of X, Ā and F are 0, add to
    no sum, and are dropped only where the sums are added to ``acc``.
    The blocks are float64, so that ĀF is a BLAS product; every value is
    an integer within the bound :func:`_check_exact` enforces.  The 9
    rows nonzero at t = 1 are added to ``acc`` one at a time, unstacked.
    """
    chunk, na, width = words.shape
    ns = bits_t.shape[1]
    acc = acc.reshape(16, chunk * na)
    # node k of graph g is row g·na + k, and row chunk·na, the padding, is empty
    node_words = np.zeros((chunk * na + 1, width), dtype=np.uint64)
    node_words[:-1] = words.reshape(chunk * na, width)
    deg = opposite_deg.reshape(chunk * ns)  # opposite node w of graph g is entry g·ns + w
    order = np.flatnonzero(deg >= 3)
    order = order[np.argsort(deg[order], kind="stable")]
    sizes = deg[order]
    owner, member = np.nonzero(bits_t.reshape(chunk * ns, na)[order])
    member += order[owner] // ns * na  # N(w) of each w in turn, as rows of node_words
    first = np.cumsum(sizes) - sizes  # where each N(w) starts in member
    lo = 0
    while lo < len(order):
        # the longest run from lo whose blocks, each padded to the run's last size, fit _STACK
        padded = np.arange(1, len(order) - lo + 1) * sizes[lo:] ** 2
        hi = lo + max(1, int(np.searchsorted(padded, _STACK, side="right")))
        top = int(sizes[hi - 1])
        d = sizes[lo:hi, None]
        slot = np.arange(top)
        real = slot < d
        members = np.where(real, member.take(first[lo:hi, None] + slot, mode="clip"), chunk * na)
        block = node_words[members]
        abar = _overlaps(block, block)
        abar -= 1
        np.maximum(abar, 0, out=abar)
        abar[:, slot, slot] = 0
        flat = (abar > 0).astype(np.float64)
        prod = abar @ flat
        r = abar.sum(2)  # also Σ Ā·F, as Ā > 0 exactly where F = 1
        q = flat.sum(2)
        aa = np.einsum("kij,kij->ki", abar, abar)
        aq = prod.sum(2)
        pairs = (d - 1) * (d - 2) // 2  # end pairs of each center
        u_ab = (r * r - aa) // 2  # ab
        u_s = (d - 2) * r  # a + b
        u_f = r.sum(1, keepdims=True) // 2 - r  # f
        u_sflat = aq - r  # (a + b)[f > 0]
        u_sf = np.einsum("kij,kj->ki", abar, r) - aa  # (a + b)f
        u_xy = u_ab + u_s + pairs
        centers = members[real]
        for row, values in zip(_AT_T1, (
                -(u_s + pairs),
                u_s,
                np.einsum("kij,kij->ki", prod, abar) // 2 - u_xy,
                u_ab,
                u_sflat,
                -(u_ab + u_sf + u_s + u_f + pairs),
                u_ab + u_sf,
                u_sflat - u_s - pairs,
                aq + r * q - 2 * r - np.einsum("kij,kij->ki", prod, flat)), strict=True):
            np.add.at(acc[row], centers, values[real].astype(np.int64))
        lo = hi


def _deep_triples(words, lo, upper, later):
    """Part 3's triples with t ≥ 2 whose first node is in one row block, a step at a time.

    Such a triple is taken once, as p < q < r with p in the block.  Any
    two of its nodes share at least two neighbours, so the pairs p < q
    are the nonzero entries of the block's rows ``upper`` of U, and they
    are matched, in steps of at most _STACK candidates, against the
    nodes ``later`` that share two with some p of the block in some
    graph of the chunk.  Each step yields the graph, p, q, r, t, D_pq
    and D_pr of its triples, as arrays; p is a node index, not a row of
    the block.
    """
    chunk, na, width = words.shape
    node_words = words.reshape(chunk * na, width)  # node k of graph g is row g·na + k
    g, p, j = np.nonzero(upper)
    index = np.arange(len(later))  # later is sorted, so r > q where its index is larger
    step = max(1, _STACK // max(1, len(later)))
    for k in range(0, len(p), step):
        gs, ps, js = g[k:k + step], p[k:k + step], j[k:k + step]
        qs = later[js]
        both = words[gs, ps + lo] & words[gs, qs]
        candidates = gs[:, None] * na + later
        t = np.zeros(candidates.shape, dtype=np.int64)  # |N_p ∩ N_q ∩ N_r|
        for w in range(width):
            t += np.bitwise_count(both[:, w, None] & node_words[:, w].take(candidates))
        i, r = np.nonzero((t >= 2) & (index > js[:, None]))
        t = t[i, r]  # so that a pool counted at this step does not hold the full t
        gs, ps, js = gs[i], ps[i], js[i]
        # D_pq and D_pr are U + 1, as both are at least t ≥ 2
        yield gs, ps + lo, qs[i], later[r], t, upper[gs, ps, js] + 1, upper[gs, ps, r] + 1


def _add_deep_triples(acc, words, pool) -> None:
    """Part 3: add g(t) − g(0) − t·(g(1) − g(0)) at each center of the pooled triples, and empty the pool.

    ``pool`` holds the steps of :func:`_deep_triples`, from any row
    blocks; D_qr is counted here from the bit-set rows ``words``.
    """
    if not pool:
        return
    chunk, na, _ = words.shape
    # a pool of one step, as on dense graphs, is read without a copy
    gs, ps, qs, rs, t, pq, pr = pool[0] if len(pool) == 1 else map(np.concatenate, zip(*pool))
    pool.clear()
    qr = _popcount(words[gs, qs] & words[gs, rs])
    # centers p, q, r in turn: (x, y, z) = (D_ci, D_cj, D_ij)
    x = np.concatenate([pq, pq, pr])
    y = np.concatenate([pr, qr, qr])
    z = np.concatenate([qr, pr, pq])
    deep = _deep_terms(x, y, z, np.tile(t, 3))
    centers = np.concatenate([ps, qs, rs]) + np.tile(gs, 3) * na
    for row, values in zip(acc.reshape(16, chunk * na), deep, strict=True):
        np.add.at(row, centers, values)


def _count(bits):
    """The kernel: the per-center sums of the 16 per-triple counts, as a 16 × chunk × na array.

    ``bits`` is the biadjacency of a chunk of graphs, a (chunk, na, ns)
    array in which any nonzero cell is an edge.  Raises
    :class:`CensusTooLarge` when the counts could not be exact, or when
    an allocation fails: this is the census's one memory guard.
    """
    chunk, na, ns = bits.shape
    with _in_memory("count", na, ns):
        bits = bits.astype(bool, copy=False)
        deg, opposite_deg = bits.sum(2), bits.sum(1)
        _check_exact(na, int(deg.max(initial=0)), int(opposite_deg.max(initial=0)))
        bits_t = np.ascontiguousarray(bits.transpose(0, 2, 1))
        words = _words(bits)
        acc = np.zeros((16, chunk, na), dtype=np.int64)
        _add_row_blocks(acc, bits, bits_t, words, deg, opposite_deg)
        _add_single_shares(acc, bits_t, words, opposite_deg)
        return acc


def _groups(s, per_node: bool) -> tuple:
    """The six count groups of :class:`CensusTotals`, in field order, from the 16 per-center sums ``s``.

    Per node, ``s`` is the kernel's 16 rows of one graph, an array of
    each center's sums, and a configuration counts at each of its
    centers.  Globally, ``s`` is the 16 sums over all centers, and a
    class-1 or class-2 configuration, counted at each of its 2 or 3
    centers, is divided by them.
    """
    one, two = (1, 1) if per_node else (2, 3)
    return (
        (s[_K0], s[_K1], 2 * s[_K2]),
        (s[_P0], s[_U0] + s[_V1], s[_U1] + s[_V2], 2 * s[_K3]),
        (s[_Q0], s[_Q1], s[_Q2], s[_Q3]),
        s[_ANY],
        (s[_K0], s[_K1] // one, s[_K2] // two),
        (s[_P0], s[_U0] + s[_S1] // one, s[_U1] // one + s[_S2] // two, s[_K3] // two),
    )


def _totals(rows) -> CensusTotals:
    """Global totals from one graph's per-center sums (16 rows, one value per center)."""
    return CensusTotals(*_groups([sum(row) for row in rows], per_node=False))


def _rows(group) -> tuple:
    """A per-node count group as Python rows: a tuple per node, or one int per node."""
    if isinstance(group, tuple):
        return tuple(zip(*(column.tolist() for column in group)))
    return tuple(group.tolist())


def census(g: BipartiteGraph, side: Side | str = Side.PRIMARY) -> MotifCensus:
    """Count paths, configurations and their closures for one side.

    The kernel, :func:`_count`, counts a chunk of one graph: its
    biadjacency for the primary side, the transpose for the secondary;
    ``side`` is a :class:`Side` or its name.  Raises
    :class:`CensusTooLarge` as the kernel does.
    """
    bits = g.biadjacency if Side(side) is Side.PRIMARY else g.biadjacency.T
    acc = _count(bits[None])[:, 0]
    totals = vars(_totals(acc.tolist())).values()
    return MotifCensus(*totals, *map(_rows, _groups(acc, per_node=True)))


def _chunk_step(na: int, ns: int) -> int:
    """Graphs of na × ns nodes per kernel call: as many as fit ``_CHUNK_CELLS``, at least one."""
    return max(1, _CHUNK_CELLS // max(1, na * ns))


def census_totals(bits: np.ndarray) -> list[CensusTotals]:
    """The global totals of each graph of ``bits``, a (graphs, na, ns) stack of biadjacencies.

    Any nonzero cell is an edge.  The analysis side is the rows (pass
    ``bits.transpose(0, 2, 1)`` to count the columns).  The stack is
    counted a slice at a time, as many graphs per kernel call as fit
    ``_CHUNK_CELLS``, so many small graphs cost little more than one.
    Raises :class:`CensusTooLarge` as the kernel, :func:`_count`, does.
    """
    _, na, ns = bits.shape
    step = _chunk_step(na, ns)
    totals = []
    for lo in range(0, len(bits), step):
        totals += map(_totals, _count(bits[lo:lo + step]).transpose(1, 0, 2).tolist())
    return totals


def opsahl(c: MotifCensus) -> OpsahlStats:
    """Reference closure measure: closed 4-paths over all 4-paths.

    Opsahl's ratio (Social Networks 35, 2013), read from the census path
    layer: 4-paths are the path counts summed over the three classes,
    and the closed ones are those with at least one closure, per node
    from the rows and globally from the totals.
    """
    per_tau = tuple(sum(row) for row in c.path_counts)
    per_closed = c.path_closed_any
    tau = sum(c.path_totals)
    closed = c.path_closed_any_total
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
