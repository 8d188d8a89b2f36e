import dataclasses
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from bimotif import (
    CensusTooLarge,
    CensusTotals,
    Side,
    census,
    census_totals,
    density_rewire,
    from_indexed_edges,
    opsahl,
)
from bimotif.census import _check_exact, _deep_terms
from graphs import (
    biadjacency,
    c6,
    divisor_gadget,
    heavy_tailed,
    hub_graph,
    k33,
    mirror,
    neighbours,
    random_bipartite,
    ring_plus_chords,
    small_graphs,
)
from oracles import (
    NotAPath,
    SixCycleClass,
    TooLarge,
    brute_force_census,
    canonical_four_path,
    classify_four_path,
    closures_of,
    naive_opsahl,
    pairwise_census,
    region_terms,
)


def test_c6_census():
    cen = census(c6())
    assert cen.path_totals == (3, 0, 0)
    assert cen.path_closed_totals == (3, 0, 0, 0)
    assert cen.config_totals == (3, 0, 0)
    assert cen.config_closed_totals == (3, 0, 0, 0)
    # one path per center, each closed by the opposite ring node
    assert all(row == (1, 0, 0) for row in cen.path_counts)


def test_k33_census():
    cen = census(k33())
    assert cen.path_totals == (0, 0, 18)
    assert cen.path_closed_totals == (0, 0, 0, 18)
    assert all(row == (0, 0, 6) for row in cen.path_counts)
    assert cen.config_totals == (0, 0, 3)
    assert cen.config_closed_totals == (0, 0, 0, 3)


def test_classify_four_path_examples():
    g = neighbours(c6())
    assert classify_four_path(g, 0, 0, 1, 1, 2) == 0
    assert classify_four_path(neighbours(k33()), 0, 0, 1, 1, 2) == 2
    one = neighbours(ring_plus_chords(1))  # ring plus the chord v0-w1
    # the chord crosses the path centered at v1 exactly once
    assert classify_four_path(one, 2, 1, 1, 0, 0) == 1
    paths = [classify_four_path(one, *t) for t in [(0, 0, 1, 1, 2), (1, 1, 2, 2, 0), (2, 2, 0, 0, 1)]]
    assert sorted(paths) == [0, 1, 1]


def test_classify_four_path_rejects_non_paths():
    g = neighbours(c6())
    with pytest.raises(NotAPath):
        classify_four_path(g, 0, 0, 0, 1, 2)  # repeated node
    with pytest.raises(NotAPath):
        classify_four_path(g, 0, 1, 1, 0, 2)  # missing edge v0-w1
    with pytest.raises(NotAPath):
        classify_four_path(g, 0, 0, 1, 1, 9)  # out of range


def test_canonical_form_is_reversal_invariant():
    rng = random.Random(7)
    for _ in range(50):
        g = random_bipartite(rng, rng.randint(3, 8), rng.randint(3, 8), 0.5)
        adj = neighbours(g)
        na = len(adj)
        ns = len(g.secondary_labels)
        for v0 in range(na):
            for w0 in range(ns):
                for v1 in range(na):
                    for w1 in range(ns):
                        for v2 in range(na):
                            try:
                                p = canonical_four_path(adj, v0, w0, v1, w1, v2)
                            except NotAPath:
                                continue
                            q = canonical_four_path(adj, v2, w1, v1, w0, v0)
                            assert p == q
                            if p.extra_edges == 1:
                                # the orientation rule: extra edge sits at v0-w1
                                assert p.vias[1] in adj[p.ends[0]]


def test_closures_of_classes():
    g = neighbours(c6())
    p = canonical_four_path(g, 0, 0, 1, 1, 2)
    assert closures_of(g, p) == [(2, SixCycleClass.UNCONNECTED)]
    gk = neighbours(k33())
    p = canonical_four_path(gk, 0, 0, 1, 1, 2)
    assert closures_of(gk, p) == [(2, SixCycleClass.COMPLETE)]


def test_closures_match_naive_scan():
    rng = random.Random(99)
    for _ in range(20):
        g = random_bipartite(rng, 8, 8, 0.4)
        adj = neighbours(g)
        cen = brute_force_census(g)
        na = len(adj)
        ns = len(g.secondary_labels)
        for v0 in range(na):
            for w0 in range(ns):
                for v1 in range(na):
                    for w1 in range(ns):
                        for v2 in range(na):
                            try:
                                p = canonical_four_path(adj, v0, w0, v1, w1, v2)
                            except NotAPath:
                                continue
                            expected = []
                            for w2 in range(ns):
                                if w2 in p.vias:
                                    continue
                                if w2 in adj[p.ends[0]] and w2 in adj[p.ends[1]]:
                                    bump = 1 if w2 in adj[p.center] else 0
                                    expected.append((w2, p.extra_edges + bump))
                            got = [(w, int(c)) for w, c in closures_of(adj, p)]
                            assert got == expected
                            # closure class never strays from e or e+1
                            for _, c in got:
                                assert c in (p.extra_edges, p.extra_edges + 1)
        assert cen.node_count == na


def test_census_equals_brute_force_small_batch():
    rng = random.Random(4242)
    for _ in range(30):
        g = random_bipartite(rng, rng.randint(3, 10), rng.randint(3, 10), rng.uniform(0.15, 0.55))
        for side in (Side.PRIMARY, Side.SECONDARY):
            assert census(g, side) == brute_force_census(g, side)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(g=small_graphs(max_side=8))
def test_census_equals_brute_force_property(g):
    for side in (Side.PRIMARY, Side.SECONDARY):
        assert census(g, side) == brute_force_census(g, side)


@pytest.mark.parametrize(
    "na, ns, density",
    [(17, 17, 1.0), (20, 23, 0.8), (17, 40, 0.6), (40, 17, 0.5), (40, 40, 0.3), (33, 29, 0.05)],
)
def test_census_equals_pairwise_oracle(na, ns, density):
    # beyond the brute-force guard: the earlier kernel is the reference
    g = random_bipartite(random.Random(na * ns), na, ns, density)
    for side in (Side.PRIMARY, Side.SECONDARY):
        assert census(g, side) == pairwise_census(g, side)


def test_census_equals_pairwise_oracle_hubs_and_wide_rows():
    rng = random.Random(6)
    hubs = hub_graph(rng, 60, 40, 0.04)
    # 150 opposite-side nodes: rows of three 64-bit words
    wide = random_bipartite(rng, 24, 150, 0.08)
    # hubs of degree 120 and 130, each a d×d block larger than one stack
    big_hubs = hub_graph(rng, 120, 6, 0.1), hub_graph(rng, 130, 8, 0.05)
    # a side with no nodes: 0×1, 1×0 and 0×0
    empty = [from_indexed_edges(p, s, []) for p, s in [((), ("s0",)), (("p0",), ()), ((), ())]]
    for g in (hubs, wide, *big_hubs, *empty):
        for side in (Side.PRIMARY, Side.SECONDARY):
            assert census(g, side) == pairwise_census(g, side)


@pytest.mark.parametrize("row_block, stack", [(3, 7), (5, 40)])
def test_census_equals_pairwise_oracle_across_block_boundaries(row_block, stack):
    # with blocks this small every graph spans several row blocks, stacks and part-3 chunks
    rng = random.Random(row_block * stack)
    graphs = [
        random_bipartite(rng, rng.randint(4, 24), rng.randint(3, 24), rng.uniform(0.1, 0.7))
        for _ in range(14)
    ] + [
        hub_graph(rng, rng.randint(8, 30), rng.randint(4, 12), rng.uniform(0.05, 0.3))
        for _ in range(6)
    ] + [
        # every node of degree d, so one degree spans several part-2 runs
        from_indexed_edges([f"p{i}" for i in range(12)], [f"s{j}" for j in range(12)],
                           [(i, (i + k) % 12) for i in range(12) for k in range(d)])
        for d in (3, 4)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules["bimotif.census"], "_ROW_BLOCK", row_block)
        mp.setattr(sys.modules["bimotif.census"], "_STACK", stack)
        for g in graphs:
            for side in (Side.PRIMARY, Side.SECONDARY):
                assert census(g, side) == pairwise_census(g, side)


def test_deep_terms_equal_the_three_point_combination():
    # part 3 adds g(t) + (t − 1)·g(0) − t·g(1) for each center of a triple with t ≥ 2
    x, y, z, t = np.array([(x, y, z, t) for t in range(2, 9) for x in range(t, 14)
                           for y in range(t, 14) for z in range(t, 14)]).T
    assert len(t) == 5859
    expected = (region_terms(x - t, y - t, z - t, t)
                + (t - 1) * region_terms(x, y, z, 0)
                - t * region_terms(x - 1, y - 1, z - 1, 1))
    got = _deep_terms(x, y, z, t)
    for row in range(16):
        assert np.array_equal(got[row], expected[row]), row


def _totals_of(cen):
    return CensusTotals(**{f.name: getattr(cen, f.name) for f in dataclasses.fields(CensusTotals)})


@pytest.mark.parametrize("row_block, stack", [(32, 1 << 12), (3, 7), (5, 40)])
def test_census_totals_of_a_chunk_equal_each_census(row_block, stack):
    rng = random.Random(row_block * stack)
    chunks = []
    for na, ns in ((12, 9), (20, 6), (7, 15)):
        chunk = [random_bipartite(rng, na, ns, rng.uniform(0.05, 0.6)) for _ in range(4)]
        chunk += [hub_graph(rng, na, ns, rng.uniform(0.05, 0.3)) for _ in range(3)]
        # a graph of degree-1 primaries: no two nodes on either side share two neighbours
        sparse = from_indexed_edges([f"p{i}" for i in range(na)], [f"s{j}" for j in range(ns)],
                                    [(i, i % ns) for i in range(na)])
        chunk.insert(2, sparse)
        chunks.append((na * ns, chunk))
    census_module = sys.modules["bimotif.census"]
    sizes = []

    def recorded(bits):
        sizes.append(len(bits))
        return counted(bits)

    counted = census_module._count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_ROW_BLOCK", row_block)
        mp.setattr(census_module, "_STACK", stack)
        mp.setattr(census_module, "_count", recorded)
        for cells, chunk in chunks:
            for side in (Side.PRIMARY, Side.SECONDARY):
                each = [_totals_of(census(g, side)) for g in chunk]
                # some graphs have triples with t ≥ 2 (class-2 configurations), others none
                assert {t.config_totals[2] > 0 for t in each} == {True, False}
                arrays = [biadjacency(g, side) for g in chunk]
                if side is Side.SECONDARY:
                    # one secondary-side array as the transpose of the primary one
                    arrays[1] = biadjacency(chunk[1]).T
                sizes.clear()
                assert census_totals(arrays) == each
                assert sizes == [8]
                with pytest.MonkeyPatch.context() as small:
                    # a generator, read three arrays per kernel call
                    small.setattr(census_module, "_CHUNK_CELLS", 3 * cells)
                    sizes.clear()
                    assert census_totals((a for a in arrays)) == each
                    assert sizes == [3, 3, 2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_CHUNK_CELLS", 2 * 4 * 5)
        for graphs in ([random_bipartite(rng, 4, 5, 0.5), random_bipartite(rng, 5, 4, 0.5)],
                       # arrays of another shape, but equal to each other, fill the third chunk
                       [random_bipartite(rng, 4, 5, 0.5) for _ in range(4)]
                       + [random_bipartite(rng, 5, 4, 0.5), random_bipartite(rng, 5, 4, 0.5)]):
            with pytest.raises(ValueError, match="equal node counts"):
                census_totals(iter(map(biadjacency, graphs)))
    assert census_totals([]) == []
    assert census_totals(iter([])) == []


@pytest.mark.parametrize("row_block", [3, 32])
def test_census_of_an_edgeless_row_block(row_block):
    # rows 32-63 have no edge, so one whole row block uses no column and has no row within two steps
    rng = random.Random(20)
    cells = [(i, j) for i in range(80) for j in range(15)
             if not 32 <= i < 64 and rng.random() < 0.3]
    gap = from_indexed_edges([f"p{i}" for i in range(80)], [f"s{j}" for j in range(15)], cells)
    # the same shape with edges in every row block
    full = hub_graph(rng, 80, 15, 0.2)
    census_module = sys.modules["bimotif.census"]
    sizes = []

    def recorded(bits):
        sizes.append(len(bits))
        return counted(bits)

    counted = census_module._count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_ROW_BLOCK", row_block)
        cen = census(gap)
        assert cen == pairwise_census(gap)
        assert cen.config_totals[2] > 0
        expected = [_totals_of(cen), _totals_of(census(full))]
        mp.setattr(census_module, "_count", recorded)
        assert census_totals([biadjacency(gap), biadjacency(full)]) == expected
        assert sizes == [2]  # one kernel call, in which the other graph has edges in that block


@pytest.mark.parametrize("row_block", [3, 32])
def test_census_totals_with_pairs_sharing_two_across_row_blocks(row_block):
    # part 1 takes the shared-neighbour term from the pairs p < q with D_pq ≥ 2, whose rows
    # of U may sit in any later row block; a graph with no such pair has no later node at all
    rng = random.Random(22)
    na, ns = 40, 12
    single = from_indexed_edges([f"p{i}" for i in range(na)], [f"s{j}" for j in range(ns)],
                                [(i, i % ns) for i in range(na)])
    graphs = [single, hub_graph(rng, na, ns, 0.15), random_bipartite(rng, na, ns, 0.3)]
    twice = [np.argwhere(np.triu(b @ b.T >= 2, 1))
             for b in (biadjacency(g).astype(int) for g in graphs)]
    assert len(twice[0]) == 0
    assert all((p // row_block != q // row_block).any() for p, q in map(np.transpose, twice[1:]))
    census_module = sys.modules["bimotif.census"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_ROW_BLOCK", row_block)
        for side in (Side.PRIMARY, Side.SECONDARY):
            expected = [pairwise_census(g, side) for g in graphs]
            assert [census(g, side) for g in graphs] == expected
            assert census_totals([biadjacency(g, side) for g in graphs]) == list(
                map(_totals_of, expected))


def test_single_shares_in_degree_sorted_padded_stacks():
    # part 2 sorts the opposite nodes of degree ≥ 3 by degree and cuts them into stacks
    # whose block count × largest degree² stays within _STACK, padding every block to that
    # degree.  At 100 the degrees 3, 4, 5, 5 | 6, 7 | 13 give two stacks of mixed, padded
    # blocks and a hub of 169 entries alone; degrees 1 and 2 have no triple
    rng = random.Random(25)
    degrees = [5, 1, 13, 3, 7, 2, 5, 6, 4]
    na = 16

    def graph():
        edges = [(i, j) for j, d in enumerate(degrees) for i in rng.sample(range(na), d)]
        return from_indexed_edges([f"p{i}" for i in range(na)],
                                  [f"s{j}" for j in range(len(degrees))], edges)

    graphs = [graph(), graph()]
    census_module = sys.modules["bimotif.census"]
    shapes = []

    def recorded(a, b):
        shapes.append(a.shape[:2])
        return overlaps(a, b)

    overlaps = census_module._overlaps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "_STACK", 100)
        mp.setattr(census_module, "_overlaps", recorded)
        each = [census(g) for g in graphs]
        assert each == [pairwise_census(g) for g in graphs]
        assert shapes == [(4, 5), (2, 7), (1, 13)] * 2
        # a chunk's stacks take the nodes of both graphs: 3, 3, 4, 4 | 5 × 4 | 6, 6 | 7, 7 | 13 | 13
        shapes.clear()
        assert census_totals([biadjacency(g) for g in graphs]) == list(map(_totals_of, each))
        assert shapes == [(4, 4), (4, 5), (2, 6), (2, 7), (1, 13), (1, 13)]
        for g in graphs:
            assert census(g, Side.SECONDARY) == pairwise_census(g, Side.SECONDARY)


@pytest.mark.parametrize("row_block", [1, 2, 7])
def test_row_sums_of_d_from_column_sums_of_earlier_blocks(row_block):
    # part 1 computes a block's rows of D only from the block's first column on; a later
    # row's sums of D² and D²·deg over the earlier columns are column sums of earlier blocks
    rng = random.Random(26)
    graphs = [hub_graph(rng, 23, 9, 0.25), heavy_tailed(rng, 30, 10, 70),
              random_bipartite(rng, 17, 11, 0.4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules["bimotif.census"], "_ROW_BLOCK", row_block)
        for side in (Side.PRIMARY, Side.SECONDARY):
            expected = [pairwise_census(g, side) for g in graphs]
            assert [census(g, side) for g in graphs] == expected
        chunk = [hub_graph(rng, 23, 9, 0.25) for _ in range(3)]
        assert census_totals([biadjacency(g) for g in chunk]) == [
            _totals_of(pairwise_census(g)) for g in chunk]


def test_pooled_deep_triples_count_alike_at_any_pool_bound():
    # part 3 pools its triples with t ≥ 2 across steps and row blocks: counting each step
    # as it comes (bound 1), pooling a few (5), or only at the end (a bound above any pool)
    # gives equal per-center sums
    rng = random.Random(23)
    chunks = [[random_bipartite(rng, 30, 10, 0.4) for _ in range(3)], [hub_graph(rng, 60, 15, 0.2)]]
    census_module = sys.modules["bimotif.census"]
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 8 rows in steps of at most 50 candidates: many steps, a few triples each
        mp.setattr(census_module, "_ROW_BLOCK", 8)
        mp.setattr(census_module, "_STACK", 50)
        for graphs in chunks:
            bits = np.stack([biadjacency(g) for g in graphs])
            counts = []
            for bound in (1, 5, 1 << 40):
                mp.setattr(census_module, "_POOL", bound)
                counts.append(census_module._count(bits))
            for other in counts[1:]:
                assert np.array_equal(other, counts[0])
            expected = [_totals_of(pairwise_census(g)) for g in graphs]
            assert all(t.config_totals[2] > 0 for t in expected)  # triples with t ≥ 2
            assert census_totals(bits) == expected


def test_census_totals_read_a_nonzero_cell_as_an_edge():
    rng = random.Random(15)
    arrays = [biadjacency(random_bipartite(rng, 12, 9, 0.5)),
              biadjacency(hub_graph(rng, 12, 9, 0.2))]
    expected = census_totals(arrays)
    # triples with t ≥ 2, so all three parts of the kernel count
    assert all(t.config_totals[2] > 0 for t in expected)
    assert census_totals([2 * a.astype(np.int8) for a in arrays]) == expected
    assert census_totals([a.astype(np.int64) for a in arrays]) == expected


def test_kernel_transient_memory_is_bounded(davis):
    # the step bound trades memory for speed: at 2¹⁴ one census, or one chunk of
    # census_totals, peaks at 1.9-2.2 MB on these inputs (dense 1.94, skewed 2.16,
    # Southern Women 2.06), and at 2¹⁵ at 2.2-3.4 MB (3.42 on the dense input)
    rng = random.Random(14)
    dense = random_bipartite(rng, 100, 100, 0.2)
    skewed = heavy_tailed(rng, 1000, 300, 3000)
    replicas = [biadjacency(density_rewire(davis, seed)) for seed in range(65)]
    assert 65 * 18 * 14 <= sys.modules["bimotif.census"]._CHUNK_CELLS  # one kernel call
    for count in (lambda: census(dense), lambda: census(skewed),
                  lambda: census_totals(replicas)):
        tracemalloc.start()
        try:
            count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def test_census_of_large_star_is_zero():
    # one opposite node with 1,000 neighbours: no 4-path, and a d×d block of 10⁶ entries
    g = from_indexed_edges([f"p{i}" for i in range(1000)], ["hub"], [(i, 0) for i in range(1000)])
    for side in (Side.PRIMARY, Side.SECONDARY):
        cen = census(g, side)
        rows = cen.path_counts + cen.path_closed + cen.closure_pairs + cen.config_counts + cen.config_closed
        assert not any(map(any, rows))
        assert not any(cen.path_closed_any)
        assert not any(cen.config_totals + cen.config_closed_totals)


@pytest.mark.parametrize(
    "na, max_degree, max_opposite_degree, exact",
    [
        (0, 0, 0, True),
        (1000, 10, 133, True),  # the shape of the hub-heavy benchmark input
        (1022, 2048, 1, True),  # 2048³ · 1023² < 2⁵³
        (1023, 2048, 1, False),  # 2048³ · 1024² = 2⁵³
        # a node of any degree has reach ≥ 1, so the rows of D in float32 stay below 2¹⁷
        (1, 2**17 - 1, 1, True),
        (1, 2**17, 1, False),  # 2⁵¹ · 2² = 2⁵³
        (3, 1, 2**24 - 1, True),  # common-neighbour counts kept in float32
        (3, 1, 2**24, False),
    ],
)
def test_exactness_guard(na, max_degree, max_opposite_degree, exact):
    if exact:
        _check_exact(na, max_degree, max_opposite_degree)
    else:
        with pytest.raises(CensusTooLarge, match="too large to count exactly"):
            _check_exact(na, max_degree, max_opposite_degree)


def test_census_out_of_memory_is_census_too_large(monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sys.modules["bimotif.census"], "_add_row_blocks", exhausted)
    with pytest.raises(CensusTooLarge, match="too large to count in memory"):
        census(c6())


def test_side_symmetry():
    rng = random.Random(31)
    for _ in range(15):
        g = random_bipartite(rng, rng.randint(3, 9), rng.randint(3, 9), 0.4)
        assert census(g, Side.SECONDARY) == census(mirror(g), Side.PRIMARY)


def test_brute_force_guard():
    g = random_bipartite(random.Random(0), 17, 4, 0.3)
    with pytest.raises(TooLarge):
        brute_force_census(g)


def test_opsahl_trivial_cases():
    assert opsahl(census(c6())).c_star == 1
    # a bare 4-path has nothing to close it
    from bimotif import from_edge_list

    path_graph, _ = from_edge_list([("a", "x"), ("b", "x"), ("b", "y"), ("c", "y")])
    stats = opsahl(census(path_graph))
    assert stats.tau_star == 1
    assert stats.c_star == 0


def test_opsahl_matches_naive_recount():
    rng = random.Random(555)
    for _ in range(10):
        g = random_bipartite(rng, 10, 10, rng.uniform(0.2, 0.5))
        for side in (Side.PRIMARY, Side.SECONDARY):
            stats = opsahl(census(g, side))
            tau, closed, per_tau, per_closed = naive_opsahl(g, side)
            assert stats.tau_star == tau
            assert stats.tau_star_closed == closed
            assert list(stats.per_node_tau) == per_tau
            assert list(stats.per_node_closed) == per_closed


def test_path_counts_partition_tau(davis):
    # the census path classes split each node's 4-paths, as recounted naively
    for side in (Side.PRIMARY, Side.SECONDARY):
        cen = census(davis, side)
        stats = opsahl(cen)
        tau, closed, per_tau, per_closed = naive_opsahl(davis, side)
        assert sum(cen.path_totals) == stats.tau_star == tau
        assert cen.path_closed_any_total == stats.tau_star_closed == closed
        assert [sum(row) for row in cen.path_counts] == list(stats.per_node_tau) == per_tau
        assert list(stats.per_node_closed) == per_closed


def test_path_and_config_counts_are_linked(davis):
    # classes 0 and 1 have one path per (config, center); class 2 has two
    for side in (Side.PRIMARY, Side.SECONDARY):
        cen = census(davis, side)
        for i in range(cen.node_count):
            assert cen.path_counts[i][0] == cen.config_counts[i][0]
            assert cen.path_counts[i][1] == cen.config_counts[i][1]
            assert cen.path_counts[i][2] == 2 * cen.config_counts[i][2]
        assert cen.path_totals[1] == 2 * cen.config_totals[1]
        assert cen.path_totals[2] == 6 * cen.config_totals[2]


def test_config_closed_bounded_by_counts(davis):
    cen = census(davis)
    n0, n1, n2 = cen.config_totals
    x0, x1, x2, x3 = cen.config_closed_totals
    assert x0 <= n0
    assert x1 <= n0 + n1
    assert x2 <= n1 + n2
    assert x3 <= n2
    for i in range(cen.node_count):
        p = cen.path_counts[i]
        c = cen.path_closed[i]
        assert c[0] <= p[0]
        assert c[1] <= p[0] + p[1]
        assert c[2] <= p[1] + p[2]
        assert c[3] <= p[2]


def test_divisor_gadget_counts():
    g = divisor_gadget()
    cen = census(g)
    i = g.primary_labels.index("v1")
    assert cen.config_counts[i] == (0, 2, 1)
    assert cen.config_closed[i] == (0, 0, 3, 0)
