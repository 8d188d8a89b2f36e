import csv

import pytest

from bimotif import (
    BipartiteViolation,
    DimensionMismatch,
    EmptyInput,
    MalformedInput,
    NonBinaryEntry,
    Side,
    detect_format,
    from_biadjacency,
    from_edge_list,
    from_indexed_edges,
    load_biadjacency,
    load_edge_list,
    load_graph,
)
from graphs import edge_list, mirror


def test_from_edge_list_basic():
    g, dups = from_edge_list([("a", "E1"), ("b", "E1"), ("a", "E2")])
    assert len(g.primary_labels) == 2
    assert len(g.secondary_labels) == 2
    assert g.edge_count == 3
    assert dups == 0


def test_from_edge_list_collapses_duplicates():
    g, dups = from_edge_list([("a", "E1"), ("a", "E1")])
    assert g.edge_count == 1
    assert dups == 1


def test_from_edge_list_first_appearance_order():
    g, _ = from_edge_list([("b", "y"), ("a", "y"), ("a", "x")])
    assert g.primary_labels == ("b", "a")
    assert g.secondary_labels == ("y", "x")


def test_from_edge_list_empty_rejected():
    with pytest.raises(EmptyInput):
        from_edge_list([])
    with pytest.raises(EmptyInput):
        from_edge_list([("a", "")])


def test_label_on_both_sides_rejected():
    with pytest.raises(BipartiteViolation):
        from_edge_list([("a", "b"), ("b", "c")])


def test_from_biadjacency_identity_and_full():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    g = from_biadjacency(eye, ["a", "b", "c"], ["x", "y", "z"])
    assert g.edge_count == 3
    assert g.degree_sequence(Side.PRIMARY) == (1, 1, 1)
    ones = [[1] * 3 for _ in range(3)]
    g = from_biadjacency(ones, ["a", "b", "c"], ["x", "y", "z"])
    assert g.edge_count == 9


def test_from_biadjacency_errors():
    with pytest.raises(NonBinaryEntry):
        from_biadjacency([[0, 2]], ["a"], ["x", "y"])
    with pytest.raises(DimensionMismatch):
        from_biadjacency([[0, 1]], ["a"], ["x"])
    with pytest.raises(DimensionMismatch):
        from_biadjacency([[0, 1]], ["a", "b"], ["x", "y"])
    with pytest.raises(BipartiteViolation):
        from_biadjacency([[1]], ["a"], ["a"])


@pytest.mark.parametrize("edge", [(-1, 0), (2, 0), (0, -1), (0, 1), (5, 5)])
def test_from_indexed_edges_rejects_index_outside_its_side(edge):
    with pytest.raises(DimensionMismatch) as exc:
        from_indexed_edges(["a", "b"], ["x"], [(0, 0), edge])
    assert exc.value.exit_code == 1
    with pytest.raises(DimensionMismatch):
        from_indexed_edges([], [], [edge])


def test_mirror_consistency_full_scan(davis):
    for i, nbrs in enumerate(davis.adjacency_primary):
        for j in nbrs:
            assert i in davis.adjacency_secondary[j]
    for j, nbrs in enumerate(davis.adjacency_secondary):
        for i in nbrs:
            assert j in davis.adjacency_primary[i]


def test_degree_sums_equal_edge_count(davis):
    assert sum(davis.degree_sequence(Side.PRIMARY)) == davis.edge_count
    assert sum(davis.degree_sequence(Side.SECONDARY)) == davis.edge_count


def test_round_trip(davis):
    # label order follows first appearance in the edge list, so only
    # the labeled edge set and the label sets are preserved
    g2, dups = from_edge_list(edge_list(davis))
    assert dups == 0
    assert g2.primary_labels == davis.primary_labels
    assert set(g2.secondary_labels) == set(davis.secondary_labels)
    assert sorted(edge_list(g2)) == sorted(edge_list(davis))
    g3, _ = from_edge_list(edge_list(g2))
    assert g3 == g2


def test_mirror_swaps_roles(davis):
    m = mirror(davis)
    assert m.primary_labels == davis.secondary_labels
    assert m.adjacency_primary == davis.adjacency_secondary
    assert mirror(m) == davis


def test_bundled_fixture_shape(davis):
    assert len(davis.primary_labels) == 18
    assert len(davis.secondary_labels) == 14
    assert davis.edge_count == 89


def test_load_edge_list_tab_and_comma(tmp_path):
    tsv = tmp_path / "edges.tsv"
    tsv.write_text("# comment\na\tx\nb\tx\n\na\ty\n", encoding="utf-8")
    g, _ = load_edge_list(tsv)
    assert g.edge_count == 3

    csvf = tmp_path / "edges.csv"
    csvf.write_text("a,x\nb,x\na,y\n", encoding="utf-8")
    g2, _ = load_edge_list(csvf)
    assert g2.adjacency_primary == g.adjacency_primary


def test_load_edge_list_malformed(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,x\nb\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_edge_list(f)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(EmptyInput):
        load_edge_list(empty)


def test_load_biadjacency(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text(",x,y\na,1,0\nb,1,1\n", encoding="utf-8")
    g = load_biadjacency(f)
    assert g.edge_count == 3
    assert g.primary_labels == ("a", "b")

    bad = tmp_path / "bad.csv"
    bad.write_text(",x,y\na,1,2\n", encoding="utf-8")
    with pytest.raises(NonBinaryEntry):
        load_biadjacency(bad)


@pytest.mark.parametrize(
    "text",
    [",x,y\n,1,0\n", ",x,\na,1,0\n"],
    ids=["empty-row-label", "empty-column-label"],
)
def test_load_biadjacency_rejects_empty_label(tmp_path, text):
    f = tmp_path / "m.csv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(EmptyInput):
        load_biadjacency(f)


def test_load_biadjacency_rejects_oversized_cell(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text(",x\na," + "1" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_biadjacency(f)


@pytest.mark.parametrize(
    "text, fmt",
    [("\ufeffa\tx\nb\tx\n", "edgelist"), ("\ufeff,x\na,1\nb,1\n", "biadjacency")],
    ids=["edgelist", "biadjacency"],
)
def test_load_graph_ignores_byte_order_mark(tmp_path, text, fmt):
    f = tmp_path / "bom.txt"
    f.write_text(text, encoding="utf-8")
    assert detect_format(f) == fmt
    g, _ = load_graph(f)
    assert g.primary_labels == ("a", "b")
    assert g.secondary_labels == ("x",)


def test_detect_format(tmp_path):
    bi = tmp_path / "bi.csv"
    bi.write_text(",x,y\na,1,0\n", encoding="utf-8")
    el = tmp_path / "el.csv"
    el.write_text("a,x\n", encoding="utf-8")
    assert detect_format(bi) == "biadjacency"
    assert detect_format(el) == "edgelist"
    g, _ = load_graph(bi, "auto")
    assert g.edge_count == 1
