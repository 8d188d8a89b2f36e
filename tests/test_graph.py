import csv
import random
import tracemalloc
from fractions import Fraction
from importlib.resources import files

import numpy as np
import pytest

from bimotif import (
    BipartiteGraph,
    BipartiteViolation,
    CensusTooLarge,
    DimensionMismatch,
    EmptyInput,
    MalformedInput,
    NonBinaryEntry,
    Side,
    census,
    classify,
    detect_format,
    from_biadjacency,
    from_edge_list,
    from_indexed_edges,
    load_biadjacency,
    load_edge_list,
    load_graph,
    load_southern_women,
)
from bimotif.cli import main
from graphs import edge_list, mirror, neighbours

WOMEN = str(files("bimotif") / "data" / "southern_women.csv")


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


def test_from_edge_list_reads_an_iterator_once():
    rows = [("a", "E1"), ("b", "E1"), ("a", "E2"), ("a", "E1")]
    g, dups = from_edge_list(iter(rows))
    assert (g, dups) == from_edge_list(rows)
    assert dups == 1


def test_from_edge_list_empty_rejected():
    with pytest.raises(EmptyInput):
        from_edge_list([])
    with pytest.raises(EmptyInput):
        from_edge_list([("a", "")])


def test_label_on_both_sides_rejected():
    with pytest.raises(BipartiteViolation):
        from_edge_list([("a", "b"), ("b", "c")])
    with pytest.raises(BipartiteViolation, match="'a' appears on both sides"):
        from_edge_list([("a", "x"), ("b", "a")])


@pytest.mark.parametrize(
    "rows", [[("x", "x")], [("a", "y"), ("x", "x")]], ids=["alone", "after-a-row"]
)
def test_row_with_equal_labels_rejected(rows):
    with pytest.raises(BipartiteViolation, match="'x' appears on both sides"):
        from_edge_list(rows)


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
    with pytest.raises(NonBinaryEntry, match="^entry 'q' in row 'b'$"):
        from_biadjacency([[1, 0], [1, "q"]], ["a", "b"], ["x", "y"])
    with pytest.raises(DimensionMismatch):
        from_biadjacency([[0, 1]], ["a"], ["x"])
    with pytest.raises(DimensionMismatch):
        from_biadjacency([[0, 1]], ["a", "b"], ["x", "y"])
    with pytest.raises(BipartiteViolation):
        from_biadjacency([[1]], ["a"], ["a"])
    with pytest.raises(BipartiteViolation, match="duplicate primary label 'a'"):
        from_biadjacency([[1], [0]], ["a", "a"], ["x"])
    with pytest.raises(BipartiteViolation, match="duplicate secondary label"):
        from_biadjacency([[1, 0]], ["a"], ["x", "x"])
    # the first such label in row order, not the alphabetically first
    with pytest.raises(BipartiteViolation, match="label 'y' appears on both sides"):
        from_biadjacency([[1, 0], [0, 1]], ["y", "x"], ["x", "y"])


def _cells(text):
    """A matrix file's text as (matrix, row labels, column labels), each 0/1 cell an int."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    matrix = [[int(c) if c in ("0", "1") else c for c in row[1:]] for row in rows]
    return matrix, [row[0] for row in rows], header[1:]


@pytest.mark.parametrize(
    "text, error, code",
    [
        pytest.param(",x,y\na,1\nb,1,q\n", DimensionMismatch, 1, id="ragged-row"),
        pytest.param(",x,y\n,1,0\nb,1,q\n", EmptyInput, 1, id="empty-label"),
        pytest.param(",x,y\na,1,0\na,0,q\n", BipartiteViolation, 2, id="duplicate-row-label"),
        pytest.param(",x,y\nx,1,0\nb,1,q\n", BipartiteViolation, 2, id="label-on-both-sides"),
        pytest.param(",x,y\na,q,0\na,1,0\n", NonBinaryEntry, 1, id="bad-cell-then-duplicate"),
    ],
)
def test_matrix_reports_its_first_fault_in_row_order(tmp_path, text, error, code):
    f = tmp_path / "m.csv"
    f.write_text(text, encoding="utf-8")
    for fmt in ("auto", "biadjacency"):
        with pytest.raises(error):
            load_graph(f, fmt)
    with pytest.raises(error):
        from_biadjacency(*_cells(text))
    assert main(["analyze", "--input", str(f), "--out", str(tmp_path / "out")]) == code


@pytest.mark.parametrize("edge", [(-1, 0), (2, 0), (0, -1), (0, 1), (5, 5), (1.0, 0)])
def test_from_indexed_edges_rejects_index_outside_its_side(edge):
    with pytest.raises(DimensionMismatch) as exc:
        from_indexed_edges(["a", "b"], ["x"], [(0, 0), edge])
    assert exc.value.exit_code == 1
    with pytest.raises(DimensionMismatch):
        from_indexed_edges([], [], [edge])


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
    assert neighbours(m) == neighbours(davis, Side.SECONDARY)
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
    assert g2 == g


def test_load_edge_list_memory_is_bounded(tmp_path):
    # 20,000 distinct edges over 2,000 x 500 nodes: the 1 MB biadjacency and the
    # constructor's copy of it are 2 MB of a 2.6 MB peak; keeping each line, row or
    # edge tuple as well would pass 4 MB
    rng = random.Random(3)
    cells = rng.sample(range(2000 * 500), 20000)
    f = tmp_path / "edges.tsv"
    f.write_text("".join(f"p{c // 500}\ts{c % 500}\n" for c in cells), encoding="utf-8")
    load_edge_list(f)
    tracemalloc.start()
    try:
        g, dups = load_edge_list(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.edge_count, dups) == (20000, 0)
    assert peak < 4e6


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
    bad.write_text(",x,y\na,1,0\n b , 1 , q \n", encoding="utf-8")
    with pytest.raises(NonBinaryEntry, match="^entry 'q' in row 'b'$"):
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
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        load_graph(bi, "xml")


def test_biadjacency_is_read_only(davis):
    with pytest.raises(ValueError, match="read-only"):
        davis.biadjacency[0, 0] = not davis.biadjacency[0, 0]
    with pytest.raises(ValueError, match="read-only"):
        davis.biadjacency.T[0, 0] = True
    # the graph holds a copy, so the caller's array stays writable and apart
    cells = np.eye(2, dtype=bool)
    g = BipartiteGraph(("a", "b"), ("x", "y"), cells)
    cells[0, 1] = True
    assert g.edge_count == 2
    assert not g.biadjacency[0, 1]


def test_biadjacency_shape_must_match_the_labels():
    with pytest.raises(DimensionMismatch):
        BipartiteGraph(("a", "b"), ("x",), np.ones((1, 2), dtype=bool))


def test_equal_graphs_compare_and_hash_equal(davis):
    rows = edge_list(davis)
    cells = davis.biadjacency.astype(int).tolist()
    same = [
        load_southern_women(),
        from_biadjacency(cells, list(davis.primary_labels), list(davis.secondary_labels)),
        from_indexed_edges(davis.primary_labels, davis.secondary_labels, zip(*np.nonzero(cells))),
        BipartiteGraph(davis.primary_labels, davis.secondary_labels, np.array(cells, np.int8)),
        mirror(mirror(davis)),
    ]
    for g in same:
        assert g == davis
        assert hash(g) == hash(davis)
    assert len({davis, *same}) == 1
    flipped = [row[:] for row in cells]
    flipped[3][5] = 1 - flipped[3][5]
    relabelled = ("Evelyn2",) + davis.primary_labels[1:]
    different = [
        from_biadjacency(flipped, davis.primary_labels, davis.secondary_labels),
        BipartiteGraph(relabelled, davis.secondary_labels, davis.biadjacency),
        from_edge_list(rows[:-1])[0],
    ]
    for g in different:
        assert g != davis
        assert hash(g) != hash(davis)
    assert (davis == 1, davis != 1) == (False, True)


def test_a_side_given_by_name_is_that_side(davis):
    bands = [Fraction(1, 2)] * 4
    calls = [
        davis.labels,
        davis.node_count,
        davis.degree_sequence,
        lambda side: census(davis, side),
        lambda side: classify(davis, bands, side=side),
    ]
    for side in Side:
        for call in calls:
            assert call(side.value) == call(side)
        assert classify(davis, bands, side=side.value).side is side
    for call in calls:
        with pytest.raises(ValueError):
            call("sideways")


def test_edge_count_and_degrees_match_the_file(davis, tmp_path):
    with open(WOMEN, encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    cells = [[int(c) for c in row[1:]] for row in rows]
    assert davis.edge_count == sum(map(sum, cells)) == 89
    assert davis.degree_sequence(Side.PRIMARY) == tuple(map(sum, cells))
    assert davis.degree_sequence(Side.SECONDARY) == tuple(map(sum, zip(*cells)))

    f = tmp_path / "edges.tsv"
    f.write_text("a\tx\nb\tx\na\ty\na\tx\nc\tz\n", encoding="utf-8")
    g, dups = load_graph(f)
    assert (g.edge_count, dups) == (4, 1)
    assert g.degree_sequence(Side.PRIMARY) == (2, 1, 1)
    assert g.degree_sequence(Side.SECONDARY) == (2, 1, 1)


def test_failed_allocation_in_a_loader_exits_2(tmp_path, capsys, monkeypatch):
    # each builder allocates its graph's biadjacency with np.zeros first; fail that allocation
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", exhausted)
    with pytest.raises(CensusTooLarge,
                       match="too large to hold in memory: 18 primary and 14 secondary nodes"):
        load_southern_women()
    f = tmp_path / "edges.tsv"
    f.write_text("a\tx\nb\ty\n", encoding="utf-8")
    for path, counts in ((f, "2 primary and 2 secondary"), (WOMEN, "18 primary and 14 secondary")):
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"bimotif: ERROR: graph too large to hold in memory: {counts} nodes\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()
