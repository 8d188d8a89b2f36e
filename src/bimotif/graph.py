"""Immutable bipartite graph model with loaders for common text formats.

Nodes live on two sides (primary and secondary) and edges only cross
sides.  A graph is one read-only (primary, secondary) boolean
biadjacency and its two label tuples.  The loaders check each row as
they read it, a matrix by the routine that checks an in-memory one, so
the first fault in file order raises.  The secondary side is the
transpose: analyses of it take a ``side``, a :class:`Side` or its name.
A graph too large to allocate raises :class:`CensusTooLarge`.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BimotifError, _in_memory


class EmptyInput(BimotifError):
    """Input contained no usable rows or an empty label."""

    exit_code = 1


class BipartiteViolation(BimotifError):
    """A label was used on both sides, or side integrity failed."""


class NonBinaryEntry(BimotifError):
    """A biadjacency entry was not 0 or 1."""

    exit_code = 1


class DimensionMismatch(BimotifError):
    """Matrix shape and label counts disagree, or an edge index lies outside its side."""

    exit_code = 1


class MalformedInput(BimotifError):
    """A text input line could not be parsed."""

    exit_code = 1


class Side(Enum):
    """The two node roles of a two-mode network."""

    PRIMARY = "primary"
    SECONDARY = "secondary"

    def other(self) -> "Side":
        return Side.SECONDARY if self is Side.PRIMARY else Side.PRIMARY


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """A simple, immutable two-mode graph.

    ``biadjacency`` is a read-only (primary, secondary) boolean array,
    True where primary node ``i`` meets secondary node ``j``; its
    transpose has the secondary rows.  The constructor takes a copy of
    any array of that shape.  Graphs are equal when their labels and
    cells are.
    """

    primary_labels: tuple[str, ...]
    secondary_labels: tuple[str, ...]
    biadjacency: np.ndarray

    def __post_init__(self):
        shape = (len(self.primary_labels), len(self.secondary_labels))
        with _in_memory("hold", *shape):
            bits = np.array(self.biadjacency, dtype=bool, order="C")
        if bits.shape != shape:
            raise DimensionMismatch(f"a {bits.shape} biadjacency for {shape} labels")
        bits.flags.writeable = False
        object.__setattr__(self, "biadjacency", bits)

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.primary_labels, self.secondary_labels) == (
            other.primary_labels, other.secondary_labels
        ) and np.array_equal(self.biadjacency, other.biadjacency)

    def __hash__(self):
        return hash((self.primary_labels, self.secondary_labels, self.biadjacency.tobytes()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.biadjacency))

    @property
    def adjacency_primary(self) -> tuple[tuple[int, ...], ...]:
        # read only by bench/traced.py::_edge_set, until the benchmark reads a trace instead
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.biadjacency)

    def labels(self, side: Side | str) -> tuple[str, ...]:
        return self.primary_labels if Side(side) is Side.PRIMARY else self.secondary_labels

    def node_count(self, side: Side | str) -> int:
        return len(self.labels(side))

    def degree_sequence(self, side: Side | str) -> tuple[int, ...]:
        return tuple(self.biadjacency.sum(axis=1 if Side(side) is Side.PRIMARY else 0).tolist())


def _from_pairs(
    primary_labels: Sequence[str],
    secondary_labels: Sequence[str],
    pairs: np.ndarray,
) -> BipartiteGraph:
    """The graph whose biadjacency is True at each (i, j) of ``pairs``, an int64 array laid out i0, j0, i1, j1."""
    shape = (len(primary_labels), len(secondary_labels))
    with _in_memory("hold", *shape):
        bits = np.zeros(shape, dtype=bool)
    ij = pairs.reshape(-1, 2)
    bits[ij[:, 0], ij[:, 1]] = True
    return BipartiteGraph(tuple(primary_labels), tuple(secondary_labels), bits)


def from_indexed_edges(
    primary_labels: Sequence[str],
    secondary_labels: Sequence[str],
    edges: Iterable[tuple[int, int]],
) -> BipartiteGraph:
    """Build a graph from (primary, secondary) index pairs; a repeated pair is one edge.

    Raises :class:`DimensionMismatch` for an index that is not an integer
    (``operator.index``) or lies outside ``[0, count)`` of its side.
    """
    n_p, n_s = len(primary_labels), len(secondary_labels)

    def indices() -> Iterator[int]:
        for edge in edges:
            try:
                i, j = map(operator.index, edge)
            except TypeError:
                raise DimensionMismatch(f"edge {edge!r} has an index that is not an integer") from None
            if not (0 <= i < n_p and 0 <= j < n_s):
                raise DimensionMismatch(f"edge index outside {n_p} primary and {n_s} secondary nodes")
            yield i
            yield j

    return _from_pairs(primary_labels, secondary_labels, np.fromiter(indices(), np.int64))


def from_edge_list(
    rows: Iterable[tuple[str, str]],
) -> tuple[BipartiteGraph, int]:
    """Build a graph from labeled edge rows, any iterable, read once.

    Returns the graph and the number of duplicate rows that were
    collapsed.  Node order is first appearance.  A label seen on both
    sides raises BipartiteViolation.
    """
    p_index: dict[str, int] = {}  # label -> index, in order of first appearance
    s_index: dict[str, int] = {}

    def indices() -> Iterator[int]:
        for a, b in rows:
            if not a or not b:
                raise EmptyInput(f"empty label in row ({a!r}, {b!r})")
            if a == b or a in s_index:
                raise BipartiteViolation(f"label {a!r} appears on both sides")
            if b in p_index:
                raise BipartiteViolation(f"label {b!r} appears on both sides")
            yield p_index.setdefault(a, len(p_index))
            yield s_index.setdefault(b, len(s_index))

    pairs = np.fromiter(indices(), np.int64)
    if not len(pairs):
        raise EmptyInput("edge list is empty")
    g = _from_pairs(list(p_index), list(s_index), pairs)
    return g, len(pairs) // 2 - g.edge_count


def _from_rows(rows: Iterable[tuple[str, Sequence]], col_labels: Sequence[str]) -> BipartiteGraph:
    """The graph of a 0/1 matrix as (label, cells) rows, read once; the first fault raises.

    Column labels are checked first, then each row's label, length and cells, row by row.
    """
    cols = set(col_labels)
    if not all(col_labels):
        raise EmptyInput("empty column label in biadjacency matrix")
    if len(cols) != len(col_labels):
        raise BipartiteViolation("duplicate secondary label")
    p_index: dict[str, int] = {}

    def indices() -> Iterator[int]:
        for i, (a, cells) in enumerate(rows):
            if not a:
                raise EmptyInput(f"empty label of row {i} in biadjacency matrix")
            if a in p_index:
                raise BipartiteViolation(f"duplicate primary label {a!r}")
            if a in cols:
                raise BipartiteViolation(f"label {a!r} appears on both sides")
            if len(cells) != len(col_labels):
                raise DimensionMismatch(f"row {a!r} has {len(cells)} entries, expected {len(col_labels)}")
            p_index[a] = i
            for j, entry in enumerate(cells):
                if entry == 1:
                    yield i
                    yield j
                elif entry != 0:
                    raise NonBinaryEntry(f"entry {entry!r} in row {a!r}")

    pairs = np.fromiter(indices(), np.int64)  # every row read, so p_index is whole
    return _from_pairs(list(p_index), col_labels, pairs)


def from_biadjacency(
    matrix: Sequence[Sequence[int]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
) -> BipartiteGraph:
    """Build a graph from a 0/1 matrix; rows are primary nodes, checked as a file's rows are."""
    if len(row_labels) != len(matrix):
        raise DimensionMismatch(f"{len(row_labels)} row labels for {len(matrix)} rows")
    return _from_rows(zip(row_labels, matrix), col_labels)


def _data_lines(path: str | Path) -> Iterator[str]:
    """The file's non-blank lines, comment lines removed; EmptyInput if none.

    Lines are read lazily, so format detection decodes only the start of
    the file.  Each physical line is split again with ``str.splitlines``,
    so lines break where they would in the whole text.  A leading UTF-8
    byte-order mark, as spreadsheet exports write, is dropped rather
    than read into the first label.
    """
    found = False
    with open(path, encoding="utf-8-sig") as f:
        for physical in f:
            for line in physical.splitlines():
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    found = True
                    yield line
    if not found:
        raise EmptyInput(f"no data rows in {path}")


def load_edge_list(path: str | Path) -> tuple[BipartiteGraph, int]:
    """Load a two-column edge file, TAB or comma separated, reading each row once.

    The delimiter is detected from the first data line and must be used
    consistently.  Lines starting with ``#`` are ignored.
    """
    def rows() -> Iterator[tuple[str, str]]:
        delim = None
        for line in _data_lines(path):
            delim = delim or ("\t" if "\t" in line else ",")
            parts = line.split(delim)
            if len(parts) != 2:
                raise MalformedInput(
                    f"expected 2 fields separated by {delim!r}, got {len(parts)}: {line!r}"
                )
            yield parts[0].strip(), parts[1].strip()

    return from_edge_list(rows())


def load_biadjacency(path: str | Path) -> BipartiteGraph:
    """Load a biadjacency CSV, checking each row as it is read; the first fault raises.

    First row: blank cell, then secondary labels.  Each later row: a
    primary label followed by 0/1 entries.
    """
    # each line keeps its break, so a quoted cell that spans lines keeps it too
    reader = csv.reader(f"{line}\n" for line in _data_lines(path))
    bits = {"0": 0, "1": 1}  # any other cell text is kept, for _from_rows to reject
    try:
        header = next(reader)
        if len(header) < 2 or header[0].strip():
            raise MalformedInput("first biadjacency row must start with a blank cell")
        rows = ((row[0].strip(), [bits.get(c, c) for c in map(str.strip, row[1:])]) for row in reader)
        g = _from_rows(rows, [c.strip() for c in header[1:]])
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise MalformedInput(f"unreadable biadjacency CSV: {exc}") from None
    if not g.primary_labels:
        raise EmptyInput(f"no matrix rows in {path}")
    return g


def detect_format(path: str | Path) -> str:
    """Guess "biadjacency" or "edgelist" from the first data line.

    A line starting with an empty CSV field can only be a biadjacency
    header, anything else is treated as an edge row.
    """
    first = next(_data_lines(path))
    if "\t" not in first and first.split(",")[0].strip() == "":
        return "biadjacency"
    return "edgelist"


def load_graph(path: str | Path, fmt: str = "auto") -> tuple[BipartiteGraph, int]:
    """Load either supported format; returns (graph, duplicate_row_count)."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "biadjacency":
        return load_biadjacency(path), 0
    if fmt == "edgelist":
        return load_edge_list(path)
    raise ValueError(f"unknown format {fmt!r}")


def load_southern_women() -> BipartiteGraph:
    """The bundled 18-women by 14-events attendance network."""
    ref = resources.files("bimotif.data").joinpath("southern_women.csv")
    with resources.as_file(ref) as p:
        return load_biadjacency(p)
