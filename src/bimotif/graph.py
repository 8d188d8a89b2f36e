"""Immutable bipartite graph model with loaders for common text formats.

Nodes live on two sides (primary and secondary) and edges only cross
sides.  A graph is its two label tuples and one read-only (primary,
secondary) boolean biadjacency, which the loaders fill directly and
every count reads; the secondary side is its transpose, so analyses of
that side take a ``side`` argument rather than another graph.  A graph
too large to allocate raises :class:`CensusTooLarge`.
"""

from __future__ import annotations

import csv
import io
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
        with _in_memory(*shape):
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

    def labels(self, side: Side) -> tuple[str, ...]:
        return self.primary_labels if side is Side.PRIMARY else self.secondary_labels

    def node_count(self, side: Side) -> int:
        return len(self.labels(side))

    def degree_sequence(self, side: Side) -> tuple[int, ...]:
        return tuple(self.biadjacency.sum(axis=1 if side is Side.PRIMARY else 0).tolist())


def _from_cells(
    primary_labels: Sequence[str],
    secondary_labels: Sequence[str],
    cells: Iterable[int],
) -> BipartiteGraph:
    """The graph whose biadjacency is True at the row-major offsets ``cells``."""
    shape = (len(primary_labels), len(secondary_labels))
    with _in_memory(*shape):
        flat = bytearray(shape[0] * shape[1])
    for c in cells:
        flat[c] = 1
    bits = np.frombuffer(flat, dtype=bool).reshape(shape)
    return BipartiteGraph(tuple(primary_labels), tuple(secondary_labels), bits)


def from_indexed_edges(
    primary_labels: Sequence[str],
    secondary_labels: Sequence[str],
    edges: Iterable[tuple[int, int]],
) -> BipartiteGraph:
    """Build a graph from (primary, secondary) index pairs; a repeated pair is one edge.

    Raises :class:`DimensionMismatch` for an index outside ``[0, count)``
    of its side.
    """
    edges = list(edges)
    n_p, n_s = len(primary_labels), len(secondary_labels)
    if not all(0 <= i < n_p and 0 <= j < n_s for i, j in edges):
        raise DimensionMismatch(f"edge index outside {n_p} primary and {n_s} secondary nodes")
    return _from_cells(primary_labels, secondary_labels, (i * n_s + j for i, j in edges))


def from_edge_list(
    rows: Sequence[tuple[str, str]],
) -> tuple[BipartiteGraph, int]:
    """Build a graph from labeled edge rows.

    Returns the graph and the number of duplicate rows that were
    collapsed.  Node order is first appearance.  A label seen on both
    sides raises BipartiteViolation.
    """
    if not rows:
        raise EmptyInput("edge list is empty")
    p_index: dict[str, int] = {}  # label -> index, in order of first appearance
    s_index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    for a, b in rows:
        if not a or not b:
            raise EmptyInput(f"empty label in row ({a!r}, {b!r})")
        if a == b or a in s_index:
            raise BipartiteViolation(f"label {a!r} appears on both sides")
        if b in p_index:
            raise BipartiteViolation(f"label {b!r} appears on both sides")
        edges.add((p_index.setdefault(a, len(p_index)), s_index.setdefault(b, len(s_index))))
    n_s = len(s_index)
    cells = (i * n_s + j for i, j in edges)
    return _from_cells(list(p_index), list(s_index), cells), len(rows) - len(edges)


def from_biadjacency(
    matrix: Sequence[Sequence[int]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
) -> BipartiteGraph:
    """Build a graph from a 0/1 matrix; rows are primary nodes."""
    if len(row_labels) != len(matrix):
        raise DimensionMismatch(
            f"{len(row_labels)} row labels for {len(matrix)} rows"
        )
    if not all(row_labels) or not all(col_labels):
        raise EmptyInput("empty row or column label in biadjacency matrix")
    if len(set(row_labels)) != len(row_labels):
        raise BipartiteViolation("duplicate primary label")
    if len(set(col_labels)) != len(col_labels):
        raise BipartiteViolation("duplicate secondary label")
    both = set(row_labels) & set(col_labels)
    if both:
        raise BipartiteViolation(f"label {sorted(both)[0]!r} appears on both sides")
    cells = []
    for i, row in enumerate(matrix):
        if len(row) != len(col_labels):
            raise DimensionMismatch(
                f"row {i} has {len(row)} entries, expected {len(col_labels)}"
            )
        for j, entry in enumerate(row):
            if entry == 1:
                cells.append(i * len(row) + j)
            elif entry != 0:
                raise NonBinaryEntry(f"entry {entry!r} at ({i}, {j})")
    return _from_cells(row_labels, col_labels, cells)


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
    """Load a two-column edge file, TAB or comma separated.

    The delimiter is detected from the first data line and must be used
    consistently.  Lines starting with ``#`` are ignored.
    """
    lines = list(_data_lines(path))
    delim = "\t" if "\t" in lines[0] else ","
    rows = []
    for line in lines:
        parts = [p.strip() for p in line.split(delim)]
        if len(parts) != 2:
            raise MalformedInput(
                f"expected 2 fields separated by {delim!r}, got {len(parts)}: {line!r}"
            )
        rows.append((parts[0], parts[1]))
    return from_edge_list(rows)


def load_biadjacency(path: str | Path) -> BipartiteGraph:
    """Load a biadjacency CSV.

    First row: blank cell, then secondary labels.  Each later row: a
    primary label followed by 0/1 entries.
    """
    lines = list(_data_lines(path))
    try:
        header, *rows = csv.reader(io.StringIO("\n".join(lines)))
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise MalformedInput(f"unreadable biadjacency CSV: {exc}") from None
    if len(header) < 2 or header[0].strip():
        raise MalformedInput("first biadjacency row must start with a blank cell")
    col_labels = [c.strip() for c in header[1:]]
    row_labels = []
    matrix = []
    for row in rows:
        if not row:
            continue
        row_labels.append(row[0].strip())
        entries = []
        for cell in row[1:]:
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise NonBinaryEntry(f"entry {cell!r} in row {row[0]!r}")
            entries.append(int(cell))
        matrix.append(entries)
    if not matrix:
        raise EmptyInput(f"no matrix rows in {path}")
    return from_biadjacency(matrix, row_labels, col_labels)


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
