"""Input files for the benchmark workloads, one generator per workload.

Every generator takes the workload seed and writes one file.  The
synthetic generators draw an exact edge count, so a new seed changes
the wiring of the graph but not its size.  ``describe`` summarises a
written file (edge count, mean and maximum degree per side, content
hash) so that input drift shows in every run's output.
"""

from __future__ import annotations

import csv
import hashlib
import random
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOUTHERN_WOMEN = ROOT / "src" / "bimotif" / "data" / "southern_women.csv"

DENSE_SIDE = 100
DENSE_EDGES = 2000

SKEWED_PRIMARY = 1000
SKEWED_SECONDARY = 300
SKEWED_EDGES = 3000
SKEWED_EXPONENT = 0.6


def _write_edges(path: Path, edges) -> list[tuple[str, str]]:
    rows = [(f"p{i}", f"s{j}") for i, j in sorted(edges)]
    with path.open("w", encoding="utf-8", newline="\n") as f:
        for p, s in rows:
            f.write(f"{p}\t{s}\n")
    return rows


def southern_women(seed: int, path: Path) -> list[tuple[str, str]]:
    """The bundled 18x14 network, copied unchanged; the seed only drives the ensemble."""
    shutil.copyfile(SOUTHERN_WOMEN, path)
    with path.open(encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    return [
        (row[0], header[k])
        for row in rows
        for k in range(1, len(row))
        if row[k].strip() == "1"
    ]


def dense_uniform(seed: int, path: Path) -> list[tuple[str, str]]:
    """A uniform 100x100 graph with exactly 2,000 edges (p = 0.2)."""
    rng = random.Random(f"dense-analyze/{seed}")
    cells = rng.sample(range(DENSE_SIDE * DENSE_SIDE), DENSE_EDGES)
    return _write_edges(path, (divmod(c, DENSE_SIDE) for c in cells))


def skewed_degree_quota() -> list[int]:
    """Secondary degrees proportional to (rank+1)^-0.6, summing to exactly 3,000.

    The quota is fixed (largest remainder), so hub sizes do not vary
    with the seed and neither does the census work they concentrate.
    """
    weights = [(r + 1) ** -SKEWED_EXPONENT for r in range(SKEWED_SECONDARY)]
    total = sum(weights)
    shares = [SKEWED_EDGES * w / total for w in weights]
    quota = [int(s) for s in shares]
    by_remainder = sorted(range(SKEWED_SECONDARY), key=lambda r: (quota[r] - shares[r], r))
    for r in by_remainder[: SKEWED_EDGES - sum(quota)]:
        quota[r] += 1
    return quota


def skewed_degree(seed: int, path: Path) -> list[tuple[str, str]]:
    """1,000 primary x 300 secondary nodes, exactly 3,000 edges, heavy-tailed secondaries.

    Each secondary node gets its fixed quota of edge slots.  The first
    1,000 shuffled slots go to the primary nodes in turn, so every one
    of them appears in the edge list; the rest pick a uniform primary
    endpoint, redrawn when the edge already exists.
    """
    rng = random.Random(f"skewed-degree-report/{seed}")
    slots = [s for s, d in enumerate(skewed_degree_quota()) for _ in range(d)]
    rng.shuffle(slots)
    edges = set()
    for k, s in enumerate(slots):
        p = k if k < SKEWED_PRIMARY else rng.randrange(SKEWED_PRIMARY)
        while (p, s) in edges:
            p = rng.randrange(SKEWED_PRIMARY)
        edges.add((p, s))
    return _write_edges(path, edges)


def describe(path: Path, edges: list[tuple[str, str]]) -> dict:
    """Edge count, per-side node count, mean and max degree, and the file's sha256."""
    out = {"edges": len(edges)}
    for side, k in (("primary", 0), ("secondary", 1)):
        degree: dict[str, int] = {}
        for e in edges:
            degree[e[k]] = degree.get(e[k], 0) + 1
        out[f"{side}_nodes"] = len(degree)
        out[f"{side}_degree_mean"] = len(edges) / len(degree)
        out[f"{side}_degree_max"] = max(degree.values())
    out["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
