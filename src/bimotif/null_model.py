"""Random ensembles and per-class confidence intervals.

Two replica generators are available:

* ``density``: a fresh uniform graph with the same node counts and the
  same number of edges.  This is the default and is what the bundled
  reference midpoints were produced with.
* ``degree``: attempted double edge swaps on the original graph, which
  preserve both degree sequences exactly.

Replicas are generated in order and handed to :func:`census_totals`,
which counts them a chunk at a time and gives each replica's global
totals; its global clustering profile is computed from those alone.
Per class, the defined values are aggregated into a mean, a Student-t
95% confidence interval, and its midpoint (equal to the mean).  Replicas where a class is undefined are excluded from that
class only; a class undefined in every replica is reported as undefined
stats rather than an error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from scipy.stats import t as _student_t

from .census import census  # unused here; kept because bench/traced.py wraps null_model.census
from .census import census_totals
from .coefficients import SEMANTICS, global_profile
from .errors import BimotifError
from .graph import BipartiteGraph, Side, from_indexed_edges

NULL_MODELS = ("density", "degree")

_MASK64 = (1 << 64) - 1


class InvalidConfig(BimotifError):
    """Ensemble configuration outside its allowed ranges."""

    exit_code = 3


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one ensemble run."""

    runs: int = 100
    seed: int = 0
    swaps_per_edge: int = 10
    side: Side = Side.PRIMARY
    null_model: str = "density"
    semantics: str = "configuration"

    def __post_init__(self):
        if self.runs < 2:
            raise InvalidConfig(f"runs must be >= 2, got {self.runs}")
        if self.swaps_per_edge < 0:
            raise InvalidConfig("swaps_per_edge must be >= 0")
        if self.null_model not in NULL_MODELS:
            raise InvalidConfig(f"unknown null model {self.null_model!r}")
        if self.semantics not in SEMANTICS:
            raise InvalidConfig(f"unknown semantics {self.semantics!r}")


@dataclass(frozen=True)
class ClassStats:
    """Aggregated ensemble values for one cycle class."""

    mean: Optional[float]
    std: Optional[float]
    ci_low: Optional[float]
    ci_high: Optional[float]
    midpoint: Optional[float]
    defined_count: int


@dataclass(frozen=True)
class EnsembleStats:
    """Per-class stats plus the raw per-replica values."""

    config: EnsembleConfig
    classes: tuple[ClassStats, ClassStats, ClassStats, ClassStats]
    replica_values: tuple[tuple[Optional[float], ...], ...]

    @property
    def midpoints(self) -> tuple[Optional[float], ...]:
        return tuple(c.midpoint for c in self.classes)


def _mix64(x: int) -> int:
    """splitmix64 finalizer; spreads consecutive seeds apart."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replica_seed(seed: int, replica: int) -> int:
    """Derived seed for one replica; stable across runs counts."""
    return _mix64((seed ^ replica) & _MASK64)


def randomize(g: BipartiteGraph, seed: int, swaps_per_edge: int = 10) -> BipartiteGraph:
    """Degree-preserving rewiring by attempted double edge swaps.

    Picks two distinct edges (a,x), (b,y) uniformly; if a != b, x != y
    and neither (a,y) nor (b,x) exists, the pair is rewired to (a,y),
    (b,x); otherwise the attempt is skipped.  swaps_per_edge * edge
    count attempts are made.  Deterministic for a given seed.
    """
    edges = []
    for i, nbrs in enumerate(g.adjacency_primary):
        for j in nbrs:
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


def density_rewire(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    """Uniform graph with the same node counts and edge count."""
    np_ = len(g.primary_labels)
    ns_ = len(g.secondary_labels)
    rng = random.Random(seed)
    cells = rng.sample(range(np_ * ns_), g.edge_count)
    edges = [divmod(c, ns_) for c in cells]
    return from_indexed_edges(g.primary_labels, g.secondary_labels, edges)


def _aggregate(values: list[float]) -> ClassStats:
    # sort first so the float sums cannot depend on replica order
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return ClassStats(None, None, None, None, None, 0)
    mean = math.fsum(vals) / n
    if n == 1:
        return ClassStats(mean, None, None, None, mean, 1)
    var = math.fsum((x - mean) ** 2 for x in vals) / (n - 1)
    std = math.sqrt(var)
    half = float(_student_t.ppf(0.975, n - 1)) * std / math.sqrt(n)
    return ClassStats(mean, std, mean - half, mean + half, mean, n)


def run_ensemble(g: BipartiteGraph, cfg: EnsembleConfig) -> EnsembleStats:
    """Generate replicas, profile each, and aggregate per class.

    Replica r uses seed replica_seed(cfg.seed, r), so results are
    reproducible and a shorter run is a prefix of a longer one; the
    aggregation sorts values before summing.  The totals are exact
    integers, so the chunks :func:`census_totals` counts cannot change a
    value.
    """

    def replica(r: int) -> BipartiteGraph:
        rs = replica_seed(cfg.seed, r)
        if cfg.null_model == "degree":
            return randomize(g, rs, cfg.swaps_per_edge)
        return density_rewire(g, rs)

    rows = []
    for totals in census_totals(map(replica, range(cfg.runs)), cfg.side):
        prof = global_profile(totals, cfg.semantics)
        rows.append(tuple(None if v is None else float(v) for v in prof.cc))

    classes = []
    for k in range(4):
        defined = [row[k] for row in rows if row[k] is not None]
        classes.append(_aggregate(defined))
    return EnsembleStats(
        config=cfg,
        classes=tuple(classes),
        replica_values=tuple(rows),
    )
