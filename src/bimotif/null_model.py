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
Per class, the defined values are aggregated into a mean, a 95%
confidence interval from the correctly rounded Student-t quantile, and
its midpoint (equal to the mean).  Replicas where a class is undefined
are excluded from that class only; a class undefined in every replica
is reported as undefined stats rather than an error.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from statistics import NormalDist
from typing import Optional

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


def _two_sided(t, nu: int, sqrt, atan, pi):
    """P(|T| < t) for Student's t with integer ``nu`` >= 1 degrees of freedom.

    The finite sums of Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4
    (even nu), summed by Horner's rule, with cos²θ = nu/(nu + t²) and
    sinθ = t/√(nu + t²).  ``t`` is a float or a Decimal, and ``sqrt``,
    ``atan`` and ``pi`` are that type's; only odd nu uses ``atan`` and
    ``pi``.
    """
    s = nu + t * t
    cos2 = nu / s
    sin = t / sqrt(s)
    odd = nu % 2
    acc = 0
    for k in range(nu // 2 - 1, -1, -1):
        m = 2 * k + 1 + odd
        acc = 1 + acc * cos2 * m / (m + 1)
    if odd:
        cos = sqrt(cos2)
        return 2 / pi * (atan(sin / cos) + sin * cos * acc)
    return sin * acc


def _decimal_atan(x: Decimal) -> Decimal:
    """atan(x) for x >= 0 in the current decimal context."""
    # halve the angle, atan(x) = 2·atan(x / (1 + √(1 + x²))), until the
    # Taylor series gains two digits a term
    halvings = 0
    while x > Decimal("0.1"):
        x /= 1 + (1 + x * x).sqrt()
        halvings += 1
    minus_x2 = -x * x
    total = term = x
    k = 1
    while True:
        term *= minus_x2
        k += 2
        summed = total + term / k
        if summed == total:
            return total * 2**halvings
        total = summed


def _t_pdf(t: float, nu: int) -> float:
    """Student's t density, in floats; only Newton steps use it."""
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - math.log(nu * math.pi) / 2
    return math.exp(log_c - (nu + 1) / 2 * math.log1p(t * t / nu))


@functools.lru_cache(maxsize=None)
def _t_quantile(nu: int) -> float:
    """The double nearest the 0.975 quantile of Student's t with integer nu >= 1.

    The seed is the normal quantile plus four Cornish-Fisher terms (Hill,
    Algorithm 396: Student's t-quantiles, CACM 13(10), 1970).  Four Newton
    steps on the float sum of :func:`_two_sided` refine it; nu = 1, where
    the seed is farthest off, needs four.  One Newton step on the exact
    sum, in 60-digit decimals, then lands on the answer or next to it.
    The walk moves to the neighbouring double while the exact CDF at a
    half-ulp midpoint lies on the wrong side of 0.975, so the result is
    correctly rounded.  Every nu from 1 to 3,000, and every 37th up to
    20,000, took three exact sums of nu // 2 terms.  Memoised, so the
    classes of one ensemble share one evaluation.
    """
    x = NormalDist().inv_cdf(0.975)
    x2 = x * x
    terms = (
        (x2 + 1) * x / 4,
        ((5 * x2 + 16) * x2 + 3) * x / 96,
        (((3 * x2 + 19) * x2 + 17) * x2 - 15) * x / 384,
        ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) * x / 92160,
    )
    t = x + sum(g / nu ** (k + 1) for k, g in enumerate(terms))
    for _ in range(4):
        t -= (_two_sided(t, nu, math.sqrt, math.atan, math.pi) - 0.95) / (2 * _t_pdf(t, nu))

    with localcontext() as ctx:
        ctx.prec = 60
        pi = 4 * _decimal_atan(Decimal(1))

        def excess(t: Decimal) -> Decimal:
            # P(T < t) - 0.975, doubled
            return _two_sided(t, nu, Decimal.sqrt, _decimal_atan, pi) - Decimal("0.95")

        def midpoint(a: float, b: float) -> Decimal:
            # exact: the quantile is in [1.9, 13], where a half ulp needs
            # at most 54 significant digits
            return (Decimal(a) + Decimal(b)) / 2

        seed = Decimal(t)
        q = float(seed - excess(seed) / Decimal(2 * _t_pdf(t, nu)))
        while excess(midpoint(q, math.nextafter(q, math.inf))) < 0:
            q = math.nextafter(q, math.inf)
        while excess(midpoint(q, math.nextafter(q, 0))) > 0:
            q = math.nextafter(q, 0)
    return q


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
    half = _t_quantile(n - 1) * std / math.sqrt(n)
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
