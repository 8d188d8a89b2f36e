"""The four clustering coefficients, global and per node.

Each coefficient is an exact ratio of census counts:

    cc0 = closed(0) / n(0)
    cc1 = closed(1) / (n(0) + n(1))
    cc2 = closed(2) / (n(1) + n(2))
    cc3 = closed(3) / n(2)

where n(e) counts structures of class e and closed(c) counts
structures with at least one closure of cycle class c.  A coefficient
is undefined (None) when its denominator is zero.

Three closure-counting policies are supported:

* ``configuration`` (default): 5-node configurations, deduplicated
  globally, anchored per center locally.
* ``at-least-one``: 4-paths with at least one class-c closure.
* ``pair-count``: every (4-path, closing node) pair.

The first two policies are proportions and always lie in [0, 1].  The
pair-count policy is a rate (closures per 4-path): a single path can
be closed by several witnesses of the same class, so its values may
exceed 1.

Values stay exact Fractions; rounding to 4 decimal places happens only
at presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .census import CensusTotals, MotifCensus
from .errors import BimotifError

SEMANTICS = ("configuration", "at-least-one", "pair-count")


class InvalidNode(BimotifError):
    """Node index outside the analysis side."""


@dataclass(frozen=True)
class ClusteringProfile:
    """The four coefficients for one scope (the whole graph or one node)."""

    cc: tuple[Optional[Fraction], Optional[Fraction], Optional[Fraction], Optional[Fraction]]
    numerators: tuple[int, int, int, int]
    denominators: tuple[int, int, int, int]

    def rounded(self) -> tuple[str, str, str, str]:
        """Display strings, 4 decimal places, "n/a" when undefined."""
        return tuple(format_value(v) for v in self.cc)


def format_value(x: Optional[Union[Fraction, float, int]]) -> str:
    """Render a rational for tables: 4 decimal places, half away from zero, zeros trimmed.

    A float is rendered from its exact binary value, as ``Fraction(x)`` would be.
    """
    if x is None:
        return "n/a"
    n, d = x.as_integer_ratio()
    q = (20000 * abs(n) + d) // (2 * d)  # |x|·10⁴ rounded once, in integers
    s = f"{q // 10000}.{q % 10000:04d}".rstrip("0").rstrip(".")
    return "-" + s if n < 0 and q else s


def _semantic_counts(c: CensusTotals, semantics: str, scope: Union[str, int]):
    """(class counts, closed counts) for the chosen policy and scope."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    if scope == "global":
        if semantics == "configuration":
            return c.config_totals, c.config_closed_totals
        if semantics == "at-least-one":
            return c.path_totals, c.path_closed_totals
        return c.path_totals, c.closure_pair_totals
    i = scope
    if not isinstance(i, int) or not 0 <= i < c.node_count:
        raise InvalidNode(f"no node {i!r} on the analysis side")
    if semantics == "configuration":
        return c.config_counts[i], c.config_closed[i]
    if semantics == "at-least-one":
        return c.path_counts[i], c.path_closed[i]
    return c.path_counts[i], c.closure_pairs[i]


def _denominators(counts: Sequence[int]) -> tuple[int, int, int, int]:
    n0, n1, n2 = counts
    return n0, n0 + n1, n1 + n2, n2


def _profile(counts: Sequence[int], closed: Sequence[int]) -> ClusteringProfile:
    denominators = _denominators(counts)
    numerators = tuple(closed)
    cc = tuple(
        Fraction(num, den) if den else None
        for num, den in zip(numerators, denominators)
    )
    return ClusteringProfile(cc=cc, numerators=numerators, denominators=denominators)


def global_profile(c: CensusTotals, semantics: str = "configuration") -> ClusteringProfile:
    """Whole-network coefficients from global totals, such as those a :class:`MotifCensus` carries."""
    counts, closed = _semantic_counts(c, semantics, "global")
    return _profile(counts, closed)


def global_values(c: CensusTotals, semantics: str = "configuration") -> tuple[Optional[float], ...]:
    """The four global coefficients as floats, None where undefined, with no Fraction built.

    Each is the integer ratio of :func:`global_profile`'s numerator and
    denominator; int / int is correctly rounded, as ``float(Fraction)`` is.
    """
    counts, closed = _semantic_counts(c, semantics, "global")
    return tuple(num / den if den else None for num, den in zip(closed, _denominators(counts)))


def local_profile(c: MotifCensus, i: int, semantics: str = "configuration") -> ClusteringProfile:
    """Coefficients restricted to structures anchored at node ``i``."""
    counts, closed = _semantic_counts(c, semantics, i)
    return _profile(counts, closed)
