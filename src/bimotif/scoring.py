"""Driving scores: how strongly nodes pull clustering away from random.

The global score compares each global coefficient against the midpoint
CI_k of its ensemble confidence interval:

    g_k = (CI_k - cc_k) / CI_k        when cc_k <  CI_k
    g_k = (cc_k - CI_k) / (1 - CI_k)  when cc_k >= CI_k

and averages the defined components.  A node's component f_k is its
own g_k, negated when the node sits on the other side of CI_k from the
whole network; the global score is thus the network scored against
itself.  Nodes scoring above the global score are influential; nodes
with a negative score drive against the clustering behaviour.

Scores are exact Fractions until presentation.  They are computed in
integers: a component for the local value n/d and the midpoint P/Q is
(P·d − n·Q)/(P·d) or (n·Q − P·d)/(d·(Q − P)), the components are summed
over one integer denominator, and each score is one Fraction.  Per-class
direction flags compare the local coefficient with the confidence
interval by cross-multiplication: below it, inside it, or above it (with
only a midpoint available, "inside" degenerates to exact equality).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .census import MotifCensus, census
from .coefficients import SEMANTICS, ClusteringProfile, format_value, global_profile, local_profile
from .errors import BimotifError
from .graph import BipartiteGraph, Side

Rational = Union[Fraction, int]

DIRECTION_BELOW = "below"
DIRECTION_INSIDE = "inside"
DIRECTION_ABOVE = "above"

# Digits allowed in an interval value's decimal significand: Python's
# default limit for integer strings.  A longer one makes every exact
# score slow.
_MAX_DIGITS = 4300


class AllUndefined(BimotifError):
    """No class has both a defined coefficient and a defined midpoint."""


class DegenerateMidpoint(BimotifError):
    """A score branch divided by zero with a nonzero numerator."""

    exit_code = 3


class MissingCI(BimotifError):
    """No usable confidence-interval source was provided."""

    exit_code = 3


@dataclass(frozen=True)
class CIBand:
    """Confidence interval for one class; bounds optional."""

    midpoint: Fraction
    low: Optional[Fraction] = None
    high: Optional[Fraction] = None


@dataclass(frozen=True)
class NodeScore:
    """Scoring outcome for one analysis-side node."""

    label: str
    degree: int
    local_cc: tuple[Optional[Fraction], ...]
    directions: tuple[Optional[str], ...]
    ds: Optional[Fraction]
    defined_component_count: int
    influential: bool
    anti_driver: bool


@dataclass(frozen=True)
class DrivingScoreReport:
    """Global score, per-node scores and the influence classification."""

    side: Side
    global_cc: ClusteringProfile
    ds_global: Fraction
    nodes: tuple[NodeScore, ...]

    @property
    def influential_labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes if n.influential)

    @property
    def anti_driver_labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes if n.anti_driver)


def _below(value: Rational, mid: Rational) -> bool:
    """value < mid, by cross-multiplication."""
    return value.numerator * mid.denominator < mid.numerator * value.denominator


def _component(n: int, d: int, p: int, q: int, global_below: bool) -> tuple[int, int]:
    """f_k for the local value n/d and the midpoint p/q (d, q > 0), as integers (num, den).

    With t = n·q − p·d, the local value is below the midpoint when t < 0;
    its component is then (p·d − n·q)/(p·d), else (n·q − p·d)/(d·(q − p)),
    negated when ``global_below`` says the global value is on the other
    side.  A zero denominator gives 0 over a zero numerator and raises
    :class:`DegenerateMidpoint` otherwise.
    """
    t = n * q - p * d
    num, den = (-t, p * d) if t < 0 else (t, d * (q - p))
    if not den:
        if num:
            raise DegenerateMidpoint("zero denominator in score branch")
        return 0, 1
    return (-num if global_below != (t < 0) else num), den


def f_component(cc_global: Rational, cc_local: Rational, ci_k: Rational) -> Fraction:
    """The node's g_component, negated when it opposes the network's side of CI_k."""
    local, mid = Fraction(cc_local), Fraction(ci_k)
    return Fraction(*_component(local.numerator, local.denominator, mid.numerator,
                                mid.denominator, _below(Fraction(cc_global), mid)))


def g_component(cc_k: Rational, ci_k: Rational) -> Fraction:
    """Normalized distance of one global coefficient from its midpoint."""
    return f_component(cc_k, cc_k, ci_k)


def _cc4(values) -> tuple[Optional[Fraction], ...]:
    if isinstance(values, ClusteringProfile):
        return values.cc
    return tuple(None if v is None else Fraction(v) for v in values)


def _bands(bands) -> tuple[Optional[CIBand], ...]:
    """Bands as CIBands; a raw number is a band with only its midpoint."""
    return tuple(
        b if (b is None or isinstance(b, CIBand)) else CIBand(midpoint=Fraction(b))
        for b in bands
    )


def _classes(global_cc, bands) -> tuple[Optional[tuple[int, int, bool]], ...]:
    """Per class, (p, q, global value < p/q) for the midpoint p/q; None where either is undefined."""
    return tuple(
        None if g is None or b is None
        else (b.midpoint.numerator, b.midpoint.denominator, _below(g, b.midpoint))
        for g, b in zip(global_cc, bands)
    )


def _node_score(local, classes, literal_divisor) -> tuple[Optional[Fraction], int]:
    """(ds_node score, count of classes with global, local and band all defined).

    The components are summed over one integer denominator, and the
    score is the one Fraction built.
    """
    num, den, count = 0, 1, 0
    for value, k in zip(local, classes):
        if value is not None and k is not None:
            n, d = _component(value.numerator, value.denominator, *k)
            num, den = num * d + n * den, den * d
            count += 1
    if not count:
        return None, 0
    return Fraction(num, den * (4 if literal_divisor else count)), count


def ds_global(global_cc, ci) -> Fraction:
    """Mean g_component over the defined classes: the network scored against itself."""
    cc = _cc4(global_cc)
    score, _ = _node_score(cc, _classes(cc, _bands(ci)), literal_divisor=False)
    if score is None:
        raise AllUndefined("no class has both a coefficient and a midpoint")
    return score


def ds_node(local_cc, global_cc, ci, literal_divisor: bool = False) -> Optional[Fraction]:
    """Mean f_component over fully defined classes; None when there are none.

    With literal_divisor=True undefined components contribute zero and
    the divisor stays 4.
    """
    classes = _classes(_cc4(global_cc), _bands(ci))
    return _node_score(_cc4(local_cc), classes, literal_divisor)[0]


def _bounds(band: CIBand) -> tuple[Fraction, Fraction]:
    """The band's (low, high); a missing bound is the midpoint."""
    return (band.low if band.low is not None else band.midpoint,
            band.high if band.high is not None else band.midpoint)


def _direction(value: Rational, low: Rational, high: Rational) -> str:
    if _below(value, low):
        return DIRECTION_BELOW
    if _below(high, value):
        return DIRECTION_ABOVE
    return DIRECTION_INSIDE


def direction_of(local: Optional[Fraction], band: Optional[CIBand]) -> Optional[str]:
    """Where the local coefficient sits relative to the interval."""
    if local is None or band is None:
        return None
    return _direction(Fraction(local), *_bounds(band))


def classify(
    g: BipartiteGraph,
    bands: Sequence[Optional[CIBand]],
    side: Side | str = Side.PRIMARY,
    semantics: str = "configuration",
    literal_divisor: bool = False,
    census_result: Optional[MotifCensus] = None,
) -> DrivingScoreReport:
    """Score every analysis-side node and classify influence.

    A node is influential when its score is defined and exceeds the
    global score; it is an anti-driver when its score is negative.
    ``side`` is a :class:`Side` or its name, and the report holds the member.
    """
    side = Side(side)
    bands = _bands(bands)
    c = census_result if census_result is not None else census(g, side)
    gp = global_profile(c, semantics)
    ds_g = ds_global(gp, bands)
    classes = _classes(gp.cc, bands)
    bounds = tuple(None if b is None else _bounds(b) for b in bands)
    labels = g.labels(side)
    degrees = g.degree_sequence(side)
    nodes = []
    for i in range(c.node_count):
        lp = local_profile(c, i, semantics)
        ds, defined = _node_score(lp.cc, classes, literal_divisor)
        directions = tuple(
            None if lk is None or b is None else _direction(lk, *b)
            for lk, b in zip(lp.cc, bounds)
        )
        nodes.append(
            NodeScore(
                label=labels[i],
                degree=degrees[i],
                local_cc=lp.cc,
                directions=directions,
                ds=ds,
                defined_component_count=defined,
                influential=ds is not None and ds > ds_g,
                anti_driver=ds is not None and ds < 0,
            )
        )
    return DrivingScoreReport(
        side=side,
        global_cc=gp,
        ds_global=ds_g,
        nodes=tuple(nodes),
    )


def _number(x) -> Optional[Fraction]:
    """A file value (Decimal) or a fresh ensemble stat (float) as a Fraction.

    The range and the digit count are checked first, so a huge exponent
    or a long digit string fails before Fraction builds ``10**exponent``.
    """
    if x is None:
        return None
    if isinstance(x, float):
        x = Decimal(x)
    if not isinstance(x, Decimal):
        raise MissingCI(f"interval values must be numbers or null, got {type(x).__name__}")
    if not x.is_finite() or (x and not sys.float_info.min <= x.copy_abs() <= sys.float_info.max):
        raise MissingCI("interval values must be finite and within the float range")
    if len(x.as_tuple().digits) > _MAX_DIGITS:
        raise MissingCI(f"interval values may have at most {_MAX_DIGITS} significant digits")
    return Fraction(x)


def _band(mid, low, high) -> Optional[CIBand]:
    """One class's interval; None when its midpoint is null.

    Each value must be null or a finite number, and each bound present
    must lie on its side of the midpoint.  Midpoints are not limited to
    [0, 1]: pair-count coefficients can exceed 1.
    """
    mid, low, high = _number(mid), _number(low), _number(high)
    if mid is None:
        return None
    if (low is not None and low > mid) or (high is not None and high < mid):
        raise MissingCI("interval bounds must satisfy low <= midpoint <= high")
    return CIBand(mid, low, high)


def bands_from_classes(classes) -> tuple[Optional[CIBand], ...]:
    """Bands from per-class ensemble stats, as written under "classes"."""
    if not (
        isinstance(classes, list)
        and len(classes) == 4
        and all(isinstance(c, dict) for c in classes)
    ):
        raise MissingCI("expected stats for exactly 4 classes, one object each")
    return tuple(_band(c.get("midpoint"), c.get("ci_low"), c.get("ci_high")) for c in classes)


def load_ci_bands(path: str | Path) -> tuple[Optional[Side], Optional[str], tuple[Optional[CIBand], ...]]:
    """Read interval midpoints, and the side and semantics they are for, from a JSON file.

    Accepts either a midpoint file {"side": ..., "ci_midpoints": [4]}
    with optional 4-entry "ci_low"/"ci_high" arrays, or a previously
    written ensemble report (its per-class stats are reused).  The side
    and the semantics are read at the top level, else under "config";
    either is None when the file names none.  Numbers are parsed
    exactly, not through binary floats.  Anything else, an unknown side
    or semantics, or a band that fails the checks of :func:`_band`,
    raises MissingCI.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text, parse_float=Decimal, parse_int=Decimal)
    except RecursionError:
        raise json.JSONDecodeError("too deeply nested", text, 0) from None
    if not isinstance(obj, dict):
        raise MissingCI(f"no usable interval data in {path}")
    config = obj["config"] if isinstance(obj.get("config"), dict) else {}
    side, semantics = (config.get(key) if obj.get(key) is None else obj[key]
                       for key in ("side", "semantics"))
    if side is not None:
        try:
            side = Side(side)
        except ValueError:
            raise MissingCI(f"side must be 'primary' or 'secondary' in {path}") from None
    if semantics is not None and semantics not in SEMANTICS:
        raise MissingCI(f"semantics must be one of {', '.join(SEMANTICS)} in {path}")

    if "ci_midpoints" in obj:
        mids = obj["ci_midpoints"]
        lows = obj.get("ci_low", [None] * 4)
        highs = obj.get("ci_high", [None] * 4)
        for key, values in (("ci_midpoints", mids), ("ci_low", lows), ("ci_high", highs)):
            if not isinstance(values, list) or len(values) != 4:
                raise MissingCI(f"{key} must hold exactly 4 entries")
        return side, semantics, tuple(_band(m, lo, hi) for m, lo, hi in zip(mids, lows, highs))
    ensemble = obj.get("ensemble")
    classes = ensemble.get("classes") if isinstance(ensemble, dict) else obj.get("classes")
    if classes is None:
        raise MissingCI(f"no usable interval data in {path}")
    return side, semantics, bands_from_classes(classes)
