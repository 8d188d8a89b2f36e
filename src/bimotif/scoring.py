"""Driving scores: how strongly nodes pull clustering away from random.

The global score compares each global coefficient against the midpoint
CI_k of its ensemble confidence interval:

    g_k = (CI_k - cc_k) / CI_k        when cc_k <  CI_k
    g_k = (cc_k - CI_k) / (1 - CI_k)  when cc_k >= CI_k

and averages the defined components.  The per-node score uses the same
normalized distance but signed: positive when the node sits on the
same side of CI_k as the whole network, negative when it pulls the
other way.  Nodes with a score above the global score are classified
as influential; nodes with a negative score drive against the
clustering behaviour.

Scores are exact Fractions until presentation.  Per-class direction
flags compare the local coefficient with the confidence interval:
below it, inside it, or above it (with only a midpoint available,
"inside" degenerates to exact equality).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .census import MotifCensus, census
from .coefficients import ClusteringProfile, format_value, global_profile, local_profile
from .errors import BimotifError
from .graph import BipartiteGraph, Side

Rational = Union[Fraction, int]

DIRECTION_BELOW = "below"
DIRECTION_INSIDE = "inside"
DIRECTION_ABOVE = "above"


class AllUndefined(BimotifError):
    """No class has both a defined coefficient and a defined midpoint."""


class DegenerateMidpoint(BimotifError):
    """A score branch divided by zero with a nonzero numerator."""


class MissingCI(BimotifError):
    """No usable confidence-interval source was provided."""


@dataclass(frozen=True)
class CIBand:
    """Confidence interval for one class; bounds optional."""

    midpoint: Fraction
    low: Optional[Fraction] = None
    high: Optional[Fraction] = None


@dataclass(frozen=True)
class NodeScore:
    """Scoring outcome for one analysis-side node."""

    index: int
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
    bands: tuple[Optional[CIBand], ...]
    global_cc: ClusteringProfile
    ds_global: Fraction
    nodes: tuple[NodeScore, ...]

    @property
    def influential_labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes if n.influential)

    @property
    def anti_driver_labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes if n.anti_driver)


def _branch(numerator: Fraction, denominator: Fraction) -> Fraction:
    if denominator == 0:
        if numerator == 0:
            return Fraction(0)
        raise DegenerateMidpoint("zero denominator in score branch")
    return numerator / denominator


def g_component(cc_k: Rational, ci_k: Rational) -> Fraction:
    """Normalized distance of one global coefficient from its midpoint."""
    cc_k = Fraction(cc_k)
    ci_k = Fraction(ci_k)
    if cc_k < ci_k:
        return _branch(ci_k - cc_k, ci_k)
    return _branch(cc_k - ci_k, 1 - ci_k)


def f_component(cc_global: Rational, cc_local: Rational, ci_k: Rational) -> Fraction:
    """Signed per-node component; negative when the node opposes the network."""
    cc_global = Fraction(cc_global)
    cc_local = Fraction(cc_local)
    ci_k = Fraction(ci_k)
    if cc_global < ci_k:
        if cc_local < ci_k:
            return _branch(ci_k - cc_local, ci_k)
        return -_branch(cc_local - ci_k, 1 - ci_k)
    if cc_local >= ci_k:
        return _branch(cc_local - ci_k, 1 - ci_k)
    return -_branch(ci_k - cc_local, ci_k)


def _cc4(values) -> tuple[Optional[Fraction], ...]:
    if isinstance(values, ClusteringProfile):
        return values.cc
    return tuple(None if v is None else Fraction(v) for v in values)


def _midpoints(bands) -> tuple[Optional[Fraction], ...]:
    out = []
    for b in bands:
        if b is None:
            out.append(None)
        elif isinstance(b, CIBand):
            out.append(b.midpoint)
        else:
            out.append(Fraction(b))
    return tuple(out)


def ds_global(global_cc, ci) -> Fraction:
    """Mean g_component over classes defined on both sides of the comparison."""
    cc = _cc4(global_cc)
    mids = _midpoints(ci)
    comps = [
        g_component(c, m) for c, m in zip(cc, mids) if c is not None and m is not None
    ]
    if not comps:
        raise AllUndefined("no class has both a coefficient and a midpoint")
    return sum(comps, Fraction(0)) / len(comps)


def ds_node(local_cc, global_cc, ci, literal_divisor: bool = False) -> Optional[Fraction]:
    """Mean f_component over fully defined classes; None when there are none.

    With literal_divisor=True undefined components contribute zero and
    the divisor stays 4.
    """
    local = _cc4(local_cc)
    cc = _cc4(global_cc)
    mids = _midpoints(ci)
    comps = [
        f_component(g, l, m)
        for g, l, m in zip(cc, local, mids)
        if g is not None and l is not None and m is not None
    ]
    if not comps:
        return None
    divisor = 4 if literal_divisor else len(comps)
    return sum(comps, Fraction(0)) / divisor


def direction_of(local: Optional[Fraction], band: Optional[CIBand]) -> Optional[str]:
    """Where the local coefficient sits relative to the interval."""
    if local is None or band is None:
        return None
    low = band.low if band.low is not None else band.midpoint
    high = band.high if band.high is not None else band.midpoint
    if local < low:
        return DIRECTION_BELOW
    if local > high:
        return DIRECTION_ABOVE
    return DIRECTION_INSIDE


def classify(
    g: BipartiteGraph,
    bands: Sequence[Optional[CIBand]],
    side: Side = Side.PRIMARY,
    semantics: str = "configuration",
    literal_divisor: bool = False,
    census_result: Optional[MotifCensus] = None,
) -> DrivingScoreReport:
    """Score every analysis-side node and classify influence.

    A node is influential when its score is defined and exceeds the
    global score; it is an anti-driver when its score is negative.
    """
    bands = tuple(
        b if (b is None or isinstance(b, CIBand)) else CIBand(midpoint=Fraction(b))
        for b in bands
    )
    c = census_result if census_result is not None else census(g, side)
    gp = global_profile(c, semantics)
    ds_g = ds_global(gp, bands)
    labels = g.labels(side)
    degrees = g.degree_sequence(side)
    mids = _midpoints(bands)
    nodes = []
    for i in range(c.node_count):
        lp = local_profile(c, i, semantics)
        comps_defined = sum(
            1
            for gk, lk, mk in zip(gp.cc, lp.cc, mids)
            if gk is not None and lk is not None and mk is not None
        )
        ds = ds_node(lp, gp, bands, literal_divisor)
        directions = tuple(
            direction_of(lk, b) for lk, b in zip(lp.cc, bands)
        )
        nodes.append(
            NodeScore(
                index=i,
                label=labels[i],
                degree=degrees[i],
                local_cc=lp.cc,
                directions=directions,
                ds=ds,
                defined_component_count=comps_defined,
                influential=ds is not None and ds > ds_g,
                anti_driver=ds is not None and ds < 0,
            )
        )
    return DrivingScoreReport(
        side=side,
        bands=bands,
        global_cc=gp,
        ds_global=ds_g,
        nodes=tuple(nodes),
    )


def _frac(x) -> Optional[Fraction]:
    return None if x is None else Fraction(x)


def load_ci_bands(path: str | Path) -> tuple[Optional[Side], tuple[Optional[CIBand], ...]]:
    """Read interval midpoints from a JSON file.

    Accepts either a midpoint file {"side": ..., "ci_midpoints": [4]}
    with optional 4-entry "ci_low"/"ci_high" arrays, or a previously
    written ensemble report (its per-class stats are reused).  Numbers
    are parsed exactly, not through binary floats.
    """
    text = Path(path).read_text(encoding="utf-8")
    obj = json.loads(text, parse_float=Fraction)
    side = None
    raw_side = None
    if isinstance(obj, dict):
        raw_side = obj.get("side")
        if raw_side is None and isinstance(obj.get("config"), dict):
            raw_side = obj["config"].get("side")
    if raw_side is not None:
        try:
            side = Side(raw_side)
        except ValueError:
            raise MissingCI(f"unknown side {raw_side!r} in {path}") from None

    if isinstance(obj, dict) and "ci_midpoints" in obj:
        mids = obj["ci_midpoints"]
        lows = obj.get("ci_low", [None] * 4)
        highs = obj.get("ci_high", [None] * 4)
        for key, values in (("ci_midpoints", mids), ("ci_low", lows), ("ci_high", highs)):
            if not isinstance(values, list) or len(values) != 4:
                raise MissingCI(f"{key} must hold exactly 4 entries")
        bands = []
        for m, lo, hi in zip(mids, lows, highs):
            if m is None:
                bands.append(None)
            else:
                bands.append(CIBand(Fraction(m), _frac(lo), _frac(hi)))
        return side, tuple(bands)

    classes = None
    if isinstance(obj, dict):
        if isinstance(obj.get("ensemble"), dict):
            classes = obj["ensemble"].get("classes")
        elif "classes" in obj:
            classes = obj["classes"]
    if classes is not None:
        if len(classes) != 4:
            raise MissingCI("expected stats for exactly 4 classes")
        bands = []
        for entry in classes:
            mid = entry.get("midpoint")
            if mid is None:
                bands.append(None)
            else:
                bands.append(
                    CIBand(
                        Fraction(mid),
                        _frac(entry.get("ci_low")),
                        _frac(entry.get("ci_high")),
                    )
                )
        return side, tuple(bands)

    raise MissingCI(f"no usable interval data in {path}")
