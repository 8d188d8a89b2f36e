import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimotif import (
    SEMANTICS,
    AllUndefined,
    CIBand,
    DegenerateMidpoint,
    MissingCI,
    Side,
    census,
    classify,
    direction_of,
    ds_global,
    ds_node,
    f_component,
    g_component,
    global_profile,
    load_ci_bands,
    local_profile,
)
from expected_values import (
    DS_GLOBAL_PRIMARY,
    DS_GLOBAL_SECONDARY,
    INFLUENTIAL_PRIMARY,
    INFLUENTIAL_SECONDARY,
    MIDPOINTS_PRIMARY,
    MIDPOINTS_SECONDARY,
    NEGATIVE_PRIMARY,
    NOORDIN_GLOBAL,
    NOORDIN_MIDPOINTS,
    NOORDIN_ROWS,
)
from graphs import k33, small_graphs
from oracles import (
    f_branches,
    fraction_direction,
    fraction_ds,
    fraction_f,
    fraction_g,
    g_branches,
)


def test_g_component_examples():
    below = g_component(Fraction("0.4446"), Fraction("0.63695"))
    assert below == pytest.approx(0.30198, abs=5e-5)
    above = g_component(Fraction("0.6532"), Fraction("0.55705"))
    assert above == pytest.approx(0.21707, abs=5e-5)
    assert g_component(Fraction(1, 2), Fraction(1, 2)) == 0


def test_f_component_examples():
    same_side = f_component(Fraction("0.4446"), Fraction("0.3957"), Fraction("0.63695"))
    assert same_side == pytest.approx(0.37876, abs=5e-5)
    opposed = f_component(Fraction("0.1108"), Fraction(0), Fraction("0.0609"))
    assert opposed == -1
    assert f_component(Fraction("0.7"), Fraction(1, 2), Fraction(1, 2)) == 0
    assert f_component(Fraction("0.3"), Fraction(1, 2), Fraction(1, 2)) == 0


def test_components_match_branch_oracle():
    rng = random.Random(404)
    for _ in range(500):
        cc = Fraction(rng.randint(0, 64), 64)
        local = Fraction(rng.randint(0, 64), 64)
        ci = Fraction(rng.randint(1, 63), 64)
        g = g_component(cc, ci)
        assert g == g_branches(cc, ci)
        assert 0 <= g <= 1
        f = f_component(cc, local, ci)
        assert f == f_branches(cc, local, ci)
        assert -1 <= f <= 1


def test_degenerate_midpoint():
    with pytest.raises(DegenerateMidpoint):
        g_component(Fraction(2), Fraction(1))
    with pytest.raises(DegenerateMidpoint):
        f_component(Fraction(1, 2), Fraction(2), Fraction(1))
    # zero numerator over zero denominator collapses to zero instead
    assert g_component(Fraction(1), Fraction(1)) == 0


def test_ds_global_davis(davis):
    gp = global_profile(census(davis))
    score = ds_global(gp, MIDPOINTS_PRIMARY)
    assert score == pytest.approx(DS_GLOBAL_PRIMARY, abs=5e-4)
    gs = global_profile(census(davis, Side.SECONDARY))
    score_s = ds_global(gs, MIDPOINTS_SECONDARY)
    assert score_s == pytest.approx(DS_GLOBAL_SECONDARY, abs=5e-4)


def test_ds_global_all_undefined():
    with pytest.raises(AllUndefined):
        ds_global((None, None, None, None), MIDPOINTS_PRIMARY)
    with pytest.raises(AllUndefined):
        ds_global((Fraction(1, 2),) * 4, (None, None, None, None))


def test_ds_global_zero_at_own_values(davis):
    gp = global_profile(census(davis))
    assert ds_global(gp, gp.cc) == 0


def test_ds_node_evelyn(davis):
    cen = census(davis)
    gp = global_profile(cen)
    evelyn = local_profile(cen, 0)
    score = ds_node(evelyn, gp, MIDPOINTS_PRIMARY)
    assert score == pytest.approx(0.4083, abs=5e-4)


def test_ds_node_partial_definitions():
    rows = NOORDIN_ROWS
    dujanah = ds_node(rows["Abu Dujanah"][0], NOORDIN_GLOBAL, NOORDIN_MIDPOINTS)
    assert dujanah == pytest.approx(0.0473, abs=5e-4)
    hadi = ds_node(rows["Son Hadi"][0], NOORDIN_GLOBAL, NOORDIN_MIDPOINTS)
    assert hadi == pytest.approx(-0.4456, abs=5e-5)
    assert hadi == pytest.approx(rows["Son Hadi"][1], abs=2.5e-4)
    saifuddin = ds_node(rows["Mohamed Saifuddin"][0], NOORDIN_GLOBAL, NOORDIN_MIDPOINTS)
    assert saifuddin == 0


def test_ds_node_literal_divisor():
    locals_ = NOORDIN_ROWS["Abu Dujanah"][0]
    flexible = ds_node(locals_, NOORDIN_GLOBAL, NOORDIN_MIDPOINTS)
    literal = ds_node(locals_, NOORDIN_GLOBAL, NOORDIN_MIDPOINTS, literal_divisor=True)
    assert literal == flexible * Fraction(3, 4)


def test_ds_node_none_when_nothing_defined():
    assert ds_node((None,) * 4, NOORDIN_GLOBAL, NOORDIN_MIDPOINTS) is None


def test_direction_of_with_interval():
    band = CIBand(Fraction(1, 2), Fraction(2, 5), Fraction(3, 5))
    assert direction_of(Fraction(3, 10), band) == "below"
    assert direction_of(Fraction(2, 5), band) == "inside"
    assert direction_of(Fraction(1, 2), band) == "inside"
    assert direction_of(Fraction(3, 5), band) == "inside"
    assert direction_of(Fraction(7, 10), band) == "above"
    assert direction_of(None, band) is None
    assert direction_of(Fraction(1, 2), None) is None


def test_direction_of_midpoint_only():
    band = CIBand(Fraction(1, 2))
    assert direction_of(Fraction(49, 100), band) == "below"
    assert direction_of(Fraction(1, 2), band) == "inside"
    assert direction_of(Fraction(51, 100), band) == "above"


def test_classify_davis_primary(davis):
    report = classify(davis, MIDPOINTS_PRIMARY)
    assert report.side is Side.PRIMARY
    assert report.ds_global == pytest.approx(DS_GLOBAL_PRIMARY, abs=5e-4)
    assert set(report.influential_labels) == INFLUENTIAL_PRIMARY
    assert set(report.anti_driver_labels) >= NEGATIVE_PRIMARY
    for node in report.nodes:
        if node.label in report.anti_driver_labels:
            assert node.ds < 0
        if node.label in report.influential_labels:
            assert node.ds > report.ds_global
    assert [n.label for n in report.nodes] == list(davis.primary_labels)


def test_classify_davis_secondary(davis):
    report = classify(davis, MIDPOINTS_SECONDARY, side=Side.SECONDARY)
    assert set(report.influential_labels) == INFLUENTIAL_SECONDARY
    assert report.ds_global == pytest.approx(DS_GLOBAL_SECONDARY, abs=5e-4)


def test_classify_zero_scores_when_bands_match_locals():
    g = k33()
    report = classify(g, [None, None, Fraction(0), Fraction(1)])
    assert report.ds_global == 0
    for node in report.nodes:
        assert node.ds == 0
        assert not node.influential
        assert not node.anti_driver


_MIDPOINTS = st.integers(1, 99).map(lambda n: Fraction(n, 100))


@st.composite
def _ci_bands(draw) -> CIBand:
    mid = draw(_MIDPOINTS)
    low = draw(st.none() | st.fractions(max_value=mid))
    high = draw(st.none() | st.fractions(min_value=mid))
    return CIBand(mid, low, high)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    g=small_graphs(max_side=6),
    bands=st.lists(st.none() | _MIDPOINTS | _ci_bands(), min_size=4, max_size=4),
)
def test_aggregation_matches_branch_oracles(g, bands):
    mids = [b.midpoint if isinstance(b, CIBand) else b for b in bands]
    c = census(g)
    for semantics in SEMANTICS:
        gp = global_profile(c, semantics)
        on_global = [k for k in range(4) if gp.cc[k] is not None and mids[k] is not None]
        if not on_global:
            with pytest.raises(AllUndefined):
                ds_global(gp, bands)
            with pytest.raises(AllUndefined):
                classify(g, bands, semantics=semantics)
            continue
        expected_global = sum(g_branches(gp.cc[k], mids[k]) for k in on_global) / len(on_global)
        assert ds_global(gp, bands) == expected_global
        for literal in (False, True):
            report = classify(g, bands, semantics=semantics, literal_divisor=literal)
            assert report.ds_global == expected_global
            for i, node in enumerate(report.nodes):
                local = local_profile(c, i, semantics).cc
                assert node.local_cc == local
                defined = [k for k in on_global if local[k] is not None]
                assert node.defined_component_count == len(defined)
                total = sum((f_branches(gp.cc[k], local[k], mids[k]) for k in defined), Fraction(0))
                expected = total / (4 if literal else len(defined)) if defined else None
                assert node.ds == expected
                assert ds_node(local, gp, bands, literal) == expected
                assert node.directions == tuple(
                    fraction_direction(lk, b if b is None or isinstance(b, CIBand) else CIBand(b))
                    for lk, b in zip(local, bands)
                )


def test_load_ci_bands_midpoint_file(tmp_path):
    path = tmp_path / "bands.json"
    payload = {"side": "primary", "ci_midpoints": [0.1, 0.2, None, 0.4]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    side, bands = load_ci_bands(path)
    assert side is Side.PRIMARY
    assert bands[0] == CIBand(Fraction("0.1"))
    assert bands[2] is None
    assert bands[3].midpoint == Fraction("0.4")


def test_load_ci_bands_with_bounds(tmp_path):
    path = tmp_path / "bands.json"
    payload = {
        "side": "secondary",
        "ci_midpoints": [0.5, 0.5, 0.5, 0.5],
        "ci_low": [0.4, None, 0.4, 0.4],
        "ci_high": [0.6, None, 0.6, 0.6],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    side, bands = load_ci_bands(path)
    assert side is Side.SECONDARY
    assert bands[0] == CIBand(Fraction(1, 2), Fraction("0.4"), Fraction("0.6"))
    assert bands[1] == CIBand(Fraction(1, 2), None, None)


def test_load_ci_bands_from_ensemble_report(tmp_path):
    path = tmp_path / "report.json"
    payload = {
        "config": {"side": "secondary"},
        "ensemble": {
            "classes": [
                {"midpoint": 0.5, "ci_low": 0.45, "ci_high": 0.55},
                {"midpoint": 0.6},
                {"midpoint": None},
                {"midpoint": 0.1, "ci_low": 0.05, "ci_high": 0.15},
            ]
        },
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    side, bands = load_ci_bands(path)
    assert side is Side.SECONDARY
    assert bands[0].low == Fraction("0.45")
    assert bands[1] == CIBand(Fraction("0.6"))
    assert bands[2] is None
    assert bands[3].high == Fraction("0.15")


def test_load_ci_bands_rejects_unusable(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"foo": 1}), encoding="utf-8")
    with pytest.raises(MissingCI):
        load_ci_bands(path)
    path.write_text(json.dumps({"ci_midpoints": [0.1, 0.2]}), encoding="utf-8")
    with pytest.raises(MissingCI):
        load_ci_bands(path)


# values around the midpoints: the midpoint itself, 0 and 1, negative and above 1
_VALUES = st.fractions(min_value=-2, max_value=3, max_denominator=12)


@st.composite
def _scored_class(draw):
    """One class's (global value, local value, band), each possibly undefined."""
    mid = draw(st.sampled_from([Fraction(0), Fraction(1)]) | _VALUES)
    value = st.none() | st.just(mid) | _VALUES
    glob, local = draw(value), draw(value)
    bound = st.none() | st.just(mid) | _VALUES
    low, high = draw(bound), draw(bound)
    band = CIBand(
        mid,
        None if low is None else min(low, mid),
        None if high is None else max(high, mid),
    )
    return glob, local, draw(st.none() | st.just(mid) | st.just(band))


def _outcome(f, *args):
    try:
        return f(*args)
    except DegenerateMidpoint:
        return DegenerateMidpoint


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(classes=st.lists(_scored_class(), min_size=4, max_size=4), literal=st.booleans())
# midpoint 0 under a negative local value, and 1 under a local value above 1
@example([(Fraction(1), Fraction(-1), Fraction(0))] + [(None, None, None)] * 3, False)
@example([(Fraction(1), Fraction(2), Fraction(1))] + [(None, None, None)] * 3, True)
# 0/0 branches: local value equal to a midpoint of 0 and of 1
@example([(Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(1), Fraction(1))]
         + [(None, None, None)] * 2, True)
def test_integer_scoring_equals_fraction_oracles(classes, literal):
    glob, local, bands = zip(*classes)
    mids = [b.midpoint if isinstance(b, CIBand) else b for b in bands]
    for g, lk, m in zip(glob, local, mids):
        if m is None:
            continue
        for value in (g, lk):
            if value is not None:
                assert _outcome(g_component, value, m) == _outcome(fraction_g, value, m)
        if g is not None and lk is not None:
            assert _outcome(f_component, g, lk, m) == _outcome(fraction_f, g, lk, m)
    expected = _outcome(fraction_ds, local, glob, mids, literal)
    score = _outcome(ds_node, local, glob, bands, literal)
    assert score == (expected if expected is DegenerateMidpoint else expected[0])
    own = _outcome(fraction_ds, glob, glob, mids)
    if own == (None, 0):
        with pytest.raises(AllUndefined):
            ds_global(glob, bands)
    else:
        assert _outcome(ds_global, glob, bands) == (own if own is DegenerateMidpoint else own[0])
    for lk, b in zip(local, bands):
        band = b if b is None or isinstance(b, CIBand) else CIBand(b)
        assert direction_of(lk, band) == fraction_direction(lk, band)
