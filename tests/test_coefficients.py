import decimal
import random
from fractions import Fraction

import numpy as np
import pytest

from bimotif import (
    SEMANTICS,
    CensusTotals,
    InvalidNode,
    Side,
    census,
    format_value,
    global_profile,
    local_profile,
)
from bimotif.coefficients import global_values
from expected_values import (
    GLOBAL_PRIMARY_EXACT,
    GLOBAL_SECONDARY_EXACT,
)
from graphs import c6, k33, random_bipartite


def test_davis_global_exact(davis):
    gp = global_profile(census(davis, Side.PRIMARY))
    assert list(gp.cc) == GLOBAL_PRIMARY_EXACT
    gs = global_profile(census(davis, Side.SECONDARY))
    assert list(gs.cc) == GLOBAL_SECONDARY_EXACT


def test_c6_profile():
    p = global_profile(census(c6()))
    assert p.cc[0] == 1
    assert p.cc[1] == 0
    assert p.cc[2] is None
    assert p.cc[3] is None
    assert p.denominators == (3, 3, 0, 0)


def test_k33_profile():
    p = global_profile(census(k33()))
    assert p.cc == (None, None, Fraction(0), Fraction(1))


def test_denominator_shape(davis):
    cen = census(davis)
    p = global_profile(cen)
    n0, n1, n2 = cen.config_totals
    assert p.denominators == (n0, n0 + n1, n1 + n2, n2)
    q = global_profile(cen, "at-least-one")
    m0, m1, m2 = cen.path_totals
    assert q.denominators == (m0, m0 + m1, m1 + m2, m2)


def test_undefined_iff_zero_denominator():
    rng = random.Random(88)
    for _ in range(40):
        g = random_bipartite(rng, rng.randint(2, 9), rng.randint(2, 9), rng.uniform(0.1, 0.6))
        cen = census(g)
        for scope in ["global", *range(cen.node_count)]:
            p = (
                global_profile(cen)
                if scope == "global"
                else local_profile(cen, scope)
            )
            for value, den in zip(p.cc, p.denominators):
                assert (value is None) == (den == 0)
                if value is not None:
                    assert 0 <= value <= 1


def test_semantics_policies_differ(davis):
    cen = census(davis)
    cfg = global_profile(cen, "configuration")
    one = global_profile(cen, "at-least-one")
    pairs = global_profile(cen, "pair-count")
    assert cfg.cc != one.cc
    assert one.cc != pairs.cc
    # pair counting can only add closures on top of at-least-one
    assert all(p >= o for p, o in zip(pairs.numerators, one.numerators))
    with pytest.raises(ValueError):
        global_profile(cen, "bogus")


def test_local_profile_invalid_node(davis):
    cen = census(davis)
    with pytest.raises(InvalidNode):
        local_profile(cen, 18)
    with pytest.raises(InvalidNode):
        local_profile(cen, -1)


def test_local_profile_takes_any_integer_index(davis):
    cen = census(davis)
    assert local_profile(cen, np.int64(3)) == local_profile(cen, 3)
    assert local_profile(cen, np.uint8(17), "pair-count") == local_profile(cen, 17, "pair-count")
    for bad in (3.0, "3", np.float64(3), np.int64(18), None):
        with pytest.raises(InvalidNode):
            local_profile(cen, bad)


def test_global_is_not_mean_of_locals(davis):
    # global coefficients come from summed counts, not averaged locals
    cen = census(davis)
    p = global_profile(cen, "at-least-one")
    total = cen.path_closed_totals
    assert p.numerators == total
    per_node = [local_profile(cen, i, "at-least-one") for i in range(cen.node_count)]
    mean_cc0 = sum(q.cc[0] for q in per_node if q.cc[0] is not None) / len(per_node)
    assert p.cc[0] != mean_cc0


def test_format_value():
    assert format_value(Fraction(1)) == "1"
    assert format_value(Fraction(21, 25)) == "0.84"
    assert format_value(Fraction(830, 1867)) == "0.4446"
    assert format_value(Fraction(39, 64)) == "0.6094"
    assert format_value(None) == "n/a"
    assert format_value(Fraction(-8607, 10000)) == "-0.8607"
    assert format_value(Fraction(1, 20000)) == "0.0001"
    assert format_value(Fraction(-1, 100000)) == "0"
    # ties round away from zero
    assert format_value(Fraction(5, 100000)) == "0.0001"
    # just below a tie: rounded once, from the exact value
    below_tie = Fraction(12345, 10**5) - Fraction(1, 10**40)
    assert format_value(below_tie) == "0.1234"
    assert format_value(-below_tie) == "-0.1234"
    # the caller's decimal context plays no part
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        assert format_value(Fraction(2, 3)) == "0.6667"


@pytest.mark.parametrize("value", [0.0, -0.0, 1e-300, -1e-300, 0.99995, -0.99995, 0.00005,
                                   -0.00005, 0.12345, -0.8607, 1.0, -2.5, 3, -7, 0])
def test_format_value_of_a_float_or_int_equals_its_fraction(value):
    # replica values are floats: rendered from their exact binary value, with no Fraction built
    assert format_value(value) == format_value(Fraction(value))


def test_global_values_equal_the_profile_floats(davis):
    # an ensemble reads each replica's coefficients as int / int, with no Fraction;
    # both round the exact ratio once, so they agree beyond 2⁵³ too
    rng = random.Random(27)

    def totals(n):
        big = [rng.choice([0, 1, 3, rng.randrange(2 ** 40), rng.randrange(2 ** 90)]) for _ in range(n)]
        return tuple(6 * v for v in big)  # a common factor, so no ratio is in lowest terms

    cases = [census(davis), census(c6())]
    for _ in range(200):
        cases.append(CensusTotals(totals(3), totals(4), totals(4), totals(1)[0], totals(3), totals(4)))
    for c in cases:
        for semantics in SEMANTICS:
            expected = tuple(None if v is None else float(v) for v in global_profile(c, semantics).cc)
            assert global_values(c, semantics) == expected
