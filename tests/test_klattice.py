"""Lattice layer: exact complex scalars, phase tokens, pairings."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabctl.klattice import (
    CentralCharge,
    EulerMatrix,
    GaussianRational,
    OracleBoundError,
    PhaseOrder,
    PhaseToken,
    Quiver,
    euler_matrix,
    euler_pair,
    format_rational,
    gauss,
    in_half_plane,
    kronecker_quiver,
    parse_rational,
    phase_compare,
)


def _random_gauss(rng: random.Random, allow_zero: bool = False) -> GaussianRational:
    while True:
        z = gauss(Fraction(rng.randint(-12, 12), 4), Fraction(rng.randint(-12, 12), 4))
        if allow_zero or not z.is_zero():
            return z


def test_gaussian_str_parse_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        z = _random_gauss(rng, allow_zero=True)
        assert GaussianRational.parse(str(z)) == z
    assert str(gauss(-1)) == "-1"
    assert str(gauss(1, 1)) == "1+1i"
    assert str(gauss(0, 1)) == "1i"
    assert GaussianRational.parse("i") == gauss(0, 1)
    assert GaussianRational.parse("1/2-3/4i") == gauss(Fraction(1, 2), Fraction(-3, 4))


def test_gaussian_arithmetic():
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (_random_gauss(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a - a == gauss(0)
        assert -a + a == gauss(0)
        assert (a / b) * b == a
        assert a * Fraction(3, 2) == a + a * Fraction(1, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        GaussianRational.parse("")
    with pytest.raises(ValueError):
        parse_rational("x")
    # a zero denominator is a bad literal, not a ZeroDivisionError
    for text in ("1/0", "-3/00", "2+1/0i"):
        with pytest.raises(ValueError, match="bad rational literal"):
            GaussianRational.parse(text)
    assert parse_rational("3/010") == Fraction(3, 10)


def test_half_plane_boundary():
    assert in_half_plane(gauss(0, 1))
    assert in_half_plane(gauss(-1))
    assert in_half_plane(gauss(-5, 3))
    assert in_half_plane(gauss(7, 1))
    assert not in_half_plane(gauss(1))
    assert not in_half_plane(gauss(0, -1))
    assert not in_half_plane(gauss(1, -1))
    with pytest.raises(ValueError):
        in_half_plane(gauss(0))


def test_token_normalization():
    t = PhaseToken.make(gauss(1, -1), 0)
    assert t.z == gauss(-1, 1) and t.winding == -1
    t = PhaseToken.make(gauss(0, 1), 5)
    assert t.z == gauss(0, 1) and t.winding == 5
    with pytest.raises(ValueError):
        PhaseToken(gauss(1), 0)
    with pytest.raises(ValueError):
        PhaseToken.make(gauss(0), 0)


def test_token_charge_value_parity():
    z = gauss(-2, 1)
    assert PhaseToken(z, 0).charge_value() == z
    assert PhaseToken(z, 1).charge_value() == -z
    assert PhaseToken(z, -1).charge_value() == -z
    assert PhaseToken(z, 2).charge_value() == z
    assert PhaseToken(z, 3).mass_sq() == z.abs_sq()
    assert PhaseToken(z, 0).shifted(2) == PhaseToken(z, 2)


def _float_phase(t: PhaseToken) -> float:
    return t.winding + math.atan2(float(t.z.im), float(t.z.re)) / math.pi


def test_phase_compare_against_float_phases():
    rng = random.Random(3)
    checked = 0
    for _ in range(2000):
        p = PhaseToken(_random_half(rng), rng.randint(-3, 3))
        q = PhaseToken(_random_half(rng), rng.randint(-3, 3))
        offset = rng.randint(-2, 2)
        cross = p.z.re * q.z.im - p.z.im * q.z.re
        got = phase_compare(p, q, offset)
        if cross == 0:
            assert got == (0 if p.winding == q.winding + offset
                           else (1 if p.winding > q.winding + offset else -1))
            checked += 1
            continue
        diff = _float_phase(p) - _float_phase(q) - offset
        if abs(diff) > 1e-7:
            assert got == (1 if diff > 0 else -1)
            checked += 1
    assert checked > 1500


def _random_half(rng: random.Random) -> GaussianRational:
    while True:
        z = gauss(Fraction(rng.randint(-12, 12), 4), Fraction(rng.randint(0, 12), 4))
        if not z.is_zero() and in_half_plane(z):
            return z


def test_phase_compare_fixtures():
    neg = PhaseToken(gauss(-1), 0)
    diag = PhaseToken(gauss(1, 1), 0)
    assert phase_compare(neg, diag) == 1
    assert phase_compare(diag, neg) == -1
    assert phase_compare(neg, neg) == 0
    # a full turn cancels an offset exactly
    assert phase_compare(PhaseToken(gauss(0, 1), 0), PhaseToken(gauss(0, 1), -1), 1) == 0
    # same ray, different windings
    assert phase_compare(PhaseToken(gauss(0, 2), 1), PhaseToken(gauss(0, 1), 0)) == 1


def test_central_charge():
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    assert charge.evaluate((1, 0)) == gauss(-1)
    assert charge.evaluate((-1, 2)) == gauss(3, 2)
    assert len(charge) == 2
    assert charge[1] == gauss(1, 1)


def test_central_charge_evaluate_matches_the_fold():
    rng = random.Random(14)
    for n in range(1, 6):
        charge = CentralCharge(tuple(_random_gauss(rng, allow_zero=True) for _ in range(n)))
        for _ in range(40):
            klass = tuple(rng.randint(-7, 7) for _ in range(n))
            total = gauss(0)
            for c, v in zip(klass, charge.values):
                total = total + v * c
            got = charge.evaluate(klass)
            assert got == total
            assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
    with pytest.raises(ValueError, match="class length"):
        CentralCharge((gauss(1),)).evaluate((1, 2))


_positive = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)
# a value in H: a negative real ray or an upper half plane point
_half_plane_value = st.one_of(
    st.builds(lambda r: gauss(-r), _positive),
    st.builds(gauss, st.fractions(min_value=-5, max_value=5, max_denominator=7), _positive),
)


@st.composite
def _charge_and_vectors(draw):
    k = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        values = [draw(_half_plane_value) for _ in range(k)]
    else:
        # collinear values: a rank-1 charge
        ray = draw(_half_plane_value)
        values = [ray * draw(_positive) for _ in range(k)]
    vec = st.tuples(*[st.integers(0, 6)] * k).filter(any)
    return CentralCharge(tuple(values)), draw(vec), draw(vec)


@settings(max_examples=300, deadline=None, database=None)
@given(_charge_and_vectors())
def test_phase_order_against_phase_compare(case):
    charge, v, w = case
    order = PhaseOrder.of(charge)
    assert all(isinstance(c, int) for _, _, c in order.weights)
    zv, zw = charge.evaluate(v), charge.evaluate(w)
    want = phase_compare(PhaseToken(zv, 0), PhaseToken(zw, 0))
    assert order.compare(v, w) == want
    assert order.compare(w, v) == -want
    cross = zv.re * zw.im - zv.im * zw.re
    assert (order.cross(v, w) > 0) == (cross > 0) and (order.cross(v, w) == 0) == (cross == 0)


def test_phase_order_fixtures():
    # (-1, 1+i): the sink simple has phase 1/4, the source simple phase 1
    order = PhaseOrder.of(CentralCharge((gauss(-1), gauss(1, 1))))
    assert order.weights == ((0, 1, -1),)
    assert order.compare((1, 0), (0, 1)) == 1 and order.compare((1, 1), (2, 2)) == 0
    # cross products -1/6 and 1 scale by 6; the two real values have none
    third = PhaseOrder.of(CentralCharge((gauss(Fraction(-1, 3)), gauss(0, Fraction(1, 2)), gauss(-2))))
    assert third.weights == ((0, 1, -1), (1, 2, 6))
    assert PhaseOrder.of(CentralCharge((gauss(0, 1),))).weights == ()


def test_quiver_validation():
    q = kronecker_quiver(2)
    assert q.vertex_count == 2 and q.arrows == ((0, 1), (0, 1))
    assert q.topological_order() == (0, 1)
    with pytest.raises(ValueError):
        Quiver("bad", 2, ((0, 0),))
    with pytest.raises(ValueError):
        Quiver("bad", 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        kronecker_quiver(0)


def test_euler_matrix_and_pairing():
    q = kronecker_quiver(2)
    em = euler_matrix(q)
    assert em.entries == ((1, -2), (0, 1))
    assert em.rank == 2
    assert euler_pair(em, (1, 0), (0, 1)) == -2
    assert euler_pair(em, (1, 2), (3, 4)) == 1 * 3 - 2 * 4 + 2 * 4
    chain = Quiver("a3", 3, ((0, 1), (1, 2)))
    assert euler_matrix(chain).entries == ((1, -1, 0), (0, 1, -1), (0, 0, 1))


def test_rational_formatting():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-2)) == "-2"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)


def test_oracle_bound_error_is_runtime_error():
    assert issubclass(OracleBoundError, RuntimeError)
