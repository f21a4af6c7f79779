"""The lifted group: composition, inverses, token transport, orbit solving."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabctl import pn_model
from stabctl.gl_action import (
    GLTildeElement,
    act_tokens,
    compose,
    inverse,
    lift_apply,
    mat_apply,
    mat_inv,
    mat_mul,
    orbit_solve,
)
from stabctl.klattice import PhaseToken, gauss, in_half_plane, phase_compare

IDENTITY = GLTildeElement(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), 0)


def _random_element(rng: random.Random) -> GLTildeElement:
    while True:
        rows = (
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
        )
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] > 0:
            return GLTildeElement(rows, rng.randint(-2, 2))


def _random_tokens(rng: random.Random, count: int) -> tuple[PhaseToken, ...]:
    toks = []
    for _ in range(count):
        while True:
            z = gauss(Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(0, 8), 2))
            if not z.is_zero() and in_half_plane(z):
                break
        toks.append(PhaseToken(z, rng.randint(-3, 3)))
    return tuple(toks)


def test_determinant_condition():
    with pytest.raises(ValueError):
        GLTildeElement(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))), 0)
    with pytest.raises(ValueError):
        GLTildeElement(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))), 0)


def test_group_axioms():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (_random_element(rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, IDENTITY) == a
        assert compose(IDENTITY, a) == a
        assert compose(a, inverse(a)) == IDENTITY
        assert compose(inverse(a), a) == IDENTITY


def test_central_loop():
    minus = GLTildeElement(((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))), 0)
    assert compose(minus, minus) == GLTildeElement(IDENTITY.matrix, 1)


def test_lift_apply_is_a_left_action():
    rng = random.Random(8)
    for _ in range(200):
        a, b = _random_element(rng), _random_element(rng)
        for t in _random_tokens(rng, 2):
            assert lift_apply(compose(a, b), t) == lift_apply(a, lift_apply(b, t))
        t = _random_tokens(rng, 1)[0]
        assert lift_apply(IDENTITY, t) == t


def test_pure_lift_shifts_windings_by_two():
    t = PhaseToken(gauss(-2, 1), 3)
    assert lift_apply(GLTildeElement(IDENTITY.matrix, 1), t) == PhaseToken(t.z, 5)
    assert lift_apply(GLTildeElement(IDENTITY.matrix, -2), t) == PhaseToken(t.z, -1)


def test_act_tokens_reverses_composition():
    rng = random.Random(9)
    for _ in range(200):
        a, b = _random_element(rng), _random_element(rng)
        toks = _random_tokens(rng, rng.randint(2, 3))
        assert act_tokens(compose(a, b), toks) == act_tokens(b, act_tokens(a, toks))
        assert act_tokens(IDENTITY, toks) == toks
        assert act_tokens(inverse(a), act_tokens(a, toks)) == toks


def test_orbit_solve_round_trip():
    rng = random.Random(10)
    base = pn_model.sigma_minus1(2)
    for _ in range(100):
        g = _random_element(rng)
        moved = pn_model.PnPoint(2, 0, act_tokens(g, base.tokens))
        sol = orbit_solve(base, moved)
        assert sol is not None
        assert act_tokens(sol, base.tokens) == moved.tokens


def test_orbit_solve_rejects_unrelated_points():
    base = pn_model.sigma_minus1(2)
    # same rays but windings off by one on a single token
    twisted = pn_model.PnPoint(
        2, 0, (base.tokens[0], PhaseToken(base.tokens[1].z, base.tokens[1].winding + 1))
    )
    assert orbit_solve(base, twisted) is None
    # charge columns with a negative determinant are unreachable
    flipped = pn_model.PnPoint(2, 0, (PhaseToken(gauss(1, 1), -1), PhaseToken(gauss(-1), 0)))
    assert orbit_solve(base, flipped) is None


# the three-lift route: g's lift after h's on i, compared with the product's
# branch at lift 0; the inverse takes its lift from such a product


def _reference_lift_apply(g: GLTildeElement, token: PhaseToken) -> PhaseToken:
    t1 = PhaseToken.make(mat_apply(g.matrix, token.z), 0)
    za = mat_apply(g.matrix, gauss(0, 1))
    ta = PhaseToken.make(za, 0)
    c = 0 if in_half_plane(za) else 2
    cmp = phase_compare(t1, ta, offset=c - 1)
    assert cmp != 0
    k = 0 if cmp > 0 else 1
    return PhaseToken(t1.z, t1.winding + token.winding + 2 * k + 2 * g.lift)


def _reference_compose(g: GLTildeElement, h: GLTildeElement) -> GLTildeElement:
    prod = mat_mul(g.matrix, h.matrix)
    ref = PhaseToken(gauss(0, 1), 0)
    lhs = _reference_lift_apply(g, _reference_lift_apply(h, ref))
    rhs = _reference_lift_apply(GLTildeElement(prod, 0), ref)
    d = lhs.winding - rhs.winding
    assert d % 2 == 0
    return GLTildeElement(prod, d // 2)


def _reference_inverse(g: GLTildeElement) -> GLTildeElement:
    ginv = mat_inv(g.matrix)
    k0 = _reference_compose(GLTildeElement(ginv, 0), GLTildeElement(g.matrix, 0)).lift
    return GLTildeElement(ginv, -g.lift - k0)


def _random_fractional_element(rng: random.Random) -> GLTildeElement:
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)) for _ in range(2)
        )
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] > 0:
            return GLTildeElement(rows, rng.randint(-2, 2))


def test_one_lift_group_operations_match_the_three_lift_route():
    rng = random.Random(12)
    for _ in range(2000):
        g, h = _random_fractional_element(rng), _random_fractional_element(rng)
        (t,) = _random_tokens(rng, 1)
        assert lift_apply(g, t) == _reference_lift_apply(g, t)
        assert compose(g, h) == _reference_compose(g, h)
        assert inverse(g) == _reference_inverse(g)


def test_element_serialization():
    g = GLTildeElement(((Fraction(1, 2), Fraction(0)), (Fraction(-1), Fraction(3))), -1)
    data = g.to_data()
    assert data["lift"] == -1
    assert data["g"][0][0] == "1/2"
