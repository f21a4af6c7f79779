"""Universal cover of the orientation-preserving linear group on the plane.

An element is a rational 2x2 matrix with positive determinant plus an
integer lift; the lift pins down which branch of the induced circle map the
element carries, read off its anchor, the phase the branch gives to i.  All
phase bookkeeping runs through tokens, so the action on stability data is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .klattice import (
    GaussianRational,
    PhaseToken,
    format_rational,
    in_half_plane,
    phase_compare,
)

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

_I_VEC = GaussianRational(Fraction(0), Fraction(1))


def _as_mat(rows) -> Mat2:
    out = []
    for row in rows:
        if len(row) != 2:
            raise ValueError("matrix must be 2x2")
        out.append(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row))
    if len(out) != 2:
        raise ValueError("matrix must be 2x2")
    return tuple(out)


def mat_det(g: Mat2) -> Fraction:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def mat_inv(g: Mat2) -> Mat2:
    d = mat_det(g)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    return ((g[1][1] / d, -g[0][1] / d), (-g[1][0] / d, g[0][0] / d))


def mat_apply(g: Mat2, z: GaussianRational) -> GaussianRational:
    return GaussianRational(
        g[0][0] * z.re + g[0][1] * z.im, g[1][0] * z.re + g[1][1] * z.im
    )


@dataclass(frozen=True)
class GLTildeElement:
    matrix: Mat2
    lift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_mat(self.matrix))
        if mat_det(self.matrix) <= 0:
            raise ValueError("matrix determinant must be positive")

    def to_data(self) -> dict:
        return {
            "g": [[format_rational(x) for x in row] for row in self.matrix],
            "lift": self.lift,
        }


def _anchor(matrix: Mat2, lift: int) -> PhaseToken:
    """The phase a lift gives to i: that of matrix*i in (2*lift, 2*lift + 2]."""
    za = mat_apply(matrix, _I_VEC)
    return PhaseToken(za, 2 * lift) if in_half_plane(za) else PhaseToken(-za, 2 * lift + 1)


def lift_apply(g: GLTildeElement, token: PhaseToken) -> PhaseToken:
    """Evaluate the lifted phase map on a token.

    The map is increasing, commutes with the unit shift and sends phase 1/2
    to the anchor a, so it sends phases in (0, 1] into (a - 1, a + 1): one
    sign test against the anchor picks the branch.
    """
    t1 = PhaseToken.make(mat_apply(g.matrix, token.z), 0)
    k = 0 if phase_compare(t1, _anchor(g.matrix, 0), offset=-1) > 0 else 1
    return PhaseToken(t1.z, t1.winding + token.winding + 2 * k + 2 * g.lift)


def compose(g: GLTildeElement, h: GLTildeElement) -> GLTildeElement:
    """Group product carrying g's branch after h's (lift maps compose g o h).

    The product's anchor is g's lift applied to h's anchor; an anchor's
    winding is twice the lift, plus one off the upper half plane.
    """
    anchor = lift_apply(g, _anchor(h.matrix, h.lift))
    return GLTildeElement(mat_mul(g.matrix, h.matrix), anchor.winding // 2)


def inverse(g: GLTildeElement) -> GLTildeElement:
    """The element h with g o h the identity.

    g o (g^-1, 0) is the pure lift k whose anchor, at winding 2k, is g's
    lift applied to the anchor of (g^-1, 0); h carries the lift -k.
    """
    ginv = mat_inv(g.matrix)
    return GLTildeElement(ginv, -(lift_apply(g, _anchor(ginv, 0)).winding // 2))


def act_tokens(g: GLTildeElement, tokens) -> tuple[PhaseToken, ...]:
    inv = inverse(g)
    return tuple(lift_apply(inv, t) for t in tokens)


def orbit_solve(p, q) -> GLTildeElement | None:
    """Element g moving p.tokens to q.tokens by act_tokens, or None when unrelated.

    Solves the matrix from two independent charge columns, the lift from one
    winding, then verifies every token exactly.
    """
    ptok = tuple(p.tokens)
    qtok = tuple(q.tokens)
    if len(ptok) != len(qtok) or len(ptok) < 2:
        return None
    pv = [t.charge_value() for t in ptok]
    qv = [t.charge_value() for t in qtok]
    pick = None
    for i in range(len(pv)):
        for j in range(i + 1, len(pv)):
            if pv[i].re * pv[j].im - pv[i].im * pv[j].re != 0:
                pick = (i, j)
                break
        if pick:
            break
    if pick is None:
        return None
    i0, i1 = pick
    mq: Mat2 = ((qv[i0].re, qv[i1].re), (qv[i0].im, qv[i1].im))
    if mat_det(mq) == 0:
        return None
    mp: Mat2 = ((pv[i0].re, pv[i1].re), (pv[i0].im, pv[i1].im))
    g_mat = mat_mul(mp, mat_inv(mq))
    if mat_det(g_mat) <= 0:
        return None
    base = GLTildeElement(g_mat, 0)
    t0 = lift_apply(inverse(base), ptok[i0])
    if t0.z != qtok[i0].z:
        return None
    d = t0.winding - qtok[i0].winding
    if d % 2:
        return None
    g = GLTildeElement(g_mat, d // 2)
    if act_tokens(g, ptok) != qtok:
        return None
    return g
