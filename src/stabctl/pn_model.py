"""Complete stability picture over the two-vertex quiver with n arrows.

The lattice classes, the helix of rigid modules, the adjacent-pair chart
system, the half-pixel membership test, and the Monte Carlo overlap scan
all live here.  The helix has one construction: kernels of universal maps
going left, vector-space duals of those going right, and every module
certified rigid.  Everything is exact rational arithmetic; the only
floating point in the package stays in the metric helpers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _linalg
from . import exc_collections as xc
from . import rep_lab
from .chart_atlas import ChartPoint, build_stability, tokens_from_data, tokens_to_data
from .gl_action import GLTildeElement, act_tokens, orbit_solve
from .klattice import (
    CentralCharge,
    EulerMatrix,
    GaussianRational,
    PhaseToken,
    euler_pair,
    gauss,
    in_half_plane,
    kronecker_quiver,
)

__all__ = [
    "PnPoint",
    "StablePairNotFound",
    "aut_shift",
    "chart_point",
    "find_stable_pair",
    "fixed_basis_charge",
    "helix_module",
    "hom_degrees",
    "in_O_minus1",
    "module_hom_prediction",
    "natural_shift",
    "overlap_scan",
    "pn_collection",
    "pn_euler",
    "point_from_data",
    "s_class",
    "s_rep",
    "sigma_minus1",
    "sigma_minus1_presented",
    "theta_member",
]


def natural_shift(i: int) -> int:
    """Homological shift placing the i-th helix object over a module."""
    return 1 if i <= 0 else 0


@lru_cache(maxsize=None)
def s_class(n: int, i: int) -> tuple[int, int]:
    """Lattice class of the i-th helix object on the vertex basis."""
    if n < 1:
        raise ValueError("need at least one arrow")
    if i == 0:
        return (-1, 0)
    if i == 1:
        return (0, 1)
    a, b = ((-1, 0), (0, 1)) if i > 1 else ((0, 1), (-1, 0))
    step = i - 1 if i > 1 else -i
    for _ in range(step):
        a, b = b, (n * b[0] - a[0], n * b[1] - a[1])
    return b


def pn_euler(n: int) -> EulerMatrix:
    if n < 1:
        raise ValueError("need at least one arrow")
    return EulerMatrix(((1, -n), (0, 1)))


def _certify_rigid(rep) -> None:
    he = rep_lab.hom_ext(rep, rep)
    if (he.hom, he.ext) != (1, 0):
        raise RuntimeError("helix recursion produced a non-rigid module")


def _power_rep(rep, n: int):
    out = rep
    for _ in range(n - 1):
        out = rep_lab.direct_sum(out, rep)
    return out


def _backward_step(n: int, rep_b, rep_c, homs):
    """Kernel of the universal map rep_b^n -> rep_c, with the new hom basis.

    homs holds a basis of Hom(rep_b, rep_c); the returned basis spans
    Hom(ker, rep_b) and is induced by the summand projections.
    """
    big = _power_rep(rep_b, n)
    db = rep_b.dims
    kbases = []
    for v in range(2):
        rows = []
        for i in range(rep_c.dims[v]):
            row = []
            for l in range(n):
                hv = homs[l][v]
                row.extend(hv[i][j] for j in range(db[v]))
            rows.append(row)
        kern = _linalg.frac_kernel(rows, n * db[v])
        if len(kern) != n * db[v] - rep_c.dims[v]:
            raise RuntimeError("universal map fails to be surjective")
        kbases.append(tuple(tuple(x) for x in kern))
    sub = rep_lab._sub_from_witness(big, tuple(kbases))
    new_homs = []
    for l in range(n):
        per_v = []
        for v in range(2):
            per_v.append(
                tuple(
                    tuple(kbases[v][j][l * db[v] + i] for j in range(len(kbases[v])))
                    for i in range(db[v])
                )
            )
        new_homs.append(tuple(per_v))
    return sub, tuple(new_homs)


@lru_cache(maxsize=None)
def _bchain(n: int, k: int):
    """(N_k, N_{k+1}, basis of Hom(N_k, N_{k+1})) for k <= -1.

    The left half of the helix: N_k is the kernel of the universal map
    N_{k+1}^n -> N_{k+2}, certified rigid; s_rep dualizes these modules
    for the right half.
    """
    q = kronecker_quiver(n)
    if k == -1:
        n0 = rep_lab.vertex_simple(q, 0)
        nm1 = rep_lab.make_rep(
            q,
            (n, 1),
            [[[Fraction(1 if j == l else 0) for j in range(n)]] for l in range(n)],
        )
        homs = tuple(
            (
                (tuple(Fraction(1 if j == l else 0) for j in range(n)),),
                (),
            )
            for l in range(n)
        )
        _certify_rigid(nm1)
        return nm1, n0, homs
    nxt_b, nxt_c, nxt_h = _bchain(n, k + 1)
    new_rep, new_h = _backward_step(n, nxt_b, nxt_c, nxt_h)
    _certify_rigid(new_rep)
    return new_rep, nxt_b, new_h


@lru_cache(maxsize=None)
def s_rep(n: int, k: int):
    """The k-th rigid module of the helix, n >= 2.

    Kernels going left build S_k for k <= -1; going right, S_k is the
    dual of S_{1-k}, since the vector-space dual takes preinjectives to
    preprojectives.  Every returned module is certified rigid.
    """
    if n < 2:
        raise ValueError("recursion is for two or more arrows; one arrow is periodic")
    if k == 0:
        return rep_lab.vertex_simple(kronecker_quiver(n), 0)
    if k < 0:
        return _bchain(n, k)[0]
    rep = rep_lab.dual(s_rep(n, 1 - k))
    _certify_rigid(rep)
    return rep


@lru_cache(maxsize=None)
def helix_module(n: int, i: int):
    """(module, shift) with the i-th helix object the module shifted down.

    For one arrow the helix is periodic of order three up to shift, so the
    modules repeat; otherwise s_rep supplies them, kernels going left and
    duals going right, each certified rigid.  The lattice class is checked
    against the closed recurrence on the spot.
    """
    if n < 1:
        raise ValueError("need at least one arrow")
    if n == 1:
        r = i % 3
        cyc = (i - r) // 3
        q = kronecker_quiver(1)
        if r == 0:
            rep = rep_lab.vertex_simple(q, 0)
        elif r == 1:
            rep = rep_lab.vertex_simple(q, 1)
        else:
            rep = rep_lab.make_rep(q, (1, 1), [[[Fraction(1)]]])
        shift = natural_shift(r) - cyc
    else:
        rep = s_rep(n, i)
        shift = natural_shift(i)
    sign = -1 if shift % 2 else 1
    if (sign * rep.dims[0], sign * rep.dims[1]) != s_class(n, i):
        raise RuntimeError("module dimensions disagree with the lattice class")
    return rep, shift


def hom_degrees(n: int, i: int, j: int) -> tuple[int, int]:
    """(degree, dimension) of the one graded piece Hom(S_i, S_j) can occupy.

    Forward pairs sit in degree 0, backward pairs in degree 1, and the
    dimension is the pairing up to sign.  A zero dimension means the total
    hom space vanishes.
    """
    if i == j:
        raise ValueError("self pairs are scalar; pick distinct indices")
    chi = euler_pair(pn_euler(n), s_class(n, i), s_class(n, j))
    dim = chi if i < j else -chi
    if dim < 0:
        raise RuntimeError("pairing sign breaks the one-degree pattern")
    return (0 if i < j else 1, dim)


def module_hom_prediction(n: int, i: int, j: int) -> tuple[int, int]:
    """(ext degree, dimension) predicted for the underlying modules."""
    degree, dim = hom_degrees(n, i, j)
    e = degree + natural_shift(i) - natural_shift(j)
    if e not in (0, 1):
        raise RuntimeError("predicted degree leaves the module range")
    return e, dim


@lru_cache(maxsize=None)
def pn_collection(n: int, m: int) -> xc.ExcCollection:
    """The adjacent exceptional pair (S_m, S_{m+1}) with its hom table."""
    objs = []
    for j in (m, m + 1):
        rep, shift = helix_module(n, j)
        objs.append(xc.ExcObject(f"S[{j}]", s_class(n, j), shift=shift, rep=rep))
    table = xc.HomTable(2, {(0, 1): {0: n}})
    return xc.make_collection(tuple(objs), table, pn_euler(n))


@dataclass(frozen=True)
class PnPoint:
    """A stability point presented on one adjacent-pair chart.

    base names the chart; the two tokens carry charge and phase of S_base
    and S_{base+1} in that order.
    """

    n: int
    base: int
    tokens: tuple[PhaseToken, PhaseToken]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one arrow")
        toks = tuple(self.tokens)
        if len(toks) != 2 or not all(isinstance(t, PhaseToken) for t in toks):
            raise ValueError("a chart presentation carries exactly two tokens")
        object.__setattr__(self, "tokens", toks)

    def to_data(self) -> dict:
        return {"n": self.n, "base": self.base, **tokens_to_data(self.tokens)}


def point_from_data(data: dict) -> PnPoint:
    return PnPoint(int(data["n"]), int(data["base"]), tokens_from_data(data))


def chart_point(p: PnPoint) -> ChartPoint:
    return ChartPoint(pn_collection(p.n, p.base), p.tokens)


def sigma_minus1(n: int) -> PnPoint:
    """The reference point: module heart, source charge -1, sink charge 1+i."""
    cp = build_stability(pn_collection(n, 0), (1, 0), (gauss(-1), gauss(1, 1)))
    return PnPoint(n, 0, cp.tokens)


def sigma_minus1_presented(n: int, m: int) -> ChartPoint:
    """The reference point written out on the chart at m."""
    coll = pn_collection(n, m)
    toks = []
    for j in (m, m + 1):
        rep, shift = helix_module(n, j)
        d0, d1 = rep.dims
        toks.append(PhaseToken(gauss(d1 - d0, d1), -shift))
    return ChartPoint(coll, tuple(toks))


def _cross(a: GaussianRational, b: GaussianRational) -> Fraction:
    return a.re * b.im - a.im * b.re


_REF_CHARGES = (gauss(-1), gauss(1, 1))


def _recursion_module(n: int, j: int):
    if n == 1:
        return helix_module(1, j)[0]
    return s_rep(n, j)


def theta_member(point: PnPoint, k: int, bound: int | None = None) -> bool:
    """Whether S_k and S_{k+1} are both stable at the presented point.

    The winding gap between the two tokens sorts the presentation into a
    heart type.  A gap of one is a module heart and the question goes to
    the representation oracle; a gap of two or more makes the heart
    semisimple, so only the defining pair survives; a gap of zero is first
    pushed back to the reference charges by the plane action.  Degenerate
    rank-one charges leave only the defining pair stable as well.
    """
    kk = k - point.base
    t0, t1 = point.tokens
    delta = t1.winding - t0.winding
    if delta < 0:
        raise ValueError("phase order is wrong for a chart presentation")
    c = _cross(t0.z, t1.z)
    if c == 0:
        if delta == 0:
            raise ValueError("coincident phases support no chart presentation")
        return kk == 0
    if delta >= 2:
        return kk == 0
    if delta == 0:
        if c < 0:
            raise ValueError("phase order is wrong for a chart presentation")
        g = GLTildeElement(
            (
                (t0.z.re, t1.z.re - t0.z.re),
                (t0.z.im, t1.z.im - t0.z.im),
            ),
            0,
        )
        moved = act_tokens(g, point.tokens)
        if (moved[0].z, moved[1].z) != _REF_CHARGES:
            raise RuntimeError("normalization missed the reference charges")
        if moved[1].winding - moved[0].winding != 1:
            raise RuntimeError("normalization missed the module heart")
        return theta_member(PnPoint(point.n, point.base, moved), k, bound)
    charge = CentralCharge((t0.z, t1.z))
    for j in (kk, kk + 1):
        rep = _recursion_module(point.n, j)
        if rep_lab.theta_test(rep, charge, bound).verdict != "stable":
            return False
    return True


def in_O_minus1(p: PnPoint) -> bool:
    """Membership in the orbit of the reference point under the plane action."""
    ref = sigma_minus1_presented(p.n, p.base)
    return orbit_solve(ref, chart_point(p)) is not None


class StablePairNotFound(RuntimeError):
    """Raised when no chart admits the point inside the search window.

    Carries the offending point so a failed search is reportable as data.
    """

    def __init__(self, point: PnPoint, window: int):
        super().__init__(
            f"no stable adjacent pair within {window} charts of the base; "
            f"point {json.dumps(point.to_data(), sort_keys=True)}"
        )
        self.point = point
        self.window = window


def find_stable_pair(
    point: PnPoint, window: int = 20, bound: int | None = None
) -> int:
    """Index k with S_k, S_{k+1} both stable, searched outward from the base."""
    offsets = [0]
    for r in range(1, window + 1):
        offsets.extend((r, -r))
    for off in offsets:
        if theta_member(point, point.base + off, bound):
            return point.base + off
    raise StablePairNotFound(point, window)


def aut_shift(p: PnPoint, t: int) -> PnPoint:
    """The helix translation: same tokens read on the chart t steps over."""
    return PnPoint(p.n, p.base + t, p.tokens)


def fixed_basis_charge(
    point: PnPoint,
) -> tuple[GaussianRational, GaussianRational]:
    """Charge of the two vertex classes, independent of the chart used."""
    v0, v1 = (t.charge_value() for t in point.tokens)
    c0 = s_class(point.n, point.base)
    c1 = s_class(point.n, point.base + 1)
    cm = [
        [Fraction(c0[0]), Fraction(c1[0])],
        [Fraction(c0[1]), Fraction(c1[1])],
    ]
    inv = _linalg.frac_inverse(cm)
    if inv is None:
        raise RuntimeError("consecutive classes always span the lattice")
    return (
        v0 * inv[0][0] + v1 * inv[1][0],
        v0 * inv[0][1] + v1 * inv[1][1],
    )


def _random_half_plane(rng: random.Random) -> GaussianRational:
    while True:
        z = gauss(
            Fraction(rng.randint(-12, 12), 4),
            Fraction(rng.randint(0, 12), 4),
        )
        if not z.is_zero() and in_half_plane(z):
            return z


def _random_gl(rng: random.Random) -> GLTildeElement:
    while True:
        rows = (
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
        )
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det > 0:
            return GLTildeElement(rows, rng.randint(-1, 1))


def _sample_point(n: int, base: int, rng: random.Random) -> PnPoint:
    """Random chart presentation mixing orbit points, degenerate rays,
    module hearts, and wide-gap hearts."""
    roll = rng.random()
    acted = False
    if roll < 0.20:
        ref = sigma_minus1_presented(n, base)
        g = _random_gl(rng)
        point = PnPoint(n, base, act_tokens(g, ref.tokens))
        acted = True
    elif roll < 0.35:
        z = _random_half_plane(rng)
        lam0 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        lam1 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        w0 = rng.randint(-2, 1)
        delta = rng.choice((1, 2))
        point = PnPoint(
            n,
            base,
            (PhaseToken(z * lam0, w0), PhaseToken(z * lam1, w0 + delta)),
        )
    elif roll < 0.85:
        w0 = rng.randint(-2, 1)
        point = PnPoint(
            n,
            base,
            (
                PhaseToken(_random_half_plane(rng), w0),
                PhaseToken(_random_half_plane(rng), w0 + 1),
            ),
        )
    else:
        w0 = rng.randint(-2, 1)
        delta = rng.choice((2, 3))
        point = PnPoint(
            n,
            base,
            (
                PhaseToken(_random_half_plane(rng), w0),
                PhaseToken(_random_half_plane(rng), w0 + delta),
            ),
        )
    if not acted and rng.random() < 0.30:
        g = _random_gl(rng)
        point = PnPoint(n, base, act_tokens(g, point.tokens))
    return point


def overlap_scan(
    n: int,
    k: int,
    h: int,
    samples: int = 500,
    seed: int = 0,
    bound: int | None = None,
) -> dict:
    """Monte Carlo check that chart overlap agrees with orbit membership.

    Points are sampled on the chart at k and asked two independent
    questions: does the membership test put them on the chart at h, and
    does the orbit solver reach them from the reference point.  Any
    disagreement is returned as a counterexample.
    """
    if k == h:
        raise ValueError("overlap needs two distinct chart indices")
    counterexamples = []
    agree = 0
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        point = _sample_point(n, k, rng)
        member = theta_member(point, h, bound)
        orbit = in_O_minus1(point)
        if member == orbit:
            agree += 1
        else:
            counterexamples.append(
                {"point": point.to_data(), "member": member, "orbit": orbit}
            )
    return {
        "n": n,
        "k": k,
        "h": h,
        "samples": samples,
        "agree": agree,
        "counterexamples": counterexamples,
    }
