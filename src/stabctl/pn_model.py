"""Complete stability picture over the two-vertex quiver with n arrows.

The lattice classes, the helix of rigid modules, the adjacent-pair chart
system, chart membership, the reference orbit, and the Monte Carlo overlap
scan all live here.  The helix has one construction: reflections at the
sink going left (Bernstein, Gelfand and Ponomarev 1973), vector-space duals
of those going right, all rigid by the reflection theorem.  Membership and
the orbit are read from the phase gap of the two tokens without the
oracle: the stability chamber of the helix modules is a gap in (0, 1)
(King 1994; Schofield, "Semi-invariants of quivers", 1991), and so is the
GL~+(2,R) orbit of sigma_{-1}.  Everything is exact rational arithmetic;
the only floating point in the package stays in the metric helpers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import exc_collections as xc
from . import rep_lab
from .chart_atlas import tokens_from_data, tokens_to_data
from .gl_action import GLTildeElement, act_tokens
from .klattice import (
    EulerMatrix,
    GaussianRational,
    PhaseToken,
    euler_pair,
    gauss,
    in_half_plane,
    kronecker_quiver,
    phase_compare,
)

__all__ = [
    "PnPoint",
    "StablePairNotFound",
    "aut_shift",
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


def _reflect(rep):
    """The reflection at the sink, read back on the same quiver.

    The new source is the kernel of (A_1 ... A_n): V_src^n -> V_snk, the
    new sink is V_src, and arrow a takes a kernel vector to its a-th block,
    so dims (d0, d1) become (n*d0 - d1, d0) (Bernstein, Gelfand and
    Ponomarev, "Coxeter functors and Gabriel's theorem", 1973).  The kernel
    is that of the integer arrows, each vector primitive (_joint_kernel).
    """
    d0, d1 = rep.dims
    n = len(rep.matrices)
    kern = rep_lab._joint_kernel(rep_lab._integer_arrows(rep)[0], d0)
    if len(kern) != n * d0 - d1:
        raise RuntimeError("the arrows fail to be jointly surjective")
    mats = [[[v[a * d0 + i] for v in kern] for i in range(d0)] for a in range(n)]
    return rep_lab.make_rep(rep.quiver, (len(kern), d0), mats)


@lru_cache(maxsize=None)
def s_rep(n: int, k: int):
    """The k-th rigid module of the helix.

    Going left, S_k for k <= -1 is the reflection at the sink of S_{k+1},
    starting from the vertex simple S_0; an exceptional module is fixed up
    to isomorphism by its dimension vector, so this is the kernel of the
    universal map S_{k+1}^n -> S_{k+2}.  Going right, S_k is the dual of
    S_{1-k}, since the vector-space dual takes preinjectives to
    preprojectives.  Every module is rigid by the reflection theorem: on
    modules with no sink-simple summand (the joint surjectivity _reflect
    checks) the reflection keeps End and the Euler form, so Ext^1 = hom -
    chi too, and duality keeps both.  One arrow's reflections reach the
    sink simple at S_-2 and stop there, so its recursion answers for
    -2 <= k <= 3, one period of its helix and the duals of it.
    """
    if n < 1 or (n == 1 and not -2 <= k <= 3):
        raise ValueError(f"no helix module S({n}, {k}): need n >= 1, and -2 <= k <= 3 for one arrow")
    if k == 0:
        return rep_lab.vertex_simple(kronecker_quiver(n), 0)
    return _reflect(s_rep(n, k + 1)) if k < 0 else rep_lab.dual(s_rep(n, 1 - k))


def _helix_shift(n: int, i: int) -> int:
    """Shift of the i-th helix object over its module.

    For one arrow the helix is periodic of order three up to shift,
    S_{i+3} = S_i[-1]; otherwise the natural shift places it.
    """
    return natural_shift(i % 3) - i // 3 if n == 1 else natural_shift(i)


@lru_cache(maxsize=None)
def helix_module(n: int, i: int):
    """(module, shift) with the i-th helix object the module shifted down.

    s_rep supplies the module, reflections going left and duals going
    right, each rigid by the reflection theorem; for one arrow the helix is
    periodic of order three up to shift, so the module is S_{i mod 3}.  The
    lattice class is checked against the closed recurrence on the spot.
    """
    rep = s_rep(n, i % 3 if n == 1 else i)
    shift = _helix_shift(n, i)
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
    """The adjacent exceptional pair (S_m, S_{m+1}) with its hom table.

    Read off the lattice: no module is built, so every chart answers alike.
    """
    objs = tuple(xc.ExcObject(f"S[{j}]", s_class(n, j), shift=_helix_shift(n, j)) for j in (m, m + 1))
    return xc.make_collection(objs, xc.HomTable(2, {(0, 1): {0: n}}), pn_euler(n))


@dataclass(frozen=True)
class PnPoint:
    """A stability point presented on one adjacent-pair chart.

    base names the chart; the two tokens carry charge and phase of S_base
    and S_{base+1} in that order.  The pair is a presentation only when
    S_{base+1} has the higher phase, so any other pair is refused here.
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
        if phase_compare(toks[1], toks[0]) <= 0:
            raise ValueError("phase order is wrong for a chart presentation: S_{base+1} needs the higher phase")
        object.__setattr__(self, "tokens", toks)

    def to_data(self) -> dict:
        return {"n": self.n, "base": self.base, **tokens_to_data(self.tokens)}


def point_from_data(data: dict) -> PnPoint:
    n = xc._field("n", data["n"], xc._json_int)
    return PnPoint(n, xc._field("base", data["base"], xc._json_int), tokens_from_data(data))


def sigma_minus1(n: int, m: int = 0) -> PnPoint:
    """The reference point on the chart at m: source charge -1, sink charge 1+i.

    S_j is its module (d0, d1) shifted down by the helix shift, so its token
    is the charge -d0 + (1+i) d1 at winding -shift.
    """
    toks = []
    for j in (m, m + 1):
        shift = _helix_shift(n, j)
        sign = -1 if shift % 2 else 1
        d0, d1 = (sign * x for x in s_class(n, j))
        toks.append(PhaseToken(gauss(d1 - d0, d1), -shift))
    return PnPoint(n, m, tuple(toks))


def _cross(a: GaussianRational, b: GaussianRational) -> Fraction:
    return a.re * b.im - a.im * b.re


def theta_member(point: PnPoint, k: int, bound: int | None = None) -> bool:
    """Whether S_k and S_{k+1} are both stable at the presented point.

    Read from the two tokens alone; bound is ignored.  A winding gap of one
    is a module heart, where each non-simple S_j, the general rep of a real
    Schur root, is stable exactly when the sink charge has lower phase than
    the source, c < 0 (King 1994; Schofield 1991); for c > 0 only pairs of
    simples survive, every third chart for one arrow.  A gap of zero with
    c > 0 is in the reference orbit, stable on every chart.  Wider gaps and
    rank-one charges leave only the defining pair, which for one arrow
    recurs every third chart, since S_{j+3} = S_j[-1].  Nothing is refused
    here: PnPoint admits only pairs whose phases increase.
    """
    kk = k - point.base
    return in_O_minus1(point) or (kk % 3 == 0 if point.n == 1 else kk == 0)


def in_O_minus1(p: PnPoint) -> bool:
    """Membership in the orbit of the reference point under the plane action.

    The action moves both charges as an oriented basis and the phases with
    them, so the orbit is the points whose phase gap is in (0, 1).
    """
    t0, t1 = p.tokens
    delta, c = t1.winding - t0.winding, _cross(t0.z, t1.z)
    return (delta == 0 and c > 0) or (delta == 1 and c < 0)


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
    """Index k with S_k, S_{k+1} both stable: always the base chart.

    At kk = 0 the pair is the two vertex simples, which are stable at every
    charge, so window and bound are ignored; PnPoint has validated the
    presentation.  StablePairNotFound stays as the reportable failure of a
    search.
    """
    return point.base


def aut_shift(p: PnPoint, t: int) -> PnPoint:
    """The helix translation: same tokens read on the chart t steps over."""
    return PnPoint(p.n, p.base + t, p.tokens)


def fixed_basis_charge(
    point: PnPoint,
) -> tuple[GaussianRational, GaussianRational]:
    """Charge of the two vertex classes, independent of the chart used.

    Consecutive helix classes (a, b), (c, d) have determinant ad - bc = -1:
    so do S_0 = (-1, 0) and S_1 = (0, 1), and the step (S_k, S_{k+1}) ->
    (S_{k+1}, n S_{k+1} - S_k) keeps it in either direction.  So the charges w of
    the vertex classes, with w.(a, b) = v0 and w.(c, d) = v1, are
    (-d v0 + b v1, c v0 - a v1).
    """
    v0, v1 = (t.charge_value() for t in point.tokens)
    a, b = s_class(point.n, point.base)
    c, d = s_class(point.n, point.base + 1)
    return (-d * v0 + b * v1, c * v0 - a * v1)


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
        ref = sigma_minus1(n, base)
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
) -> dict:
    """Monte Carlo check that chart overlap agrees with orbit membership.

    Points are sampled on the chart at k and asked two questions: does the
    membership test put them on the chart at h, and are they in the orbit
    of the reference point.  Both are closed forms in the phase gap, so
    this checks formula against formula.  Any disagreement is returned
    as a counterexample.  Equal charts are refused, and so, for one arrow,
    are charts a multiple of three apart: S_{j+3} = S_j[-1], so they carry
    one pair up to shift and theta_member holds everywhere on them.
    """
    if k == h:
        raise ValueError("overlap needs two distinct chart indices")
    if n == 1 and (k - h) % 3 == 0:
        raise ValueError(f"for one arrow charts {k} and {h} carry the same pair up to shift")
    if samples < 0:
        raise ValueError(f"overlap needs a nonnegative sample count, not {samples}")
    counterexamples = []
    agree = 0
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        point = _sample_point(n, k, rng)
        member = theta_member(point, h)
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
