"""Exact scalar layer: Gaussian rationals, phase tokens, quivers, Euler forms.

Central charges take values in the Gaussian rationals QQ(i).  A nonzero value
z lying in the half plane

    H = {Im z > 0}  union  {Im z = 0, Re z < 0}

determines a phase in (0, 1] by z/|z| = exp(i*pi*phi).  Arbitrary real phases
are represented exactly by a PhaseToken: a pair (z, winding) with z in H and
an integer winding, standing for the phase winding + phi0(z).  No floating
point enters any comparison; order is decided by the integer winding and the
sign of a cross product of the two rays.

The exponential convention is exp(i*pi*phi) throughout, so phase + 2 returns
to the same ray and winding offsets live in the integers with period-2 charge
sign: the charge value carried by a token is (-1)**winding * z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
import re as _re


class OracleBoundError(RuntimeError):
    """An oracle call exceeded its configured feasibility bound."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_RAT_RE = _re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")  # no zero denominator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"bad rational literal: {text!r}")
    return Fraction(s)


def format_rational(x: Fraction) -> str:
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im*i of QQ(i), both parts exact rationals."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> GaussianRational:
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        c = _as_fraction(other)
        return GaussianRational(self.re * c, self.im * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        if isinstance(other, GaussianRational):
            n = other.abs_sq()
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(
                (self.re * other.re + self.im * other.im) / n,
                (self.im * other.re - self.re * other.im) / n,
            )
        c = _as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division by zero")
        return GaussianRational(self.re / c, self.im / c)

    def abs_sq(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        im_txt = format_rational(abs(self.im)) + "i"
        if self.re == 0:
            return ("-" if self.im < 0 else "") + im_txt
        sign = "-" if self.im < 0 else "+"
        return f"{format_rational(self.re)}{sign}{im_txt}"

    @staticmethod
    def parse(text: str) -> GaussianRational:
        """Parse forms like "-1", "1+1i", "1/2-3/4i", "i", "2i"."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        if not s.endswith("i"):
            return GaussianRational(parse_rational(s), Fraction(0))
        body = s[:-1]
        # split at the last top-level sign that separates re from im
        split = None
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "/+-":
                split = pos
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = parse_rational(im_part)
        re_val = parse_rational(re_part) if re_part else Fraction(0)
        return GaussianRational(re_val, im)


def gauss(re, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def in_half_plane(z: GaussianRational) -> bool:
    """Membership in H = upper half plane joined with the negative real ray.

    Zero is rejected: it supports no phase.
    """
    if z.is_zero():
        raise ValueError("zero has no phase")
    if z.im > 0:
        return True
    return z.im == 0 and z.re < 0


def _cross(p: GaussianRational, q: GaussianRational) -> Fraction:
    return p.re * q.im - p.im * q.re


@dataclass(frozen=True)
class PhaseToken:
    """Exact real phase winding + phi0(z) with z in H, phi0(z) in (0, 1]."""

    z: GaussianRational
    winding: int

    def __post_init__(self):
        if not in_half_plane(self.z):
            raise ValueError("token ray must lie in H; use PhaseToken.make")

    @staticmethod
    def make(z: GaussianRational, winding: int = 0) -> PhaseToken:
        """Normalize an arbitrary nonzero ray into canonical token form.

        A ray outside H is negated, which shifts the represented phase down
        by one, so the winding compensates.
        """
        if z.is_zero():
            raise ValueError("zero has no phase")
        if in_half_plane(z):
            return PhaseToken(z, winding)
        return PhaseToken(-z, winding - 1)

    def shifted(self, k: int) -> PhaseToken:
        """Phase of the k-th shift: adds k to the phase."""
        return PhaseToken(self.z, self.winding + k)

    def charge_value(self) -> GaussianRational:
        """The charge this token came from: (-1)**winding * z."""
        return self.z if self.winding % 2 == 0 else -self.z

    def mass_sq(self) -> Fraction:
        return self.z.abs_sq()


def phase_compare(p: PhaseToken, q: PhaseToken, offset: int = 0) -> int:
    """Exact comparison of phase(p) against phase(q) + offset.

    Returns -1, 0, or 1.  Both phases lie in (winding, winding + 1], so a
    difference in windings decides; equal windings reduce to comparing two
    rays in H, which the sign of the cross product decides.  Equality holds
    iff the rays agree and the windings match.
    """
    wp = p.winding
    wq = q.winding + offset
    if wp != wq:
        return -1 if wp < wq else 1
    c = _cross(p.z, q.z)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


@dataclass(frozen=True)
class CentralCharge:
    """Charge values on an ordered basis of classes."""

    values: tuple[GaussianRational, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> GaussianRational:
        return self.values[k]

    def evaluate(self, klass: tuple[int, ...]) -> GaussianRational:
        if len(klass) != len(self.values):
            raise ValueError("class length does not match charge rank")
        return GaussianRational(
            sum((v.re * c for c, v in zip(klass, self.values)), Fraction(0)),
            sum((v.im * c for c, v in zip(klass, self.values)), Fraction(0)),
        )


@dataclass(frozen=True)
class PhaseOrder:
    """The phase order of the charges Z(v) of dimension vectors v >= 0.

    With every charge value Z_i in H, Z(v) lies in H for each nonzero
    v >= 0, so every winding is 0 and Z(v) has the larger phase exactly when
    cross(Z(v), Z(w)) < 0.  The cross product is bilinear (King 1994):

        cross(Z(v), Z(w)) = sum over i < j of (v_i w_j - v_j w_i) cross(Z_i, Z_j),

    and the k(k-1)/2 weights are scaled to integers by one positive factor,
    so the order is the sign of an integer form and no charge is evaluated.
    """

    weights: tuple[tuple[int, int, int], ...]  # (i, j, scaled cross(Z_i, Z_j)) for i < j

    @staticmethod
    def of(charge: CentralCharge) -> PhaseOrder:
        """The order of a charge whose values all lie in H (not checked here)."""
        k = len(charge)
        pairs = [(i, j, _cross(charge[i], charge[j])) for i in range(k) for j in range(i + 1, k)]
        scale = math.lcm(*(c.denominator for _, _, c in pairs))
        return PhaseOrder(tuple((i, j, int(c * scale)) for i, j, c in pairs if c))

    def cross(self, v, w) -> int:
        """A positive multiple of cross(Z(v), Z(w))."""
        return sum(c * (v[i] * w[j] - v[j] * w[i]) for i, j, c in self.weights)

    def compare(self, v, w) -> int:
        """phase(Z(v)) against phase(Z(w)) as -1, 0 or 1, like phase_compare."""
        c = self.cross(v, w)
        return (c < 0) - (c > 0)


# -- quivers and Euler forms ----------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """Finite quiver without loops, required acyclic.

    Acyclicity keeps the path algebra finite dimensional and hereditary,
    which the representation oracle depends on.
    """

    name: str
    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows))
        if self.vertex_count < 1:
            raise ValueError("quiver needs at least one vertex")
        for s, t in self.arrows:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"arrow ({s},{t}) out of range")
            if s == t:
                raise ValueError(f"loop at vertex {s} not allowed")
        if self.topological_order() is None:
            raise ValueError("quiver has an oriented cycle")

    def topological_order(self) -> tuple[int, ...] | None:
        indeg = [0] * self.vertex_count
        for _, t in self.arrows:
            indeg[t] += 1
        ready = [v for v in range(self.vertex_count) if indeg[v] == 0]
        order: list[int] = []
        while ready:
            v = min(ready)
            ready.remove(v)
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
        if len(order) != self.vertex_count:
            return None
        return tuple(order)


def kronecker_quiver(n: int) -> Quiver:
    """Two vertices, n parallel arrows source -> sink."""
    if n < 1:
        raise ValueError("need at least one arrow")
    return Quiver(f"p{n}", 2, tuple((0, 1) for _ in range(n)))


@dataclass(frozen=True)
class EulerMatrix:
    """Gram matrix of the Euler pairing on the vertex-class lattice."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        k = len(rows)
        for row in rows:
            if len(row) != k:
                raise ValueError("Euler matrix must be square")

    @property
    def rank(self) -> int:
        return len(self.entries)


@lru_cache(maxsize=None)
def euler_matrix(q: Quiver) -> EulerMatrix:
    """Euler form of the path algebra: identity minus the adjacency count.

    A Quiver and its EulerMatrix are frozen, so each quiver's is built once.
    """
    k = q.vertex_count
    m = [[0] * k for _ in range(k)]
    for v in range(k):
        m[v][v] = 1
    for s, t in q.arrows:
        m[s][t] -= 1
    return EulerMatrix(tuple(tuple(row) for row in m))


def euler_pair(m: EulerMatrix, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Evaluate <a, b> = a^T M b."""
    k = m.rank
    if len(a) != k or len(b) != k:
        raise ValueError("class length does not match lattice rank")
    total = 0
    for i in range(k):
        row = m.entries[i]
        ai = a[i]
        if ai == 0:
            continue
        total += ai * sum(row[j] * b[j] for j in range(k))
    return total
