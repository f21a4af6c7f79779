"""Stability charts attached to exceptional collections.

A chart point stores one phase token per object; the cone inequalities that
cut out the chart are generated from the graded Hom table, one strict
inequality per ordered index subset of size at least two, evaluated with
exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import exc_collections as xc
from .klattice import (
    GaussianRational,
    PhaseToken,
    in_half_plane,
    phase_compare,
)


def alpha(table: xc.HomTable, subset) -> float:
    """Phase-gap bound of an ordered index subset (int, or +inf).

    One plus the least sum of k - 1 over the chains of the subset from its
    first index to its last, where k is the least degree of each step's
    entry; an empty step costs +inf.

    This is the bound every point of `build_stability` meets.  A shift p
    moves the degree k of entry (i, j) to k + p_i - p_j, so an Ext shift
    gives p_i - p_j >= 1 - k at each step, and summing along a chain,
    p_last - p_first <= sum(k - 1).  The heart simple E_i[p_i] has its
    phase in (-p_i, -p_i + 1], so
    phi(first) - phi(last) < p_last - p_first + 1 <= alpha.
    """
    sub = tuple(subset)
    if len(sub) < 2:
        raise ValueError("subset needs at least two indices")
    if list(sub) != sorted(set(sub)):
        raise ValueError("subset must be strictly increasing")
    s = len(sub) - 1
    vals: list[float] = [0.0] * (s + 1)
    for i in range(s - 1, -1, -1):
        vals[i] = min(table.min_degree(sub[i], sub[j]) - 1 + vals[j] for j in range(i + 1, s + 1))
    v = vals[0] + 1
    return v if math.isinf(v) else int(v)


@dataclass(frozen=True)
class ConeConstraint:
    """The strict inequality phi(first) < phi(last) + alpha."""

    subset: tuple[int, ...]
    alpha: float

    def to_data(self) -> dict:
        return {
            "subset": list(self.subset),
            "alpha": "inf" if math.isinf(self.alpha) else int(self.alpha),
        }


@dataclass(frozen=True)
class InequalitySystem:
    size: int
    constraints: tuple[ConeConstraint, ...]

    def to_data(self) -> list[dict]:
        return [c.to_data() for c in self.constraints]


def cone_system(c: xc.ExcCollection) -> InequalitySystem:
    """All subset inequalities, largest subsets first, lexicographic within a size."""
    n = c.size
    if c.table.has_unknown():
        raise ValueError("cone system needs a fully exact table")
    constraints = []
    for size in range(n, 1, -1):
        for sub in combinations(range(n), size):
            constraints.append(ConeConstraint(sub, alpha(c.table, sub)))
    return InequalitySystem(n, tuple(constraints))


@dataclass(frozen=True)
class ChartPoint:
    collection: xc.ExcCollection
    tokens: tuple[PhaseToken, ...]

    def to_data(self) -> dict:
        return tokens_to_data(self.tokens)


def tokens_to_data(tokens: tuple[PhaseToken, ...]) -> dict:
    return {"tokens": [{"z": str(t.z), "w": t.winding} for t in tokens]}


def tokens_from_data(data: dict) -> tuple[PhaseToken, ...]:
    return xc._field(
        "tokens",
        data["tokens"],
        lambda ts: tuple(PhaseToken(GaussianRational.parse(t["z"]), xc._json_int(t["w"])) for t in ts),
    )


def contains(system: InequalitySystem, point: ChartPoint) -> tuple[bool, ConeConstraint | None]:
    """Check every cone inequality; returns (ok, first violated constraint)."""
    if len(point.tokens) != system.size:
        raise ValueError("token count does not match the system")
    for con in system.constraints:
        if math.isinf(con.alpha):
            continue
        first = point.tokens[con.subset[0]]
        last = point.tokens[con.subset[-1]]
        if phase_compare(first, last, offset=int(con.alpha)) >= 0:
            return False, con
    return True, None


def build_stability(c: xc.ExcCollection, p, z) -> ChartPoint:
    """Chart point with heart simples E_i[p_i] and central charges z_i.

    Requires every shifted degree k + p_i - p_j to be at least one, so that
    the shifted objects form an Ext-collection, and each z_i to lie in the
    upper half plane extended by the negative real axis.  The point then
    lies inside the cone of c (see `alpha`).
    """
    p = tuple(int(x) for x in p)
    z = tuple(z)
    if len(p) != c.size or len(z) != c.size:
        raise ValueError("shift or charge vector length mismatch")
    for i, zi in enumerate(z):
        if zi.is_zero() or not in_half_plane(zi):
            raise ValueError(f"charge z_{i} = {zi} is not in the allowed half plane")
    for (i, j), e in c.table.items():
        if e is None:
            raise ValueError(f"entry ({i},{j}) is unknown")
        if any(k + p[i] - p[j] < 1 for k in e):
            raise ValueError("shifted collection is not an Ext-collection")
    return ChartPoint(c, tuple(PhaseToken(zi, -pi) for zi, pi in zip(z, p)))


@dataclass(frozen=True)
class MutstabResult:
    verdict: str  # "stable" | "semistable" | "not-applicable"
    token: PhaseToken | None


def mutstab_check(point: ChartPoint, i: int, j: int) -> MutstabResult:
    """Stability of the right mutation of the shifted pair (E_i[p_i], E_j[p_j]).

    Applicable when the shifted pair homs sit in degree one; the mutated
    object is reported by a token on the branch of the pair phases.
    """
    c = point.collection
    if not (0 <= i < j < c.size):
        raise ValueError(f"bad pair ({i},{j})")
    entry = c.table.entry(i, j)
    if entry is None:
        raise ValueError(f"entry ({i},{j}) is unknown")
    if not entry:
        raise ValueError(f"pair ({i},{j}) has no forward homs")
    ti, tj = point.tokens[i], point.tokens[j]
    shifted_degrees = {k - ti.winding + tj.winding for k in entry}
    if shifted_degrees != {1}:
        raise ValueError(
            f"shifted pair homs sit in degrees {sorted(shifted_degrees)}, not in degree 1"
        )
    chi1 = sum(entry.values())
    cmp = phase_compare(PhaseToken(tj.z, 0), PhaseToken(ti.z, 0))
    if cmp > 0:
        return MutstabResult("not-applicable", None)
    token = PhaseToken(chi1 * tj.z + ti.z, 0)
    return MutstabResult("stable" if cmp < 0 else "semistable", token)


@dataclass(frozen=True)
class OverlapWitness:
    point: ChartPoint
    shifts: tuple[int, ...]
    mutated: xc.ExcCollection
    mutated_point: ChartPoint


def overlap_witness(
    c: xc.ExcCollection, j: int, mutated_entries: dict[tuple[int, int], dict[int, int]] | None = None
) -> OverlapWitness:
    """A point lying in the charts of both c and its right mutation at j.

    The shift vector is chosen so the (j, j+1) pair lands in degree one and
    every other pair in degree at least two; charges are -1 and 1+i on the
    mutating pair and i elsewhere.  Unknown entries of the mutated table can
    be supplied through mutated_entries.
    """
    n = c.size
    if not (0 <= j < n - 1):
        raise ValueError(f"no adjacent pair at {j}")
    pair = c.table.entry(j, j + 1)
    if pair is None:
        raise ValueError(f"entry ({j},{j + 1}) is unknown")
    if not pair:
        raise ValueError(f"pair ({j},{j + 1}) is orthogonal, no overlap wall")
    if len(pair) > 1:
        raise ValueError(f"pair ({j},{j + 1}) entry must sit in a single degree")
    (kpair,) = pair
    chi1 = pair[kpair]

    p = [0] * n
    for l in range(n - 2, -1, -1):
        bounds = []
        for t in range(l + 1, n):
            if l == j and t == j + 1:
                continue
            kmin = c.table.min_degree(l, t)
            if not math.isinf(kmin):
                bounds.append(p[t] + 2 - int(kmin))
        if l == j:
            p[l] = p[j + 1] + 1 - kpair
            if bounds and p[l] < max(bounds):
                raise ValueError("no witness shift vector exists for this pair")
        else:
            p[l] = max(bounds, default=0)

    minus_one = GaussianRational(Fraction(-1), Fraction(0))
    one_plus_i = GaussianRational(Fraction(1), Fraction(1))
    eye = GaussianRational(Fraction(0), Fraction(1))
    z = [eye] * n
    z[j] = minus_one
    z[j + 1] = one_plus_i

    point = build_stability(c, p, z)

    mutated = xc.mutate(c, j, xc.RIGHT)
    for (a, b), dims in (mutated_entries or {}).items():
        mutated = xc.resolve_entry(mutated, a, b, dims)

    tokens = list(point.tokens)
    tokens[j] = point.tokens[j + 1]
    tokens[j + 1] = PhaseToken(chi1 * z[j + 1] + z[j], 1 - p[j])
    mutated_point = ChartPoint(mutated, tuple(tokens))

    ok, violated = contains(cone_system(mutated), mutated_point)
    if not ok:
        raise RuntimeError(f"witness fails the mutated chart at {violated}")
    return OverlapWitness(point, tuple(p), mutated, mutated_point)


def _phase_float(token: PhaseToken) -> float:
    return token.winding + math.atan2(float(token.z.im), float(token.z.re)) / math.pi


def metric_bound(p: ChartPoint, q: ChartPoint, witnesses=None) -> float:
    """Lower bound for the stability metric from witness objects.

    Witnesses are non-negative integer combinations of the collection basis
    read as direct sums; phases compare the extremal Harder-Narasimhan
    phases and masses compare total mass, in floating point.
    """
    n = len(p.tokens)
    if len(q.tokens) != n:
        raise ValueError("points live over different collections")
    if witnesses is None:
        witnesses = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    best = 0.0
    for w in witnesses:
        w = tuple(int(x) for x in w)
        if len(w) != n or any(x < 0 for x in w) or all(x == 0 for x in w):
            raise ValueError(f"bad witness vector {w}")
        supp = [i for i, x in enumerate(w) if x > 0]
        pp = [_phase_float(p.tokens[i]) for i in supp]
        qq = [_phase_float(q.tokens[i]) for i in supp]
        mass_p = sum(w[i] * math.sqrt(float(p.tokens[i].mass_sq())) for i in supp)
        mass_q = sum(w[i] * math.sqrt(float(q.tokens[i].mass_sq())) for i in supp)
        best = max(
            best,
            abs(max(pp) - max(qq)),
            abs(min(pp) - min(qq)),
            abs(math.log(mass_p / mass_q)),
        )
    return best
