"""Self-checking suites exercising every component against its contract.

Each suite draws seeded random instances, checks an identity or a frozen
fixture, and returns a case count with reproducer strings for failures;
run_suite names and times it.  The suites are pure functions of their
fixed seeds, so a clean run is reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import chart_atlas as ca
from . import exc_collections as xc
from . import gl_action
from . import pn_model as pn
from . import rep_lab
from .klattice import (
    CentralCharge,
    EulerMatrix,
    GaussianRational,
    PhaseToken,
    euler_matrix,
    euler_pair,
    gauss,
    in_half_plane,
    kronecker_quiver,
    phase_compare,
)

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_all"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_data(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": list(self.failures),
            "elapsed": round(self.elapsed, 3),
            "passed": self.passed,
        }


# -- suite 1: mutation identities -------------------------------------------


def _random_collection(rng: random.Random, size: int) -> xc.ExcCollection:
    entries = {}
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = 1
    for i in range(size):
        for j in range(i + 1, size):
            chi = rng.randint(-4, 4)
            m[i][j] = chi
            if chi > 0:
                entries[(i, j)] = {rng.choice((0, 2)): chi}
            elif chi < 0:
                entries[(i, j)] = {1: -chi}
    objs = tuple(
        xc.ExcObject(f"E{i}", tuple(1 if k == i else 0 for k in range(size)))
        for i in range(size)
    )
    euler = EulerMatrix(tuple(tuple(row) for row in m))
    return xc.make_collection(objs, xc.HomTable(size, entries), euler)


def _force_pair(c: xc.ExcCollection, i: int) -> xc.ExcCollection:
    # compositions can leave the next mutating pair unknown; fill it with
    # the canonical single-degree table the Euler form allows
    if c.table.entry(i, i + 1) is not None:
        return c
    chi = euler_pair(c.euler, c.objects[i].kclass, c.objects[i + 1].kclass)
    dims = {0: chi} if chi > 0 else ({1: -chi} if chi < 0 else {})
    return xc.resolve_entry(c, i, i + 1, dims)


def _mut(c: xc.ExcCollection, i: int, direction: str) -> xc.ExcCollection:
    out = xc.mutate(_force_pair(c, i), i, direction)
    # mutate builds its result without revalidation; make_collection is the
    # reference and re-checks every pair and every entry of it
    xc.make_collection(out.objects, out.table, out.euler)
    return out


def _classes(c: xc.ExcCollection) -> tuple:
    return tuple(o.kclass for o in c.objects)


def suite_braid() -> tuple[int, list[str]]:
    rng = random.Random(97)
    failures = []
    cases = 0
    for trial in range(1000):
        size = rng.randint(2, 4)
        c = _random_collection(rng, size)
        tag = f"collection trial={trial} size={size}"
        try:
            for i in range(size - 1):
                for first, second in ((xc.RIGHT, xc.LEFT), (xc.LEFT, xc.RIGHT)):
                    rt = _mut(_mut(c, i, first), i, second)
                    cases += 1
                    if _classes(rt) != _classes(c):
                        failures.append(f"{tag}: {second} after {first} at {i} moved classes")
                        continue
                    for (a, b), entry in rt.table.items():
                        if entry is not None and dict(entry) != dict(c.table.entry(a, b)):
                            failures.append(
                                f"{tag}: round trip at {i} changed exact entry ({a},{b})"
                            )
            for i in range(size - 2):
                cases += 1
                lhs = _mut(_mut(_mut(c, i, xc.RIGHT), i + 1, xc.RIGHT), i, xc.RIGHT)
                rhs = _mut(_mut(_mut(c, i + 1, xc.RIGHT), i, xc.RIGHT), i + 1, xc.RIGHT)
                if _classes(lhs) != _classes(rhs):
                    failures.append(f"{tag}: braid at ({i},{i + 1}) broke")
            if size == 4:
                cases += 1
                lhs = _mut(_mut(c, 0, xc.RIGHT), 2, xc.RIGHT)
                rhs = _mut(_mut(c, 2, xc.RIGHT), 0, xc.RIGHT)
                if _classes(lhs) != _classes(rhs):
                    failures.append(f"{tag}: distant mutations at 0 and 2 do not commute")
        except ValueError as exc:
            failures.append(f"{tag}: {exc}")
    return cases, failures


# -- suite 2: hom minus ext equals the Euler pairing ------------------------


def _random_rep(quiver, rng: random.Random) -> rep_lab.QuiverRep:
    while True:
        dims = tuple(rng.randint(0, 4) for _ in range(quiver.vertex_count))
        if any(dims):
            break
    mats = []
    for s, t in quiver.arrows:
        mats.append(
            [[Fraction(rng.randint(-3, 3)) for _ in range(dims[s])] for _ in range(dims[t])]
        )
    return rep_lab.make_rep(quiver, dims, mats)


def suite_euler_hom() -> tuple[int, list[str]]:
    rng = random.Random(211)
    failures = []
    cases = 0
    for n in (1, 2, 3):
        quiver = kronecker_quiver(n)
        em = euler_matrix(quiver)
        for trial in range(100):
            a = _random_rep(quiver, rng)
            b = _random_rep(quiver, rng)
            he = rep_lab.hom_ext(a, b)
            cases += 1
            if he.hom - he.ext != euler_pair(em, a.dims, b.dims):
                failures.append(
                    f"n={n} trial={trial}: hom {he.hom} ext {he.ext} "
                    f"dims {a.dims}->{b.dims} misses the pairing"
                )
    return cases, failures


# -- suite 3: hom concentration along the helix -----------------------------


def suite_helix_law() -> tuple[int, list[str]]:
    failures = []
    cases = 0
    # the diagonal, hom_ext(S, S) = (1, 0), is the rigidity check the build
    # leaves to the reflection theorem.  The 169 n=3 pairs of S_-6..S_6 take
    # about 0.8 s and 50 MB (2 CPUs, Python 3.11), most of it the left
    # kernel of S_-6's stacked arrows; the reduced system itself is ranked
    # from its nonzero entries
    for n, k in ((2, 4), (3, 6)):
        for i in range(-k, k + 1):
            for j in range(-k, k + 1):
                degree, dim = (0, 1) if i == j else pn.module_hom_prediction(n, i, j)
                he = rep_lab.hom_ext(pn.helix_module(n, i)[0], pn.helix_module(n, j)[0])
                expected = (dim, 0) if degree == 0 else (0, dim)
                cases += 1
                if (he.hom, he.ext) != expected:
                    failures.append(
                        f"n={n} pair ({i},{j}): got ({he.hom},{he.ext}), "
                        f"predicted degree {degree} dimension {dim}"
                    )
    return cases, failures


# -- suite 4: the central fixture and the class recursion -------------------


def _special_ray_phase(z: GaussianRational) -> Fraction | None:
    if z.im == 0 and z.re < 0:
        return Fraction(1)
    if z.im == z.re and z.re > 0:
        return Fraction(1, 4)
    return None


def suite_sigma_fixture() -> tuple[int, list[str]]:
    failures = []
    cases = 0
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    for n in (2, 3):
        point = pn.sigma_minus1(n)
        cases += 1
        if point.tokens != (PhaseToken(gauss(-1), -1), PhaseToken(gauss(1, 1), 0)):
            failures.append(f"n={n}: reference point tokens moved")
            continue
        phases = tuple(
            t.winding + pn.natural_shift(k) + _special_ray_phase(t.z)
            for k, t in enumerate(point.tokens)
        )
        cases += 1
        if phases != (Fraction(1), Fraction(1, 4)):
            failures.append(f"n={n}: heart phases {phases} are not (1, 1/4)")
    for i in range(-5, 6):
        cases += 1
        verdict = rep_lab.theta_test(pn.s_rep(2, i), charge, 12).verdict
        if verdict != "stable":
            failures.append(f"n=2 object {i}: oracle verdict {verdict}")
    for i in range(-2, 3):
        cases += 1
        verdict = rep_lab.theta_test(pn.s_rep(3, i), charge, 12).verdict
        if verdict != "stable":
            failures.append(f"n=3 object {i}: oracle verdict {verdict}")
    for n in (1, 2, 3, 4):
        em = pn.pn_euler(n)
        for i in range(-10, 11):
            c0, c1 = pn.s_class(n, i), pn.s_class(n, i + 1)
            cases += 1
            if i <= 8:
                c2 = pn.s_class(n, i + 2)
                if c2 != (n * c1[0] - c0[0], n * c1[1] - c0[1]):
                    failures.append(f"n={n} index {i}: class recursion broke")
                    continue
            if (
                euler_pair(em, c0, c0) != 1
                or euler_pair(em, c0, c1) != n
                or euler_pair(em, c1, c0) != 0
            ):
                failures.append(f"n={n} index {i}: pairing is not unipotent upper {n}")
    return cases, failures


# -- suite 5: chart membership against the oracle and the orbit solver ----


def _member_by_oracle(point: pn.PnPoint, k: int, bound: int = 12) -> bool:
    """Chart membership through King's test on the two modules of chart k.

    The reference for the closed form of pn.theta_member: a winding gap of
    one asks theta_test, a gap of zero is first moved to the reference
    charges by the plane action, and wider gaps or rank-one charges keep
    only the defining pair.  One arrow's helix repeats up to shift every
    three charts, so its chart offset is read mod 3.
    """
    kk = k - point.base
    if point.n == 1:
        kk %= 3
    t0, t1 = point.tokens
    delta = t1.winding - t0.winding
    c = pn._cross(t0.z, t1.z)
    if delta < 0 or (delta == 0 and c <= 0):
        raise ValueError("not a chart presentation")
    if c == 0 or delta >= 2:
        return kk == 0
    if delta == 0:
        g = gl_action.GLTildeElement(
            ((t0.z.re, t1.z.re - t0.z.re), (t0.z.im, t1.z.im - t0.z.im)), 0
        )
        moved = gl_action.act_tokens(g, point.tokens)
        if (moved[0].z, moved[1].z) != (gauss(-1), gauss(1, 1)):
            raise RuntimeError("normalization missed the reference charges")
        if moved[1].winding - moved[0].winding != 1:
            raise RuntimeError("normalization missed the module heart")
        return _member_by_oracle(pn.PnPoint(point.n, point.base, moved), k, bound)
    charge = CentralCharge((t0.z, t1.z))
    for j in (kk, kk + 1):
        if rep_lab.theta_test(pn.helix_module(point.n, j)[0], charge, bound).verdict != "stable":
            return False
    return True


def _orbit_by_solver(point: pn.PnPoint) -> bool:
    ref = pn.sigma_minus1(point.n, point.base)
    return gl_action.orbit_solve(ref, point) is not None


def suite_overlap() -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for n in (2, 3):
        for k, h in ((0, 1), (0, 2), (1, 2)):
            seed = 100 * n + 10 * k + h
            for i in range(500):
                point = pn._sample_point(n, k, random.Random(f"{seed}:{i}"))
                cases += 1
                member = pn.theta_member(point, h)
                orbit = pn.in_O_minus1(point)
                if member != orbit:
                    failures.append(
                        f"n={n} charts ({k},{h}): member {member} orbit {orbit} "
                        f"at {point.to_data()}"
                    )
                if member != _member_by_oracle(point, h, 12):
                    failures.append(
                        f"n={n} charts ({k},{h}): member {member} disagrees with "
                        f"the oracle at {point.to_data()}"
                    )
                if orbit != _orbit_by_solver(point):
                    failures.append(
                        f"n={n} chart {k}: orbit {orbit} disagrees with the orbit "
                        f"solver at {point.to_data()}"
                    )
    return cases, failures


# -- suite 6: every presentation has a stable adjacent pair -----------------


def suite_stable_pair() -> tuple[int, list[str]]:
    """The search finds the base chart, and the membership of every chart
    within two of the base is the base alone or, in the reference orbit,
    every chart, by the closed form and by the oracle alike."""
    failures = []
    cases = 0
    for trial in range(1000):
        rng = random.Random(f"pair:{trial}")
        base = rng.randint(-2, 2)
        point = pn._sample_point(2, base, rng)
        orbit = pn.in_O_minus1(point)
        for h in range(base - 2, base + 3):
            cases += 1
            member = pn.theta_member(point, h)
            if member != (h == base or orbit):
                failures.append(
                    f"trial={trial} chart {h}: member {member} with base {base} "
                    f"and orbit {orbit} at {point.to_data()}"
                )
            if member != _member_by_oracle(point, h):
                failures.append(
                    f"trial={trial} chart {h}: member {member} disagrees with "
                    f"the oracle at {point.to_data()}"
                )
        cases += 1
        try:
            k = pn.find_stable_pair(point, window=20)
            if k != base:
                failures.append(f"trial={trial} base={base}: found chart {k}")
            elif not _member_by_oracle(point, k):
                failures.append(
                    f"trial={trial} base={base}: the oracle finds the pair "
                    f"unstable at {point.to_data()}"
                )
        except Exception as exc:  # any failure is a reportable case
            failures.append(f"trial={trial} base={base}: {type(exc).__name__}: {exc}")
    return cases, failures


# -- suite 7: the length-three fixture --------------------------------------


def _triangle_collection() -> xc.ExcCollection:
    euler = EulerMatrix(((1, 3, 6), (0, 1, 3), (0, 0, 1)))
    table = xc.HomTable(3, {(0, 1): {0: 3}, (1, 2): {0: 3}, (0, 2): {0: 6}})
    objs = (
        xc.ExcObject("E0", (1, 0, 0)),
        xc.ExcObject("E1", (0, 1, 0)),
        xc.ExcObject("E2", (0, 0, 1)),
    )
    return xc.make_collection(objs, table, euler)


def suite_triangle_fixture() -> tuple[int, list[str]]:
    failures = []

    def check(label: str, got, want) -> None:
        if got != want:
            failures.append(f"{label}: got {got!r}, expected {want!r}")

    c = _triangle_collection()

    m0 = xc.mutate(c, 0, xc.RIGHT)
    check("right mutation at 0, classes", _classes(m0), ((0, 1, 0), (-1, 3, 0), (0, 0, 1)))
    check("right mutation at 0, pair entry", m0.table.entry(0, 1), {0: 3})
    check("right mutation at 0, copied entry", m0.table.entry(0, 2), {0: 3})
    check("right mutation at 0, open entry", m0.table.entry(1, 2), None)
    m0r = xc.resolve_entry(m0, 1, 2, {0: 3})

    m1 = xc.mutate(c, 1, xc.RIGHT)
    check("right mutation at 1, classes", _classes(m1), ((1, 0, 0), (0, 0, 1), (0, -1, 3)))
    check("right mutation at 1, copied entry", m1.table.entry(0, 1), {0: 6})
    check("right mutation at 1, open entry", m1.table.entry(0, 2), None)
    xc.resolve_entry(m1, 0, 2, {0: 15})

    point = ca.build_stability(c, (2, 1, 0), (gauss(-1), gauss(-1), gauss(0, 1)))
    check(
        "fixture point tokens",
        point.tokens,
        (
            PhaseToken(gauss(-1), -2),
            PhaseToken(gauss(-1), -1),
            PhaseToken(gauss(0, 1), 0),
        ),
    )

    ms = ca.mutstab_check(point, 0, 1)
    check("mutation stability verdict", ms.verdict, "semistable")
    check("mutation stability token", ms.token, PhaseToken(gauss(-4), 0))

    moved = ca.ChartPoint(
        m0r, (point.tokens[1], PhaseToken(gauss(-4), -1), point.tokens[2])
    )
    ok, violated = ca.contains(ca.cone_system(m0r), moved)
    check("moved point containment", ok, False)
    if violated is None:
        failures.append("moved point containment: no violated constraint reported")
    else:
        check("violated subset", violated.subset, (0, 1, 2))
        check("violated bound", violated.alpha, -1)

    return 9, failures


# -- suite 8: filtration invariants -----------------------------------------


def _random_charge(rng: random.Random) -> CentralCharge:
    values = []
    while len(values) < 2:
        z = gauss(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(0, 6), 2))
        if not z.is_zero() and in_half_plane(z):
            values.append(z)
    return CentralCharge(tuple(values))


def suite_hn() -> tuple[int, list[str]]:
    rng = random.Random(613)
    failures = []
    cases = 0
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        quiver = kronecker_quiver(n)
        while True:
            dims = (rng.randint(0, 3), rng.randint(0, 3))
            if any(dims):
                break
        mats = [
            [[Fraction(rng.randint(-2, 2)) for _ in range(dims[0])] for _ in range(dims[1])]
            for _ in quiver.arrows
        ]
        m = rep_lab.make_rep(quiver, dims, mats)
        charge = _random_charge(rng)
        tag = f"trial={trial} n={n} dims={dims}"
        cases += 1
        factors = rep_lab.hn(m, charge, 12)
        verdict = rep_lab.theta_test(m, charge, 12).verdict
        if (len(factors) == 1) != (verdict != "unstable"):
            failures.append(f"{tag}: {len(factors)} factors but theta verdict {verdict}")
        for (fa, ta), (fb, tb) in zip(factors, factors[1:]):
            if phase_compare(ta, tb) <= 0:
                failures.append(f"{tag}: factor phases fail to decrease")
        totals = tuple(
            sum(f.dims[v] for f, _ in factors) for v in range(quiver.vertex_count)
        )
        if totals != m.dims:
            failures.append(f"{tag}: factor dimensions {totals} do not refill {m.dims}")
        for k, (f, _) in enumerate(factors):
            if rep_lab.theta_test(f, charge, 12).verdict == "unstable":
                failures.append(f"{tag}: factor {k} is unstable")
            again = rep_lab.hn(f, charge, 12)
            if len(again) != 1 or again[0][0].dims != f.dims:
                failures.append(f"{tag}: factor {k} refiltrates")
        by_slope = rep_lab.hn(m, charge, 12, extractor="slope")
        if [f.dims for f, _ in by_slope] != [f.dims for f, _ in factors]:
            failures.append(f"{tag}: slope and phase extractors disagree")
    return cases, failures


# -- suite 9: chart overlap witnesses ---------------------------------------


def suite_witness() -> tuple[int, list[str]]:
    failures = []

    def check(label: str, got, want) -> None:
        if got != want:
            failures.append(f"{label}: got {got!r}, expected {want!r}")

    for n in (2, 3):
        w = ca.overlap_witness(pn.pn_collection(n, 0), 0)
        check(f"n={n} shift vector", w.shifts, (1, 0))
        check(
            f"n={n} witness tokens",
            w.point.tokens,
            (PhaseToken(gauss(-1), -1), PhaseToken(gauss(1, 1), 0)),
        )
        check(
            f"n={n} mutated tokens",
            w.mutated_point.tokens,
            (PhaseToken(gauss(1, 1), 0), PhaseToken(gauss(n - 1, n), 0)),
        )
        point = pn.PnPoint(n, 0, w.point.tokens)
        for k in (0, 1):
            if not pn.theta_member(point, k):
                failures.append(f"n={n}: witness point left the chart at {k}")

    c = _triangle_collection()
    w0 = ca.overlap_witness(c, 0, mutated_entries={(1, 2): {0: 3}})
    check("triple witness at 0, shifts", w0.shifts, (3, 2, 0))
    check("triple witness at 0, classes", _classes(w0.mutated), ((0, 1, 0), (-1, 3, 0), (0, 0, 1)))
    w1 = ca.overlap_witness(c, 1, mutated_entries={(0, 2): {0: 15}})
    check("triple witness at 1, shifts", w1.shifts, (3, 1, 0))
    check("triple witness at 1, classes", _classes(w1.mutated), ((1, 0, 0), (0, 0, 1), (0, -1, 3)))

    return 14, failures


# -- suite 10: the helix translation on presentations -----------------------


def suite_aut() -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for n in (1, 2, 3):
        for trial in range(100):
            rng = random.Random(f"aut:{n}:{trial}")
            base = rng.randint(-2, 2)
            point = pn._sample_point(n, base, rng)
            w = pn.fixed_basis_charge(point)
            wp = pn.fixed_basis_charge(pn.aut_shift(point, 1))
            cases += 1
            if (-wp[1], wp[0] + wp[1] * Fraction(n)) != w:
                failures.append(
                    f"n={n} trial={trial}: translated charge fails the transport law"
                )
            t = rng.randint(-2, 2)
            k = base + rng.randint(0, 1)
            cases += 1
            if pn.theta_member(point, k) != pn.theta_member(
                pn.aut_shift(point, t), k + t
            ):
                failures.append(
                    f"n={n} trial={trial}: membership at {k} moved under translation {t}"
                )
            if n == 1:
                # S_{j+3} = S_j[-1]: one arrow's charts repeat every third step
                cases += 1
                if pn.theta_member(point, k) != pn.theta_member(point, k + 3 * t):
                    failures.append(
                        f"n=1 trial={trial}: membership at {k} and {k + 3 * t} differ"
                    )
    return cases, failures


# -- suite 11: the comparison bound -----------------------------------------


def suite_metric() -> tuple[int, list[str]]:
    failures = []
    p = pn.sigma_minus1(2)

    d_self = ca.metric_bound(p, p)
    if d_self != 0.0:
        failures.append(f"self distance {d_self} is not zero")

    shifted = replace(
        p, tokens=tuple(PhaseToken(t.z, t.winding + 2) for t in p.tokens)
    )
    d_shift = ca.metric_bound(p, shifted)
    if d_shift < 2 - 1e-9:
        failures.append(f"double shift distance {d_shift} fell under 2")

    factor = Fraction(27183, 10000)
    scaled = replace(
        p, tokens=tuple(PhaseToken(t.z * factor, t.winding) for t in p.tokens)
    )
    d_scale = ca.metric_bound(p, scaled)
    if not math.isclose(d_scale, 1.0, rel_tol=0, abs_tol=1e-3):
        failures.append(f"scaling by 2.7183 gave distance {d_scale}, expected about 1")

    return 3, failures


# -- driver -----------------------------------------------------------------

_SUITES = {
    "braid": suite_braid,
    "euler-hom": suite_euler_hom,
    "helix-law": suite_helix_law,
    "sigma-fixture": suite_sigma_fixture,
    "overlap": suite_overlap,
    "stable-pair": suite_stable_pair,
    "triangle-fixture": suite_triangle_fixture,
    "hn": suite_hn,
    "witness": suite_witness,
    "aut": suite_aut,
    "metric": suite_metric,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}, pick from {', '.join(SUITE_NAMES)}")
    start = time.perf_counter()
    cases, failures = _SUITES[name]()
    return SuiteResult(name, cases, tuple(failures), time.perf_counter() - start)


def run_all() -> list[SuiteResult]:
    return [run_suite(name) for name in SUITE_NAMES]
