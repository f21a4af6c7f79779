"""Chart systems: cone inequalities, presentations, walls, the bound."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from stabctl import chart_atlas as ca
from stabctl import exc_collections as xc
from stabctl import pn_model
from stabctl.klattice import EulerMatrix, PhaseToken, gauss


def _basis_collection(entries, euler_rows):
    size = len(euler_rows)
    objs = tuple(
        xc.ExcObject(f"E{i}", tuple(1 if k == i else 0 for k in range(size)))
        for i in range(size)
    )
    euler = EulerMatrix(tuple(tuple(r) for r in euler_rows))
    return xc.make_collection(objs, xc.HomTable(size, entries), euler)


def _triangle():
    return _basis_collection(
        {(0, 1): {0: 3}, (1, 2): {0: 3}, (0, 2): {0: 6}},
        ((1, 3, 6), (0, 1, 3), (0, 0, 1)),
    )


def _alpha_by_chains(table: xc.HomTable, subset) -> float:
    """Independent evaluation: one plus the least sum of k - 1 over every
    chain from end to end."""
    sub = tuple(subset)
    s = len(sub) - 1
    best = math.inf
    for r in range(1, s + 1):
        for middle in combinations(range(1, s), r - 1):
            chain = (0, *middle, s)
            total = 0.0
            for a, b in zip(chain, chain[1:]):
                total += table.min_degree(sub[a], sub[b])
            total -= len(chain) - 2
            best = min(best, total)
    return best


def test_alpha_matches_chain_enumeration():
    rng = random.Random(41)
    for _ in range(300):
        size = rng.randint(2, 5)
        entries = {}
        for i in range(size):
            for j in range(i + 1, size):
                roll = rng.random()
                if roll < 0.25:
                    entries[(i, j)] = {}
                else:
                    entries[(i, j)] = {rng.randint(-2, 3): rng.randint(1, 4)}
        table = xc.HomTable(size, entries)
        for sub_size in range(2, size + 1):
            for sub in combinations(range(size), sub_size):
                got = ca.alpha(table, sub)
                want = _alpha_by_chains(table, sub)
                assert got == want, (entries, sub)


# four objects with one degree-zero hom between each ordered pair, the
# simples of a heart once shifted by (3, 2, 1, 0)
CHAIN4 = {
    "labels": ["A", "B", "C", "D"],
    "classes": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "euler": [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
    "table": {f"{i},{j}": {"0": 1} for i in range(4) for j in range(i + 1, 4)},
}


def test_alpha_is_the_ext_shift_chain_bound():
    c = xc.collection_from_data(CHAIN4)
    got = {con.subset: con.alpha for con in ca.cone_system(c).constraints}
    # each step of a chain costs k - 1 = -1, so a chain of r steps gives 1 - r
    assert got == {
        (0, 1, 2, 3): -2,
        (0, 1, 2): -1,
        (0, 1, 3): -1,
        (0, 2, 3): -1,
        (1, 2, 3): -1,
        (0, 1): 0,
        (0, 2): 0,
        (0, 3): 0,
        (1, 2): 0,
        (1, 3): 0,
        (2, 3): 0,
    }
    assert ca.alpha(_triangle().table, (0, 1, 2)) == -1


def _random_graded_collection(rng: random.Random, size: int):
    """Basis classes with one or two degrees in -2..3 per entry, some entries
    empty; the Euler form is read off the entries."""
    entries = {}
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.2:
                continue
            k = rng.randint(-2, 3)
            e = {k: rng.randint(1, 3)}
            if rng.random() < 0.3:
                e[k + rng.randint(1, 2)] = rng.randint(1, 2)
            entries[(i, j)] = e
            rows[i][j] = xc.chi_of_entry(e)
    return _basis_collection(entries, rows)


def _ext_shift(c, extra):
    """The shift with p_{n-1} = 0 whose p_i exceeds by extra[i] the least value
    that keeps every shifted degree k + p_i - p_j at least one."""
    p = [0] * c.size
    for i in range(c.size - 2, -1, -1):
        bounds = [p[j] + 1 - min(e) for j in range(i + 1, c.size) if (e := c.table.entry(i, j))]
        p[i] = max(bounds, default=0) + extra[i]
    return p


def _random_charge(rng: random.Random):
    # the negative real axis, phase one, half the time: the edge of each heart
    if rng.random() < 0.5:
        return gauss(-rng.randint(1, 3))
    return pn_model._random_half_plane(rng)


def test_every_built_point_lies_in_its_cone():
    rng = random.Random(2601)
    tight = 0
    for _ in range(1200):
        c = _random_graded_collection(rng, rng.randint(2, 6))
        extra = [rng.randint(0, 1) if rng.random() < 0.5 else 0 for _ in range(c.size)]
        p = _ext_shift(c, extra)
        z = [_random_charge(rng) for _ in range(c.size)]
        point = ca.build_stability(c, p, z)
        system = ca.cone_system(c)
        assert ca.contains(system, point) == (True, None), (c, p, z)
        # the bound is met with equality by the least shift along some chain
        for con in system.constraints:
            tight += not math.isinf(con.alpha) and p[con.subset[-1]] - p[con.subset[0]] + 1 == con.alpha
        # one step down wherever a bound is met leaves the Ext shifts
        for i in range(c.size - 1):
            if extra[i] == 0 and any(c.table.entry(i, j) for j in range(i + 1, c.size)):
                lower = p[:i] + [p[i] - 1] + p[i + 1 :]
                with pytest.raises(ValueError, match="not an Ext-collection"):
                    ca.build_stability(c, lower, z)
    assert tight > 1000


def test_alpha_input_validation():
    table = xc.HomTable(3, {(0, 1): {0: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
    with pytest.raises(ValueError):
        ca.alpha(table, (0,))
    with pytest.raises(ValueError):
        ca.alpha(table, (1, 0))


def test_cone_system_order_and_unknown_rejection():
    system = ca.cone_system(_triangle())
    assert tuple(c.subset for c in system.constraints) == (
        (0, 1, 2),
        (0, 1),
        (0, 2),
        (1, 2),
    )
    unknown = xc.mutate(_triangle(), 0, xc.RIGHT)
    with pytest.raises(ValueError):
        ca.cone_system(unknown)


def test_contains_and_first_violation():
    c = _triangle()
    system = ca.cone_system(c)
    point = ca.build_stability(c, (2, 1, 0), (gauss(-1), gauss(-1), gauss(0, 1)))
    ok, violated = ca.contains(system, point)
    assert ok and violated is None
    # pushing the first object two floors down breaks the triple first
    low = ca.ChartPoint(c, (point.tokens[0].shifted(2), point.tokens[1], point.tokens[2]))
    ok, violated = ca.contains(system, low)
    assert not ok
    assert violated.subset == (0, 1, 2)
    with pytest.raises(ValueError):
        ca.contains(system, ca.ChartPoint(c, point.tokens[:2]))


def test_build_stability_validation():
    c = _triangle()
    with pytest.raises(ValueError):
        ca.build_stability(c, (2, 1), (gauss(-1), gauss(-1), gauss(0, 1)))
    with pytest.raises(ValueError):
        ca.build_stability(c, (2, 1, 0), (gauss(1), gauss(-1), gauss(0, 1)))
    with pytest.raises(ValueError):
        ca.build_stability(c, (2, 1, 0), (gauss(0), gauss(-1), gauss(0, 1)))
    # degree zero homs survive a zero shift, so the heart cannot form
    with pytest.raises(ValueError):
        ca.build_stability(c, (0, 0, 0), (gauss(0, 1), gauss(0, 1), gauss(0, 1)))


def test_chart_point_views():
    point = ca.ChartPoint(pn_model.pn_collection(2, 0), pn_model.sigma_minus1(2).tokens)
    data = point.to_data()
    assert ca.tokens_from_data(data) == point.tokens


def test_mutstab_check_verdicts():
    c = _triangle()
    point = ca.build_stability(c, (2, 1, 0), (gauss(-1), gauss(-1), gauss(0, 1)))
    equal_rays = ca.mutstab_check(point, 0, 1)
    assert equal_rays.verdict == "semistable"
    assert equal_rays.token == PhaseToken(gauss(-4), 0)
    below = ca.mutstab_check(point, 1, 2)
    assert below.verdict == "stable"
    assert below.token == PhaseToken(gauss(-1, 3), 0)
    steep = ca.build_stability(c, (2, 1, 0), (gauss(-1, 1), gauss(-1), gauss(0, 1)))
    assert ca.mutstab_check(steep, 0, 1).verdict == "not-applicable"


def test_mutstab_check_requires_degree_one_pair():
    c = _triangle()
    flat = ca.ChartPoint(
        c, (PhaseToken(gauss(-1), 0), PhaseToken(gauss(-1), 0), PhaseToken(gauss(0, 1), 0))
    )
    with pytest.raises(ValueError):
        ca.mutstab_check(flat, 0, 1)
    with pytest.raises(ValueError):
        ca.mutstab_check(flat, 1, 1)
    open_entry = xc.mutate(c, 0, xc.RIGHT)
    moved = ca.ChartPoint(open_entry, flat.tokens)
    with pytest.raises(ValueError):
        ca.mutstab_check(moved, 1, 2)


def test_overlap_witness_shapes():
    w = ca.overlap_witness(_triangle(), 0, mutated_entries={(1, 2): {0: 3}})
    assert w.shifts == (3, 2, 0)
    assert tuple(-t.winding for t in w.point.tokens) == (3, 2, 0)
    assert ca.contains(ca.cone_system(w.mutated), w.mutated_point)[0]


def test_overlap_witness_rejections():
    orth = _basis_collection({(0, 1): {}}, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        ca.overlap_witness(orth, 0)
    wide = _basis_collection({(0, 1): {0: 1, 2: 1}}, ((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        ca.overlap_witness(wide, 0)
    with pytest.raises(ValueError):
        ca.overlap_witness(_triangle(), 2)
    # a deep pair degree forces the witness shift under its lower bounds
    blocked = _basis_collection(
        {(0, 1): {5: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}},
        ((1, -1, 1), (0, 1, 1), (0, 0, 1)),
    )
    with pytest.raises(ValueError):
        ca.overlap_witness(blocked, 0)


def test_metric_bound_properties():
    p = ca.ChartPoint(pn_model.pn_collection(2, 0), pn_model.sigma_minus1(2).tokens)
    assert ca.metric_bound(p, p) == 0.0
    q = ca.ChartPoint(p.collection, tuple(t.shifted(2) for t in p.tokens))
    assert ca.metric_bound(p, q) == 2.0
    assert ca.metric_bound(q, p) == 2.0
    factor = Fraction(27183, 10000)
    scaled = ca.ChartPoint(
        p.collection, tuple(PhaseToken(t.z * factor, t.winding) for t in p.tokens)
    )
    assert math.isclose(ca.metric_bound(p, scaled), 1.0, rel_tol=0, abs_tol=1e-3)
    # explicit witnesses matching the default give the same answer
    default = ca.metric_bound(p, q)
    explicit = ca.metric_bound(p, q, witnesses=((1, 0), (0, 1)))
    assert default == explicit
