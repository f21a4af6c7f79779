"""Representation oracle: hom/ext, subobject scans, stability, filtrations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabctl import _linalg, rep_lab
from stabctl.klattice import (
    CentralCharge,
    OracleBoundError,
    Quiver,
    gauss,
    kronecker_quiver,
)


def _rref_rank(rows: list[list[Fraction]]) -> int:
    """Plain elimination, written out so the check shares no code path."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _hom_ext_by_elimination(m: rep_lab.QuiverRep, n: rep_lab.QuiverRep):
    """Kernel and cokernel of the intertwining map, built from scratch."""
    q = m.quiver
    offs = []
    total = 0
    for v in range(q.vertex_count):
        offs.append(total)
        total += n.dims[v] * m.dims[v]

    def slot(v, i, j):
        return offs[v] + i * m.dims[v] + j

    rows = []
    for idx, (s, t) in enumerate(q.arrows):
        a = m.matrices[idx]
        b = n.matrices[idx]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [Fraction(0)] * total
                for k in range(m.dims[t]):
                    row[slot(t, i, k)] += a[k][j]
                for l in range(n.dims[s]):
                    row[slot(s, l, j)] -= b[i][l]
                rows.append(row)
    rank = _rref_rank(rows) if rows else 0
    hom = total - rank
    ext = len(rows) - rank
    return hom, ext


def _random_rep(quiver, rng, top=3):
    while True:
        dims = tuple(rng.randint(0, top) for _ in range(quiver.vertex_count))
        if any(dims):
            break
    mats = [
        [[Fraction(rng.randint(-3, 3)) for _ in range(dims[s])] for _ in range(dims[t])]
        for s, t in quiver.arrows
    ]
    return rep_lab.make_rep(quiver, dims, mats)


def test_hom_ext_against_direct_elimination():
    rng = random.Random(51)
    quivers = [
        kronecker_quiver(1),
        kronecker_quiver(2),
        kronecker_quiver(3),
        Quiver("a3", 3, ((0, 1), (1, 2))),
        Quiver("fork", 3, ((0, 2), (1, 2), (0, 2))),
    ]
    for quiver in quivers:
        for _ in range(40):
            a = _random_rep(quiver, rng)
            b = _random_rep(quiver, rng)
            he = rep_lab.hom_ext(a, b)
            assert (he.hom, he.ext) == _hom_ext_by_elimination(a, b)
            if quiver.vertex_count == 2:
                # D is an anti-equivalence on the same quiver: Hom(M, N) = Hom(DN, DM)
                assert rep_lab.dual(rep_lab.dual(a)) == a
                hd = rep_lab.hom_ext(rep_lab.dual(b), rep_lab.dual(a))
                assert (hd.hom, hd.ext) == (he.hom, he.ext)
            else:
                with pytest.raises(ValueError):
                    rep_lab.dual(a)


def test_hom_ext_cross_quiver_rejection():
    a = rep_lab.vertex_simple(kronecker_quiver(2), 0)
    b = rep_lab.vertex_simple(kronecker_quiver(3), 0)
    with pytest.raises(ValueError):
        rep_lab.hom_ext(a, b)


def test_hom_ext_modular_path_matches_additivity():
    rng = random.Random(52)
    q = kronecker_quiver(2)
    a = rep_lab.generic_rep(q, (4, 4), seed=1)
    b = rep_lab.generic_rep(q, (4, 4), seed=2)
    c = _random_rep(q, rng, top=4)
    while c.dims != (4, 4):
        c = _random_rep(q, rng, top=4)
    big = rep_lab.direct_sum(a, b)
    he = rep_lab.hom_ext(big, rep_lab.direct_sum(c, c))
    ha = rep_lab.hom_ext(a, c)
    hb = rep_lab.hom_ext(b, c)
    assert he.hom == 2 * (ha.hom + hb.hom)
    assert he.ext == 2 * (ha.ext + hb.ext)


def test_hom_basis_elements_intertwine():
    q = kronecker_quiver(2)
    m = rep_lab.make_rep(
        q,
        (1, 2),
        [[[Fraction(1)], [Fraction(0)]], [[Fraction(0)], [Fraction(1)]]],
    )
    he = rep_lab.hom_ext(m, m, want_basis=True)
    assert he.hom == 1 and he.basis is not None
    for element in he.basis:
        for idx, (s, t) in enumerate(q.arrows):
            a = m.matrices[idx]
            xs, xt = element[s], element[t]
            left = [
                [sum(xt[i][k] * a[k][j] for k in range(m.dims[t])) for j in range(m.dims[s])]
                for i in range(m.dims[t])
            ]
            right = [
                [sum(a[i][l] * xs[l][j] for l in range(m.dims[s])) for j in range(m.dims[s])]
                for i in range(m.dims[t])
            ]
            assert left == right


def test_subrep_dimvec_fixtures():
    q = kronecker_quiver(2)
    sink = rep_lab.vertex_simple(q, 1)
    assert set(rep_lab.subrep_dimvecs(sink).vectors) == {(0, 0), (0, 1)}
    regular = rep_lab.make_rep(q, (1, 1), [[[Fraction(1)]], [[Fraction(2)]]])
    assert set(rep_lab.subrep_dimvecs(regular).vectors) == {(0, 0), (0, 1), (1, 1)}
    split = rep_lab.direct_sum(
        rep_lab.vertex_simple(q, 0), rep_lab.vertex_simple(q, 1)
    )
    assert set(rep_lab.subrep_dimvecs(split).vectors) == {
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    }


def _candidates(scan: rep_lab.SubrepScan) -> set:
    # the random-search certifier is seeded from hash(m), which differs
    # between the two quivers, so compare what enumeration found
    return set(scan.vectors) | set(scan.uncertified)


def test_subrep_dimvecs_on_a_source_one_quiver():
    # the same matrices read on p2 with the vertices swapped; both the
    # direct and the dualized enumeration branch are reached
    flipped = Quiver("q", 2, ((1, 0), (1, 0)))
    rng = random.Random(54)
    cases = 0
    for d0 in range(6):
        for d1 in range(6):
            if not 0 < d0 + d1 <= 8:
                continue
            for _ in range(3):
                mats = [
                    [[Fraction(rng.randint(-1, 1)) for _ in range(d1)] for _ in range(d0)]
                    for _ in range(2)
                ]
                m = rep_lab.make_rep(flipped, (d0, d1), mats)
                ref = rep_lab.make_rep(kronecker_quiver(2), (d1, d0), mats)
                got = _candidates(rep_lab.subrep_dimvecs(m))
                want = {(v1, v0) for v0, v1 in _candidates(rep_lab.subrep_dimvecs(ref))}
                assert got == want, (d0, d1, mats)
                cases += 1
    assert cases == 96


def test_subrep_dimvecs_sees_rational_eigenvectors():
    q = kronecker_quiver(2)
    swap = rep_lab.make_rep(
        q,
        (2, 2),
        [
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
            [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
        ],
    )
    assert (1, 1) in rep_lab.subrep_dimvecs(swap).vectors


def test_oracle_bound_enforcement(monkeypatch):
    monkeypatch.delenv("STABCTL_ORACLE_BOUND", raising=False)
    q = kronecker_quiver(2)
    big = rep_lab.generic_rep(q, (5, 4), seed=3)
    with pytest.raises(OracleBoundError):
        rep_lab.subrep_dimvecs(big)
    assert rep_lab.subrep_dimvecs(big, 12).vectors
    monkeypatch.setenv("STABCTL_ORACLE_BOUND", "20")
    assert rep_lab.default_bound() == 20
    assert rep_lab.subrep_dimvecs(big).vectors


def test_theta_test_verdicts():
    q = kronecker_quiver(2)
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    assert rep_lab.theta_test(rep_lab.vertex_simple(q, 0), charge).verdict == "stable"
    assert rep_lab.theta_test(rep_lab.vertex_simple(q, 1), charge).verdict == "stable"
    regular = rep_lab.make_rep(q, (1, 1), [[[Fraction(1)]], [[Fraction(2)]]])
    assert rep_lab.theta_test(regular, charge).verdict == "stable"
    doubled = rep_lab.direct_sum(regular, regular)
    assert rep_lab.theta_test(doubled, charge).verdict == "semistable-not-stable"
    split = rep_lab.direct_sum(
        rep_lab.vertex_simple(q, 0), rep_lab.vertex_simple(q, 1)
    )
    result = rep_lab.theta_test(split, charge)
    assert result.verdict == "unstable"
    assert result.witness == (1, 0)
    with pytest.raises(ValueError):
        rep_lab.theta_test(rep_lab.zero_rep(q), charge)
    with pytest.raises(ValueError):
        rep_lab.theta_test(split, CentralCharge((gauss(1), gauss(0, 1))))
    with pytest.raises(ValueError):
        rep_lab.theta_test(split, CentralCharge((gauss(0, 1),)))


def test_hn_splits_a_direct_sum_of_simples():
    q = kronecker_quiver(2)
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    split = rep_lab.direct_sum(
        rep_lab.vertex_simple(q, 0), rep_lab.vertex_simple(q, 1)
    )
    factors = rep_lab.hn(split, charge)
    assert [f.dims for f, _ in factors] == [(1, 0), (0, 1)]
    stable = rep_lab.make_rep(q, (1, 1), [[[Fraction(1)]], [[Fraction(2)]]])
    assert [f.dims for f, _ in rep_lab.hn(stable, charge)] == [(1, 1)]
    with pytest.raises(ValueError):
        rep_lab.hn(rep_lab.zero_rep(q), charge)


def test_hn_extractors_agree_on_random_input():
    rng = random.Random(53)
    q = kronecker_quiver(3)
    charge = CentralCharge((gauss(-2, 1), gauss(1, 2)))
    for _ in range(25):
        m = _random_rep(q, rng)
        by_phase = rep_lab.hn(m, charge)
        by_slope = rep_lab.hn(m, charge, extractor="slope")
        assert [f.dims for f, _ in by_phase] == [f.dims for f, _ in by_slope]
        total = tuple(sum(f.dims[v] for f, _ in by_phase) for v in range(2))
        assert total == m.dims
    with pytest.raises(ValueError):
        rep_lab.hn(_random_rep(q, rng), charge, extractor="mass")


def test_rep_text_round_trip():
    q = kronecker_quiver(2)
    m = rep_lab.make_rep(
        q,
        (2, 1),
        [[[Fraction(1, 2), Fraction(-1)]], [[Fraction(0), Fraction(3)]]],
    )
    text = rep_lab.format_rep(m)
    assert rep_lab.parse_rep(text, q) == m
    with pytest.raises(ValueError):
        rep_lab.parse_rep(text, kronecker_quiver(3))
    with pytest.raises(ValueError):
        rep_lab.parse_rep("rep p2 1 1\n1\n", q)
    with pytest.raises(ValueError):
        rep_lab.parse_rep(text + "0 0\n", q)


def test_frac_inverse():
    singular = _linalg.frac_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert _linalg.frac_inverse(singular) is None
    a = _linalg.frac_matrix([[2, 0, 1], [1, 3, -1], [0, 1, 1]])
    inv = _linalg.frac_inverse(a)
    assert _linalg.frac_matmul(a, inv) == _linalg.frac_identity(3)
    with pytest.raises(ValueError):
        _linalg.frac_inverse(_linalg.frac_matrix([[1, 2, 3], [4, 5, 6]]))


def test_generic_rep_is_deterministic():
    q = kronecker_quiver(2)
    assert rep_lab.generic_rep(q, (3, 2), seed=9) == rep_lab.generic_rep(q, (3, 2), seed=9)
    assert rep_lab.generic_rep(q, (3, 2), seed=9) != rep_lab.generic_rep(q, (3, 2), seed=10)


def test_structural_helpers():
    q = kronecker_quiver(2)
    z = rep_lab.zero_rep(q)
    assert z.is_zero() and z.total_dim() == 0
    s = rep_lab.vertex_simple(q, 0)
    assert s.dims == (1, 0) and not s.is_zero()
    both = rep_lab.direct_sum(s, rep_lab.vertex_simple(q, 1))
    assert both.dims == (1, 1)
    assert both.matrices[0] == ((Fraction(0),),)
    with pytest.raises(ValueError):
        rep_lab.make_rep(q, (1, 1), [[[Fraction(1)]]])
