"""Representation oracle: hom/ext, subobject scans, stability, filtrations."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabctl import _linalg, pn_model, rep_lab
from stabctl.klattice import (
    CentralCharge,
    OracleBoundError,
    PhaseToken,
    Quiver,
    euler_matrix,
    euler_pair,
    gauss,
    kronecker_quiver,
    phase_compare,
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


def _random_rep(quiver, rng, top=3, dims=None):
    while dims is None:
        dims = tuple(rng.randint(0, top) for _ in range(quiver.vertex_count))
        if not any(dims):
            dims = None
    mats = [
        [[Fraction(rng.randint(-3, 3)) for _ in range(dims[s])] for _ in range(dims[t])]
        for s, t in quiver.arrows
    ]
    return rep_lab.make_rep(quiver, dims, mats)


def test_hom_ext_against_direct_elimination(monkeypatch):
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
    # larger systems, with the smaller reduced system on the dual side
    solved = []
    reduced = rep_lab._hom_mod_p_reduced
    monkeypatch.setattr(
        rep_lab, "_hom_mod_p_reduced", lambda m, n, p: solved.append((m.dims, n.dims)) or reduced(m, n, p)
    )
    for quiver, dm, dn in ((kronecker_quiver(2), (2, 10), (3, 12)), (kronecker_quiver(3), (1, 12), (3, 11))):
        a, b = (_random_rep(quiver, rng, dims=d) for d in (dm, dn))
        he = rep_lab.hom_ext(a, b)
        assert he.method.startswith("mod-")
        assert solved[-1] == (dn[::-1], dm[::-1])
        assert rep_lab.hom_ext(rep_lab.dual(b), rep_lab.dual(a)) is he
        assert (he.hom, he.ext) == _hom_ext_by_elimination(a, b)


def test_hom_ext_reduced_system_with_a_singular_target_stack(monkeypatch):
    # a p2 target of dims (7, 3) stacks two 3x7 matrices into a 6x7 matrix,
    # whose kernel is never zero; neither pair is routed to its dual, and the
    # systems have 26 and 130 unknowns
    q = kronecker_quiver(2)
    rng = random.Random(55)
    solved = []
    reduced = rep_lab._hom_mod_p_reduced
    monkeypatch.setattr(
        rep_lab, "_hom_mod_p_reduced", lambda m, n, p: solved.append(n.dims) or reduced(m, n, p)
    )

    def no_full_system(m, n, p):
        raise AssertionError("parallel quivers use the reduced system")

    monkeypatch.setattr(rep_lab, "_hom_mod_p_full", no_full_system)
    for dm in ((2, 4), (10, 20)):
        a, b = _random_rep(q, rng, dims=dm), _random_rep(q, rng, dims=(7, 3))
        he = rep_lab.hom_ext(a, b)
        assert solved[-1] == (7, 3)
        assert he.method.startswith("mod-")
        assert (he.hom, he.ext) == _hom_ext_by_elimination(a, b)


def _sparse_rep(quiver, rng, dims):
    """Entries mostly zero, so the stacked arrows are often singular."""
    mats = [
        [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dims[s])] for _ in range(dims[t])]
        for s, t in quiver.arrows
    ]
    return rep_lab.make_rep(quiver, dims, mats)


def test_reduced_system_against_the_full_system():
    # parallel p1/p2/p3 pairs, either way round, with zero dims on either
    # side and singular target stacks; the reduced system reads the target's
    # left kernel from its memo, so each target is also solved cold
    rng = random.Random(60)
    quivers = [kronecker_quiver(k) for k in (1, 2, 3)] + [Quiver("back", 2, ((1, 0), (1, 0)))]
    cases = [(kronecker_quiver(2), (2, 4), (7, 3)), (kronecker_quiver(2), (3, 1), (0, 0))]
    for quiver in quivers:
        for _ in range(25):
            dm, dn = ((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2))
            cases.append((quiver, dm, dn))
    singular = 0
    for quiver, dm, dn in cases:
        make = rng.choice((_sparse_rep, lambda q, r, dims: _random_rep(q, r, dims=dims)))
        m, n = make(quiver, rng, dm), make(quiver, rng, dn)
        for p in rep_lab.LARGE_PRIMES:
            want = rep_lab._hom_mod_p_full(m, n, p)
            cold = rep_lab.make_rep(quiver, n.dims, n.matrices)
            assert rep_lab._hom_mod_p_reduced(m, cold, p) == want
            assert rep_lab._hom_mod_p_reduced(m, n, p) == want
            assert ("left-kernel", p) in n._memo()
            assert rep_lab._hom_mod_p_reduced(m, n, p) == want
            _assert_entries_match_the_dense_system(m, n, p)
            rank_sb = rep_lab._target_kernel(n, p)[2]
            singular += rank_sb < len(quiver.arrows) * n.dims[1 - rep_lab._source_vertex(quiver)]
    assert singular >= 100


def _dense_reduced_system(m, n, p: int) -> np.ndarray:
    """The reduced sink system as one dense einsum of Y and the source arrows."""
    src = rep_lab._source_vertex(m.quiver)
    narr, snk = len(m.quiver.arrows), 1 - src
    sb = np.array(rep_lab._stack_mod_p(n, p)).reshape(narr * n.dims[snk], n.dims[src])
    y = _linalg.mod_p_kernel(sb.T, p)
    y3 = y.reshape(y.shape[0], narr, n.dims[snk])
    t = np.einsum("rai,akj->rjik", y3, rep_lab._stack_mod_p(m, p)) % p
    return t.reshape(y.shape[0] * m.dims[src], n.dims[snk] * m.dims[snk])


def _assert_entries_match_the_dense_system(m, n, p: int) -> None:
    rows, cols, vals, shape = rep_lab._reduced_entries(m, n, p)
    want = _dense_reduced_system(m, n, p)
    assert shape == want.shape
    # nonzero, reduced, at distinct positions in row-major order
    assert ((vals > 0) & (vals < p)).all()
    assert (np.diff(rows * shape[1] + cols) > 0).all()
    got = np.zeros(shape, dtype=np.int64)
    got[rows, cols] = vals
    assert (got == want).all()


def test_products_that_cancel_mod_p_leave_no_entry():
    # the target's stacked arrows (1, 1) have the left kernel Y = (-1, 1);
    # the source's arrows are (1, 1) and (1, 2), so at sink column k = 0 the
    # two arrows' products cancel and at k = 1 they sum to 1
    q = kronecker_quiver(2)
    n = rep_lab.make_rep(q, (1, 1), [[[1]], [[1]]])
    m = rep_lab.make_rep(q, (1, 2), [[[1], [1]], [[1], [2]]])
    for p in rep_lab.LARGE_PRIMES:
        rows, cols, vals, shape = rep_lab._reduced_entries(m, n, p)
        assert (rows.tolist(), cols.tolist(), vals.tolist(), shape) == ([0], [1], [1], (1, 2))
        assert rep_lab._hom_mod_p_reduced(m, n, p) == rep_lab._hom_mod_p_full(m, n, p) == 1
        _assert_entries_match_the_dense_system(m, n, p)


def test_the_far_helix_pair_is_ranked_in_little_memory():
    # S(3, -5) -> S(3, 5): the dense reduced system has 1.33 billion
    # entries, the entry list a few thousand
    import tracemalloc

    q = kronecker_quiver(3)
    m, n = (rep_lab.make_rep(q, s.dims, s.matrices) for s in (pn_model.helix_module(3, k)[0] for k in (-5, 5)))
    rep_lab.hom_ext.cache_clear()
    tracemalloc.start()
    try:
        he = rep_lab.hom_ext(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (he.hom, he.ext) == (0, 17711)
    assert peak < 64 * 2**20, peak


def test_each_target_kernel_is_solved_once_per_prime(monkeypatch):
    # fresh instances of the n = 2 helix modules have cold memos; over every
    # ordered pair each target's left kernel is eliminated once per prime
    q = kronecker_quiver(2)
    mods = [pn_model.helix_module(2, k)[0] for k in range(-3, 4)]
    fresh = [rep_lab.make_rep(q, m.dims, m.matrices) for m in mods]
    rep_lab.hom_ext.cache_clear()
    kernels, targets = [], set()
    kernel, reduced = _linalg.mod_p_kernel, rep_lab._hom_mod_p_reduced
    monkeypatch.setattr(_linalg, "mod_p_kernel", lambda mat, p: kernels.append(p) or kernel(mat, p))
    monkeypatch.setattr(
        rep_lab, "_hom_mod_p_reduced", lambda m, n, p: targets.add((id(n), p)) or reduced(m, n, p)
    )
    table = {(i, j): rep_lab.hom_ext(a, b) for i, a in enumerate(fresh) for j, b in enumerate(fresh)}
    assert len(kernels) == len(targets) <= 2 * len(fresh)
    rep_lab.hom_ext.cache_clear()
    # a second pass on the warm instances eliminates no kernel at all
    again = {(i, j): rep_lab.hom_ext(a, b) for i, a in enumerate(fresh) for j, b in enumerate(fresh)}
    assert again == table and len(kernels) == len(targets)
    # what the memo keeps leaves equality, hashing and the dual alone
    for m, f in zip(mods, fresh):
        warm = rep_lab.make_rep(q, m.dims, m.matrices)
        assert f == warm and warm == f and hash(f) == hash(warm) == hash((q, m.dims, m.matrices))
        assert rep_lab.dual(rep_lab.dual(f)) is f
    assert any(key[0] == "left-kernel" for f in fresh for key in f._memo() if isinstance(key, tuple))
    rep_lab.hom_ext.cache_clear()


def test_hom_ext_full_modular_system_on_three_vertices(monkeypatch):
    # 121 and 132 unknowns, both certified by the first prime
    rng = random.Random(56)
    calls = []
    full = rep_lab._hom_mod_p_full
    monkeypatch.setattr(
        rep_lab, "_hom_mod_p_full", lambda m, n, p: calls.append(p) or full(m, n, p)
    )
    cases = (
        (Quiver("a3", 3, ((0, 1), (1, 2))), (6, 6, 7)),
        (Quiver("fork", 3, ((0, 2), (1, 2), (0, 2))), (8, 8, 2)),
    )
    for quiver, dims in cases:
        a, b = _random_rep(quiver, rng, dims=dims), _random_rep(quiver, rng, dims=dims)
        calls.clear()
        he = rep_lab.hom_ext(a, b)
        first = rep_lab.LARGE_PRIMES[0]
        assert calls == [first] and he.method == f"mod-{first}"
        assert (he.hom, he.ext) == _hom_ext_by_elimination(a, b)


def test_hom_ext_cross_quiver_rejection():
    a = rep_lab.vertex_simple(kronecker_quiver(2), 0)
    b = rep_lab.vertex_simple(kronecker_quiver(3), 0)
    with pytest.raises(ValueError):
        rep_lab.hom_ext(a, b)


def test_hom_ext_modular_path_matches_additivity():
    rng = random.Random(52)
    q = kronecker_quiver(2)
    a = _random_rep(q, rng, dims=(4, 4))
    b = _random_rep(q, rng, dims=(4, 4))
    c = _random_rep(q, rng, top=4)
    while c.dims != (4, 4):
        c = _random_rep(q, rng, top=4)
    big = rep_lab.direct_sum(a, b)
    he = rep_lab.hom_ext(big, rep_lab.direct_sum(c, c))
    ha = rep_lab.hom_ext(a, c)
    hb = rep_lab.hom_ext(b, c)
    assert he.hom == 2 * (ha.hom + hb.hom)
    assert he.ext == 2 * (ha.ext + hb.ext)


A3 = Quiver("a3", 3, ((0, 1), (1, 2)))
FORK = Quiver("fork", 3, ((0, 2), (1, 2), (0, 2)))
TRIANGLE = Quiver("triangle", 3, ((0, 1), (1, 2), (0, 2)))


def _rep_with_halves(quiver, rng):
    """A random rep with dims 0 to 3, zero at a vertex often, and entries of denominator 1 or 2."""
    dims = tuple(rng.randint(0, 3) for _ in range(quiver.vertex_count))
    mats = [
        [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dims[s])] for _ in range(dims[t])]
        for s, t in quiver.arrows
    ]
    return rep_lab.make_rep(quiver, dims, mats)


def _exact_arrows(m):
    return [
        np.array(mat, dtype=object).reshape(m.dims[t], m.dims[s]) for mat, (s, t) in zip(m.matrices, m.quiver.arrows)
    ]


def test_the_exact_intertwiner_system_reduces_to_the_modular_one():
    rng = random.Random(57)
    p = rep_lab.LARGE_PRIMES[0]
    for quiver in (kronecker_quiver(2), A3, FORK, Quiver("none", 2, ())):
        for _ in range(25):
            a, b = _rep_with_halves(quiver, rng), _rep_with_halves(quiver, rng)
            exact = rep_lab._system(a, b, _exact_arrows(a), _exact_arrows(b))
            modular = rep_lab._system(a, b, rep_lab._arrows_mod_p(a, p), rep_lab._arrows_mod_p(b, p))
            assert exact.shape == modular.shape
            assert exact.shape[1] == sum(x * y for x, y in zip(a.dims, b.dims))
            reduced = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in exact.tolist()]
            assert reduced == (modular % p).tolist()


def test_the_exact_fallback_ranks_one_multiple_of_the_rational_system(monkeypatch):
    # the integer system takes m's arrows times L_n and n's times L_m, so the
    # whole system is scaled by one scalar also when L_m != L_n.  Scaling one
    # side alone keeps the rank on a quiver graded by path length, but not
    # between two triangle bricks: a map (1, 1, 1/2) -> (c, d, e) needs
    # c d / 2 = e, which (1/3, 1, 1/6) meets and (2, 6, 1) / (2, 2, 1) does not
    rng = random.Random(56)

    def rep(quiver, dims, dens):
        mats = [
            [[Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(dims[s])] for _ in range(dims[t])]
            for s, t in quiver.arrows
        ]
        return rep_lab.make_rep(quiver, dims[: quiver.vertex_count], mats)

    brick = rep_lab.make_rep(TRIANGLE, (1, 1, 1), [[[1]], [[1]], [[Fraction(1, 2)]]])
    other = rep_lab.make_rep(TRIANGLE, (1, 1, 1), [[[Fraction(1, 3)]], [[1]], [[Fraction(1, 6)]]])
    pairs = [(brick, other), (other, brick)]
    for quiver in (kronecker_quiver(2), A3, FORK, TRIANGLE):
        pairs += [(rep(quiver, (2, 1, 2), (1, 2)), rep(quiver, (1, 2, 2), (1, 3, 5))) for _ in range(12)]
    monkeypatch.setattr(rep_lab, "_hom_mod_p_full", lambda m, n, p: -1)
    monkeypatch.setattr(rep_lab, "_hom_mod_p_reduced", lambda m, n, p: -1)
    rep_lab.hom_ext.cache_clear()
    for a, b in pairs:
        system = rep_lab._system(a, b, _exact_arrows(a), _exact_arrows(b))
        hom = system.shape[1] - _linalg.int_rank(system.tolist())
        chi = euler_pair(euler_matrix(a.quiver), a.dims, b.dims)
        assert rep_lab.hom_ext(a, b) == rep_lab.HomExt(hom, hom - chi, "exact-fallback")
    assert rep_lab.hom_ext(brick, other).hom == rep_lab.hom_ext(other, brick).hom == 1
    rep_lab.hom_ext.cache_clear()
    assert sum(rep_lab._integer_arrows(a)[1] != rep_lab._integer_arrows(b)[1] for a, b in pairs) > 40


def test_the_self_hom_of_a_direct_sum_takes_the_exact_fallback():
    # the identity of each summand puts hom >= 2 > 0, so a modular rank
    # certifies only when ext vanishes, and every other sum is ranked exactly
    rng = random.Random(58)
    fallbacks = 0
    for quiver in (A3, FORK):
        for v in range(quiver.vertex_count):
            summand = rep_lab.vertex_simple(quiver, v)
            for _ in range(4):
                m = rep_lab.direct_sum(_random_rep(quiver, rng, top=2), summand)
                he = rep_lab.hom_ext(m, m)
                hom, ext = _hom_ext_by_elimination(m, m)
                assert (he.hom, he.ext) == (hom, ext)
                assert he.method == "exact-fallback" if ext else he.method.startswith("mod-")
                fallbacks += ext > 0
    assert fallbacks >= 12


def test_hom_ext_on_edge_representations(monkeypatch):
    # zero reps, vertex simples, a quiver without arrows and a reversed arrow,
    # certified modularly and then forced through the exact fallback
    rng = random.Random(59)
    cases = []
    for quiver in (kronecker_quiver(2), A3, Quiver("none", 2, ()), Quiver("back", 2, ((1, 0),)), TRIANGLE):
        reps = [rep_lab.zero_rep(quiver)]
        reps += [rep_lab.vertex_simple(quiver, v) for v in range(quiver.vertex_count)]
        reps += [_rep_with_halves(quiver, rng) for _ in range(2)]
        cases += [(a, b) for a in reps for b in reps]
    # on a tree or a bipartite quiver, negating f_v at every other vertex
    # hides a sign error in one kind of block; the triangle's cycle is odd,
    # and the wrong sign would leave this brick no endomorphism
    brick = rep_lab.make_rep(TRIANGLE, (1, 1, 1), [[[1]], [[1]], [[Fraction(1, 2)]]])
    cases.append((brick, brick))
    want = [_hom_ext_by_elimination(a, b) for a, b in cases]
    rep_lab.hom_ext.cache_clear()
    assert [(he.hom, he.ext) for he in (rep_lab.hom_ext(a, b) for a, b in cases)] == want
    rep_lab.hom_ext.cache_clear()
    for name in ("_hom_mod_p_full", "_hom_mod_p_reduced"):
        monkeypatch.setattr(rep_lab, name, lambda m, n, p: -1)
    exact = [rep_lab.hom_ext(a, b) for a, b in cases]
    rep_lab.hom_ext.cache_clear()
    assert {he.method for he in exact} == {"exact-fallback"}
    assert [(he.hom, he.ext) for he in exact] == want


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
                scan = rep_lab.subrep_dimvecs(m)
                want = rep_lab.subrep_dimvecs(ref)
                assert scan.vectors == tuple(sorted((v1, v0) for v0, v1 in want.vectors))
                assert scan.uncertified == tuple(sorted((v1, v0) for v0, v1 in want.uncertified))
                assert scan.witnesses == {
                    (v1, v0): (snk, src) for (v0, v1), (src, snk) in want.witnesses.items()
                }, (d0, d1, mats)
                # witnesses hold one row basis per vertex, in vertex order
                for vec, wit in scan.witnesses.items():
                    assert rep_lab._check_general_witness(m, vec, wit), (vec, mats)
                cases += 1
    assert cases == 96


def _subspaces_mod_p(d: int, e: int, p: int):
    """All e-dimensional subspaces of F_p^d as RREF basis matrices (e x d), in scan order."""
    for w, _ in _linalg.subspace_blocks_mod_p(d, e, p):
        yield from w


def _all_subspaces_mod_p(d: int, p: int):
    for e in range(d + 1):
        yield from _subspaces_mod_p(d, e, p)


def _matvec(a, v):
    """A v by the naive sum of Fraction products."""
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a]


def _enum_reference(m: rep_lab.QuiverRep, p: int) -> dict:
    """The scan one sink subspace at a time: one kernel per subspace."""
    src = 0 if m.quiver.arrows[0][0] == 0 else 1
    d_src, d_snk = m.dims[src], m.dims[1 - src]
    amats = [
        np.array(
            [[x.numerator * pow(x.denominator, p - 2, p) % p for x in row] for row in mat],
            dtype=np.int64,
        ).reshape(d_snk, d_src)
        for mat in m.matrices
    ]
    found = {}
    for e in range(d_snk + 1):
        for w in _subspaces_mod_p(d_snk, e, p):
            pivots = [int(np.argmax(w[i] != 0)) for i in range(e)]
            cond = np.zeros((d_snk - e, d_snk), dtype=np.int64)
            for r, j in enumerate(j for j in range(d_snk) if j not in pivots):
                cond[r, j] = 1
                for i, pc in enumerate(pivots):
                    cond[r, pc] = -int(w[i, j]) % p
            kern = _linalg.mod_p_kernel(np.vstack([cond @ a % p for a in amats]), p)
            for u in range(kern.shape[0] + 1):
                vec = (u, e) if src == 0 else (e, u)
                if vec not in found:
                    found[vec] = w.copy()
    return found


def _same_scan(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(np.array_equal(got[v], want[v]) for v in want)


def test_enum_two_vertex_matches_the_per_subspace_scan():
    rng = random.Random(57)
    quivers = [kronecker_quiver(k) for k in (1, 2, 3, 4)] + [Quiver("q", 2, ((1, 0), (1, 0)))]
    cases = 0
    while cases < 40:
        quiver = rng.choice(quivers)
        dims = (rng.randint(0, 6), rng.randint(0, 6))
        p = rng.choice((2, 3, 5, 7))
        snk = quiver.arrows[0][1]
        if not any(dims) or _linalg.count_subspaces(dims[snk], p) > 2000:
            continue
        m = _random_rep(quiver, rng, dims=dims)
        assert _same_scan(rep_lab._enum_two_vertex(m, p), _enum_reference(m, p)), (dims, p)
        cases += 1
    # 2664 sink subspaces at p = 3, many blocks of one pivot pattern
    helix = pn_model.s_rep(2, -5)
    assert helix.dims == (6, 5)
    for p in (2, 3):
        assert _same_scan(rep_lab._enum_two_vertex(helix, p), _enum_reference(helix, p))


def test_enum_two_vertex_solves_no_kernel(monkeypatch):
    # the enumeration keeps only the sink subspace, so it solves no kernel mod p
    calls = []
    kernel = _linalg.mod_p_kernel
    monkeypatch.setattr(_linalg, "mod_p_kernel", lambda mat, p: calls.append(p) or kernel(mat, p))
    for m, p in ((pn_model.s_rep(2, -5), 5), (_random_rep(kronecker_quiver(3), random.Random(2), dims=(4, 4)), 3)):
        assert rep_lab._enum_two_vertex(m, p)
    assert calls == []


def _packed_stacks(monkeypatch) -> tuple[list, list]:
    """Record the parts of every subspace stack, and the shape of every
    stacked mod_p_rank call."""
    stacks, ranks = [], []
    stack, rank = _linalg.subspace_stack_mod_p, _linalg.mod_p_rank

    def recorded_stack(d, parts, p):
        stacks.append(list(parts))
        return stack(d, parts, p)

    def recorded_rank(mat, p):
        if np.ndim(mat) == 3:
            ranks.append(np.shape(mat))
        return rank(mat, p)

    monkeypatch.setattr(_linalg, "subspace_stack_mod_p", recorded_stack)
    monkeypatch.setattr(_linalg, "mod_p_rank", recorded_rank)
    return stacks, ranks


def _check_packed_scan(m, p, sinks, stacks, ranks):
    """The packed scan against the per-subspace reference, restricted to
    sinks, with one stacked rank per stack and every stack but the last full."""
    snk = m.quiver.arrows[0][1]
    want = {vec: w for vec, w in _enum_reference(m, p).items() if sinks is None or vec[snk] in sinks}
    stacks.clear()
    ranks.clear()
    assert _same_scan(rep_lab._enum_two_vertex(m, p, sinks), want), (m.dims, p, sinks)
    enumerated = sum(stop - start for parts in stacks for _, start, stop in parts)
    assert len(ranks) == len(stacks) <= -(-enumerated // _linalg.CHUNK)
    assert all(shape[0] == _linalg.CHUNK for shape in ranks[:-1])
    return enumerated


def test_packed_stacks_cross_pivot_patterns_and_sink_dimensions(monkeypatch):
    stacks, ranks = _packed_stacks(monkeypatch)
    rng = random.Random(70)
    crossing = 0
    # d_snk = 3 at p = 7 has 116 sink subspaces, d_snk = 4 at p = 3 has 212
    for d_snk, p, count in ((3, 7, 116), (4, 3, 212)):
        assert _linalg.count_subspaces(d_snk, p) == count
        for quiver in (kronecker_quiver(1), kronecker_quiver(2), kronecker_quiver(3)):
            for d_src in (1, 3, 5):
                m = _random_rep(quiver, rng, dims=(d_src, d_snk))
                _check_packed_scan(m, p, None, stacks, ranks)
                crossing += sum(len({e for e, _, _ in parts}) > 1 for parts in stacks)
                # every run of one sink dimension starts where the last stopped
                runs = [run for parts in stacks for run in parts]
                for (e0, _, stop), (e1, start, _) in zip(runs, runs[1:]):
                    assert e0 != e1 or stop == start
    assert crossing >= 18


def test_packed_stacks_on_sink_subsets_and_early_exits(monkeypatch):
    stacks, ranks = _packed_stacks(monkeypatch)
    rng = random.Random(71)
    q = kronecker_quiver(2)
    for d_snk, p in ((3, 7), (4, 3)):
        for sinks in ([0, 2], [1, 3], [2], [0, d_snk]):
            for d_src in (2, 4):
                _check_packed_scan(_random_rep(q, rng, dims=(d_src, d_snk)), p, sinks, stacks, ranks)
    # with both arrows zero every W has mu(W) = d_src, so each sink
    # dimension is done at its first subspace, inside the first stack, and
    # adds no subspace to the next: 1 + 57 + 6 subspaces, then the last one
    zero = rep_lab.make_rep(q, (2, 3), [[[0, 0]] * 3, [[0, 0]] * 3])
    assert _check_packed_scan(zero, 7, None, stacks, ranks) == 65
    assert stacks == [[(0, 0, 1), (1, 0, 57), (2, 0, 6)], [(3, 0, 1)]]
    # one arrow onto the line of e_2: (2, 1) needs W = <e_2>, line 49 of 57,
    # so sink dimension 1 is done partway through the first stack
    line = rep_lab.make_rep(q, (2, 3), [[[0, 0], [1, 0], [0, 0]], [[0, 0]] * 3])
    assert _check_packed_scan(line, 7, None, stacks, ranks) == 65
    assert stacks == [[(0, 0, 1), (1, 0, 57), (2, 0, 6)], [(3, 0, 1)]]
    assert rep_lab._enum_two_vertex(line, 7)[(2, 1)].tolist() == [[0, 1, 0]]


@st.composite
def _tiny_two_vertex_reps(draw):
    quiver = kronecker_quiver(draw(st.sampled_from((2, 3))))
    dims = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
    entry = st.integers(-2, 2)
    mats = [
        draw(st.lists(st.lists(entry, min_size=dims[0], max_size=dims[0]), min_size=dims[1], max_size=dims[1]))
        for _ in quiver.arrows
    ]
    return rep_lab.make_rep(quiver, dims, mats)


@settings(max_examples=80, deadline=None, database=None)
@given(_tiny_two_vertex_reps())
def test_two_vertex_scan_certifies_a_closed_set_of_candidates(m):
    # integer entries and tiny dims: the scan enumerates over 2, 3 and 5,
    # and the reference scans m itself, never its dual
    scan = rep_lab.subrep_dimvecs(m)
    for vec, wit in scan.witnesses.items():
        assert rep_lab._check_general_witness(m, vec, wit), vec
    want = set.intersection(*(set(_enum_reference(m, p)) for p in (2, 3, 5)))
    assert set(scan.vectors) | set(scan.uncertified) == want
    assert not set(scan.vectors) & set(scan.uncertified)
    # a subrep (U, W) gives (u - 1, e) and (u, e + 1) by dropping a row of U
    # or adding a unit vector to W
    for u, e in scan.vectors:
        assert u == 0 or (u - 1, e) in scan.vectors
        assert e == m.dims[1] or (u, e + 1) in scan.vectors


def _two_vertex_primes(m: rep_lab.QuiverRep) -> list[int]:
    """The enumeration primes of a two-vertex scan, which enumerates the
    subspaces of the smaller side."""
    return rep_lab._enum_primes(m, lambda p: _linalg.count_subspaces(min(m.dims), p))


def _scan_over_every_prime(m: rep_lab.QuiverRep) -> rep_lab.SubrepScan:
    """The scan with every chosen prime over every sink dimension: the
    candidates found over all of them are then certified by the lifts of
    one prime at a time, and those left by the joint-kernel sources once,
    after every prime."""
    src = m.quiver.arrows[0][0]
    dualize = m.dims[src] < m.dims[1 - src]
    work = rep_lab.dual(m) if dualize else m
    per_prime = []
    for p in _two_vertex_primes(m):
        cands = rep_lab._enum_two_vertex(work, p)
        if dualize:
            cands = {(m.dims[0] - v[1], m.dims[1] - v[0]): w for v, w in cands.items()}
        per_prime.append((p, cands))
    surviving = set.intersection(*(set(cands) for _, cands in per_prime))
    witnesses = {}
    for p, cands in per_prime:
        open_vecs = surviving - set(witnesses)
        witnesses.update(rep_lab._two_vertex_witnesses(m, open_vecs, p, cands, dualize))
    witnesses.update(rep_lab._joint_witnesses(m, surviving - set(witnesses)))
    return rep_lab.SubrepScan(
        tuple(sorted(witnesses)), witnesses, tuple(sorted(surviving - set(witnesses)))
    )


def _enumerated(monkeypatch) -> list:
    """Record (d, e, p) for each run of e-dimensional subspaces of F_p^d that
    a scan enumerates, two-vertex or general, where the subspaces are built."""
    calls = []
    stack = _linalg.subspace_stack_mod_p

    def recorded(d, parts, p):
        calls.extend((d, e, p) for e, _, _ in parts)
        return stack(d, parts, p)

    monkeypatch.setattr(_linalg, "subspace_stack_mod_p", recorded)
    return calls


def _on_demand_reps() -> list:
    """The helix modules s_rep(2, k), |k| <= 5, and 109 random two-vertex
    reps of total dimension at most 8 and smaller side at most 3."""
    rng = random.Random(60)
    quivers = [kronecker_quiver(k) for k in (1, 2, 3, 4)] + [Quiver("q", 2, ((1, 0), (1, 0)))]
    reps = [pn_model.s_rep(2, k) for k in range(-5, 6)]
    while len(reps) < 120:
        quiver = rng.choice(quivers)
        snk = quiver.arrows[0][1]
        dims = [rng.randint(0, 6), rng.randint(0, 6)]
        dims[snk] = min(dims[snk], rng.randint(0, 3))
        if not 0 < sum(dims) <= 8 or min(dims) > 3:
            continue
        # even entries vanish mod 2, so the later primes have work to do
        entries = rng.choice(((-3, -2, -1, 0, 1, 2, 3), (-1, 0, 1), (-2, 0, 2), (-4, -2, 1, 2)))
        mats = [
            [[Fraction(rng.choice(entries)) for _ in range(dims[s])] for _ in range(dims[t])]
            for s, t in quiver.arrows
        ]
        reps.append(rep_lab.make_rep(quiver, dims, mats))
    return reps


def test_scan_with_primes_on_demand_against_the_scan_over_every_prime(monkeypatch):
    calls = _enumerated(monkeypatch)
    later = 0
    for m in _on_demand_reps():
        calls.clear()
        got = rep_lab._subrep_cached.__wrapped__(m)
        later += len({p for _, _, p in calls}) > 1
        want = _scan_over_every_prime(m)
        assert set(got.vectors) | set(got.uncertified) == set(want.vectors) | set(want.uncertified), m
        assert set(got.vectors) >= set(want.vectors) and not set(got.vectors) & set(got.uncertified)
        for vec, wit in got.witnesses.items():
            assert rep_lab._check_general_witness(m, vec, wit), (m, vec)
    # a third of the scans need a later prime, so the comparison is not vacuous
    assert later > 30


def test_further_primes_run_only_for_open_candidates(monkeypatch):
    calls = _enumerated(monkeypatch)
    # every helix module of p2 up to |k| = 5 is decided over F_2 alone
    for k in range(-5, 6):
        scan = rep_lab._subrep_cached.__wrapped__(pn_model.s_rep(2, k))
        assert scan.uncertified == ()
    assert {p for _, _, p in calls} == {2}
    # every arrow vanishes mod 2, so F_2 finds every (u, e); the false
    # candidates (1, 0), (2, 0), (2, 1) have sink dims 0 and 1, and F_3,
    # enumerating only those, drops them; no candidate is left for F_5
    q = kronecker_quiver(2)
    m = rep_lab.make_rep(q, (2, 2), [[[2, 0], [0, 2]], [[0, -2], [2, 0]]])
    calls.clear()
    scan = rep_lab._subrep_cached.__wrapped__(m)
    assert scan.vectors == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))
    assert scan.uncertified == ()
    assert set(calls) == {(2, 0, 2), (2, 1, 2), (2, 2, 2), (2, 0, 3), (2, 1, 3)}
    # dims (1, 2) enumerate the dual, dims (2, 1): the false candidates
    # (1, 0) and (1, 1) are the dual's sink dimension 1 - 1 = 0
    m = rep_lab.make_rep(q, (1, 2), [[[2], [0]], [[0], [-2]]])
    calls.clear()
    scan = rep_lab._subrep_cached.__wrapped__(m)
    assert scan.vectors == ((0, 0), (0, 1), (0, 2), (1, 2)) and scan.uncertified == ()
    assert set(calls) == {(1, 0, 2), (1, 1, 2), (1, 0, 3)}


def _joint_sources(monkeypatch) -> tuple[list, list]:
    """Record the width of every _joint_kernel built and the candidates of
    every _joint_witnesses call."""
    built, survivors = [], []
    joint_kernel, joint_witnesses = rep_lab._joint_kernel, rep_lab._joint_witnesses

    def recorded_kernel(arrows, width):
        built.append(width)
        return joint_kernel(arrows, width)

    def recorded_witnesses(m, candidates):
        survivors.append(set(candidates))
        return joint_witnesses(m, candidates)

    monkeypatch.setattr(rep_lab, "_joint_kernel", recorded_kernel)
    monkeypatch.setattr(rep_lab, "_joint_witnesses", recorded_witnesses)
    return built, survivors


def test_joint_kernels_are_built_only_after_every_prime(monkeypatch):
    calls = _enumerated(monkeypatch)
    built, survivors = _joint_sources(monkeypatch)
    # F_2 finds every (u, e) of this rep and F_3 refutes each false one, so
    # no candidate survives every prime and the scan builds no joint kernel
    q = kronecker_quiver(2)
    m = rep_lab.make_rep(q, (2, 2), [[[2, 0], [0, 2]], [[0, -2], [2, 0]]])
    scan = rep_lab._subrep_cached.__wrapped__(m)
    assert scan.uncertified == () and built == [] and survivors == []
    joint = 0
    for m in _on_demand_reps():
        calls.clear()
        built.clear()
        survivors.clear()
        got = rep_lab._subrep_cached.__wrapped__(m)
        assert len(built) <= 2 and len(survivors) <= 1
        assert not built or survivors
        if survivors:
            # every chosen prime ran and found these candidates
            assert {p for _, _, p in calls} == set(_two_vertex_primes(m)), m
            assert survivors[0] and survivors[0] <= set(got.vectors) | set(got.uncertified)
            joint += 1
        # a candidate left uncertified was tried by the joint sources
        assert set(got.uncertified) <= (survivors[0] if survivors else set())
    # three of the scans leave a candidate to the joint sources
    assert joint >= 3


def test_subrep_certification_ignores_the_hash_seed():
    # a certifier seeded from hash(m), which hashes the quiver name,
    # certifies (2, 2) of this representation under hash seed 0 but not 2
    script = "\n".join(
        (
            "from stabctl import rep_lab",
            "from stabctl.klattice import kronecker_quiver",
            "m = rep_lab.make_rep(kronecker_quiver(2), (3, 3), [",
            "    [[1, 1, 2], [-1, -1, -2], [2, 0, -2]], [[-1, 0, 0], [1, 1, 1], [1, -2, -2]]])",
            "scan = rep_lab.subrep_dimvecs(m, 12)",
            "print(scan.vectors, scan.uncertified)",
            # a scan that needs F_3 for its false mod-2 candidates
            "m = rep_lab.make_rep(kronecker_quiver(2), (2, 2), [[[2, 0], [0, 2]], [[0, -2], [2, 0]]])",
            "scan = rep_lab.subrep_dimvecs(m, 12)",
            "print(scan.vectors, scan.uncertified, scan.witnesses)",
        )
    )
    src = os.path.dirname(os.path.dirname(rep_lab.__file__))
    outputs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


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


def test_oracle_bound_enforcement():
    big = pn_model.s_rep(2, -4)  # the exceptional module of dims (5, 4)
    assert rep_lab.DEFAULT_BOUND == 8
    with pytest.raises(OracleBoundError):
        rep_lab.subrep_dimvecs(big)
    assert rep_lab.subrep_dimvecs(big, 12).vectors


def test_the_scan_is_cached_on_the_representation_alone():
    # the bound only refuses: a second bound reads the first scan, and a
    # refused representation is neither scanned nor cached
    m = _random_rep(kronecker_quiver(2), random.Random(62), dims=(3, 3))
    rep_lab._subrep_cached.cache_clear()
    scan = rep_lab.subrep_dimvecs(m, 8)
    assert rep_lab.subrep_dimvecs(m, 12) is scan
    info = rep_lab._subrep_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    rep_lab._subrep_cached.cache_clear()
    with pytest.raises(OracleBoundError, match="exceeds the oracle bound 5"):
        rep_lab.subrep_dimvecs(m, 5)
    info = rep_lab._subrep_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


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


P2_5_3 = """rep p2 5 3
1 -2 1 2 2
1 2 -2 -1 0
1 0 -1 -1 -2
0 -1 -2 -1 0
2 2 1 -1 -1
-1 1 2 -2 2
"""
P2_3_5 = """rep p2 3 5
-2 -2 -2
-2 2 -2
1 -1 0
-2 1 2
2 -1 -2
-2 -2 2
1 1 -1
-2 2 0
2 1 -2
1 2 -1
"""


@pytest.mark.parametrize(
    "text, charge, witness, factors",
    [
        (P2_5_3, ((Fraction(-7, 4), Fraction(1, 2)), (-3, Fraction(9, 4))), (2, 1), {(2, 1): -1, (3, 2): -2}),
        (P2_3_5, ((Fraction(-1, 4), 0), (Fraction(-5, 2), Fraction(1, 2))), (2, 3), {(2, 3): 3, (1, 2): 2}),
    ],
    ids=["p2-5-3", "p2-3-5"],
)
def test_two_helix_sums_are_unstable(text, charge, witness, factors):
    # oracle-stream seed 1 inputs 5 and 43, which a per-candidate certifier
    # answered "stable": each is the sum of two helix modules whose image of
    # Hom(S_j, M) destabilizes it
    m = rep_lab.parse_rep(text, kronecker_quiver(2))
    charge = CentralCharge(tuple(gauss(*z) for z in charge))
    result = rep_lab.theta_test(m, charge, 12)
    assert (result.verdict, result.witness, result.uncertified) == ("unstable", witness, ())
    for extractor in ("phase", "slope"):
        got = rep_lab.hn(m, charge, 12, extractor=extractor)
        assert [f.dims for f, _ in got] == list(factors)
        for f, _ in got:
            he = rep_lab.hom_ext(f, f)
            assert (he.hom, he.ext) == (1, 0)
            assert rep_lab.hom_ext(f, pn_model.s_rep(2, factors[f.dims])).hom > 0


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


def _counting_scans(monkeypatch) -> list:
    scanned = []
    scan = rep_lab.subrep_dimvecs

    def counted(rep, bound=None):
        scanned.append(rep)
        return scan(rep, bound)

    monkeypatch.setattr(rep_lab, "subrep_dimvecs", counted)
    return scanned


def test_hn_reads_one_scan_of_its_input(monkeypatch):
    scanned = _counting_scans(monkeypatch)
    q = kronecker_quiver(2)
    s0, s1 = rep_lab.vertex_simple(q, 0), rep_lab.vertex_simple(q, 1)
    # the sink is steeper, so S1 + S1 is the first factor
    m = rep_lab.direct_sum(rep_lab.direct_sum(s0, s1), s1)
    charge = CentralCharge((gauss(1, 1), gauss(-1, 1)))
    assert [f.dims for f, _ in rep_lab.hn(m, charge)] == [(0, 2), (1, 0)]
    assert scanned == [m]
    # three factors of phases 1, 3/4 and 1/4, still from the one scan
    scanned.clear()
    m = rep_lab.direct_sum(rep_lab.direct_sum(pn_model.s_rep(2, 1), pn_model.s_rep(2, -1)), s0)
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    for extractor in ("phase", "slope"):
        factors = rep_lab.hn(m, charge, extractor=extractor)
        assert [f.dims for f, _ in factors] == [(1, 0), (2, 1), (0, 1)]
    assert scanned == [m, m]


def _angle(dims) -> float:
    # the phase of Z = -d0 + d1 (1 + i) in floating point, apart from klattice
    return math.atan2(dims[1], dims[1] - dims[0])


def test_hn_of_helix_sums_groups_the_summands_by_phase():
    # each s_rep(2, k) is stable at (-1, 1+i) (criterion 04), so the HN
    # factors of a direct sum are its summands of one phase, phases decreasing
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    helix = {k: pn_model.s_rep(2, k) for k in range(-3, 4)}
    sums = [
        ks
        for size in (1, 2, 3)
        for ks in combinations_with_replacement(sorted(helix), size)
        if sum(sum(helix[k].dims) for k in ks) <= 12
        and min(sum(helix[k].dims[v] for k in ks) for v in (0, 1)) <= 4
    ]
    assert len(sums) > 40 and any(len(set(ks)) < len(ks) for ks in sums)
    for ks in sums:
        m = helix[ks[0]]
        for k in ks[1:]:
            m = rep_lab.direct_sum(m, helix[k])
        groups = sorted(Counter(ks).items(), key=lambda kc: -_angle(helix[kc[0]].dims))
        want = [tuple(r * d for d in helix[k].dims) for k, r in groups]
        for extractor in ("phase", "slope"):
            factors = rep_lab.hn(m, charge, 12, extractor)
            assert [f.dims for f, _ in factors] == want, (ks, extractor)
            for (f, _), (k, r) in zip(factors, groups):
                he = rep_lab.hom_ext(f, helix[k])
                assert (he.hom, he.ext) == (r, 0), (ks, k)


def _sub_reference(m, bases):
    """The subrepresentation a witness spans, solved arrow by arrow in its rows."""
    dims = tuple(len(b) for b in bases)
    mats = []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        amat = [list(r) for r in m.matrices[idx]]
        imgs = [_matvec(amat, list(r)) if amat else [] for r in bases[s]]
        if dims[t] == 0 or m.dims[t] == 0:
            if any(any(x for x in img) for img in imgs):
                raise ValueError("witness is not a subrepresentation")
            mats.append([[Fraction(0)] * dims[s] for _ in range(dims[t])])
            continue
        bt_cols = [list(c) for c in zip(*[list(r) for r in bases[t]])]
        img_cols = [list(c) for c in zip(*imgs)] if imgs else [[] for _ in range(m.dims[t])]
        sol = _linalg.frac_solve(bt_cols, img_cols)
        if sol is None:
            raise ValueError("witness is not a subrepresentation")
        mats.append(sol)
    return rep_lab.make_rep(m.quiver, dims, mats)


def _quotient_reference(m, bases):
    """The quotient by a witness, on the unit vectors extend_to_basis adds to it."""
    comps = []
    fulls = []
    for v in range(m.quiver.vertex_count):
        rows = [list(r) for r in bases[v]]
        full = _linalg.extend_to_basis(rows, m.dims[v]) if m.dims[v] else []
        comps.append(full[len(rows) :])
        fulls.append(full)
    dims = tuple(m.dims[v] - len(bases[v]) for v in range(m.quiver.vertex_count))
    mats = []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        amat = [list(r) for r in m.matrices[idx]]
        imgs = [_matvec(amat, list(r)) if amat else [] for r in comps[s]]
        if m.dims[t] == 0 or dims[t] == 0:
            mats.append([[Fraction(0)] * dims[s] for _ in range(dims[t])])
            continue
        full_cols = [list(c) for c in zip(*fulls[t])]
        img_cols = [list(c) for c in zip(*imgs)] if imgs else [[] for _ in range(m.dims[t])]
        sol = _linalg.frac_solve(full_cols, img_cols)
        mats.append([row for row in sol[len(bases[t]) :]])
    return rep_lab.make_rep(m.quiver, dims, mats)


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def test_subquotient_against_the_sub_and_quotient_constructions():
    rng = random.Random(59)
    quivers = [
        kronecker_quiver(2),
        kronecker_quiver(3),
        Quiver("q", 2, ((1, 0), (1, 0))),
        Quiver("a3", 3, ((0, 1), (1, 2))),
        Quiver("fork", 3, ((0, 2), (1, 2), (0, 2))),
    ]
    witnesses = refused = 0
    for quiver in quivers:
        for _ in range(16):
            # the three-vertex scan enumerates every vertex, so keep those small
            m = _random_rep(quiver, rng, top=5 - quiver.vertex_count)
            none = tuple(() for _ in m.dims)
            whole = tuple(_linalg.frac_identity(d) for d in m.dims)
            assert rep_lab._subquotient(m, none, whole) == m
            # a full basis other than the unit vectors is a change of basis
            flipped = tuple(rows[::-1] for rows in whole)
            assert rep_lab._subquotient(m, none, flipped) == _sub_reference(m, flipped)
            for bases in rep_lab.subrep_dimvecs(m, 12).witnesses.values():
                assert rep_lab._subquotient(m, none, bases) == _sub_reference(m, bases)
                assert rep_lab._subquotient(m, bases, whole) == _quotient_reference(m, bases)
                witnesses += 1
            # random independent rows, mostly no subrepresentation
            bases = []
            for d in m.dims:
                rows = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(rng.randint(0, d))]
                rref, pivots = _linalg.frac_rref(rows)
                bases.append(rref[: len(pivots)])
            got = _outcome(rep_lab._subquotient, m, none, bases)
            assert got == _outcome(_sub_reference, m, bases)
            refused += isinstance(got, str)
    assert witnesses > 300 and refused > 10
    # witnesses that are not nested are no input error
    q = kronecker_quiver(2)
    split = rep_lab.direct_sum(rep_lab.vertex_simple(q, 0), rep_lab.vertex_simple(q, 1))
    wit = rep_lab.subrep_dimvecs(split).witnesses
    with pytest.raises(RuntimeError, match="not nested"):
        rep_lab._subquotient(split, wit[(1, 0)], wit[(0, 1)])


def _assert_primitive_witnesses(scan):
    """Every witness row is a tuple of ints with gcd 1."""
    for vec, bases in scan.witnesses.items():
        assert len(bases) == len(vec)
        for rows in bases:
            for row in rows:
                assert type(row) is tuple and all(type(x) is int for x in row), (vec, row)
                assert math.gcd(*row) == 1, (vec, row)


def _rational_rep(quiver, rng, dims):
    """Entries with denominators 1, 7 and 11, which no enumeration prime divides."""
    mats = [
        [[Fraction(rng.randint(-3, 3), rng.choice((1, 7, 11))) for _ in range(dims[s])] for _ in range(dims[t])]
        for s, t in quiver.arrows
    ]
    return rep_lab.make_rep(quiver, dims, mats)


def test_witness_rows_are_primitive_integer_rows():
    # two-vertex scans, dualized (smaller source) and not, and general
    # three-vertex scans; each witness also spans the subrep it names
    rng = random.Random(71)
    two_vertex = Counter()
    general = 0
    for n in (2, 3):
        q = kronecker_quiver(n)
        for _ in range(40):
            dims = (rng.randint(0, 4), rng.randint(0, 4))
            if not any(dims):
                continue
            m = _rational_rep(q, rng, dims)
            scan = rep_lab.subrep_dimvecs(m, 12)
            _assert_primitive_witnesses(scan)
            for bases in scan.witnesses.values():
                assert rep_lab._subquotient(m, ((), ()), bases) == _sub_reference(m, bases)
            two_vertex[dims[0] < dims[1]] += len(scan.witnesses)
    for quiver in (Quiver("a3", 3, ((0, 1), (1, 2))), Quiver("fork", 3, ((0, 2), (1, 2), (0, 2)))):
        for _ in range(12):
            m = _rational_rep(quiver, rng, tuple(rng.randint(0, 2) for _ in range(3)))
            scan = rep_lab.subrep_dimvecs(m, 12)
            _assert_primitive_witnesses(scan)
            none = tuple(() for _ in m.dims)
            for vec, bases in scan.witnesses.items():
                assert rep_lab._check_general_witness(m, vec, bases), vec
                assert rep_lab._subquotient(m, none, bases) == _sub_reference(m, bases)
                general += 1
    assert min(two_vertex[True], two_vertex[False]) > 100 and general > 50


def test_scaling_each_arrow_by_its_own_scalar():
    # (U, W) is a subrep of M exactly when it is one of M with arrow a
    # scaled by lambda_a, so the scan and the HN factors carry over, the
    # factors with arrow a times lambda_a.  Rows with other denominators
    # make a scale per matrix row differ from one per matrix.  No
    # denominator is divisible by 2, 3 or 5, so both scans enumerate over
    # the same primes.
    rng = random.Random(67)
    scalars = (Fraction(1, 11), Fraction(13, 17), Fraction(-7, 19))
    exact = factors = 0
    for n in (2, 3):
        q = kronecker_quiver(n)
        for _ in range(24):
            dims = (rng.randint(1, 4), rng.randint(1, 4))
            mats = [
                [
                    [Fraction(rng.randint(-3, 3), den) for _ in range(dims[0])]
                    for den in (rng.choice((1, 1, 7, 11)) for _ in range(dims[1]))
                ]
                for _ in range(n)
            ]
            m = rep_lab.make_rep(q, dims, mats)
            scaled = rep_lab.make_rep(
                q, dims, [[[lam * x for x in row] for row in mat] for lam, mat in zip(scalars, mats)]
            )
            scan, got = rep_lab.subrep_dimvecs(m, 12), rep_lab.subrep_dimvecs(scaled, 12)
            assert (got.vectors, got.uncertified) == (scan.vectors, scan.uncertified)
            _assert_primitive_witnesses(scan)
            _assert_primitive_witnesses(got)
            for vec, bases in scan.witnesses.items():
                if got.witnesses[vec] == bases:
                    exact += 1
                    continue
                # a kernel vector of (lambda_1 A_1 ... lambda_n A_n) has the
                # blocks of one of (A_1 ... A_n) over lambda_a, up to one
                # scalar, and each block is taken primitive: such source
                # rows agree up to a sign each
                src = [got.witnesses[vec][0], bases[0]]
                assert got.witnesses[vec][1] == bases[1], vec
                assert len(src[0]) == len(src[1]), vec
                assert all(a in (b, tuple(-x for x in b)) for a, b in zip(*src)), vec
            none = ((), ())
            for vec, bases in got.witnesses.items():
                assert rep_lab._subquotient(scaled, none, bases).dims == vec
            for _ in range(2):
                charge = _random_half_plane_charge(rng, 2)
                assert rep_lab.theta_test(scaled, charge, 12) == rep_lab.theta_test(m, charge, 12)
                for extractor in ("phase", "slope"):
                    want = rep_lab.hn(m, charge, 12, extractor)
                    have = rep_lab.hn(scaled, charge, 12, extractor)
                    assert [f.dims for f, _ in have] == [f.dims for f, _ in want]
                    for (f, tok), (g, gtok) in zip(want, have):
                        assert gtok == tok
                        assert g.matrices == tuple(
                            tuple(tuple(lam * x for x in row) for row in mat)
                            for lam, mat in zip(scalars, f.matrices)
                        )
                        factors += 1
    # primitive rows differ at most in sign: the four witnesses whose
    # Fraction rows were proportional are equal as integer rows
    assert exact > 330 and factors > 200


def test_general_scan_with_an_empty_arrow_target():
    # the path 0 -> 1 -> 2: an arrow into a zero vertex keeps its shape
    q = Quiver("q", 3, ((0, 1), (1, 2)))
    one = [[Fraction(1)]]
    thin = rep_lab.make_rep(q, (1, 1, 1), [one, one])
    scan = rep_lab.subrep_dimvecs(thin)
    assert scan.vectors == ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
    assert scan.uncertified == ()
    charge = CentralCharge((gauss(1, 1), gauss(0, 1), gauss(-1)))
    for v in range(3):
        result = rep_lab.theta_test(rep_lab.vertex_simple(q, v), charge)
        assert (result.verdict, result.uncertified) == ("stable", ())
    for extractor in ("phase", "slope"):
        factors = rep_lab.hn(thin, charge, extractor=extractor)
        assert [f.dims for f, _ in factors] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_the_witness_check_refuses_what_is_no_subrep():
    # 0 -> 1 with A = [[1, 1], [0, 1]]: A e0 = e0 and A e1 = e0 + e1
    q = Quiver("q", 2, ((0, 1),))
    m = rep_lab.make_rep(q, (2, 2), [[[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]])
    e0, e1 = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
    check = rep_lab._check_general_witness
    assert check(m, (1, 1), ([e0], [e0]))
    assert check(m, (2, 2), ([e0, e1], [e0, e1]))
    assert not check(m, (2, 2), ([e0, [2 * x for x in e0]], [e0, e1])), "dependent rows"
    assert not check(m, (1, 1), ([e0], [e0, e1])), "more rows than the vector says"
    assert not check(m, (1, 1), ([e1], [e0])), "A e1 leaves the target span"
    assert not check(m, (1, 0), ([e0], [])), "A e0 is nonzero at an empty target"


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


def _theta_by_tokens(m, charge, bound=None):
    """theta_test as it was, comparing evaluated GaussianRational tokens."""
    scan = rep_lab.subrep_dimvecs(m, bound)
    t_m = PhaseToken(charge.evaluate(m.dims), 0)
    proper = [vec for vec in scan.vectors if any(vec) and vec != m.dims]
    tokens = {vec: PhaseToken(charge.evaluate(vec), 0) for vec in proper}
    worst, worst_cmp = None, -1
    for vec in proper:
        cmp = phase_compare(tokens[vec], t_m)
        if worst is None or cmp > worst_cmp or (
            cmp == worst_cmp and phase_compare(tokens[vec], tokens[worst]) > 0
        ):
            worst, worst_cmp = vec, cmp
    if worst is None or worst_cmp < 0:
        return rep_lab.ThetaResult("stable", None, scan.uncertified)
    verdict = "unstable" if worst_cmp > 0 else "semistable-not-stable"
    return rep_lab.ThetaResult(verdict, worst, scan.uncertified)


def _hn_by_tokens(m, charge, bound, extractor):
    """hn as it was, comparing evaluated GaussianRational tokens."""
    scan = rep_lab.subrep_dimvecs(m, bound)
    factors = []
    lower = tuple(() for _ in m.dims)
    while (low := rep_lab.sub_dims(lower)) != m.dims:
        ahead = [
            (tuple(a - b for a, b in zip(vec, low)), scan.witnesses[vec])
            for vec in scan.vectors
            if vec != low and all(a >= b for a, b in zip(vec, low))
        ]
        tokens = {vec: PhaseToken(charge.evaluate(vec), 0) for vec, _ in ahead}
        if extractor == "phase":
            best = ahead[0]
            for vec, bases in ahead[1:]:
                c = phase_compare(tokens[vec], tokens[best[0]])
                size, best_size = sum(vec), sum(best[0])
                if c > 0 or (c == 0 and (size > best_size or (size == best_size and vec < best[0]))):
                    best = (vec, bases)
            upper = best[1]
        else:
            top = []
            for vec, bases in ahead:
                if not top or phase_compare(tokens[vec], tokens[top[0][0]]) > 0:
                    top = [(vec, bases)]
                elif phase_compare(tokens[top[0][0]], tokens[vec]) <= 0:
                    top.append((vec, bases))
            upper = rep_lab._join_witnesses_from(top)
        factor = rep_lab._subquotient(m, lower, upper)
        factors.append((factor, PhaseToken(charge.evaluate(factor.dims), 0)))
        lower = upper
    for (_, a), (_, b) in zip(factors, factors[1:]):
        assert phase_compare(a, b) > 0
    return factors


def _random_half_plane_charge(rng, k):
    """Values in H with small denominators; sometimes negative real rays,
    sometimes all on one ray."""
    def value():
        den = rng.choice((1, 2, 3, 4))
        if rng.random() < 0.25:
            return gauss(Fraction(-rng.randint(1, 5), den))
        return gauss(Fraction(rng.randint(-5, 5), den), Fraction(rng.randint(1, 5), rng.choice((1, 2, 3))))

    if rng.random() < 0.15:
        ray = value()
        return CentralCharge(tuple(ray * rng.randint(1, 3) for _ in range(k)))
    return CentralCharge(tuple(value() for _ in range(k)))


def test_theta_and_hn_against_the_token_route():
    rng = random.Random(61)
    quivers = [
        kronecker_quiver(2),
        kronecker_quiver(3),
        Quiver("a3", 3, ((0, 1), (1, 2))),
        Quiver("fork", 3, ((0, 2), (1, 2), (0, 2))),
    ]
    verdicts = Counter()
    for quiver in quivers:
        for _ in range(30):
            m = _random_rep(quiver, rng, top=5 - quiver.vertex_count)
            charge = _random_half_plane_charge(rng, quiver.vertex_count)
            got = rep_lab.theta_test(m, charge, 12)
            assert got == _theta_by_tokens(m, charge, 12), (quiver.name, m, charge)
            verdicts[got.verdict] += 1
            for extractor in ("phase", "slope"):
                assert rep_lab.hn(m, charge, 12, extractor) == _hn_by_tokens(m, charge, 12, extractor)
    assert min(verdicts.values()) >= 10 and len(verdicts) == 3, verdicts


P3_3_6_SEED_3 = """rep p3 3 6
0 -1 -1
0 1 0
0 -1 2
2 0 -2
2 1 1
0 0 -2
0 -2 2
-2 -2 -1
-2 2 0
-1 -1 -2
-2 0 -1
2 -2 -2
-2 2 1
-1 -2 -1
0 -2 2
0 -2 2
2 0 2
-2 1 2
"""
P3_3_6_SEED_10 = """rep p3 3 6
-2 0 -1
-1 -2 -1
-1 1 1
-1 0 0
0 -1 0
2 -1 1
-2 -1 -2
1 1 -1
1 -1 0
-1 0 1
-2 0 2
0 2 -2
2 -1 2
-1 0 1
-2 2 1
-1 1 2
-2 -2 2
-1 0 -1
"""


@pytest.mark.parametrize(
    "text, charge",
    [
        (P3_3_6_SEED_3, ((2, 2), (0, Fraction(1, 4)))),
        (P3_3_6_SEED_10, ((1, Fraction(5, 4)), (Fraction(-3, 2), Fraction(9, 4)))),
    ],
    ids=["seed-3-item-20", "seed-10-item-68"],
)
def test_a_false_mod_2_candidate_certifies_a_p3_vector(text, charge):
    # oracle-stream seeds 3 and 10: the first prime certifies all its
    # candidates, and the lifted F_2 sink subspace of the false candidate
    # (2, 4) gives a source subspace whose corner holds (2, 5), which the
    # scan over every prime left uncertified; verdict and witness stay
    m = rep_lab.parse_rep(text, kronecker_quiver(3))
    charge = CentralCharge(tuple(gauss(*z) for z in charge))
    result = rep_lab.theta_test(m, charge, 12)
    assert result == rep_lab.ThetaResult("unstable", (0, 1), ())
    scan = rep_lab.subrep_dimvecs(m, 12)
    assert rep_lab._check_general_witness(m, (2, 5), scan.witnesses[(2, 5)])
    assert _scan_over_every_prime(m).uncertified == ((2, 5),)


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
    for short in ("rep p2 2", "rep", "rep p2 2 1 1\n1 2\n0 3\n"):
        with pytest.raises(ValueError, match="rep header"):
            rep_lab.parse_rep(short, q)


def test_a_zero_dimensional_source_reads_no_line():
    # its rows hold no entry, so they print as blank lines, which are skipped
    a3 = Quiver("a3", 3, ((0, 1), (1, 2)))
    for m in (
        rep_lab.make_rep(kronecker_quiver(2), (0, 2), [[[], []], [[], []]]),
        rep_lab.make_rep(a3, (0, 1, 1), [[[]], [[Fraction(-2, 3)]]]),
    ):
        assert rep_lab.parse_rep(rep_lab.format_rep(m), m.quiver) == m
    assert rep_lab.parse_rep("rep p2 0 2\n", kronecker_quiver(2)).dims == (0, 2)


def test_verdicts_are_over_the_rationals():
    # End(M) is QQ(sqrt 2): over QQ(sqrt 2) the eigenvectors of B span a
    # (1, 1) subrep of M's phase, but over QQ there is none, so M is stable
    q = kronecker_quiver(2)
    m = rep_lab.parse_rep("rep p2 2 2\n1 0\n0 1\n0 2\n1 0\n", q)
    charge = CentralCharge((gauss(-1), gauss(1, 1)))
    assert rep_lab.theta_test(m, charge) == rep_lab.ThetaResult("stable", None, ())
    scan = rep_lab.subrep_dimvecs(m)
    assert scan.vectors == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))
    assert (1, 1) not in scan.vectors


def test_frac_inverse():
    singular = _linalg.frac_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert _linalg.frac_inverse(singular) is None
    a = _linalg.frac_matrix([[2, 0, 1], [1, 3, -1], [0, 1, 1]])
    inv = _linalg.frac_inverse(a)
    assert _linalg.frac_matmul(a, inv) == _linalg.frac_identity(3)
    with pytest.raises(ValueError):
        _linalg.frac_inverse(_linalg.frac_matrix([[1, 2, 3], [4, 5, 6]]))


def _entries_mod_p(mat, p):
    return [[x.numerator * pow(x.denominator, p - 2, p) % p for x in row] for row in mat]


def test_arrows_mod_p_and_the_rep_hash():
    # each arrow's entries mod p over one lcm L of every denominator, L = 7 * 11 * 6
    # here, equal the entries read one by one
    rng = random.Random(58)
    p = 10007
    q = kronecker_quiver(2)
    dens = ((1, 1, 2, 3, 7), (1, 11))
    mats = [[[Fraction(rng.randint(-50, 50), rng.choice(d)) for _ in range(5)] for _ in range(4)] for d in dens]
    m = rep_lab.make_rep(q, (5, 4), mats)
    assert rep_lab._integer_arrows(m)[1] == math.lcm(*(x.denominator for mat in mats for row in mat for x in row))
    assert [x.tolist() for x in rep_lab._arrows_mod_p(m, p)] == [_entries_mod_p(mat, p) for mat in m.matrices]
    empty = rep_lab.make_rep(q, (0, 2), [[[], []], [[], []]])
    assert [x.shape for x in rep_lab._arrows_mod_p(empty, p)] == [(2, 0), (2, 0)]
    a = _random_rep(q, rng, dims=(3, 2))
    b = rep_lab.make_rep(q, a.dims, a.matrices)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(a) == hash((a.quiver, a.dims, a.matrices))
    assert b == a and repr(a) == repr(b)


def test_dual_and_arrows_mod_p_are_kept_on_the_rep():
    q = kronecker_quiver(3)
    rng = random.Random(59)
    a = _random_rep(q, rng, dims=(3, 2))
    d = rep_lab.dual(a)
    assert rep_lab.dual(d) is a and rep_lab.dual(a) is d
    p = 10007
    arrows = rep_lab._arrows_mod_p(a, p)
    assert [x.tolist() for x in arrows] == [_entries_mod_p(mat, p) for mat in a.matrices]
    assert rep_lab._arrows_mod_p(a, p)[0].base is arrows[0].base
    assert not any(x.flags.writeable for x in arrows)
    # the stack of a parallel quiver is a view of the same array, shaped by
    # the dims also when it is empty
    stack = rep_lab._stack_mod_p(a, p)
    assert stack.base is arrows[0].base and stack.shape == (3, 2, 3)
    assert [x.tolist() for x in stack] == [x.tolist() for x in arrows]
    for dims, shape in (((0, 2), (2, 0)), ((3, 0), (0, 3))):
        r = _random_rep(q, rng, dims=dims)
        assert [x.shape for x in rep_lab._arrows_mod_p(r, p)] == [shape] * 3
        assert rep_lab._stack_mod_p(r, p).shape == (3, *shape)
    # what is kept on a rep leaves equality, hashing and the cache keys alone
    b = rep_lab.make_rep(q, a.dims, a.matrices)
    assert a == b and b == a and repr(a) == repr(b)
    assert hash(a) == hash(b) == hash((a.quiver, a.dims, a.matrices))
    assert rep_lab.dual(b) == d and rep_lab.dual(b) is not d
    assert rep_lab.hom_ext(b, d) is rep_lab.hom_ext(a, rep_lab.dual(b))


def _with_denominators(rep, dens):
    """rep with entry (0, 0) of arrow k replaced by 1 / dens[k]."""
    mats = [[list(row) for row in mat] for mat in rep.matrices]
    for k, den in enumerate(dens):
        mats[k][0][0] = Fraction(1, den)
    return rep_lab.make_rep(rep.quiver, rep.dims, mats)


def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    q = kronecker_quiver(2)
    rng = random.Random(60)
    tried = []
    # a solver that never certifies, so every usable prime is tried
    monkeypatch.setattr(rep_lab, "_hom_mod_p_reduced", lambda m, n, p: tried.append(p) or 10**6)
    for dens in ((), (10007,), (10009, 10037), (10007 * 10009, 10037 * 10039), (3, 10039)):
        a = _random_rep(q, rng, dims=(2, 3))
        b = _with_denominators(_random_rep(q, rng, dims=(2, 3)), dens)
        want = [
            p
            for p in rep_lab.LARGE_PRIMES
            if all(x.denominator % p for r in (a, b) for mat in r.matrices for row in mat for x in row)
        ]
        tried.clear()
        he = rep_lab.hom_ext(a, b)
        assert tried == want, dens
        assert he.method == "exact-fallback"
        assert (he.hom, he.ext) == _hom_ext_by_elimination(a, b)
        for p in set(rep_lab.LARGE_PRIMES) - set(want):
            with pytest.raises(ValueError, match="divides a denominator"):
                rep_lab._arrows_mod_p(b, p)
    # the enumeration primes skip the same way
    m = _with_denominators(_random_rep(q, rng, dims=(3, 3)), (6,))
    assert _two_vertex_primes(m) == [5, 7, 11]
    assert _two_vertex_primes(_random_rep(q, rng, dims=(3, 3))) == [2, 3, 5]


def test_a_general_scan_takes_the_two_vertex_prime_rule(monkeypatch):
    # with 2 dividing a denominator, the scan takes the next three primes,
    # all within the budgets
    chosen = []
    enum_primes = rep_lab._enum_primes
    monkeypatch.setattr(
        rep_lab, "_enum_primes", lambda m, count: chosen.append(enum_primes(m, count)) or chosen[-1]
    )
    a3 = Quiver("a3", 3, ((0, 1), (1, 2)))
    m = _with_denominators(_random_rep(a3, random.Random(61), dims=(2, 2, 2)), (2,))
    scan = rep_lab._subrep_cached.__wrapped__(m)
    assert chosen == [[3, 5, 7]]
    assert (0, 0, 0) in scan.vectors and (2, 2, 2) in scan.vectors


GENERAL_QUIVERS = (
    Quiver("a3", 3, ((0, 1), (1, 2))),
    Quiver("fork", 3, ((0, 2), (0, 2), (1, 2))),
    Quiver("triangle", 3, ((0, 1), (0, 2), (1, 2))),
)


def _maps_into_mod_p(us, ut, amat, p) -> bool:
    return _linalg.mod_p_rank(np.vstack([ut, us @ amat.T % p]), p) == ut.shape[0]


def _general_scan_over_every_prime(m: rep_lab.QuiverRep) -> rep_lab.SubrepScan:
    """The general scan with every chosen prime over every tuple of
    subspaces: the vectors found over all of them are then certified one
    by one, each by the lift of its first tuple at the first prime whose
    lift is a subrep.  itertools.product takes the tuples in the order the
    depth-first scan reaches them."""
    per_prime = []
    for p in rep_lab._enum_primes(m, lambda p: math.prod(_linalg.count_subspaces(d, p) for d in m.dims)):
        amats = rep_lab._arrows_mod_p(m, p)
        found = {}
        for tup in product(*(list(_all_subspaces_mod_p(d, p)) for d in m.dims)):
            if all(_maps_into_mod_p(tup[s], tup[t], a, p) for (s, t), a in zip(m.quiver.arrows, amats)):
                found.setdefault(tuple(u.shape[0] for u in tup), tup)
        per_prime.append((p, found))
    surviving = set.intersection(*(set(found) for _, found in per_prime))
    witnesses = {}
    for vec in sorted(surviving):
        for p, found in per_prime:
            lifted = tuple(
                tuple(tuple(Fraction(x) for x in row) for row in _linalg.centered_lift(u, p).tolist())
                for u in found[vec]
            )
            if rep_lab._check_general_witness(m, vec, lifted):
                witnesses[vec] = lifted
                break
    return rep_lab.SubrepScan(
        tuple(sorted(witnesses)), witnesses, tuple(sorted(surviving - set(witnesses)))
    )


def test_general_scan_with_primes_on_demand_against_the_scan_over_every_prime(monkeypatch):
    calls = _enumerated(monkeypatch)
    rng = random.Random(63)
    later = scans = 0
    while scans < 60:
        quiver = rng.choice(GENERAL_QUIVERS)
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        if not any(dims):
            continue
        # even entries vanish mod 2, so the later primes have work to do
        entries = rng.choice(((-3, -2, -1, 0, 1, 2, 3), (-1, 0, 1), (-2, 0, 2), (-4, -2, 1, 2)))
        mats = [
            [[Fraction(rng.choice(entries)) for _ in range(dims[s])] for _ in range(dims[t])]
            for s, t in quiver.arrows
        ]
        m = rep_lab.make_rep(quiver, dims, mats)
        calls.clear()
        got = rep_lab._subrep_cached.__wrapped__(m)
        later += len({p for _, _, p in calls}) > 1
        scans += 1
        assert got == _general_scan_over_every_prime(m), m
    # a third of the scans need a later prime, so the comparison is not vacuous
    assert later > scans / 3


def test_enum_general_against_the_tuples_of_every_subspace():
    # the annihilator test of each closing arrow keeps the candidates and the
    # first tuple of each that a rank test over every tuple of subspaces finds
    rng = random.Random(64)
    tree = Quiver("tree", 4, ((0, 1), (2, 1), (1, 3)))
    for quiver in (*GENERAL_QUIVERS, tree):
        for p in (2, 3):
            for _ in range(10):
                m = _random_rep(quiver, rng, top=2)
                amats = rep_lab._arrows_mod_p(m, p)
                want = {}
                for tup in product(*(list(_all_subspaces_mod_p(d, p)) for d in m.dims)):
                    if all(_maps_into_mod_p(tup[s], tup[t], a, p) for (s, t), a in zip(quiver.arrows, amats)):
                        want.setdefault(tuple(u.shape[0] for u in tup), [u.tolist() for u in tup])
                got = rep_lab._enum_general(m, p, None)
                assert {vec: [u.tolist() for u in tup] for vec, tup in got.items()} == want, m
                pending = set(rng.sample(sorted(want), len(want) // 2))
                got = rep_lab._enum_general(m, p, pending)
                assert {vec: [u.tolist() for u in tup] for vec, tup in got.items()} == {
                    vec: want[vec] for vec in pending
                }


def test_a_general_scan_follows_a_later_prime_only_toward_open_vectors(monkeypatch):
    steps = []
    enum_general = rep_lab._enum_general

    def recorded(m, p, pending):
        found = enum_general(m, p, pending)
        steps.append((p, pending and sorted(pending), sorted(found)))
        return found

    monkeypatch.setattr(rep_lab, "_enum_general", recorded)
    a3 = Quiver("a3", 3, ((0, 1), (1, 2)))
    subreps = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    # F_2 finds only true subreps, whose lifts certify them: one prime
    scan = rep_lab._subrep_cached.__wrapped__(rep_lab.make_rep(a3, (1, 1, 1), [[[1]], [[1]]]))
    assert (list(scan.vectors), scan.uncertified) == (subreps, ())
    assert steps == [(2, None, subreps)]
    # both arrows vanish mod 2 and mod 3, so F_2 finds all eight vectors and
    # four stay open; F_3 follows only tuples toward those four and finds
    # them again, and F_5 finds none of them
    steps.clear()
    scan = rep_lab._subrep_cached.__wrapped__(rep_lab.make_rep(a3, (1, 1, 1), [[[6]], [[6]]]))
    assert (list(scan.vectors), scan.uncertified) == (subreps, ())
    every = sorted(product((0, 1), repeat=3))
    rest = sorted(set(every) - set(subreps))
    assert steps == [(2, None, every), (3, rest, rest), (5, rest, [])]


def test_hom_ext_methods_on_the_helix_pairs():
    # every pair of S(3, k), |k| <= 4, is certified by the first large prime;
    # routing to the dual side reaches 28 pairs already in the cache
    mods = {k: pn_model.helix_module(3, k)[0] for k in range(-4, 5)}
    rep_lab.hom_ext.cache_clear()
    methods = Counter(rep_lab.hom_ext(mods[i], mods[j]).method for i in mods for j in mods)
    info = rep_lab.hom_ext.cache_info()
    assert methods == {f"mod-{rep_lab.LARGE_PRIMES[0]}": 81}
    assert (info.hits, info.misses) == (28, 89)


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
