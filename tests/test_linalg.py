"""Mod-p kernels against a pure-Python Gauss-Jordan reference.

Row counts straddle the elimination chunk of 64 rows, so the blocked
reductions and merges are compared with one pivot-at-a-time elimination
that shares no code with the package.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest

from stabctl import _linalg

ROW_COUNTS = (1, 63, 64, 65, 130, 200)
PRIMES = (2, 3, 5, 10007)


def _reference_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    m = [[x % p for x in row] for row in rows]
    width = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _low_rank(rng: random.Random, rows: int, cols: int, rank: int, p: int) -> np.ndarray:
    """A product of rows x rank and rank x cols factors, with zero columns."""
    left = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(rows)], dtype=np.int64)
    right = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rank)], dtype=np.int64)
    m = left.reshape(rows, rank) @ right.reshape(rank, cols) % p
    for c in rng.sample(range(cols), cols // 5):
        m[:, c] = 0
    return m


def _cases():
    rng = random.Random(7)
    for rows in ROW_COUNTS:
        for p in PRIMES:
            for cols in (1, 9, 70):
                full = min(rows, cols)
                for rank in sorted({0, full // 2, full}):
                    m = _low_rank(rng, rows, cols, rank, p)
                    yield rows, p, m
                    if rows > 64:
                        # later chunks find pivots left of the first chunk's
                        late = m.copy()
                        late[:64, : cols // 2] = 0
                        yield rows, p, late


def test_mod_p_rref_rank_and_kernel_match_the_reference():
    for rows, p, m in _cases():
        ref, ref_pivots = _reference_rref(m.tolist(), p)
        rref, pivots = _linalg.mod_p_rref(m, p)
        assert pivots == ref_pivots, (rows, p, m.shape)
        assert rref.tolist() == ref, (rows, p, m.shape)
        assert _linalg.mod_p_rank(m, p) == len(ref_pivots)
        kern = _linalg.mod_p_kernel(m, p)
        assert kern.shape == (m.shape[1] - len(ref_pivots), m.shape[1])
        assert not (m @ kern.T % p).any()
        assert _linalg.mod_p_rank(kern, p) == kern.shape[0]


def _invertible(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Lower times upper unitriangular factor: invertible for every p."""
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    return lower @ upper % p


def test_mod_p_inverse_inverts_or_returns_none():
    rng = np.random.default_rng(8)
    for n in ROW_COUNTS:
        for p in PRIMES:
            a = _invertible(rng, n, p)
            singular = a.copy()
            singular[-1] = a[:-1].sum(axis=0) % p  # in the span of the others
            inv = _linalg.mod_p_inverse(a, p)
            assert (a @ inv % p == np.eye(n, dtype=np.int64)).all(), (n, p)
            assert _linalg.mod_p_inverse(singular, p) is None, (n, p)
    with pytest.raises(ValueError):
        _linalg.mod_p_inverse(np.zeros((2, 3), dtype=np.int64), 5)


def test_mod_p_rref_of_empty_shapes():
    for shape in ((0, 4), (3, 0), (0, 0)):
        rref, pivots = _linalg.mod_p_rref(np.zeros(shape, dtype=np.int64), 7)
        assert rref.shape == (0, shape[1]) and pivots == []
    assert _linalg.mod_p_kernel(np.zeros((0, 3), dtype=np.int64), 7).tolist() == np.eye(3).tolist()


def test_mod_p_refuses_a_prime_too_large_for_float64():
    m = np.array([[1, 2], [3, 4]], dtype=np.int64)
    for fn in (_linalg.mod_p_rref, _linalg.mod_p_rank, _linalg.mod_p_kernel, _linalg.mod_p_inverse):
        with pytest.raises(ValueError, match="too large"):
            fn(m, 2**31 - 1)


def _stack(rng: random.Random, count: int, rows: int, cols: int, p: int) -> np.ndarray:
    """Matrices of every rank from zero to full, the first one zero."""
    full = min(rows, cols)
    return np.stack([_low_rank(rng, rows, cols, b % (full + 1), p) for b in range(count)])


def test_stacked_elimination_matches_the_reference():
    rng = random.Random(9)
    for p in PRIMES:
        for rows, cols in ((3, 7), (7, 3), (5, 5), (1, 4), (12, 2)):
            stack = _stack(rng, 11, rows, cols, p)
            assert not stack[0].any()
            m = stack.copy()
            lead = _linalg._eliminate(m, p)
            rank = (lead < cols).sum(axis=1)
            assert len(set(rank.tolist())) > 1
            for b in range(len(stack)):
                ref, ref_pivots = _reference_rref(stack[b].tolist(), p)
                order = np.argsort(lead[b], kind="stable")
                assert lead[b, order[: rank[b]]].tolist() == ref_pivots, (p, rows, cols, b)
                assert m[b, order[: rank[b]]].tolist() == ref
                assert not m[b, order[rank[b] :]].any()
            assert _linalg.mod_p_rank(stack, p).tolist() == rank.tolist()
            for b in (0, len(stack) - 1):
                assert _linalg.mod_p_rank(stack[b : b + 1], p).tolist() == [
                    _linalg.mod_p_rank(stack[b], p)
                ]
    empty = np.zeros((0, 3, 4), dtype=np.int64)
    assert _linalg.mod_p_rank(empty, 5).tolist() == []
    with pytest.raises(ValueError, match="too large"):
        _linalg.mod_p_rank(np.ones((2, 2, 2), dtype=np.int64), 2**31 - 1)


def _reference_subspaces(d: int, e: int, p: int):
    """RREF bases by pivot pattern, free entries counting up last-first."""
    for piv in combinations(range(d), e):
        slots = [(i, j) for i in range(e) for j in range(piv[i] + 1, d) if j not in piv]
        for vals in product(range(p), repeat=len(slots)):
            w = [[int(j == c) for j in range(d)] for c in piv]
            for (i, j), v in zip(slots, vals):
                w[i][j] = v
            yield w


def test_subspaces_keep_their_order_and_count():
    for p in (2, 3, 5):
        for d in range(5):
            for e in range(d + 1):
                got = [w.tolist() for w in _linalg.subspaces_mod_p(d, e, p)]
                assert got == list(_reference_subspaces(d, e, p)), (d, e, p)
                assert len(got) == _linalg.gaussian_binomial(d, e, p)
                for w, c in _linalg.subspace_blocks_mod_p(d, e, p):
                    assert len(w) <= _linalg.CHUNK
                    assert c.shape == (len(w), d - e, d)
                    assert not (w @ c.transpose(0, 2, 1) % p).any()
                    assert (_linalg.mod_p_rank(c, p) == d - e).all()
