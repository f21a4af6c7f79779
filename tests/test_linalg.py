"""Exact and mod-p kernels against pure-Python Gauss-Jordan references.

Row counts run from 1 to 200, so the mod-p elimination, of one matrix
and of a stack, is compared on small and large cases with one
pivot-at-a-time elimination that shares no code with the package.  The
fraction-free exact kernel is compared with a Gauss-Jordan in Fraction
arithmetic.
"""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _peel_entries(m: np.ndarray):
    """Peel a matrix reduced mod p, given by its nonzero entries."""
    rows, cols = np.nonzero(m)
    return _linalg._peel(rows, cols, m[rows, cols], m.shape)


def _peel_case(rows, p: int, peeled: int, rest_shape: tuple[int, int]):
    """Check the peel of rows against its expected split and the reference rank."""
    m = np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else 0)
    rank, rest = _peel_entries(m % p)
    assert (rank, rest.shape) == (peeled, rest_shape), rows
    assert rank + len(_reference_rref(rest.tolist(), p)[1]) == len(_reference_rref(m.tolist(), p)[1])
    assert _linalg.mod_p_rank(m, p) == len(_reference_rref(m.tolist(), p)[1])


def test_peeling_splits_the_rank_exactly():
    # singleton rows that share a column count once; the row left over
    # then peels by its singleton columns
    _peel_case([[0, 3, 0], [0, 5, 0], [1, 1, 1]], 7, 2, (0, 0))
    # singleton columns that share a row count once; a dense 2x2 is left
    _peel_case([[1, 1, 5, 7], [0, 0, 2, 3], [0, 0, 4, 1]], 11, 1, (2, 2))
    _peel_case([[1, 1, 5, 7], [0, 0, 2, 3], [0, 0, 4, 6]], 11, 1, (2, 2))  # rest singular
    # a bidiagonal chain: each peel exposes the next singleton row, and the
    # transposed chain the next singleton column
    chain = [[int(j in (i, i + 1)) for j in range(6)] for i in range(6)]
    _peel_case(chain, 5, 6, (0, 0))
    _peel_case([list(c) for c in zip(*chain)], 5, 6, (0, 0))
    # zero rows and columns, and entries that vanish only mod p, hold no
    # entry and so are not in the rest
    _peel_case([[0, 0, 0], [0, 7, 0], [0, 0, 0]], 7, 0, (0, 0))
    _peel_case([[0, 2, 0, 3], [0, 0, 0, 0], [0, 4, 0, 1]], 5, 0, (2, 2))
    # a dense matrix does not peel
    _peel_case([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 13, 0, (3, 3))
    for shape in ((0, 4), (3, 0), (0, 0)):
        m = np.zeros(shape, dtype=np.int64)
        rank, rest = _peel_entries(m)
        assert rank == 0 and rest.size == 0
        assert _linalg.mod_p_rank(m, 7) == 0


def test_a_fully_peeled_matrix_needs_no_elimination(monkeypatch):
    calls = _record_eliminations(monkeypatch)
    rng = random.Random(12)
    # a scaled permutation with extra entries below the diagonal of the
    # permuted rows peels completely, one chain step at a time
    n = 40
    perm = rng.sample(range(n), n)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, perm[i]] = rng.randrange(1, 10007)
        for j in rng.sample(range(i), min(i, 2)):
            m[i, perm[j]] = rng.randrange(10007)
    assert _linalg.mod_p_rank(m, 10007) == n
    assert calls == []
    dense = np.array([[1, 2], [3, 5]], dtype=np.int64)
    assert _linalg.mod_p_rank(dense, 10007) == 2
    assert calls == [(1, 2, 2)]


def _record_eliminations(monkeypatch):
    """Patch _eliminate to record the shape of every stack it is given."""
    calls = []
    eliminate = _linalg._eliminate
    monkeypatch.setattr(_linalg, "_eliminate", lambda m, p: calls.append(m.shape) or eliminate(m, p))
    return calls


def test_a_tall_rest_is_eliminated_transposed(monkeypatch):
    calls = _record_eliminations(monkeypatch)
    rng = np.random.default_rng(5)
    # 90 x 8 of rank 7: every column has many entries, so nothing peels
    m = (rng.integers(1, 10007, (90, 7)) @ rng.integers(1, 10007, (7, 8))) % 10007
    assert _peel_entries(m)[0] == 0
    assert _linalg.mod_p_rank(m, 10007) == _linalg.mod_p_rank(m[None], 10007)[0] == 7
    assert calls == [(1, 8, 90), (1, 8, 90)]


def test_peeling_matches_the_reference_on_sparse_systems():
    rng = random.Random(13)
    for p in PRIMES:
        for rows, cols in ((30, 12), (12, 30), (70, 70), (150, 40)):
            for density in (0.03, 0.1, 0.3):
                m = np.array(
                    [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64,
                )
                assert _linalg.mod_p_rank(m, p) == len(_reference_rref(m.tolist(), p)[1]), (p, rows, cols)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(0, 5).flatmap(
        lambda cols: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, 2, -1)), min_size=cols, max_size=cols), max_size=6)
    ),
)
def test_peeled_rank_plus_the_rest_is_the_rank(p, rows):
    m = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)
    rank = len(_reference_rref(rows, p)[1])
    peeled, rest = _peel_entries(m % p)
    assert peeled + len(_reference_rref(rest.tolist(), p)[1]) == rank
    assert _linalg.mod_p_rank(m, p) == rank


def test_a_prime_too_large_is_refused_before_peeling():
    # the identity peels to nothing, but its elimination sums would not be exact
    with pytest.raises(ValueError, match="too large"):
        _linalg.mod_p_rank(np.eye(3, dtype=np.int64), 2**31 - 1)
    with pytest.raises(ValueError, match="too large"):
        _linalg.mod_p_rank(np.array([[1, 0, 0, 0]], dtype=np.int64), 2**31 - 1)


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


def _subspaces_mod_p(d: int, e: int, p: int):
    """All e-dimensional subspaces of F_p^d as RREF basis matrices (e x d), in scan order."""
    for w, _ in _linalg.subspace_blocks_mod_p(d, e, p):
        yield from w


def _all_subspaces_mod_p(d: int, p: int):
    for e in range(d + 1):
        yield from _subspaces_mod_p(d, e, p)


def test_subspaces_keep_their_order_and_count():
    for p in (2, 3, 5):
        for d in range(5):
            for e in range(d + 1):
                got = [w.tolist() for w in _subspaces_mod_p(d, e, p)]
                assert got == list(_reference_subspaces(d, e, p)), (d, e, p)
                assert len(got) == _linalg.gaussian_binomial(d, e, p)
                for w, c in _linalg.subspace_blocks_mod_p(d, e, p):
                    assert len(w) <= _linalg.CHUNK
                    assert c.shape == (len(w), d - e, d)
                    assert not (w @ c.transpose(0, 2, 1) % p).any()
                    assert (_linalg.mod_p_rank(c, p) == d - e).all()


def test_a_stack_of_runs_pads_every_subspace_to_d_rows():
    rng = random.Random(16)
    for p in (2, 3, 7):
        for d in range(5):
            every = {e: list(_reference_subspaces(d, e, p)) for e in range(d + 1)}
            for _ in range(10):
                parts = []
                for e in sorted(rng.sample(range(d + 1), rng.randint(1, d + 1))):
                    start = rng.randrange(len(every[e]))
                    parts.append((e, start, rng.randint(start + 1, len(every[e]))))
                w, c = _linalg.subspace_stack_mod_p(d, parts, p)
                runs = [(e, k) for e, start, stop in parts for k in range(start, stop)]
                assert w.shape == c.shape == (len(runs), d, d)
                for b, (e, k) in enumerate(runs):
                    assert w[b, :e].tolist() == every[e][k] and not w[b, e:].any()
                    assert not c[b, d - e :].any() and not (w[b] @ c[b].T % p).any()
                    assert _linalg.mod_p_rank(c[b], p) == d - e


def _reference_frac_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    m = [list(r) for r in rows]
    if not m:
        return m, []
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0])):
        if r >= len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _rational(rng: random.Random):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _rational_cases():
    """Random, rank-deficient and degenerate matrices, as int or Fraction rows."""
    rng = random.Random(11)
    yield []
    yield [[]]
    yield [[], [], []]
    yield [[0, 0, 0]]
    yield [[Fraction(3, 4), 0, Fraction(-1, 2)]]
    for rows in range(1, 8):
        for cols in range(1, 9):
            yield [[_rational(rng) for _ in range(cols)] for _ in range(rows)]
            yield [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for rank in range(min(rows, cols)):
                left = [[_rational(rng) for _ in range(rank)] for _ in range(rows)]
                right = [[_rational(rng) for _ in range(cols)] for _ in range(rank)]
                m = [
                    [sum((x * b[j] for x, b in zip(a, right)), Fraction(0)) for j in range(cols)]
                    for a in left
                ]
                for c in rng.sample(range(cols), cols // 3):
                    for row in m:
                        row[c] = Fraction(0)
                if rows > 1:
                    m[rng.randrange(rows)] = [Fraction(0)] * cols
                yield m


def _reference_kernel(rows, ncols: int):
    """The kernel read off the reference RREF, one vector per free column."""
    ref, pivots = _reference_frac_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(int(c == fc)) for c in range(ncols)]
            for r, pc in enumerate(pivots):
                v[pc] = -ref[r][fc]
            basis.append(v)
    return basis


def _all_fractions(rows) -> bool:
    return all(isinstance(x, Fraction) for row in rows for x in row)


def _check_solve(a, b, consistent: bool):
    x = _linalg.frac_solve(a, b)
    if not consistent:
        assert x is None, (a, b)
        return
    n = len(a[0]) if a else 0
    k = len(b[0]) if b else 0
    assert len(x) == n and all(len(row) == k for row in x) and _all_fractions(x), (a, b)
    for ra, rb in zip(a, b):
        assert [sum((ra[i] * x[i][j] for i in range(n)), Fraction(0)) for j in range(k)] == rb
    # the free variables are zero
    pivots = _reference_frac_rref(a)[1]
    assert all(not any(x[c]) for c in range(n) if c not in pivots), (a, b)


def _rescaled(rows, rng: random.Random):
    """Each row times its own nonzero rational."""
    out = []
    for row in rows:
        f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
        out.append([f * x for x in row])
    return out


def test_exact_kernel_matches_the_fraction_reference():
    rng = random.Random(14)
    inconsistent = 0
    for rows in _rational_cases():
        before = copy.deepcopy(rows)
        ref, ref_pivots = _reference_frac_rref(rows)
        rref, pivots = _linalg.frac_rref(rows)
        assert rows == before
        assert pivots == ref_pivots, rows
        assert rref == ref, rows
        assert _all_fractions(rref)
        assert _linalg.int_rank(rows) == len(ref_pivots)
        ncols = len(rows[0]) if rows else 0
        kernel = _linalg.frac_kernel(rows, ncols)
        assert kernel == _reference_kernel(rows, ncols), rows
        assert _all_fractions(kernel)
        assert rows == before
        # a rescaled row leaves the RREF, the kernel and the span basis alone
        scaled = _rescaled(rows, rng)
        assert _linalg.frac_rref(scaled) == (rref, pivots), rows
        assert _linalg.frac_kernel(scaled, ncols) == kernel, rows
        assert _linalg.span_and_complement(scaled, ncols) == _linalg.span_and_complement(rows, ncols)
        if not rows or not ncols:
            continue
        # A X = B with B in the column space of A, then with one column outside
        x = [[_rational(rng) for _ in range(2)] for _ in range(ncols)]
        b = [[sum((r[i] * x[i][j] for i in range(ncols)), Fraction(0)) for j in range(2)] for r in rows]
        _check_solve(rows, b, True)
        _check_solve(rows, [[] for _ in rows], True)  # no right-hand columns
        if len(ref_pivots) < len(rows):
            # y A = 0 for y in the left kernel, so a column c with y c != 0,
            # such as y itself, lies outside the column space
            y = _reference_kernel([list(c) for c in zip(*rows)], len(rows))[0]
            _check_solve(rows, [[*rb, yi] for rb, yi in zip(b, y)], False)
            inconsistent += 1
    assert inconsistent > 50
    # A without columns: consistent exactly when B is zero
    _check_solve([[], []], [[Fraction(0)], [Fraction(0)]], True)
    _check_solve([[], []], [[Fraction(0)], [Fraction(1, 2)]], False)
    assert _linalg.frac_solve([[], []], [[1], [0]]) is None


def _primitive_cases():
    """Integer and rational matrices, denominators 7 and 11, with zero rows
    and columns, empty, rank-deficient and full-rank."""
    rng = random.Random(28)
    yield []
    yield [[]]
    yield [[0, 0, 0], [0, 0, 0]]
    yield [[Fraction(0), Fraction(0)]]
    for rows in range(1, 6):
        for cols in range(1, 7):
            full = [[0] * cols for _ in range(rows)]
            for i in range(min(rows, cols)):
                full[i][i] = rng.choice((-6, -2, 3, 4))
                full[i][i + 1 :] = [rng.randint(-4, 4) for _ in range(cols - i - 1)]
            yield full
            for _ in range(4):
                mats = (
                    [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                    [[Fraction(rng.randint(-6, 6), rng.choice((1, 7, 11, 77))) for _ in range(cols)] for _ in range(rows)],
                    # a common factor per row, which the gcd divides out
                    [[rng.choice((2, -3, 6)) * rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)],
                )
                for m in mats:
                    if rows > 1 and rng.random() < 0.3:
                        m[rng.randrange(rows)] = [0] * cols
                    if cols > 1 and rng.random() < 0.3:
                        c = rng.randrange(cols)
                        for row in m:
                            row[c] = 0
                    yield m


def _positive_primitive(ints, fracs) -> bool:
    """ints is a row of ints with gcd 1, a positive multiple of the Fraction row fracs."""
    k = next((i for i, x in enumerate(fracs) if x), None)
    if k is None or len(ints) != len(fracs) or any(type(x) is not int for x in ints):
        return False
    c = ints[k] / fracs[k]
    return c > 0 and math.gcd(*ints) == 1 and all(x == c * y for x, y in zip(ints, fracs))


def test_integer_readers_are_positive_primitive_multiples_of_the_fraction_readers():
    count = 0
    for rows in _primitive_cases():
        ncols = len(rows[0]) if rows else 0
        kernel, want = _linalg.int_kernel(rows, ncols), _linalg.frac_kernel(rows, ncols)
        assert len(kernel) == len(want) and all(map(_positive_primitive, kernel, want)), rows
        rref, pivots = _linalg.int_rref(rows)
        frac, frac_pivots = _linalg.frac_rref(rows)
        assert pivots == frac_pivots and len(rref) == len(pivots), rows
        assert all(map(_positive_primitive, rref, frac)), rows
        # the span basis is the reference RREF of the reversed columns, read back
        basis, units = _linalg.span_and_complement(rows, ncols)
        ref, ref_pivots = _reference_frac_rref([list(r)[::-1] for r in rows])
        span = [row[::-1] for row in reversed(ref[: len(ref_pivots)])]
        assert len(basis) == len(span) and all(map(_positive_primitive, basis, span)), rows
        assert all(type(x) is int for u in units for x in u) and sorted(map(sum, units)) == [1] * len(units)
        # integer rows fed back in keep their answers
        assert _linalg.frac_rref(rref) == (frac[: len(pivots)], pivots), rows
        assert _linalg.int_kernel(rref, ncols) == kernel, rows
        count += len(kernel) + len(rref) + len(basis)
    assert count > 1000


def test_the_kernel_of_a_lifted_rref_is_read_off_its_rows():
    # the centered lift of a mod-p RREF keeps its zeros and unit pivots
    seen = 0
    for p in (2, 3, 5):
        for d in range(5):
            for w in _all_subspaces_mod_p(d, p):
                got = _linalg.lifted_kernel(w, p)
                assert got == _linalg.frac_kernel(_linalg.centered_lift(w, p).tolist(), d), (w, p)
                assert all(type(x) is int for row in got for x in row) and len(got) == d - len(w)
                seen += 1
    assert seen > 1000


def _frac_matvec(a, v):
    """A v, each entry one integer sum over a common denominator."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    vden = math.lcm(*(x.denominator for _, x in nonzero))
    vnum = [(k, x.numerator * (vden // x.denominator)) for k, x in nonzero]
    out = []
    for row in a:
        den = math.lcm(*(row[k].denominator for k, _ in vnum))
        total = sum(row[k].numerator * (den // row[k].denominator) * x for k, x in vnum)
        out.append(Fraction(total, den * vden))
    return out


def test_frac_matvec_matches_the_naive_sum():
    rng = random.Random(12)
    for rows in _rational_cases():
        cols = len(rows[0]) if rows else 0
        for v in (
            [_rational(rng) for _ in range(cols)],
            [rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(cols)],
            [Fraction(0)] * cols,
        ):
            got = _frac_matvec(rows, v)
            assert got == [sum((row[k] * v[k] for k in range(cols)), Fraction(0)) for row in rows]
            assert all(isinstance(x, Fraction) for x in got)


def test_integer_images_are_the_images_times_a_scalar():
    rng = random.Random(15)
    for rows in _rational_cases():
        cols = len(rows[0]) if rows else 0
        lcm = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
        ints = [[int(x * lcm) for x in row] for row in rows]
        vs = [[_rational(rng) for _ in range(cols)], [Fraction(0)] * cols]
        got = _linalg.int_images([ints, ints[::-1]], vs)
        assert len(got) == 4 and all(type(x) is int for row in got for x in row)
        for img, (v, a) in zip(got, [(v, a) for v in vs for a in (ints, ints[::-1])]):
            scale = math.lcm(*(x.denominator for x in v))
            assert img == [x * scale for x in _frac_matvec(a, v)]


def test_frac_coordinates_is_the_greedy_pass_and_the_coordinates_on_it():
    rng = random.Random(16)
    outside = 0
    for rows in _rational_cases():
        dim = len(rows[0]) if rows else 0
        kept = []
        for i, row in enumerate(rows):
            if len(_reference_frac_rref([rows[j] for j in kept] + [row])[1]) > len(kept):
                kept.append(i)
        inside = [
            [sum((rng.randint(-2, 2) * row[c] for row in rows), Fraction(0)) for c in range(dim)]
            for _ in range(2)
        ]
        other = [_rational(rng) for _ in range(dim)]
        for vectors in (inside, inside + [other], []):
            got_kept, coords = _linalg.frac_coordinates(rows, vectors)
            assert got_kept == kept, rows
            spanned = len(_reference_frac_rref([rows[i] for i in kept] + vectors)[1]) == len(kept)
            if not spanned:
                assert coords is None
                outside += 1
                continue
            assert len(coords) == len(kept) and _all_fractions(coords)
            for j, v in enumerate(vectors):
                combo = [
                    sum((coords[r][j] * rows[i][c] for r, i in enumerate(kept)), Fraction(0))
                    for c in range(dim)
                ]
                assert combo == v, (rows, v)
    assert outside > 50


def _greedy_extension(vectors, dim: int):
    basis = [list(v) for v in vectors]
    rank = len(_reference_frac_rref(basis)[1])
    if rank != len(basis):
        raise ValueError("input vectors are dependent")
    for c in range(dim):
        if rank == dim:
            break
        unit = [Fraction(1 if j == c else 0) for j in range(dim)]
        if len(_reference_frac_rref(basis + [unit])[1]) > rank:
            basis.append(unit)
            rank += 1
    return basis


def test_extend_to_basis_matches_the_greedy_pass():
    rng = random.Random(13)
    dependent = 0
    for m in _rational_cases():
        dim = len(m[0]) if m else 0
        for vectors in (m, m[: rng.randint(0, len(m))], _reference_frac_rref(m)[0][: len(m) // 2]):
            try:
                want = _greedy_extension(vectors, dim)
            except ValueError:
                dependent += 1
                with pytest.raises(ValueError, match="dependent"):
                    _linalg.extend_to_basis(vectors, dim)
                continue
            assert _linalg.extend_to_basis(vectors, dim) == want, vectors
    assert dependent > 100
    assert _linalg.extend_to_basis([], 3) == _linalg.frac_identity(3)


def test_span_and_complement_on_dependent_rows():
    # a basis of the span, independent, and the units the greedy pass adds to it
    for m in _rational_cases():
        dim = len(m[0]) if m else 0
        basis, units = _linalg.span_and_complement(m, dim)
        rank = len(_reference_frac_rref(m)[1])
        assert len(basis) == rank == len(_reference_frac_rref(basis)[1]), m
        assert len(_reference_frac_rref(list(m) + basis)[1]) == rank, m
        assert basis + units == _greedy_extension(basis, dim), m
    # a full span gets the identity, its rows in column order
    assert _linalg.span_and_complement([[2, 1], [1, 1]], 2) == (_linalg.frac_identity(2), [])
