"""Exact and modular linear algebra kernels.

Fraction-valued routines back every certified claim; mod-p routines (numpy,
vectorized) provide fast rank computation and candidate enumeration whose
results are either certified over QQ afterwards or discarded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

Row = list[Fraction]
Matrix = list[Row]


def frac_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def frac_identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def frac_matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append([sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)])
    return out


def frac_matvec(a: Matrix, v: Row) -> Row:
    return [sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a]


def frac_rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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


def frac_rank(rows: Matrix) -> int:
    return len(frac_rref(rows)[1])


def frac_kernel(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel, one vector per row."""
    rref, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def frac_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A X = B columnwise; None when inconsistent.

    When the solution is not unique the free variables are set to zero.
    """
    if not a:
        return [[] for _ in b] if b else []
    n = len(a[0])
    k = len(b[0]) if b else 0
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    rref, pivots = frac_rref(aug)
    for row in rref:
        if all(x == 0 for x in row[:n]) and any(x != 0 for x in row[n:]):
            return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for r, pc in enumerate([p for p in pivots if p < n]):
        for j in range(k):
            x[pc][j] = rref[r][n + j]
    return x


def frac_inverse(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix; None when singular.

    For square A, A X = I is consistent exactly when A is invertible, so
    the one elimination in frac_solve decides both.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    return frac_solve(a, frac_identity(n))


def extend_to_basis(vectors: Matrix, dim: int) -> Matrix:
    """Complete independent row vectors to a full basis using unit vectors."""
    basis = [list(v) for v in vectors]
    rank = frac_rank(basis) if basis else 0
    if rank != len(basis):
        raise ValueError("input vectors are dependent")
    for c in range(dim):
        if rank == dim:
            break
        unit = [Fraction(1 if j == c else 0) for j in range(dim)]
        if frac_rank(basis + [unit]) > rank:
            basis.append(unit)
            rank += 1
    return basis


def row_space_basis(rows: Matrix) -> Matrix:
    rref, pivots = frac_rref(rows)
    return [rref[i] for i in range(len(pivots))]


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pval = m[r][c]
        for i in range(r + 1, nrows):
            ival = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for k in range(c, ncols):
                row_i[k] = (row_i[k] * pval - row_r[k] * ival) // prev
        prev = pval
        r += 1
    return r


# -- modular kernels -------------------------------------------------------


def mod_p_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots


def mod_p_rank(mat: np.ndarray, p: int) -> int:
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return 0
    rank = 0
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1 :, c].copy()
        if below.size:
            m[r + 1 :] = (m[r + 1 :] - np.outer(below, m[r])) % p
        rank += 1
        r += 1
    return rank


def mod_p_kernel(mat: np.ndarray, p: int) -> np.ndarray:
    """Right-kernel basis mod p, one vector per row."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    rref, pivots = mod_p_rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-int(rref[r, fc])) % p
    return basis


def mod_p_inverse(mat: np.ndarray, p: int) -> np.ndarray | None:
    m = np.array(mat, dtype=np.int64) % p
    n = m.shape[0]
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    rref, pivots = mod_p_rref(aug, p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return rref[:n, n:]


def centered_lift(mat: np.ndarray, p: int) -> np.ndarray:
    m = np.array(mat, dtype=np.int64) % p
    return np.where(m > p // 2, m - p, m)


def gaussian_binomial(d: int, e: int, p: int) -> int:
    if e < 0 or e > d:
        return 0
    num = den = 1
    for i in range(e):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def count_subspaces(d: int, p: int) -> int:
    return sum(gaussian_binomial(d, e, p) for e in range(d + 1))


def subspaces_mod_p(d: int, e: int, p: int):
    """All e-dimensional subspaces of F_p^d as RREF basis matrices (e x d)."""
    if e == 0:
        yield np.zeros((0, d), dtype=np.int64)
        return
    for piv in combinations(range(d), e):
        free_slots = [
            (i, j)
            for i in range(e)
            for j in range(piv[i] + 1, d)
            if j not in piv
        ]
        base = np.zeros((e, d), dtype=np.int64)
        for i, c in enumerate(piv):
            base[i, c] = 1
        if not free_slots:
            yield base.copy()
            continue
        for vals in product(range(p), repeat=len(free_slots)):
            m = base.copy()
            for (i, j), v in zip(free_slots, vals):
                m[i, j] = v
            yield m


def all_subspaces_mod_p(d: int, p: int):
    for e in range(d + 1):
        yield from subspaces_mod_p(d, e, p)
