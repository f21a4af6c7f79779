"""Exact and modular linear algebra kernels.

Fraction-valued routines back every certified claim; mod-p routines (numpy,
vectorized) provide fast rank computation and candidate enumeration whose
results are either certified over QQ afterwards or discarded.

There is one mod-p elimination kernel, _eliminate: Gauss-Jordan on a
stack (B, rows, cols), one row of every matrix per step.  mod_p_rank ranks
a whole stack with it, which is how subspace enumeration ranks a block of
up to CHUNK small matrices at once.  mod_p_rref, behind every other mod-p
rank, kernel and inverse, takes the rows CHUNK at a time as a stack of one:
a float64 matrix product reduces the chunk against the basis found so far,
the kernel eliminates the chunk, and a second product clears the basis on
the new pivots (blocked elimination as in Dumas, Giorgi and Pernet,
"FFLAS-FFPACK", ACM TOMS 2008).  The products are exact because every
operand lies in [0, p) and the inner dimension k obeys k (p - 1)^2 < 2^53;
a prime too large for the matrix is refused with ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

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
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return [sum((row[k] * x for k, x in nonzero), Fraction(0)) for row in a]


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


CHUNK = 64


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # entries lie in [0, p), so every partial sum is an integer below
    # inner * (p - 1)**2 < 2**53 and the float64 product is exact
    return (a.astype(np.float64) @ b.astype(np.float64) % p).astype(np.int64)


def _check_prime(inner: int, p: int) -> None:
    if inner and inner * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"p = {p} is too large for exact float64 products of inner size {inner}")


def _eliminate(m: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan in place on a stack (B, rows, cols), one row at a time.

    Step i takes row i of every matrix, already reduced by the rows before
    it: its first nonzero column becomes a pivot, the row is scaled to a
    leading 1 and that column is cleared in every other row.  A row stays
    zero left of its pivot, so the pivot rows sorted by pivot column are the
    reduced row echelon form, and the other rows end up zero.  Returns the
    pivot column of every row, or cols for a zero row, as a (B, rows) array.

    Entries are reduced mod p only where they are read and once at the end:
    each pivot adds less than (p - 1)^2 to an entry, and the caller's check
    on min(rows, cols) keeps the sum below 2^53.
    """
    stack, rows, cols = m.shape
    at = np.arange(stack)
    full = 0  # steps that gave every matrix a pivot
    for i in range(rows if cols else 0):  # without columns there is no pivot
        row = m[:, i]
        row %= p
        lead = (row != 0).argmax(axis=1)
        vals = row[at, lead].tolist()
        if not any(vals):
            continue
        # a zero row scales to zero and clears nothing
        row *= np.array([[pow(x, p - 2, p) if x else 0] for x in vals], dtype=np.int64)
        row %= p
        col = m[at, :, lead] % p
        col[:, i] = 0
        m -= col[:, :, None] * row[:, None, :]
        full += all(vals)
        if full == cols:
            break  # every column is a pivot column, the rows below are cleared
    m %= p
    # the first nonzero of each row, or the marker column after the last
    marked = np.concatenate([m != 0, np.ones((stack, rows, 1), dtype=bool)], axis=2)
    return marked.argmax(axis=2)


def mod_p_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Nonzero rows of the reduced row echelon form mod p, with their pivots.

    Returns (k x cols array, pivot column list) for a matrix of rank k.
    Rows are taken CHUNK at a time: one product reduces a chunk against
    the basis found so far, the chunk is eliminated on its own, and a
    second product clears the basis on the chunk's new pivots.  The basis
    is kept on its free columns only, since its pivot block is the identity.
    """
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    _check_prime(min(rows, cols), p)
    pivots: list[int] = []
    free = np.arange(cols)
    red = m[:0]
    for start in range(0, rows, CHUNK):
        chunk = m[start : start + CHUNK]
        if pivots:
            chunk = (chunk[:, free] - _matmul_mod(chunk[:, pivots], red, p)) % p
        lead = _eliminate(chunk[None], p)[0]
        # pivot rows by pivot column; zero rows, marked by lead == cols, sort last
        order = np.argsort(lead)[: np.count_nonzero(lead < chunk.shape[1])]
        chunk, new = chunk[order], lead[order].tolist()
        if not pivots and start + CHUNK >= rows:
            return chunk, new
        if not new:
            continue
        red = (red - _matmul_mod(red[:, new], chunk, p)) % p
        keep = np.ones(free.size, dtype=bool)
        keep[new] = False
        red = np.concatenate([red, chunk])[:, keep]
        pivots += free[new].tolist()
        free = free[keep]
    basis = np.zeros((len(pivots), cols), dtype=np.int64)
    basis[:, free] = red
    basis[range(len(pivots)), pivots] = 1
    order = np.argsort(pivots)
    return basis[order], sorted(pivots)


def mod_p_rank(mat: np.ndarray, p: int):
    """Rank mod p of a matrix, or an array of ranks for a stack (B, rows, cols).

    A stack is eliminated whole, without chunks, so it suits many small
    matrices; it is transposed when that makes the rows, one step each, fewer.
    """
    if np.ndim(mat) == 2:
        return len(mod_p_rref(mat, p)[1])
    m = np.array(mat, dtype=np.int64) % p
    _check_prime(min(m.shape[1:]), p)
    if m.shape[1] > m.shape[2]:
        m = m.transpose(0, 2, 1)
    return (_eliminate(m, p) < m.shape[2]).sum(axis=1)


def mod_p_kernel(mat: np.ndarray, p: int) -> np.ndarray:
    """Right-kernel basis mod p, one vector per row."""
    rref, pivots = mod_p_rref(mat, p)
    cols = rref.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -rref[:, free].T % p
    return basis


def mod_p_inverse(mat: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square matrix mod p; None when singular."""
    m = np.array(mat, dtype=np.int64) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    rref, pivots = mod_p_rref(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return rref[:, n:]


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


def subspace_blocks_mod_p(d: int, e: int, p: int):
    """The e-dimensional subspaces of F_p^d, at most CHUNK at a time.

    Yields (w, c) per block: w (B x e x d) holds RREF bases that share one
    pivot pattern and c (B x (d - e) x d) the rows annihilating each.  Pivot
    patterns come in lexicographic order and, within one, the free entries
    count up with the last one fastest.
    """
    for piv in combinations(range(d), e):
        rest = [j for j in range(d) if j not in piv]
        slots = [(i, j) for i in range(e) for j in rest if j > piv[i]]
        piv, rest = np.array(piv, dtype=np.intp), np.array(rest, dtype=np.intp)
        total = p ** len(slots)
        for start in range(0, total, CHUNK):
            k = np.arange(start, min(start + CHUNK, total))
            w = np.zeros((k.size, e, d), dtype=np.int64)
            w[:, np.arange(e), piv] = 1
            for i, j in reversed(slots):
                w[:, i, j] = k % p
                k = k // p
            c = np.zeros((w.shape[0], d - e, d), dtype=np.int64)
            c[:, np.arange(d - e), rest] = 1
            c[:, :, piv] = -w[:, :, rest].transpose(0, 2, 1) % p
            yield w, c


def subspaces_mod_p(d: int, e: int, p: int):
    """All e-dimensional subspaces of F_p^d as RREF basis matrices (e x d)."""
    for w, _ in subspace_blocks_mod_p(d, e, p):
        yield from w


def all_subspaces_mod_p(d: int, p: int):
    for e in range(d + 1):
        yield from subspaces_mod_p(d, e, p)
