"""Exact and modular linear algebra kernels.

Exact routines, integer or Fraction valued, back every certified claim;
mod-p routines (numpy, vectorized) provide fast rank computation and
candidate enumeration whose results are either certified over QQ
afterwards or discarded.

There is one exact elimination kernel, _fraction_free: Gauss-Jordan on
integer rows, with Bareiss's exact divisions keeping every entry an integer
minor (Bareiss 1968).  Every exact rank, reduced row echelon form, kernel,
solve, inverse and basis extension goes through it.  Rows may be given as
ints or Fractions; a row holding a Fraction is scaled to integers first,
and a row may be given rescaled: the reduced row echelon form, so every
kernel and span basis, is the same for any nonzero multiple of any row.

The readers over it build a Fraction only for an entry they return, one
shared Fraction(0) for every zero entry (Fractions are immutable).  The
integer readers return no Fraction at all: int_kernel, int_rref and
span_and_complement give each basis row as its positive primitive multiple
(integers with gcd 1), and lifted_kernel reads the kernel of a lifted mod-p
reduced row echelon form off its rows with no elimination.  Their rows fed
back in skip the scaling.  rep_lab hands in a representation's arrows as
integers, all times one lcm of their denominators, so the reflections of
the helix and the subrepresentation witnesses run on integer rows from end
to end.

There is one mod-p elimination kernel, _eliminate: Gauss-Jordan on a
stack (B, rows, cols), one row of every matrix per step, in int64.
mod_p_rank ranks a whole stack with it, which is how subspace enumeration
ranks up to CHUNK small matrices at once.  subspace_stack_mod_p builds such
a stack of subspaces, and the rows annihilating each, across pivot patterns
and dimensions, every annihilator padded with zero rows to one shape: a
zero row leaves every rank unchanged.  A single matrix is
ranked from the list of its nonzero entries (mod_p_rank_entries): its
singleton rows and columns, each a pivot of its own, are peeled off the
list (_peel), which ranks a sparse Hom system mostly without arithmetic,
and only the rows and columns still holding an entry are made dense and
ranked as a stack of one.  mod_p_rank takes a dense matrix's entries with
np.nonzero; the reduced Hom system of rep_lab is built as an entry list
and never made dense.  mod_p_rref, behind every mod-p kernel and inverse,
eliminates one matrix as a stack of one.  Every sum stays exact because the
inner dimension k = min(rows, cols) obeys k (p - 1)^2 < 2^53; a prime too
large for the matrix is refused with ValueError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np

Row = list[Fraction]
Matrix = list[Row]

ZERO = Fraction(0)
ONE = Fraction(1)


def _entry(x: int, den: int) -> Fraction:
    """x / den, with the shared zero; den = 1 takes Fraction's integer path."""
    if not x:
        return ZERO
    return Fraction(x) if den == 1 else Fraction(x, den)


def frac_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def frac_identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def frac_matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append([sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)])
    return out


def int_images(mats, rows) -> list[list[int]]:
    """A v for each row v and each integer matrix A in turn, v made integer.

    A row of ints is taken as it is and a row holding a Fraction times the
    lcm of its own denominators (_integer_row), so each result is the image
    times a positive scalar, as an integer row: the span of the results,
    and so their RREF, kernel and span basis, is that of the images.
    """
    out = []
    for v in rows:
        v = _integer_row(v)
        out.extend([sum(map(mul, row, v)) for row in a] for a in mats)
    return out


def _integer_row(row):
    """row itself when every entry is an int, else row times the lcm of its denominators."""
    for x in row:
        if type(x) is not int:
            break
    else:
        return row
    lcm = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (lcm // x.denominator) for x in row]


def primitive(row, sign: int = 1) -> list[int]:
    """The integer row over the gcd of its entries, that gcd taken with the sign of sign.

    So the result is the positive primitive multiple of row / sign; a zero
    row comes back as it is.
    """
    g = math.gcd(*row)
    if sign < 0:
        g = -g
    return list(row) if g in (0, 1) else [x // g for x in row]


def _fraction_free(rows) -> tuple[list[list[int]], list[int], int]:
    """Gauss-Jordan on integers, the one exact elimination kernel.

    A row holding a Fraction is scaled by the lcm of its denominators, and
    a row of ints is taken as it is (_integer_row).  At a pivot of value
    pv every other row, its entry f in the pivot column, becomes
    (pv row - f pivot_row) // prev with prev the pivot before, so every
    entry stays an integer minor of the scaled rows and the division is
    exact (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 1968).  A row whose entry f is zero
    is scaled by pv / prev all the same, since the next division relies on
    it, and so is left as it is when pv = prev.  Returns
    (rows, pivot columns, den): the rows divided by den, the last pivot
    value, are the reduced row echelon form.
    """
    m = [_integer_row(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and (f or pv != prev):
                m[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev = pv
    return m, pivots, prev


def frac_rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m, pivots, den = _fraction_free(rows)
    return [[_entry(x, den) for x in row] for row in m], pivots


def int_rref(rows) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form, each as its
    positive primitive multiple, and the pivot column list."""
    m, pivots, den = _fraction_free(rows)
    return [primitive(row, den) for row in m[: len(pivots)]], pivots


def _kernel_rows(m, pivots: list[int], den: int, ncols: int) -> list[list[int]]:
    """den times each right-kernel basis vector of the RREF m / den.

    Vector f has den at free column f, minus the pivot rows' entries in
    column f at the pivot columns, and zeros elsewhere; only the free
    columns of the rows are read.
    """
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = den
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def frac_kernel(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel, one vector per row, each with a 1 at its free column."""
    m, pivots, den = _fraction_free(rows)
    return [[_entry(x, den) if x else ZERO for x in v] for v in _kernel_rows(m, pivots, den, ncols)]


def int_kernel(rows, ncols: int) -> list[list[int]]:
    """The frac_kernel basis, each vector as its positive primitive multiple."""
    m, pivots, den = _fraction_free(rows)
    return [primitive(v, den) for v in _kernel_rows(m, pivots, den, ncols)]


def lifted_kernel(rref: np.ndarray, p: int) -> list[list[int]]:
    """frac_kernel of the centered lift of a mod-p RREF basis (k x cols), with no elimination.

    The lift keeps every 0 and every 1, also for p = 2, so it is a reduced
    row echelon form over QQ whose pivots are each row's first 1, and its
    kernel vectors, each with a 1 at its free column and so primitive, are
    read off its rows.
    """
    rows = centered_lift(rref, p).tolist()
    return _kernel_rows(rows, [row.index(1) for row in rows], 1, rref.shape[1])


def _solve(aug, n: int) -> tuple[list[int], Matrix | None]:
    """Eliminate [A | B], A of n columns, once.

    Returns A's pivot columns and the rows of X on them, the other rows of
    X being zero; X is None when a pivot falls among B's columns, that is
    when A X = B is inconsistent.
    """
    m, pivots, den = _fraction_free(aug)
    if pivots and pivots[-1] >= n:
        return [c for c in pivots if c < n], None
    return pivots, [[_entry(x, den) for x in row[n:]] for row in m[: len(pivots)]]


def frac_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A X = B columnwise; None when inconsistent.

    When the solution is not unique the free variables are set to zero.
    """
    if not a:
        return [[] for _ in b] if b else []
    n = len(a[0])
    k = len(b[0]) if b else 0
    pivots, sol = _solve([[*ra, *rb] for ra, rb in zip(a, b)], n)
    if sol is None:
        return None
    x = [[ZERO] * k for _ in range(n)]
    for pc, row in zip(pivots, sol):
        x[pc] = row
    return x


def frac_coordinates(rows: Matrix, vectors: Matrix) -> tuple[list[int], Matrix | None]:
    """The rows a greedy pass keeps, and the vectors' coordinates on them.

    One elimination of the rows and then the vectors, all taken as columns.
    Gauss-Jordan works left to right, so the pivots among the leading
    columns are those of the rows alone: the indices of the rows that a
    greedy pass in order keeps.  With the other rows' coefficients zero the
    trailing columns solve for the coordinates on the kept rows, one row of
    the result per kept row and one column per vector, as frac_solve would
    on the kept rows alone.  The coordinates are None when a vector lies
    outside the span of the rows.
    """
    return _solve([[*c] for c in zip(*rows, *vectors)], len(rows))


def frac_inverse(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix; None when singular.

    For square A, A X = I is consistent exactly when A is invertible, so
    the one elimination in frac_solve decides both.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    return frac_solve(a, frac_identity(n))


def span_and_complement(rows, dim: int) -> tuple[list[list[int]], list[list[int]]]:
    """A basis of the span of rows, and the unit vectors completing it, as integer rows.

    One elimination with the columns reversed gives both.  Its pivot rows,
    read back in column order and taken last pivot first, each as its
    positive primitive multiple, are the basis, so a full span gets the
    identity.  The unit vectors are those a greedy pass in column order
    would add: e_c joins exactly when c is the last nonzero position of no
    vector in the span, that is when c is no pivot of the columns taken in
    reverse.
    """
    m, pivots, den = _fraction_free([r[::-1] for r in rows])
    basis = [primitive(row[::-1], den) for row in reversed(m[: len(pivots)])]
    last = {dim - 1 - c for c in pivots}
    units = [[int(j == c) for j in range(dim)] for c in range(dim) if c not in last]
    return basis, units


def extend_to_basis(vectors: Matrix, dim: int) -> Matrix:
    """Complete independent row vectors to a full basis using unit vectors."""
    basis, units = span_and_complement(vectors, dim)
    if len(basis) != len(vectors):
        raise ValueError("input vectors are dependent")
    return [list(v) for v in vectors] + units


def int_rank(rows) -> int:
    """Rank of an integer or rational matrix by fraction-free elimination."""
    return len(_fraction_free(rows)[1])


# -- modular kernels -------------------------------------------------------


CHUNK = 64


def _check_prime(inner: int, p: int) -> None:
    if inner and inner * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"p = {p} is too large for exact int64 elimination of inner size {inner}")


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

    Returns (k x cols array, pivot column list) for a matrix of rank k: the
    matrix is eliminated as a stack of one and its pivot rows are read off
    in pivot column order.
    """
    m = np.array(mat, dtype=np.int64) % p
    _check_prime(min(m.shape), p)
    lead = _eliminate(m[None], p)[0]
    # pivot rows by pivot column; zero rows, marked by lead == cols, sort last
    order = np.argsort(lead)[: np.count_nonzero(lead < m.shape[1])]
    return m[order], lead[order].tolist()


def _peel(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> tuple[int, np.ndarray]:
    """Peel the singleton rows and columns off a matrix given by its entries.

    The matrix has the nonzero entries vals, reduced mod p, at the distinct
    positions (rows, cols).  A row with one entry puts a unit vector in the
    row space, so each distinct column such rows hit adds one to the rank,
    and those rows and columns go; a column with one entry does the same for
    the column space and its row.  The rules repeat until neither applies
    (the singleton rules of structured Gaussian elimination: LaMacchia and
    Odlyzko, "Solving large sparse linear systems over finite fields",
    CRYPTO 1990).  Returns (r, rest) with rank = r + rank(rest), rest the
    dense matrix on the rows and columns that still hold an entry.
    """
    rank = 0
    while rows.size:
        single = np.bincount(rows, minlength=shape[0])[rows] == 1
        if single.any():
            # the entries of a singleton row lie in the columns it hits
            hit = np.zeros(shape[1], dtype=bool)
            hit[cols[single]] = True
            keep = ~hit[cols]
        else:
            single = np.bincount(cols, minlength=shape[1])[cols] == 1
            if not single.any():
                break
            hit = np.zeros(shape[0], dtype=bool)
            hit[rows[single]] = True
            keep = ~hit[rows]
        rank += int(np.count_nonzero(hit))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    at_rows, rows = np.unique(rows, return_inverse=True)
    at_cols, cols = np.unique(cols, return_inverse=True)
    rest = np.zeros((at_rows.size, at_cols.size), dtype=np.int64)
    rest[rows, cols] = vals
    return rank, rest


def _stack_rank(m: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack (B, rows, cols), transposed when that makes fewer steps."""
    if m.shape[1] > m.shape[2]:
        m = m.transpose(0, 2, 1)
    return (_eliminate(m, p) < m.shape[2]).sum(axis=1)


def mod_p_rank_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape, p: int) -> int:
    """Rank mod p of the matrix of the given shape with these nonzero entries.

    The entries lie at distinct positions and are reduced mod p.  The
    singleton rows and columns are peeled off (_peel) and only what is left
    is eliminated, as a stack of one; a sparse matrix, such as the Hom
    system of two helix modules, is often ranked by peeling alone.
    """
    _check_prime(min(shape), p)
    rank, rest = _peel(rows, cols, vals, shape)
    return rank + int(_stack_rank(rest[None], p)[0]) if rest.size else rank


def mod_p_rank(mat: np.ndarray, p: int):
    """Rank mod p of a matrix, or an array of ranks for a stack (B, rows, cols).

    A matrix is ranked from its nonzero entries (mod_p_rank_entries).  A
    stack is eliminated whole, one step for a row of every matrix at once,
    so it suits many small matrices.
    """
    m = np.array(mat, dtype=np.int64)
    m %= p
    if m.ndim == 2:
        rows, cols = np.nonzero(m)
        return mod_p_rank_entries(rows, cols, m[rows, cols], m.shape, p)
    _check_prime(min(m.shape[-2:]), p)
    return _stack_rank(m, p)


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


def subspace_stack_mod_p(d: int, parts, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs of subspaces of F_p^d, of one or more dimensions, in one stack.

    parts lists (e, start, stop), the e-dimensional subspaces of scan
    indices start to stop - 1.  Scan order takes the pivot patterns in
    lexicographic order and, within one, counts up the free entries, the
    last one fastest.  Returns (w, c), each B x d x d with a matrix per
    subspace in the order of parts: the first e rows of w are the RREF
    basis and the first d - e rows of c annihilate it, the other rows of
    both zero.  Row r of c is the unit vector at the r-th column j that
    holds no pivot, minus w[i, j] at the pivot column of each row i.

    So each entry of w and c is a constant 0 or 1, a base-p digit of the
    subspace's index within its pivot pattern, or minus such a digit mod p
    (a w[i, j] left of row i's pivot is 0, and so is its c entry).  Each
    pattern gets one table of those rules, and the whole stack is read off
    the tables in one set of array operations however many patterns and
    dimensions it crosses.
    """
    dd = d * d
    tables, local = [], []
    for e, start, stop in parts:
        first = 0
        for piv in combinations(range(d), e):
            rest = [j for j in range(d) if j not in piv]
            # the flat positions of each free entry w[i, j] and of its c[r, piv[i]]
            slots = [(i * d + j, dd + r * d + piv[i]) for i in range(e) for r, j in enumerate(rest) if j > piv[i]]
            size = p ** len(slots)
            lo, hi = max(start, first), min(stop, first + size)
            if lo < hi:
                # entry = (const + mult * (index // div % p)) % p
                const, div, mult = [0] * (2 * dd), [1] * (2 * dd), [0] * (2 * dd)
                for i, j in enumerate(piv):
                    const[i * d + j] = 1
                for r, j in enumerate(rest):
                    const[dd + r * d + j] = 1
                for t, (wi, ci) in enumerate(slots):
                    div[wi] = div[ci] = p ** (len(slots) - 1 - t)
                    mult[wi], mult[ci] = 1, p - 1
                tables.append((const, div, mult))
                local.append(np.arange(lo - first, hi - first))
            first += size
            if first >= stop:
                break
    rules = np.array(tables, dtype=np.int64)[np.repeat(np.arange(len(local)), [k.size for k in local])]
    index = np.concatenate(local)[:, None]
    entries = (rules[:, 0] + rules[:, 2] * (index // rules[:, 1] % p)) % p
    return entries[:, :dd].reshape(len(index), d, d), entries[:, dd:].reshape(len(index), d, d)


def subspace_blocks_mod_p(d: int, e: int, p: int):
    """The e-dimensional subspaces of F_p^d, CHUNK at a time.

    Yields (w, c) per block of scan order (subspace_stack_mod_p), every
    block but the last of CHUNK subspaces, which may cross pivot patterns:
    w (B x e x d) holds RREF bases and c (B x (d - e) x d) the rows
    annihilating each.
    """
    total = gaussian_binomial(d, e, p)
    for start in range(0, total, CHUNK):
        w, c = subspace_stack_mod_p(d, [(e, start, min(start + CHUNK, total))], p)
        yield w[:, :e], c[:, : d - e]
