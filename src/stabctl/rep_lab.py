"""Quiver representation oracle.

Every lattice-level claim made elsewhere in the package can be checked here
against actual representations: Hom and Ext dimensions through the standard
two-term projective resolution, subrepresentation dimension vectors through
modular enumeration with rational certification, and stability or
Harder-Narasimhan data through exact phase comparison.

One subrepresentation scan serves every quiver (subrep_dimvecs): each
quiver shape brings its subspace count, candidate step and two
certifiers, one run at each prime and one that needs no prime, run once
after them on the candidates every prime found; a further prime runs only
toward the candidates still uncertified.  Quivers other than two vertices
joined by parallel arrows lift the tuple of subspaces that reached each
candidate.  On those two vertices the certificates come from exact source
subspaces alone, with no random draw: at each prime the largest subspace
the arrows map into a lifted enumerated sink subspace, and after the
primes the blocks of the kernels of the joint arrow map and of its
transpose.  The certified vectors are closed under shrinking the source
and growing the sink, since a subrepresentation (U, W) gives every (u, e)
with u <= dim U and e >= dim W.

Hom dimensions follow one ladder at every size: a rank modulo each large
prime, accepted when it meets the Euler bound hom >= max(chi, 0), and exact
elimination of the same intertwiner system only when no prime certifies.

Stability and Harder-Narasimhan data read one subrepresentation scan per
representation: theta_test compares each scanned charge with Z(M), and hn
walks the vertices of the convex polygon the scanned charges lie under,
reading each factor between the witnesses of two consecutive vertices.
Both order phases by the integer cross-product form of PhaseOrder, linear
in the dimension vectors, and evaluate a charge only for each HN factor's
token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from . import _linalg
from .klattice import (
    CentralCharge,
    GaussianRational,
    OracleBoundError,
    PhaseOrder,
    PhaseToken,
    Quiver,
    euler_matrix,
    euler_pair,
    in_half_plane,
    parse_rational,
    format_rational,
)

LARGE_PRIMES = (10007, 10009, 10037, 10039)
ENUM_PRIMES = (2, 3, 5)
PRIME_ENUM_BUDGET = 60_000
HARD_ENUM_BUDGET = 400_000
DEFAULT_BOUND = 8  # largest total dimension the oracle scans unless told otherwise


Mat = tuple[tuple[Fraction, ...], ...]


def _freeze_matrix(rows, nrows: int, ncols: int) -> Mat:
    # the integer entries of a helix module are mostly zeros, which share one
    # Fraction; a type test skips the slower isinstance of an abstract class
    out = []
    for row in rows:
        out.append(tuple(x if type(x) is Fraction else _linalg.ZERO if x == 0 else Fraction(x) for x in row))
    if len(out) != nrows or any(len(r) != ncols for r in out):
        raise ValueError(f"matrix must be {nrows}x{ncols}")
    return tuple(out)


@dataclass(frozen=True)
class QuiverRep:
    quiver: Quiver
    dims: tuple[int, ...]
    matrices: tuple[Mat, ...]

    def __hash__(self) -> int:
        # hashing the Fraction entries is costly and reps key the oracle
        # caches, so the hash is kept on the instance; equality stays structural
        try:
            return self._hash
        except AttributeError:
            h = hash((self.quiver, self.dims, self.matrices))
            object.__setattr__(self, "_hash", h)
            return h

    def _memo(self) -> dict:
        """Per-instance results that depend only on the representation.

        The dual ("dual"), the arrows times the lcm L of all the
        denominators with L ("integer"), the entries mod each prime p
        (key p) and, as the target of a reduced Hom system, the nonzero
        entries of the left kernel of the stacked arrows mod p with its row
        count and their rank (key ("left-kernel", p)).
        Like the hash they are kept on the instance, outside the fields, so
        equality and hashing stay structural.
        """
        try:
            return self._memos
        except AttributeError:
            object.__setattr__(self, "_memos", {})
            return self._memos

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


def make_rep(quiver: Quiver, dims, matrices) -> QuiverRep:
    dims = tuple(int(d) for d in dims)
    if len(dims) != quiver.vertex_count:
        raise ValueError("dimension vector length mismatch")
    if any(d < 0 for d in dims):
        raise ValueError("negative dimension")
    mats = []
    if len(matrices) != len(quiver.arrows):
        raise ValueError("one matrix per arrow required")
    for (s, t), m in zip(quiver.arrows, matrices):
        mats.append(_freeze_matrix(m, dims[t], dims[s]))
    return QuiverRep(quiver, dims, tuple(mats))


def zero_rep(quiver: Quiver) -> QuiverRep:
    return make_rep(quiver, (0,) * quiver.vertex_count, [[] for _ in quiver.arrows])


def vertex_simple(quiver: Quiver, v: int) -> QuiverRep:
    dims = tuple(1 if x == v else 0 for x in range(quiver.vertex_count))
    mats = []
    for s, t in quiver.arrows:
        mats.append([[] for _ in range(dims[t])])
    return make_rep(quiver, dims, mats)


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.quiver != b.quiver:
        raise ValueError("summands live on different quivers")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = []
    for idx, (s, t) in enumerate(a.quiver.arrows):
        rows = []
        for i in range(a.dims[t]):
            rows.append(list(a.matrices[idx][i]) + [Fraction(0)] * b.dims[s])
        for i in range(b.dims[t]):
            rows.append([Fraction(0)] * a.dims[s] + list(b.matrices[idx][i]))
        mats.append(rows)
    return make_rep(a.quiver, dims, mats)


# -- serialization ---------------------------------------------------------


def format_rep(m: QuiverRep) -> str:
    lines = [f"rep {m.quiver.name} " + " ".join(str(d) for d in m.dims)]
    for idx, (s, t) in enumerate(m.quiver.arrows):
        lines.append(f"# arrow {idx}: {s} -> {t}")
        for row in m.matrices[idx]:
            lines.append(" ".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_rep(text: str, quiver: Quiver) -> QuiverRep:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    header = rows[0] if rows else []
    if header[:1] != ["rep"] or len(header) != 2 + quiver.vertex_count:
        raise ValueError(f"a rep header is 'rep NAME' and {quiver.vertex_count} dims")
    if header[1] != quiver.name:
        raise ValueError(f"rep is for quiver {header[1]!r}, expected {quiver.name!r}")
    for x in header[2:]:
        if not (x.isascii() and x.isdecimal()):
            raise ValueError(f"rep header dim {x!r} is not a nonnegative integer")
    dims = tuple(int(x) for x in header[2:])
    flat = rows[1:]
    mats = []
    pos = 0
    for s, t in quiver.arrows:
        block = []
        # rows without entries print as blank lines, which are skipped, so
        # such a block reads no line
        for _ in range(dims[t] if dims[s] else 0):
            if pos >= len(flat) or len(flat[pos]) != dims[s]:
                raise ValueError("matrix block shape mismatch")
            block.append([parse_rational(x) for x in flat[pos]])
            pos += 1
        mats.append(block if dims[s] else [[]] * dims[t])
    if pos != len(flat):
        raise ValueError("trailing data after matrix blocks")
    return make_rep(quiver, dims, mats)


# -- Hom and Ext -----------------------------------------------------------


@dataclass(frozen=True)
class HomExt:
    hom: int
    ext: int
    method: str


def _system(m: QuiverRep, n: QuiverRep, arrows_m, arrows_n) -> np.ndarray:
    """The intertwiner matrix of Hom(m, n), from the arrow matrices of each side.

    Its kernel is Hom(m, n) in the standard resolution, the map
    sum_v Hom(m_v, n_v) -> sum_a Hom(m_s, n_t) (Ringel, LNM 1099, 1984).
    The unknowns are the entries of each f_v, row by row; arrow a: s -> t
    gives the rows (i, j) of f_t A_a - B_a f_s, that is the blocks
    I (x) A_a^T at the columns of f_t and -(B_a (x) I) at those of f_s,
    placed by slices, since np.kron would multiply every entry.  The arrows
    are int64 arrays for a system mod p, or object arrays of ints for an
    exact one.
    """
    offs = np.cumsum([0, *(a * b for a, b in zip(m.dims, n.dims))]).tolist()
    row_counts = [n.dims[t] * m.dims[s] for s, t in m.quiver.arrows]
    dtype = np.result_type(np.int64, *arrows_m, *arrows_n)
    system = np.zeros((sum(row_counts), offs[-1]), dtype=dtype)
    r = 0
    for (s, t), a, b, rows in zip(m.quiver.arrows, arrows_m, arrows_n, row_counts):
        ms, mt = m.dims[s], m.dims[t]
        for i in range(n.dims[t]):
            system[r + i * ms : r + (i + 1) * ms, offs[t] + i * mt : offs[t] + (i + 1) * mt] = a.T
        for j in range(ms):
            system[r + j : r + rows : ms, offs[s] + j : offs[s + 1] : ms] = -b
        r += rows
    return system


def _integer_arrows(m: QuiverRep) -> tuple[list[list[list[int]]], int]:
    """m's arrow matrices times L, the lcm of all m's denominators, with L, kept on m.

    The one reader of m's Fraction entries; every other takes this form.
    One scalar for all the arrows keeps every kernel, rank and span of
    images, and a prime divides a denominator exactly when it divides L.
    """
    memo = m._memo()
    if "integer" not in memo:
        lcm = math.lcm(*(x.denominator for mat in m.matrices for row in mat for x in row))
        scaled = [[[x.numerator * (lcm // x.denominator) for x in row] for row in mat] for mat in m.matrices]
        memo["integer"] = scaled, lcm
    return memo["integer"]


def _flat_mod_p(m: QuiverRep, p: int) -> np.ndarray:
    """m's entries mod p, arrow after arrow and row by row, kept on m.

    For a prime dividing no denominator, the integer entries
    (_integer_arrows) times L^-1 mod p, once per prime, in one read-only
    array.
    """
    arrows, lcm = _integer_arrows(m)
    if lcm % p == 0:
        raise ValueError(f"p = {p} divides a denominator, so the rep has no reduction mod p")
    memo = m._memo()
    if p not in memo:
        inverse = pow(lcm, -1, p)
        flat = np.array([x * inverse % p for a in arrows for row in a for x in row], dtype=np.int64)
        flat.flags.writeable = False
        memo[p] = flat
    return memo[p]


def _arrows_mod_p(m: QuiverRep, p: int) -> list[np.ndarray]:
    """m's arrow matrices mod p, as views of _flat_mod_p."""
    flat, arrows, at = _flat_mod_p(m, p), [], 0
    for s, t in m.quiver.arrows:
        size = m.dims[t] * m.dims[s]
        arrows.append(flat[at : at + size].reshape(m.dims[t], m.dims[s]))
        at += size
    return arrows


def _stack_mod_p(m: QuiverRep, p: int) -> np.ndarray:
    """m's arrows mod p as one (arrows, d_snk, d_src) view of _flat_mod_p.

    For a parallel two-vertex quiver.  The shape comes from the dims, since
    a stack of size zero cannot be reshaped by -1.
    """
    src = _source_vertex(m.quiver)
    return _flat_mod_p(m, p).reshape(len(m.quiver.arrows), m.dims[1 - src], m.dims[src])


def _source_vertex(q: Quiver) -> int | None:
    """For a two-vertex quiver with all arrows parallel, their source."""
    if q.vertex_count != 2 or not q.arrows:
        return None
    srcs = {s for s, _ in q.arrows}
    if len(srcs) != 1:
        return None
    return srcs.pop()


def _joint_kernel(arrows, width: int) -> list[list[int]]:
    """The kernel of the joint map (A_1 ... A_n) of integer matrices of width
    columns, each vector its positive primitive multiple (int_kernel); on a
    rep's integer arrows, the kernel of the reflection at the sink."""
    rows = [[x for a in arrows for x in a[i]] for i in range(len(arrows[0]))]
    return _linalg.int_kernel(rows, len(arrows) * width)


def _target_kernel(n: QuiverRep, p: int) -> tuple[tuple[np.ndarray, ...], int, int]:
    """The left kernel Y of the stacked arrows sb of n mod p, kept on n.

    Returns ((r, a, i, v), rows, rank sb): the nonzero entries v = Y[r, a, i]
    of Y read as (vector, arrow, sink row), its row count and the rank of
    sb.  It depends on the target of _hom_mod_p_reduced alone, so every
    source shares it.
    """
    memo = n._memo()
    key = ("left-kernel", p)
    if key not in memo:
        stack = _stack_mod_p(n, p)
        sb = stack.reshape(stack.shape[0] * stack.shape[1], stack.shape[2])
        y = _linalg.mod_p_kernel(sb.T, p)
        y3 = y.reshape(y.shape[0], *stack.shape[:2])
        at = np.nonzero(y3)
        entries = (*at, y3[at])
        for e in entries:
            e.flags.writeable = False
        memo[key] = (entries, y.shape[0], sb.shape[0] - y.shape[0])
    return memo[key]


def _reduced_entries(m: QuiverRep, n: QuiverRep, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The sink system of _hom_mod_p_reduced as (rows, cols, vals, shape).

    Row (r, j), column (i, k) holds the sum over a of Y[r, a, i] A_a[k, j],
    for Y the target's left kernel and A_a the source's arrows.  Each
    nonzero entry of Y meets each nonzero entry of A on the same arrow; the
    products are summed per position and reduced mod p, and the zero sums
    dropped, so the entries are nonzero, at distinct positions and sorted.
    """
    src = _source_vertex(m.quiver)
    ms, mk = m.dims[src], m.dims[1 - src]
    (yr, ya, yi, yv), y_rows, _ = _target_kernel(n, p)
    stack = _stack_mod_p(m, p)
    # np.nonzero reads the stack in C order, so its entries come arrow by arrow
    sa, sk, sj = at = np.nonzero(stack)
    # pair each entry of Y with every source entry of its arrow: the pairs
    # of Y entry e start at pair start[e] and the source entries of arrow a
    # at first[a]
    count = np.bincount(sa, minlength=stack.shape[0])
    first = np.cumsum(count) - count
    reps = count[ya]
    start = np.cumsum(reps) - reps
    y_at = np.repeat(np.arange(yv.size), reps)
    s_at = np.arange(y_at.size) + np.repeat(first[ya] - start, reps)
    ncols = n.dims[1 - src] * mk
    key = (yr[y_at] * ms + sj[s_at]) * ncols + yi[y_at] * mk + sk[s_at]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    # a sum holds one product below p^2 per arrow, far from int64 overflow
    vals = np.add.reduceat((yv[y_at] * stack[at][s_at])[order], starts) % p
    kept = vals != 0
    rows, cols = np.divmod(key[starts][kept], ncols)
    return rows, cols, vals[kept], (y_rows * ms, ncols)


def _hom_mod_p_reduced(m: QuiverRep, n: QuiverRep, p: int) -> int:
    """Hom dimension mod p on a parallel two-vertex quiver.

    The equations f_snk A_a = B_a f_src, stacked over the arrows, read
    stack(f_snk A_a) = sb f_src with sb the stacked target matrices.  A
    sink map extends exactly when the rows Y of the left kernel of sb
    annihilate stack(f_snk A_a), and each extension is unique up to the
    m_src (n_src - rank sb) maps into the kernel of sb.  The sink system is
    built and ranked from its nonzero entries (_reduced_entries), never as
    a dense array.  When Y or the source arrows have no nonzero entry there
    is no equation, and every sink map extends.
    """
    src = _source_vertex(m.quiver)
    snk = 1 - src
    y, _, rank_sb = _target_kernel(n, p)
    sink_hom = n.dims[snk] * m.dims[snk]
    if y[0].size and _stack_mod_p(m, p).any():
        rows, cols, vals, shape = _reduced_entries(m, n, p)
        sink_hom -= _linalg.mod_p_rank_entries(rows, cols, vals, shape, p)
    return m.dims[src] * (n.dims[src] - rank_sb) + sink_hom


def _hom_mod_p_full(m: QuiverRep, n: QuiverRep, p: int) -> int:
    system = _system(m, n, _arrows_mod_p(m, p), _arrows_mod_p(n, p))
    return system.shape[1] - _linalg.mod_p_rank(system, p)


@lru_cache(maxsize=4096)
def hom_ext(m: QuiverRep, n: QuiverRep) -> HomExt:
    """Hom and Ext dimensions between representations of one acyclic quiver.

    A modular rank is tried for each large prime: rank mod p never exceeds
    the rank over QQ, so hom_p >= hom >= max(chi, 0) and hom_p = max(chi, 0)
    certifies the answer.  A prime dividing a denominator of either
    representation is skipped.  When no prime certifies, the intertwiner
    system (_system) is ranked exactly over the rationals.  Parallel
    two-vertex quivers use the reduced sink system of _hom_mod_p_reduced,
    and since Hom(M, N) = Hom(DN, DM) with the same chi, the side with
    fewer sink unknowns is solved; other quivers rank the whole intertwiner
    system mod p.
    """
    if m.quiver != n.quiver:
        raise ValueError("representations live on different quivers")
    src = _source_vertex(m.quiver)
    if src is not None and m.dims[src] * n.dims[src] < m.dims[1 - src] * n.dims[1 - src]:
        return hom_ext(dual(n), dual(m))
    chi = euler_pair(euler_matrix(m.quiver), m.dims, n.dims)
    arrows = m.quiver.arrows
    (ints_m, lcm_m), (ints_n, lcm_n) = _integer_arrows(m), _integer_arrows(n)
    total = sum(a * b for a, b in zip(m.dims, n.dims))
    solve, primes = _hom_mod_p_reduced, LARGE_PRIMES
    if src is None:
        solve = _hom_mod_p_full
        rows_count = sum(n.dims[t] * m.dims[s] for s, t in arrows)
        if rows_count * total * min(rows_count, total) > 3_000_000_000:
            primes = ()
    for p in primes:
        if lcm_m % p == 0 or lcm_n % p == 0:
            continue
        hom_p = solve(m, n, p)
        if hom_p == max(chi, 0):
            return HomExt(hom_p, hom_p - chi, f"mod-{p}")
    # uncertified: fall back to exact arithmetic when at all feasible
    if total > 400:
        raise OracleBoundError(f"hom system with {total} unknowns is uncertified and too large")
    # the integer arrows as object arrays, shaped also when empty: m's
    # times L_n and n's times L_m scale the whole system by L_m L_n
    exact = [
        [np.array(a, dtype=object).reshape(r.dims[t], r.dims[s]) * scale for a, (s, t) in zip(ints, arrows)]
        for r, ints, scale in ((m, ints_m, lcm_n), (n, ints_n, lcm_m))
    ]
    hom = total - _linalg.int_rank(_system(m, n, *exact).tolist())
    return HomExt(hom, hom - chi, "exact-fallback")


# -- subrepresentation enumeration ----------------------------------------


@dataclass(frozen=True)
class SubrepScan:
    """The certified subrep dimension vectors, sorted, and the open candidates.

    witnesses maps each certified vector to one row basis per vertex, in
    vertex order, of a subrepresentation with that dimension vector; each
    row is a tuple of ints with gcd 1.
    """

    vectors: tuple[tuple[int, ...], ...]
    witnesses: dict
    uncertified: tuple[tuple[int, ...], ...]


def dual(m: QuiverRep) -> QuiverRep:
    """Vector-space dual of a representation of a parallel two-vertex quiver.

    Dualizing reverses every arrow; swapping the two vertices turns them
    back into the original arrows, so the dual lives on the same quiver
    with dims (d1, d0) and every matrix transposed.  The dual is kept on
    m and m on it, so dual(dual(m)) is m.
    """
    memo = m._memo()
    if "dual" not in memo:
        if _source_vertex(m.quiver) is None:
            raise ValueError("dual needs two vertices joined by parallel arrows")
        dims = (m.dims[1], m.dims[0])
        mats = []
        for mat, (_, t) in zip(m.matrices, m.quiver.arrows):
            mats.append([[row[j] for row in mat] for j in range(dims[t])])
        d = make_rep(m.quiver, dims, mats)
        memo["dual"] = d
        d._memo()["dual"] = m
    return memo["dual"]


def _enum_two_vertex(m: QuiverRep, p: int, sinks=None):
    """Candidate (source, sink) subrep dims mod p with one sink subspace each.

    Enumerates sink subspaces W of each dimension in sinks (all of them by
    default); the largest source subspace mapping into W is the meet of the
    arrow preimages, of dimension mu(W) = d_src - rank(stack of C A_a) with
    C the rows annihilating W.  The subspaces are ranked in stacks of up to
    CHUNK (subspace_stack_mod_p), one stacked elimination each, and a stack
    may cross pivot patterns and sink dimensions: each C is padded with
    zero rows to d_snk rows, which leave every rank unchanged.  Each (u, e)
    takes the first W in scan order with mu(W) >= u, and a sink dimension
    whose every (u, e) is found adds no subspace to later stacks.  Returns
    {vec: w_rref} with the first W that reaches each vec, sink dimensions
    in the order of sinks and source dimensions ascending.
    """
    src = _source_vertex(m.quiver)
    d_src, d_snk = m.dims[src], m.dims[1 - src]
    amats = _stack_mod_p(m, p)
    sizes = {e: _linalg.gaussian_binomial(d_snk, e, p) for e in (range(d_snk + 1) if sinks is None else sinks)}
    # per open sink dimension e: the next scan index, and low, with (u, e)
    # found for every u < low
    todo = {e: [0, 0] for e in sizes}
    found: dict[int, dict] = {e: {} for e in sizes}
    while todo:
        parts, room = [], _linalg.CHUNK
        for e, (start, _) in todo.items():
            stop = min(start + room, sizes[e])
            parts.append((e, start, stop))
            room -= stop - start
            if not room:
                break
        w, c = _linalg.subspace_stack_mod_p(d_snk, parts, p)
        # row (a, r) of matrix b: row r of C_b A_a
        stacked = (c[:, None] @ amats % p).reshape(len(c), len(amats) * d_snk, d_src)
        mus = (d_src - _linalg.mod_p_rank(stacked, p)).tolist()
        at = 0
        for e, start, stop in parts:
            state = todo[e]
            for i in range(at, at + stop - start):
                if mus[i] >= state[1]:
                    wi = w[i, :e].copy()
                    for u in range(state[1], mus[i] + 1):
                        found[e][(u, e) if src == 0 else (e, u)] = wi
                    state[1] = mus[i] + 1
            at += stop - start
            state[0] = stop
            if stop == sizes[e] or state[1] > d_src:
                del todo[e]
    return {vec: wi for per_sink in found.values() for vec, wi in per_sink.items()}


def subrep_dimvecs(m: QuiverRep, bound: int | None = None) -> SubrepScan:
    """Dimension vectors of subrepresentations, certified over the rationals.

    A representation of total dimension over bound (DEFAULT_BOUND unless
    given) is refused before any scan.  Each representation is scanned
    once, by one loop for every quiver (_subrep_cached): candidates come
    from subspace enumeration over small finite fields, and each is kept
    only with an exact witness.  The first field enumerates every
    candidate; a further field runs only while a candidate is uncertified,
    follows only the uncertified candidates and drops those it does not
    find, since a certified vector is a rational subrep and so survives
    every field.  Sources that depend on no field (on two vertices, the
    joint-kernel sources) are tried once, after every field, on the
    candidates every field found and none certified.  Uncertified leftovers
    are reported, never silently used.
    """
    bound = DEFAULT_BOUND if bound is None else bound
    if m.total_dim() > bound:
        raise OracleBoundError(f"total dimension {m.total_dim()} exceeds the oracle bound {bound}")
    return _subrep_cached(m)


@lru_cache(maxsize=2048)
def _subrep_cached(m: QuiverRep) -> SubrepScan:
    if m.is_zero():
        vec = tuple(m.dims)
        return SubrepScan((vec,), {vec: tuple(() for _ in m.dims)}, ())
    steps = _two_vertex_steps if _source_vertex(m.quiver) is not None else _general_steps
    count, candidates, certify, certify_survivors = steps(m)
    # a certified vector is a rational subrep, and its saturated lattice
    # reduces to a subrep mod every prime dividing no denominator; so the
    # next prime runs only while a candidate is open, and only toward the
    # open candidates, and the sources that need no prime run once, on the
    # candidates that survived every prime
    witnesses: dict = {}
    pending = None  # found over every prime so far and not yet certified
    for p in _enum_primes(m, count):
        cands = candidates(p, pending)
        pending = set(cands) if pending is None else pending & cands.keys()
        witnesses.update(certify(pending, p, cands))
        pending -= witnesses.keys()
        if not pending:
            break
    if pending:
        witnesses.update(certify_survivors(pending))
        pending -= witnesses.keys()
    return SubrepScan(tuple(sorted(witnesses)), witnesses, tuple(sorted(pending)))


def _enum_primes(m: QuiverRep, count) -> list[int]:
    """Up to three enumeration primes for m, chosen up front.

    count(p) is the number of subspaces the scan enumerates over F_p.  A
    prime dividing a denominator of m is skipped; the first prime taken may
    enumerate up to HARD_ENUM_BUDGET subspaces, the others up to
    PRIME_ENUM_BUDGET.
    """
    if count(2) > HARD_ENUM_BUDGET:
        raise OracleBoundError("subspace enumeration too large")
    primes = []
    for p in ENUM_PRIMES + (7, 11, 13, 17, 19, 23):
        if _integer_arrows(m)[1] % p == 0:
            continue
        size = count(p)
        if size <= PRIME_ENUM_BUDGET or (not primes and size <= HARD_ENUM_BUDGET):
            primes.append(p)
        if len(primes) >= 3:
            break
    if not primes:
        raise OracleBoundError("no usable enumeration prime")
    return primes


def _two_vertex_steps(m: QuiverRep):
    """Subspace count, candidate step and both certifiers of a two-vertex scan.

    The sink subspaces of m are enumerated, or of its dual when the source
    is smaller; each prime certifies from the lifts of its sink subspaces,
    and the joint-kernel sources, which depend on no prime, run once.
    """
    src = _source_vertex(m.quiver)
    snk = 1 - src
    dualize = m.dims[src] < m.dims[snk]
    work = dual(m) if dualize else m

    def candidates(p, pending):
        # a further prime enumerates only where work reaches the open vectors
        sinks = pending and sorted({m.dims[src] - vec[src] if dualize else vec[snk] for vec in pending})
        cands = _enum_two_vertex(work, p, sinks)
        if not dualize:
            return cands
        # a subrep of D m is the annihilator of a quotient of m, whose
        # kernel has the complementary dims on the swapped vertices
        return {(m.dims[0] - vec[1], m.dims[1] - vec[0]): w for vec, w in cands.items()}

    def certify(pending, p, cands):
        return _two_vertex_witnesses(m, pending, p, cands, dualize)

    def certify_survivors(pending):
        return _joint_witnesses(m, pending)

    return lambda p: _linalg.count_subspaces(min(m.dims), p), candidates, certify, certify_survivors


def _transposed_arrows(m: QuiverRep) -> list[list[list[int]]]:
    """The transposes of m's integer arrows (_integer_arrows), shaped also without sink rows."""
    src = _source_vertex(m.quiver)
    d_src, d_snk = m.dims[src], m.dims[1 - src]
    return [[[a[i][j] for i in range(d_snk)] for j in range(d_src)] for a in _integer_arrows(m)[0]]


def _preimage(m: QuiverRep, transposed, ann) -> list[list[int]]:
    """The largest source subspace every arrow maps into the annihilator of
    the rows ann, from the transposed integer arrows."""
    return _linalg.int_kernel(_linalg.int_images(transposed, ann), m.dims[_source_vertex(m.quiver)])


def _corner_witnesses(m: QuiverRep, todo, urows, witnesses: dict) -> None:
    """Add a witness for every vector of todo under the corner of U = urows.

    A subrep (U, W), with W = sum_a A_a U, gives every (u, e) with
    u <= dim U and dim W <= e: keep u rows of U and complete W with unit
    vectors.  A kernel or a span basis is the same for any nonzero multiple
    of any input row, so every row here is an integer row: the arrows times
    the one scalar L of _integer_arrows, and each source and sink row its
    positive primitive multiple, as the integer readers of _linalg return
    it.  One scalar for every arrow keeps each image a multiple of the true
    one; a scalar per row of a matrix would scale the coordinates of its
    images unevenly and change their span.  So the witness bases are
    primitive integer rows, each the positive multiple of a rational row of
    U or of the span basis, and no Fraction is built.
    """
    src = _source_vertex(m.quiver)
    span, units = _linalg.span_and_complement(_linalg.int_images(_integer_arrows(m)[0], urows), m.dims[1 - src])
    sink = span + units
    for vec in todo:
        u, e = vec[src], vec[1 - src]
        if vec not in witnesses and u <= len(urows) and len(span) <= e:
            ubasis = tuple(tuple(r) for r in urows[:u])
            wbasis = tuple(tuple(r) for r in sink[:e])
            witnesses[vec] = (ubasis, wbasis) if src == 0 else (wbasis, ubasis)


def _certify_order(m: QuiverRep, candidates) -> list:
    """Candidates by sink dimension ascending, then source dimension descending."""
    src = _source_vertex(m.quiver)
    return sorted(candidates, key=lambda vec: (vec[1 - src], -vec[src]))


def _two_vertex_witnesses(m: QuiverRep, candidates, p: int, cands, dualize: bool) -> dict:
    """Rational witnesses for candidates from their sink subspaces mod p, one basis per vertex.

    Candidates are taken in _certify_order, and for each one still
    uncertified the lift of its sink subspace from cands, enumerated mod p,
    gives U, the largest subspace every arrow maps into the lift (in the
    dualized scan, the annihilator of the lifted functionals); U certifies
    every candidate under its corner at once (_corner_witnesses).
    """
    todo = _certify_order(m, candidates)
    transposed = None if dualize else _transposed_arrows(m)
    witnesses: dict = {}
    for vec in todo:
        if vec not in witnesses:
            kernel = _linalg.lifted_kernel(cands[vec], p)
            _corner_witnesses(m, todo, kernel if dualize else _preimage(m, transposed, kernel), witnesses)
    return witnesses


def _joint_witnesses(m: QuiverRep, candidates) -> dict:
    """Rational witnesses for candidates from the joint maps, which depend on no prime.

    Exact source subspaces U are tried in turn, each certifying every
    candidate under its corner (_corner_witnesses), until every candidate
    is certified:

    - the blocks of each kernel vector of the joint map
      (A_1 ... A_n): V_src^n -> V_snk, the kernel of the reflection at the
      sink (Bernstein, Gelfand and Ponomarev 1973), each independent
      prefix of them;
    - then, for the transposed joint map, the largest U mapping into the
      annihilator of each independent prefix of blocks.

    Both joint maps are integer rows (_joint_kernel) and each block is
    taken as its positive primitive multiple.  The transposed kernel is
    built only when the first does not certify every candidate.
    """
    src = _source_vertex(m.quiver)
    d_src, d_snk = m.dims[src], m.dims[1 - src]
    arrows, _ = _integer_arrows(m)
    transposed = _transposed_arrows(m)
    todo = _certify_order(m, candidates)

    def prefixes(rows, width):
        """Each independent prefix of the width-long blocks of each row,
        each block its positive primitive multiple.

        One elimination per row: the first k blocks are independent exactly
        when a greedy pass keeps each of them.
        """
        for row in rows:
            blocks = [_linalg.primitive(row[a * width : (a + 1) * width]) for a in range(len(arrows))]
            kept, _ = _linalg.frac_coordinates(blocks, [])
            for k in range(1, len(arrows) + 1):
                if kept[:k] != list(range(k)):
                    break
                yield blocks[:k]

    def sources():
        yield from prefixes(_joint_kernel(arrows, d_src), d_src)
        for ann in prefixes(_joint_kernel(transposed, d_snk), d_snk):
            yield _preimage(m, transposed, ann)

    witnesses: dict = {}
    for urows in sources():
        _corner_witnesses(m, todo, urows, witnesses)
        if len(witnesses) == len(todo):
            break
    return witnesses


def _general_steps(m: QuiverRep):
    """Subspace count, candidate step and certifier of a scan on any quiver:
    the tuples of _enum_general, each candidate certified by its lifted
    tuple, whose rows, lifted RREF rows, are integer rows with a leading 1.
    Every source there is a lifted tuple, so the certifier run after the
    primes has nothing to try."""

    def certify(pending, p, cands):
        witnesses = {}
        for vec in sorted(pending):
            wit = tuple(tuple(map(tuple, _linalg.centered_lift(u, p).tolist())) for u in cands[vec])
            if _check_general_witness(m, vec, wit):
                witnesses[vec] = wit
        return witnesses

    return (
        lambda p: math.prod(_linalg.count_subspaces(d, p) for d in m.dims),
        lambda p, pending: _enum_general(m, p, pending),
        certify,
        lambda pending: {},
    )


def _enum_general(m: QuiverRep, p: int, pending) -> dict:
    """Candidate subrep dims mod p, each with the first tuple of subspaces reaching it.

    A tuple takes one RREF basis per vertex, vertices in index order and
    dimensions ascending, and keeps a basis when every arrow between its
    vertex and an earlier one maps the source into the target: each basis
    U comes with the rows C annihilating it (subspace_blocks_mod_p), and
    A_a maps U_s into U_t when C_t A_a U_s^T is zero mod p.  With pending,
    only tuples whose dims begin a pending vector are followed.
    """
    n, amats = len(m.dims), _arrows_mod_p(m, p)
    # the arrows checked at each vertex: those whose later end it is
    closing = [[(a, s, t) for a, (s, t) in enumerate(m.quiver.arrows) if max(s, t) == v] for v in range(n)]
    heads = None if pending is None else {vec[:k] for vec in pending for k in range(1, n + 1)}
    subspaces: dict = {}
    found: dict = {}

    def rec(chosen, dims):
        v = len(chosen)
        if v == n:
            found.setdefault(dims, tuple(u for u, _ in chosen))
            return
        for e in range(m.dims[v] + 1):
            if heads is not None and dims + (e,) not in heads:
                continue
            if (m.dims[v], e) not in subspaces:
                blocks = _linalg.subspace_blocks_mod_p(m.dims[v], e, p)
                subspaces[m.dims[v], e] = [pair for w, c in blocks for pair in zip(w, c)]
            for pair in subspaces[m.dims[v], e]:
                tup = chosen + [pair]
                if not any((tup[t][1] @ amats[a] @ tup[s][0].T % p).any() for a, s, t in closing[v]):
                    rec(tup, dims + (e,))

    rec([], ())
    return found


def _check_general_witness(m: QuiverRep, vec, bases) -> bool:
    """bases, independent rows of the sizes vec at each vertex, span a subrep.

    Each arrow must map the rows at its source into the span of those at its
    target.  The rows may hold ints or Fractions; the images come from the
    integer arrows (_integer_arrows, int_images), which scale each image
    and keep the span.
    """
    for v in range(m.quiver.vertex_count):
        if len(bases[v]) != vec[v] or (bases[v] and _linalg.int_rank(bases[v]) != vec[v]):
            return False
    for a, (s, t) in zip(_integer_arrows(m)[0], m.quiver.arrows):
        images = _linalg.int_images([a], bases[s])
        if images and _linalg.int_rank([*bases[t], *images]) != vec[t]:
            return False
    return True


# -- stability and Harder-Narasimhan --------------------------------------


def _charge_of(charge: CentralCharge, dims) -> GaussianRational:
    return charge.evaluate(tuple(int(x) for x in dims))


def _check_stability_function(charge: CentralCharge, quiver: Quiver) -> None:
    if len(charge) != quiver.vertex_count:
        raise ValueError("charge length does not match the quiver")
    for i, v in enumerate(charge.values):
        if v.is_zero() or not in_half_plane(v):
            raise ValueError(f"charge of vertex {i} is not in the allowed half plane")


@dataclass(frozen=True)
class ThetaResult:
    verdict: str  # "stable" | "semistable-not-stable" | "unstable"
    witness: tuple[int, ...] | None
    uncertified: tuple[tuple[int, ...], ...]


def theta_test(m: QuiverRep, charge: CentralCharge, bound: int | None = None) -> ThetaResult:
    """King stability of a representation against a half-plane charge.

    Verdicts are over QQ: a subrep counts only with a rational witness.
    p2 dims (2, 2), A = I, B = [[0, 2], [1, 0]] is stable at charge
    (-1, 1+i), scanning (0,0), (0,1), (0,2), (1,2), (2,2); over QQ(sqrt 2)
    the eigenvectors of B span a (1, 1) subrep of the same phase.

    The witness is the first scanned proper vector of the largest phase
    (_top), compared by the integer form of PhaseOrder; no charge is
    evaluated.
    """
    _check_stability_function(charge, m.quiver)
    if m.is_zero():
        raise ValueError("the zero representation has no stability verdict")
    scan = subrep_dimvecs(m, bound)
    order = PhaseOrder.of(charge)
    top = _top(order, ((vec, None) for vec in scan.vectors if any(vec) and vec != m.dims))
    if top and (cmp := order.compare(top[0][0], m.dims)) >= 0:
        return ThetaResult("unstable" if cmp else "semistable-not-stable", top[0][0], scan.uncertified)
    return ThetaResult("stable", None, scan.uncertified)


def _subquotient(m: QuiverRep, lower, upper) -> QuiverRep:
    """The subquotient upper / lower of m, for witnesses lower inside upper.

    Both are one row basis per vertex.  At each vertex the rows of upper
    that a greedy pass adds to lower complete it to a basis of upper, and
    each arrow maps those rows into that basis of the target vertex; their
    coordinates past lower are the subquotient's matrix.  With lower empty
    this is the subrepresentation upper, and with upper all of m it is the
    quotient m / lower; with lower empty and upper the unit vectors at
    every vertex it is m itself, returned as it is.

    The vertices are taken sources first, and each takes one elimination
    (frac_coordinates): the rows of lower and upper, then the images of
    the arrows into it, as columns.  Its pivots among the rows give the
    greedy pass, and its trailing columns the coordinates of the images.
    The images are taken by the integer arrows, m's arrows times L
    (_integer_arrows), so integer rows give integer images, and their
    coordinates are divided by L when it is not 1.  The rows are used as
    given, never rescaled: the matrices are the coordinates in exactly
    those bases.
    """
    if not any(lower) and all(
        [list(r) for r in up] == [[int(i == j) for j in range(d)] for i in range(d)]
        for up, d in zip(upper, m.dims)
    ):
        return m
    arrows, (integer, lcm) = m.quiver.arrows, _integer_arrows(m)
    bases: list = [None] * len(m.dims)
    mats: list = [None] * len(arrows)
    for t in m.quiver.topological_order():
        low, rows = lower[t], [*lower[t], *upper[t]]
        into = [(idx, s) for idx, (s, target) in enumerate(arrows) if target == t]
        imgs = [
            [[sum(map(mul, row, r)) for row in integer[idx]] for r in bases[s][len(lower[s]) :]]
            for idx, s in into
        ]
        kept, coords = _linalg.frac_coordinates(rows, [v for block in imgs for v in block])
        if kept[: len(low)] != list(range(len(low))) or len(kept) != len(upper[t]):
            raise RuntimeError("the witnesses of two HN vertices are not nested")
        if coords is None:
            raise ValueError("witness is not a subrepresentation")
        bases[t] = [rows[i] for i in kept]
        coords = coords[len(low) :]
        col = 0
        for (idx, _), block in zip(into, imgs):
            mat = [row[col : col + len(block)] for row in coords]
            mats[idx] = mat if lcm == 1 else [[x / lcm for x in row] for row in mat]
            col += len(block)
    dims = tuple(len(b) - len(low) for b, low in zip(bases, lower))
    return make_rep(m.quiver, dims, mats)


def hn(
    m: QuiverRep,
    charge: CentralCharge,
    bound: int | None = None,
    extractor: str = "phase",
) -> list[tuple[QuiverRep, PhaseToken]]:
    """Harder-Narasimhan factors, top phase first, from one scan of m.

    The charges of the subrepresentations of m lie under a convex polygon
    from 0 to Z(m) whose vertices are the charges of the HN filtration
    (Shatz, Compositio Math. 1977; for quiver representations Reineke,
    Invent. Math. 2003).  A vertex is an extreme point of the region of
    subrep charges, so one subrep alone has its dimension vector: were N
    and N' two, the charges of their intersection and their sum would
    average to the vertex, so both would equal it, and N = N' since a
    nonzero representation has a nonzero charge.  The same averaging puts
    every subrep whose charge lies on an edge between the subreps of the
    edge's two vertices.

    The walk starts at the zero vertex.  From the last vertex, the scanned
    vectors that contain its dimension vector, less that vector, have
    charges in the half plane, and those of maximal phase lie on the next
    edge.  The phase extractor takes the largest of them, the next vertex;
    the slope extractor joins all their witnesses, which gives the same
    subrep.  So the witnesses are nested, and each factor is the
    subquotient of two consecutive ones.  Phases are compared by the
    integer form of PhaseOrder; only each factor's token is evaluated.
    """
    _check_stability_function(charge, m.quiver)
    if m.is_zero():
        raise ValueError("the zero representation has no filtration")
    scan = subrep_dimvecs(m, bound)
    order = PhaseOrder.of(charge)
    factors: list[tuple[QuiverRep, PhaseToken]] = []
    lower = tuple(() for _ in m.dims)
    while (low := sub_dims(lower)) != m.dims:
        ahead = [
            (tuple(a - b for a, b in zip(vec, low)), scan.witnesses[vec])
            for vec in scan.vectors
            if vec != low and all(a >= b for a, b in zip(vec, low))
        ]
        if not ahead:
            raise RuntimeError(f"no scanned subrepresentation lies ahead of {low}")
        upper = _select_destabilizer(order, ahead, extractor)
        factor = _subquotient(m, lower, upper)
        factors.append((factor, PhaseToken(_charge_of(charge, factor.dims), 0)))
        lower = upper
    for (a, _), (b, _) in zip(factors, factors[1:]):
        if order.cross(a.dims, b.dims) >= 0:
            raise RuntimeError("factor phases are not strictly decreasing")
    return factors


def sub_dims(bases) -> tuple[int, ...]:
    return tuple(len(b) for b in bases)


def _top(order: PhaseOrder, cands) -> list:
    """The (vector, payload) pairs of maximal phase among cands, in scan order."""
    top = []
    for vec, payload in cands:
        c = order.compare(vec, top[0][0]) if top else 1
        if c > 0:
            top = [(vec, payload)]
        elif c == 0:
            top.append((vec, payload))
    return top


def _select_destabilizer(order: PhaseOrder, cands, extractor):
    """The witness of the next vertex among (charge vector, witness) pairs.

    Both extractors start from the candidates of maximal phase (_top):
    `phase` takes the largest of them, the least vector on a tie, and
    `slope` joins them all.
    """
    if extractor not in ("phase", "slope"):
        raise ValueError(f"unknown extractor {extractor!r}")
    top = _top(order, cands)
    if extractor == "phase":
        return min(top, key=lambda cand: (-sum(cand[0]), cand[0]))[1]
    return _join_witnesses_from(top)


def _join_witnesses_from(top):
    """The join of the witnesses, one row space basis per vertex: the
    nonzero rows of the reduced row echelon form of all their rows, each as
    its positive primitive multiple (int_rref).

    A row repeated across witnesses adds nothing to the span, so it is
    eliminated once; the rows are int tuples, cheap to hash.
    """
    joined = []
    for v in range(len(top[0][1])):
        rows, _ = _linalg.int_rref(list(dict.fromkeys(r for _, bases in top for r in bases[v])))
        joined.append(tuple(map(tuple, rows)))
    return tuple(joined)
