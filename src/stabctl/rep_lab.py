"""Quiver representation oracle.

Every lattice-level claim made elsewhere in the package can be checked here
against actual representations: Hom and Ext dimensions through the standard
two-term projective resolution, subrepresentation dimension vectors through
modular enumeration with rational certification, and stability or
Harder-Narasimhan data through exact phase comparison.

Hom dimensions follow one ladder at every size: a rank modulo each large
prime, accepted when it meets the Euler bound hom >= max(chi, 0), and exact
elimination only when no prime certifies.  Hom bases are always solved
exactly over the rationals.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, islice

import numpy as np

from . import _linalg
from .klattice import (
    CentralCharge,
    GaussianRational,
    OracleBoundError,
    PhaseToken,
    Quiver,
    euler_matrix,
    euler_pair,
    in_half_plane,
    parse_rational,
    format_rational,
    phase_compare,
)

LARGE_PRIMES = (10007, 10009, 10037, 10039)
ENUM_PRIMES = (2, 3, 5)
PRIME_ENUM_BUDGET = 60_000
HARD_ENUM_BUDGET = 400_000


def default_bound() -> int:
    try:
        return int(os.environ.get("STABCTL_ORACLE_BOUND", "8"))
    except ValueError:
        return 8


Mat = tuple[tuple[Fraction, ...], ...]


def _freeze_matrix(rows, nrows: int, ncols: int) -> Mat:
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row))
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
    if not rows or rows[0][0] != "rep":
        raise ValueError("missing rep header")
    header = rows[0]
    if header[1] != quiver.name:
        raise ValueError(f"rep is for quiver {header[1]!r}, expected {quiver.name!r}")
    dims = tuple(int(x) for x in header[2:])
    flat = rows[1:]
    mats = []
    pos = 0
    for s, t in quiver.arrows:
        block = []
        for _ in range(dims[t]):
            if pos >= len(flat) or len(flat[pos]) != dims[s]:
                raise ValueError("matrix block shape mismatch")
            block.append([parse_rational(x) for x in flat[pos]])
            pos += 1
        mats.append(block)
    if pos != len(flat):
        raise ValueError("trailing data after matrix blocks")
    return make_rep(quiver, dims, mats)


# -- Hom and Ext -----------------------------------------------------------


@dataclass(frozen=True)
class HomExt:
    hom: int
    ext: int
    basis: tuple | None
    method: str


def _unknown_layout(m: QuiverRep, n: QuiverRep):
    offs = []
    off = 0
    for v in range(m.quiver.vertex_count):
        offs.append(off)
        off += n.dims[v] * m.dims[v]
    return offs, off


def _system_rows(m: QuiverRep, n: QuiverRep):
    """Intertwiner equations f_t A_a = B_a f_s, one row per (arrow, i, j)."""
    q = m.quiver
    offs, total = _unknown_layout(m, n)
    rows = []
    for idx, (s, t) in enumerate(q.arrows):
        amat = m.matrices[idx]
        bmat = n.matrices[idx]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [Fraction(0)] * total
                for k in range(m.dims[t]):
                    row[offs[t] + i * m.dims[t] + k] += amat[k][j]
                for k in range(n.dims[s]):
                    row[offs[s] + k * m.dims[s] + j] -= bmat[i][k]
                rows.append(row)
    return rows, total, offs


def _denominators(*reps: QuiverRep):
    den = set()
    for r in reps:
        for mat in r.matrices:
            for row in mat:
                for x in row:
                    den.add(x.denominator)
    return den


def _pick_prime(reps, primes=LARGE_PRIMES):
    dens = _denominators(*reps)
    for p in primes:
        if all(d % p for d in dens):
            yield p


def _matrix_mod_p(mat, p: int) -> np.ndarray:
    """Fraction rows mod p, with one inverse per distinct denominator."""
    dens = {x.denominator for row in mat for x in row}
    inverse = {d: pow(d, p - 2, p) if d != 1 else 1 for d in dens}
    out = [[x.numerator * inverse[x.denominator] % p for x in row] for row in mat]
    return np.array(out, dtype=np.int64).reshape(len(mat), len(mat[0]) if mat else 0)


def _rows_to_int(rows):
    """Scale each row to integer entries; rank is unchanged."""
    out = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        out.append([int(x * lcm) for x in row])
    return out


def _source_vertex(q: Quiver) -> int | None:
    """For a two-vertex quiver with all arrows parallel, their source."""
    if q.vertex_count != 2 or not q.arrows:
        return None
    srcs = {s for s, _ in q.arrows}
    if len(srcs) != 1:
        return None
    return srcs.pop()


def _hom_mod_p_reduced(m: QuiverRep, n: QuiverRep, p: int) -> int:
    """Hom dimension mod p on a parallel two-vertex quiver.

    The equations f_snk A_a = B_a f_src, stacked over the arrows, read
    stack(f_snk A_a) = sb f_src with sb the stacked target matrices.  A
    sink map extends exactly when the rows Y of the left kernel of sb
    annihilate stack(f_snk A_a), and each extension is unique up to the
    m_src (n_src - rank sb) maps into the kernel of sb.
    """
    src = _source_vertex(m.quiver)
    snk = 1 - src
    narr = len(m.quiver.arrows)
    sb = np.vstack([_matrix_mod_p(b, p) for b in n.matrices]).reshape(
        narr * n.dims[snk], n.dims[src]
    )
    y = _linalg.mod_p_kernel(sb.T, p)
    rank_sb = sb.shape[0] - y.shape[0]
    a3 = np.stack([_matrix_mod_p(a, p) for a in m.matrices]).reshape(
        narr, m.dims[snk], m.dims[src]
    )
    y3 = y.reshape(y.shape[0], narr, n.dims[snk])
    # row (r, j), column (i, k): sum over a of Y[r, a, i] A_a[k, j]
    t = np.einsum("rai,akj->rjik", y3, a3) % p
    tmat = t.reshape(y.shape[0] * m.dims[src], n.dims[snk] * m.dims[snk])
    sink_hom = n.dims[snk] * m.dims[snk] - _linalg.mod_p_rank(tmat, p)
    return m.dims[src] * (n.dims[src] - rank_sb) + sink_hom


def _hom_mod_p_full(m: QuiverRep, n: QuiverRep, p: int) -> int:
    rows, total, _ = _system_rows(m, n)
    if not rows:
        return total
    return total - _linalg.mod_p_rank(_matrix_mod_p(rows, p), p)


@lru_cache(maxsize=4096)
def hom_ext(m: QuiverRep, n: QuiverRep, want_basis: bool = False) -> HomExt:
    """Hom and Ext dimensions between representations of one acyclic quiver.

    With a basis the intertwiner system is solved exactly over the
    rationals.  Without one, a modular rank is tried for each large prime:
    rank mod p never exceeds the rank over QQ, so hom_p >= hom >= max(chi, 0)
    and hom_p = max(chi, 0) certifies the answer.  When no prime
    certifies, the system is solved by exact elimination.  Parallel
    two-vertex quivers use the reduced sink system of _hom_mod_p_reduced,
    and since Hom(M, N) = Hom(DN, DM) with the same chi, the side with
    fewer sink unknowns is solved; other quivers use the full system.
    """
    if m.quiver != n.quiver:
        raise ValueError("representations live on different quivers")
    src = _source_vertex(m.quiver)
    if not want_basis and src is not None:
        if m.dims[src] * n.dims[src] < m.dims[1 - src] * n.dims[1 - src]:
            return hom_ext(dual(n), dual(m))
    chi = euler_pair(euler_matrix(m.quiver), m.dims, n.dims)

    if want_basis:
        rows, total, offs = _system_rows(m, n)
        kernel = _linalg.frac_kernel(rows, total) if rows else _linalg.frac_identity(total)
        basis = tuple(_reshape_basis(v, m, n, offs) for v in kernel)
        return HomExt(len(kernel), len(kernel) - chi, basis, "exact")

    _, total = _unknown_layout(m, n)
    solve, primes = _hom_mod_p_reduced, _pick_prime((m, n))
    if src is None:
        solve = _hom_mod_p_full
        rows_count = sum(n.dims[t] * m.dims[s] for s, t in m.quiver.arrows)
        if rows_count * total * min(rows_count, total) > 3_000_000_000:
            primes = ()
    for p in primes:
        hom_p = solve(m, n, p)
        if hom_p == max(chi, 0):
            return HomExt(hom_p, hom_p - chi, None, f"mod-{p}")
    # uncertified: fall back to exact arithmetic when at all feasible
    if total > 400:
        raise OracleBoundError(f"hom system with {total} unknowns is uncertified and too large")
    rows, total, _ = _system_rows(m, n)
    rank = _linalg.int_rank(_rows_to_int(rows)) if rows else 0
    hom = total - rank
    return HomExt(hom, hom - chi, None, "exact-fallback")


def _reshape_basis(vec, m: QuiverRep, n: QuiverRep, offs):
    out = []
    for v in range(m.quiver.vertex_count):
        block = []
        for i in range(n.dims[v]):
            base = offs[v] + i * m.dims[v]
            block.append(tuple(vec[base : base + m.dims[v]]))
        out.append(tuple(block))
    return tuple(out)


def generic_rep(quiver: Quiver, dims, seed: int) -> QuiverRep:
    """Deterministic random representation; certified rigid when chi(d,d) = 1."""
    dims = tuple(int(d) for d in dims)
    chi = euler_pair(euler_matrix(quiver), dims, dims)
    for attempt in range(40):
        rng = random.Random(f"{seed}:{attempt}")
        mats = []
        for s, t in quiver.arrows:
            mats.append(
                [[rng.randint(-3, 3) for _ in range(dims[s])] for _ in range(dims[t])]
            )
        rep = make_rep(quiver, dims, mats)
        if chi != 1:
            return rep
        he = hom_ext(rep, rep)
        if he.hom == 1 and he.ext == 0:
            return rep
    raise RuntimeError(f"no rigid representation of {dims} found from seed {seed}")


# -- subrepresentation enumeration ----------------------------------------


@dataclass(frozen=True)
class SubrepScan:
    vectors: tuple[tuple[int, ...], ...]
    witnesses: dict
    uncertified: tuple[tuple[int, ...], ...]


def dual(m: QuiverRep) -> QuiverRep:
    """Vector-space dual of a representation of a parallel two-vertex quiver.

    Dualizing reverses every arrow; swapping the two vertices turns them
    back into the original arrows, so the dual lives on the same quiver
    with dims (d1, d0) and every matrix transposed.
    """
    if _source_vertex(m.quiver) is None:
        raise ValueError("dual needs two vertices joined by parallel arrows")
    dims = (m.dims[1], m.dims[0])
    mats = []
    for mat, (_, t) in zip(m.matrices, m.quiver.arrows):
        mats.append([[row[j] for row in mat] for j in range(dims[t])])
    return make_rep(m.quiver, dims, mats)


def _enum_two_vertex(m: QuiverRep, p: int):
    """Candidate (source, sink) subrep dims mod p with one witness each.

    Enumerates sink subspaces W; the largest source subspace mapping into W
    is the meet of the arrow preimages, of dimension
    mu(W) = d_src - rank(stack of C A_a) with C the rows annihilating W.
    W comes in blocks of one pivot pattern, each block ranked by one stacked
    elimination, and a kernel basis is solved only for the first W that
    reaches a new (u, e).  Blocks of e are skipped once every (u, e) is
    found.  Returns {vec: (w_rref, kernel_basis)}.
    """
    src = _source_vertex(m.quiver)
    d_src, d_snk = m.dims[src], m.dims[1 - src]
    amats = np.stack([_matrix_mod_p(mat, p).reshape(d_snk, d_src) for mat in m.matrices])
    found: dict[tuple[int, int], tuple] = {}
    for e in range(d_snk + 1):
        missing = list(range(d_src + 1))  # source dims u with (u, e) not found
        for w, c in _linalg.subspace_blocks_mod_p(d_snk, e, p):
            if not missing:
                break
            # row (a, r) of matrix b: row r of C_b A_a
            stacked = (c[:, None] @ amats % p).reshape(len(c), len(amats) * (d_snk - e), d_src)
            ranks = _linalg.mod_p_rank(stacked, p)
            for i, mu in enumerate((d_src - ranks).tolist()):
                if not missing or missing[0] > mu:
                    continue
                kern = _linalg.mod_p_kernel(stacked[i], p)
                for u in missing:
                    if u <= mu:
                        vec = (u, e) if src == 0 else (e, u)
                        found[vec] = (w[i].copy(), kern[:u].copy())
                missing = [u for u in missing if u > mu]
    return found


def _pad_to_dim(rows: list, e: int, d: int):
    out = [list(r) for r in rows]
    for c in range(d):
        if len(out) >= e:
            break
        unit = [Fraction(1 if j == c else 0) for j in range(d)]
        if _linalg.frac_rank(out + [unit]) > len(out):
            out.append(unit)
    if len(out) < e:
        raise RuntimeError("cannot pad witness")
    return out


def _certify_two_vertex(m: QuiverRep, vec, pool, rng) -> tuple | None:
    """Rational witness (source rows, sink rows) for a candidate vector."""
    src = _source_vertex(m.quiver)
    snk = 1 - src
    d_src, d_snk = m.dims[src], m.dims[snk]
    u, e = vec[src], vec[snk]
    amats = [[list(row) for row in mat] for mat in m.matrices]

    def image_rows(urows):
        img = []
        for r in urows:
            for mat in amats:
                img.append(_linalg.frac_matvec(mat, list(r)) if mat else [])
        img = [row for row in img if row]
        return _linalg.row_space_basis(img) if img else []

    def attempt(urows):
        urows = [[Fraction(x) for x in row] for row in urows]
        if len(urows) != u:
            return None
        if u and _linalg.frac_rank(urows) != u:
            return None
        img = image_rows(urows) if u else []
        if len(img) > e:
            return None
        wrows = _pad_to_dim(img, e, d_snk)
        return (tuple(tuple(r) for r in urows), tuple(tuple(r) for r in wrows))

    if u == 0:
        return attempt([])
    for cand in pool:
        got = attempt(cand)
        if got:
            return got
    for _ in range(30):
        cand = [[rng.randint(-2, 2) for _ in range(d_src)] for _ in range(u)]
        got = attempt(cand)
        if got:
            return got
    return None


def subrep_dimvecs(m: QuiverRep, bound: int | None = None) -> SubrepScan:
    """Dimension vectors of subrepresentations, certified over the rationals.

    Candidates come from subspace enumeration over small finite fields
    (intersected across fields); each candidate is kept only with an exact
    witness.  Uncertified leftovers are reported, never silently used.
    """
    return _subrep_cached(m, bound if bound is not None else default_bound())


@lru_cache(maxsize=2048)
def _subrep_cached(m: QuiverRep, bound: int) -> SubrepScan:
    if m.total_dim() > bound:
        raise OracleBoundError(
            f"total dimension {m.total_dim()} exceeds the oracle bound {bound}"
        )
    if m.is_zero():
        vec = tuple(m.dims)
        return SubrepScan((vec,), {vec: tuple(() for _ in m.dims)}, ())
    if _source_vertex(m.quiver) is not None:
        return _subrep_two_vertex(m)
    return _subrep_general(m)


def _subrep_two_vertex(m: QuiverRep) -> SubrepScan:
    src = _source_vertex(m.quiver)
    snk = 1 - src
    d_src, d_snk = m.dims[src], m.dims[snk]
    dualize = d_src < d_snk
    work = dual(m) if dualize else m
    enum_side = min(d_src, d_snk)

    if _linalg.count_subspaces(enum_side, 2) > HARD_ENUM_BUDGET:
        raise OracleBoundError("subspace enumeration too large")
    dens = _denominators(m)
    primes = []
    for p in ENUM_PRIMES + (7, 11, 13, 17, 19, 23):
        if any(d % p == 0 for d in dens):
            continue
        count = _linalg.count_subspaces(enum_side, p)
        if count <= PRIME_ENUM_BUDGET or (not primes and count <= HARD_ENUM_BUDGET):
            primes.append(p)
        if len(primes) >= 3:
            break
    if not primes:
        raise OracleBoundError("no usable enumeration prime")

    per_prime: list[dict] = []
    for p in primes:
        cands = _enum_two_vertex(work, p)
        if dualize:
            # a subrep of D m is the annihilator of a quotient of m, whose
            # kernel has the complementary dims on the swapped vertices
            per_prime.append(
                {
                    (m.dims[0] - vec[1], m.dims[1] - vec[0]): (wit, p)
                    for vec, wit in cands.items()
                }
            )
        else:
            per_prime.append({vec: (wit, p) for vec, wit in cands.items()})

    surviving = set(per_prime[0])
    for cand in per_prime[1:]:
        surviving &= set(cand)

    # seeded from the canonical text, so the witnesses do not depend on
    # PYTHONHASHSEED
    rng = random.Random(f"subrep:{format_rep(m)}")
    kernels = cache(lambda: _kernel_pool(m, src))
    witnesses = {}
    uncertified = []
    for vec in sorted(surviving):
        pool = _witness_pool(m, vec, per_prime, dualize, kernels)
        wit = _certify_two_vertex(m, vec, pool, rng)
        if wit is not None:
            witnesses[vec] = wit
        else:
            uncertified.append(vec)
    vectors = tuple(sorted(witnesses))
    return SubrepScan(vectors, witnesses, tuple(sorted(uncertified)))


def _witness_pool(m: QuiverRep, vec, per_prime, dualize: bool, kernels):
    """Candidate source bases for vec, built one at a time as they are tried.

    Lifts of each prime's witness come first, then arrow-kernel bases
    (kernels() computes them once per scan), then coordinate subspaces.
    """
    src = _source_vertex(m.quiver)
    d_src, d_snk = m.dims[src], m.dims[1 - src]
    u = vec[src]
    for cand in per_prime:
        if vec not in cand:
            continue
        (w_p, kern_p), p = cand[vec]
        if dualize:
            # the enumerated subspace lives in functionals on the source
            lifted = _linalg.centered_lift(w_p, p)
            urows = _linalg.frac_kernel(
                [[Fraction(int(x)) for x in row] for row in lifted], d_src
            )
            if len(urows) == u:
                yield urows
            continue
        lifted = _linalg.centered_lift(kern_p[:u], p)
        yield [[Fraction(int(x)) for x in row] for row in lifted]
        wq = [[Fraction(int(x)) for x in row] for row in _linalg.centered_lift(w_p, p)]
        ann = _linalg.frac_kernel(wq, d_snk) if wq else _linalg.frac_identity(d_snk)
        cond = []
        for y in ann:
            for mat in m.matrices:
                row = [Fraction(0)] * d_src
                for i, yi in enumerate(y):
                    if yi:
                        for j in range(d_src):
                            row[j] += yi * mat[i][j]
                cond.append(row)
        uq = _linalg.frac_kernel(cond, d_src) if cond else _linalg.frac_identity(d_src)
        if len(uq) >= u:
            yield uq[:u]
    for kb in kernels():
        if len(kb) >= u:
            yield kb[:u]
    for comb in islice(combinations(range(d_src), u), 60):
        yield [[Fraction(1 if j == c else 0) for j in range(d_src)] for c in comb]


def _kernel_pool(m: QuiverRep, src: int):
    """Rational bases of arrow-kernel intersections, largest sets first."""
    mats = [[list(row) for row in mat] for mat in m.matrices]
    pools = []
    idxs = list(range(len(mats)))
    subsets = [tuple(idxs)] + [(i,) for i in idxs]
    seen = set()
    for sub in subsets:
        if not sub or sub in seen:
            continue
        seen.add(sub)
        stacked = []
        for a in sub:
            stacked.extend(mats[a])
        stacked = [row for row in stacked if row]
        basis = (
            _linalg.frac_kernel(stacked, m.dims[src])
            if stacked
            else _linalg.frac_identity(m.dims[src])
        )
        if basis:
            pools.append(basis)
    return pools


def _subrep_general(m: QuiverRep) -> SubrepScan:
    q = m.quiver
    dens = _denominators(m)
    primes = []
    for p in ENUM_PRIMES:
        size = 1
        for d in m.dims:
            size *= _linalg.count_subspaces(d, p)
        if (size <= PRIME_ENUM_BUDGET or p == 2) and all(x % p for x in dens):
            if size > HARD_ENUM_BUDGET:
                raise OracleBoundError("subspace enumeration too large")
            primes.append(p)
    if not primes:
        raise OracleBoundError("no usable enumeration prime")

    per_prime = []
    for p in primes:
        amats = [_matrix_mod_p(mat, p) for mat in m.matrices]
        lists = [list(_linalg.all_subspaces_mod_p(d, p)) for d in m.dims]
        found = {}
        def rec(v, chosen):
            if v == q.vertex_count:
                vec = tuple(u.shape[0] for u in chosen)
                if vec not in found:
                    found[vec] = tuple(u.copy() for u in chosen)
                return
            for u in lists[v]:
                ok = True
                for idx, (s, t) in enumerate(q.arrows):
                    if s != v and t != v:
                        continue
                    if s > v or t > v:
                        continue
                    us, ut = chosen[s] if s != v else u, chosen[t] if t != v else u
                    if not _arrow_ok(us, ut, amats[idx], p):
                        ok = False
                        break
                if ok:
                    rec(v + 1, chosen + [u])
        def _arrow_ok(us, ut, amat, p2):
            if us.shape[0] == 0:
                return True
            img = (us @ amat.T) % p2
            if ut.shape[0] == 0:
                return not img.any()
            both = np.vstack([ut, img])
            return _linalg.mod_p_rank(both, p2) == _linalg.mod_p_rank(ut, p2)
        rec(0, [])
        per_prime.append((p, found))

    surviving = set(per_prime[0][1])
    for _, found in per_prime[1:]:
        surviving &= set(found)

    witnesses = {}
    uncertified = []
    for vec in sorted(surviving):
        wit = None
        for p, found in per_prime:
            if vec not in found:
                continue
            lifted = [
                [[Fraction(int(x)) for x in row] for row in _linalg.centered_lift(u, p)]
                for u in found[vec]
            ]
            if _check_general_witness(m, vec, lifted):
                wit = tuple(tuple(tuple(r) for r in u) for u in lifted)
                break
        if wit is None and all(d in (0, m.dims[v]) for v, d in enumerate(vec)):
            lifted = [
                _linalg.frac_identity(m.dims[v]) if vec[v] == m.dims[v] else []
                for v in range(q.vertex_count)
            ]
            if _check_general_witness(m, vec, lifted):
                wit = tuple(tuple(tuple(r) for r in u) for u in lifted)
        if wit is not None:
            witnesses[vec] = wit
        else:
            uncertified.append(vec)
    return SubrepScan(tuple(sorted(witnesses)), witnesses, tuple(sorted(uncertified)))


def _check_general_witness(m: QuiverRep, vec, bases) -> bool:
    for v in range(m.quiver.vertex_count):
        rows = [list(r) for r in bases[v]]
        if len(rows) != vec[v]:
            return False
        if rows and _linalg.frac_rank(rows) != len(rows):
            return False
    for idx, (s, t) in enumerate(m.quiver.arrows):
        amat = [list(r) for r in m.matrices[idx]]
        target = [list(r) for r in bases[t]]
        tr = _linalg.frac_rank(target) if target else 0
        for r in bases[s]:
            img = _linalg.frac_matvec(amat, list(r)) if amat else []
            if not img:
                continue
            if _linalg.frac_rank(target + [img]) != tr:
                return False
    return True


# -- stability and Harder-Narasimhan --------------------------------------


def _charge_of(charge: CentralCharge, dims) -> GaussianRational:
    return charge.evaluate(tuple(int(x) for x in dims))


def _charges(charge: CentralCharge, vecs) -> dict:
    """The charge of each distinct vector, evaluated once."""
    return {vec: _charge_of(charge, vec) for vec in dict.fromkeys(vecs)}


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
    """King stability of a representation against a half-plane charge."""
    _check_stability_function(charge, m.quiver)
    if m.is_zero():
        raise ValueError("the zero representation has no stability verdict")
    scan = subrep_dimvecs(m, bound)
    t_m = PhaseToken(_charge_of(charge, m.dims), 0)
    proper = [vec for vec in scan.vectors if any(vec) and vec != m.dims]
    tokens = {vec: PhaseToken(z, 0) for vec, z in _charges(charge, proper).items()}
    worst = None
    worst_cmp = -1
    for vec in proper:
        cmp = phase_compare(tokens[vec], t_m)
        if worst is None or cmp > worst_cmp or (
            cmp == worst_cmp and phase_compare(tokens[vec], tokens[worst]) > 0
        ):
            worst, worst_cmp = vec, cmp
    if worst is None:
        return ThetaResult("stable", None, scan.uncertified)
    if worst_cmp > 0:
        return ThetaResult("unstable", worst, scan.uncertified)
    if worst_cmp == 0:
        return ThetaResult("semistable-not-stable", worst, scan.uncertified)
    return ThetaResult("stable", None, scan.uncertified)


def _sub_from_witness(m: QuiverRep, bases) -> QuiverRep:
    dims = tuple(len(b) for b in bases)
    mats = []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        amat = [list(r) for r in m.matrices[idx]]
        imgs = [
            _linalg.frac_matvec(amat, list(r)) if amat else []
            for r in bases[s]
        ]
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
    return make_rep(m.quiver, dims, mats)


def _quotient_from_witness(m: QuiverRep, bases) -> QuiverRep:
    """Quotient of m by the subrepresentation the witness rows span."""
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
        imgs = [
            _linalg.frac_matvec(amat, list(r)) if amat else []
            for r in comps[s]
        ]
        if m.dims[t] == 0 or dims[t] == 0:
            mats.append([[Fraction(0)] * dims[s] for _ in range(dims[t])])
            continue
        full_cols = [list(c) for c in zip(*fulls[t])]
        img_cols = [list(c) for c in zip(*imgs)] if imgs else [[] for _ in range(m.dims[t])]
        sol = _linalg.frac_solve(full_cols, img_cols)
        mats.append([row for row in sol[len(bases[t]) :]])
    return make_rep(m.quiver, dims, mats)


def _witness_bases(m: QuiverRep, vec, scan) -> tuple:
    """Witness as one row-basis tuple per vertex, in vertex order."""
    wit = scan.witnesses[vec]
    src = _source_vertex(m.quiver)
    if src is None:
        return wit
    urows, wrows = wit
    return (urows, wrows) if src == 0 else (wrows, urows)


def hn(
    m: QuiverRep,
    charge: CentralCharge,
    bound: int | None = None,
    extractor: str = "phase",
) -> list[tuple[QuiverRep, PhaseToken]]:
    """Harder-Narasimhan factors, top phase first.

    Factors are peeled as maximal destabilizers; each peeled piece is
    re-checked for semistability and, when the check fails because of a
    missed candidate, the inner witness is composed into the ambient
    representation and the extraction restarts.
    """
    _check_stability_function(charge, m.quiver)
    if m.is_zero():
        raise ValueError("the zero representation has no filtration")
    factors: list[tuple[QuiverRep, PhaseToken]] = []
    current = m
    guard = 0
    extra: list[tuple] = []
    while not current.is_zero():
        guard += 1
        if guard > 200:
            raise RuntimeError("filtration did not terminate")
        scan = subrep_dimvecs(current, bound)
        cands = []
        for vec in scan.vectors:
            if all(x == 0 for x in vec):
                continue
            cands.append((vec, _witness_bases(current, vec, scan)))
        cands.extend(extra)
        winner = _select_destabilizer(current, charge, cands, extractor)
        vec, bases = winner
        sub = _sub_from_witness(current, bases)
        inner = theta_test(sub, charge, bound) if not sub.is_zero() else None
        if inner is not None and inner.verdict == "unstable":
            # a steeper piece inside the peel was missed: compose it into
            # the ambient coordinates and redo the selection with it
            inner_scan = subrep_dimvecs(sub, bound)
            ibases = _witness_bases(sub, inner.witness, inner_scan)
            extra.append((sub_dims(ibases), _compose_witness(ibases, bases)))
            continue
        token = PhaseToken(_charge_of(charge, sub.dims), 0)
        factors.append((sub, token))
        extra = []
        if vec == current.dims:
            break
        current = _quotient_from_witness(current, bases)
    for a, b in zip(factors, factors[1:]):
        if phase_compare(a[1], b[1]) <= 0:
            raise RuntimeError("factor phases are not strictly decreasing")
    return factors


def _compose_witness(inner, outer):
    return tuple(
        tuple(tuple(r) for r in _linalg.frac_matmul(inner[v], outer[v]))
        for v in range(len(outer))
    )


def sub_dims(bases) -> tuple[int, ...]:
    return tuple(len(b) for b in bases)


def _select_destabilizer(current, charge, cands, extractor):
    zs = _charges(charge, [vec for vec, _ in cands])
    if extractor == "phase":
        tokens = {vec: PhaseToken(z, 0) for vec, z in zs.items()}
        best = None
        for vec, bases in cands:
            if best is None:
                best = (vec, bases)
                continue
            c = phase_compare(tokens[vec], tokens[best[0]])
            if c > 0 or (
                c == 0
                and (
                    sum(vec) > sum(best[0])
                    or (sum(vec) == sum(best[0]) and vec < best[0])
                )
            ):
                best = (vec, bases)
        return best
    if extractor == "slope":
        # maximal slope by exact cross products, then join every maximal witness
        def slope_greater(a, b):
            za, zb = zs[a], zs[b]
            return za.re * zb.im - za.im * zb.re < 0
        top = []
        for vec, bases in cands:
            if not top:
                top = [(vec, bases)]
            elif slope_greater(vec, top[0][0]):
                top = [(vec, bases)]
            elif not slope_greater(top[0][0], vec):
                top.append((vec, bases))
        joined = _join_witnesses_from(top)
        return (sub_dims(joined), joined)
    raise ValueError(f"unknown extractor {extractor!r}")


def _join_witnesses_from(top):
    nverts = len(top[0][1])
    joined = []
    for v in range(nverts):
        rows = []
        for _, bases in top:
            rows.extend([list(r) for r in bases[v]])
        joined.append(
            tuple(tuple(r) for r in (_linalg.row_space_basis(rows) if rows else []))
        )
    return tuple(joined)
