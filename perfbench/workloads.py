"""The three benchmark workloads.

Each workload is a fixed, seeded list of ops run as a closed loop by one
client.  A workload has a declared warm-up (`setup`), a deterministic input
list (`inputs`), the timed call into stabctl (`run`) and an answer check
against an independent reference (`check`).  `check` returns the canonical
answer that goes into the run's digest, or raises `CheckFailed`.

The timed calls go through module attributes (`rep_lab.hom_ext`, not a
name imported from it), so the tracer's wrappers see them.  Every oracle
call passes the bound explicitly (`ORACLE_BOUND`, or
`--oracle-bound 12` on the command line).  A refusal raises
`OracleBoundError`, which the harness counts as a failed op; it is never
caught here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

from stabctl import chart_atlas as ca
from stabctl import cli
from stabctl import exc_collections as xc
from stabctl import gl_action as gl
from stabctl import pn_model as pn
from stabctl import rep_lab
from stabctl.gl_action import act_tokens
from stabctl.klattice import (
    CentralCharge,
    EulerMatrix,
    PhaseToken,
    euler_matrix,
    euler_pair,
    gauss,
    kronecker_quiver,
)

ORACLE_BOUND = 12



class CheckFailed(AssertionError):
    """An answer disagreed with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def angle(z) -> float:
    return math.atan2(float(z.im), float(z.re))


def _cross(a, b) -> Fraction:
    return a.re * b.im - a.im * b.re


# -- seeded input makers ----------------------------------------------------
# Presented points, group elements and half-plane charges come from the
# samplers the stabctl acceptance suites use (pn._sample_point and friends),
# so the point kinds keep their shares there: 20% orbit points, 15%
# degenerate rays, 50% module hearts, 15% wide-gap hearts, and 30% of the
# non-orbit points moved by a random group element.


def moved(rng: random.Random, tokens):
    """A random group element and the tokens it moves; retried on a
    degenerate lift."""
    while True:
        g = pn._random_gl(rng)
        try:
            return g, act_tokens(g, tokens)
        except ArithmeticError:
            continue


def rank_two_point(rng: random.Random, n: int, base: int) -> pn.PnPoint:
    """A sampled point whose two charges span the plane, so its orbit is
    solvable."""
    while True:
        p = pn._sample_point(n, base, rng)
        a, b = (t.charge_value() for t in p.tokens)
        if _cross(a, b) != 0:
            return p


def random_collection(rng: random.Random, size: int) -> xc.ExcCollection:
    """Standard basis classes with a random unipotent Euler form; each forward
    entry sits in one degree (0 or 2 for positive pairing, 1 for negative)."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    entries = {}
    for i in range(size):
        for j in range(i + 1, size):
            chi = rng.randint(-4, 4)
            m[i][j] = chi
            if chi > 0:
                entries[(i, j)] = {rng.choice((0, 2)): chi}
            elif chi < 0:
                entries[(i, j)] = {1: -chi}
    objs = tuple(
        xc.ExcObject(f"E{i}", tuple(int(k == i) for k in range(size))) for i in range(size)
    )
    return xc.make_collection(objs, xc.HomTable(size, entries), EulerMatrix(tuple(map(tuple, m))))


def random_rep(rng: random.Random, n: int, dims, entry: int = 2):
    q = kronecker_quiver(n)
    mats = [
        [[rng.randint(-entry, entry) for _ in range(dims[0])] for _ in range(dims[1])]
        for _ in range(n)
    ]
    return rep_lab.make_rep(q, dims, mats)


def random_charge(rng: random.Random) -> CentralCharge:
    return CentralCharge((pn._random_half_plane(rng), pn._random_half_plane(rng)))


# -- helix-table --------------------------------------------------------------


class HelixTable:
    """Cold helix construction plus the full graded hom table.

    Builds helix_module(n, k) one recursion step per op (each module is
    certified rigid by stabctl on the way), then runs hom_ext on every ordered
    pair of distinct modules of one n, in seeded order, against the closed
    hom prediction of the helix.  No subrep enumeration runs here.
    """

    name = "helix-table"

    def __init__(self, tiny: bool):
        # n=3 stops at |k| = 4 on purpose until ROADMAP items 2 and 5 give
        # budgets (2 CPUs, Python 3.11, numpy 2.4): s_rep(3, 5), dims
        # (21, 55), takes 218-224 s in its rigidity hom_ext, and s_rep(3, -5),
        # dims (144, 55), passed 2.8 GB RSS and was still growing
        self.ranges = {2: range(-3, 4), 3: range(-2, 3)} if tiny else {2: range(-6, 7), 3: range(-4, 5)}

    def setup(self) -> None:
        pass

    def inputs(self, seed: int) -> list:
        builds = []
        for n, ks in self.ranges.items():
            for k in sorted(ks, key=lambda k: (abs(k), -k)):
                builds.append(("build", n, k))
        pairs = [("pair", n, i, j) for n, ks in self.ranges.items() for i in ks for j in ks if i != j]
        random.Random(f"helix-table:{seed}").shuffle(pairs)
        self.modules = {}
        return builds + pairs

    def run(self, inp):
        if inp[0] == "build":
            _, n, k = inp
            rep, shift = pn.helix_module(n, k)
            self.modules[(n, k)] = rep
            return rep, shift
        _, n, i, j = inp
        return rep_lab.hom_ext(self.modules[(n, i)], self.modules[(n, j)])

    def check(self, inp, res):
        if inp[0] == "build":
            _, n, k = inp
            rep, shift = res
            cls = pn.s_class(n, k)
            sign = -1 if shift % 2 else 1
            expect((sign * rep.dims[0], sign * rep.dims[1]) == cls, f"class of S({n},{k})")
            em = euler_matrix(rep.quiver)
            expect(euler_pair(em, rep.dims, rep.dims) == 1, f"S({n},{k}) is not exceptional")
            he = rep_lab.hom_ext(rep, rep)
            expect((he.hom, he.ext) == (1, 0), f"S({n},{k}) is not rigid")
            return ["build", n, k, list(rep.dims), shift]
        _, n, i, j = inp
        degree, dim = pn.module_hom_prediction(n, i, j)
        want = (dim, 0) if degree == 0 else (0, dim)
        expect((res.hom, res.ext) == want, f"hom_ext S({n},{i}) -> S({n},{j}) = {(res.hom, res.ext)}, theory {want}")
        a, b = self.modules[(n, i)].dims, self.modules[(n, j)].dims
        expect(res.hom - res.ext == euler_pair(euler_matrix(kronecker_quiver(n)), a, b), "Euler pairing")
        return ["pair", n, i, j, res.hom, res.ext]


# -- oracle-stream ------------------------------------------------------------


def stream_dims(tiny: bool) -> list[tuple[int, int]]:
    """Dimension vectors of total at most the bound whose smaller side is at
    most 3, the side the subspace enumeration runs over."""
    top = 6 if tiny else ORACLE_BOUND
    small = 2 if tiny else 3
    return [
        (a, b)
        for a in range(top + 1)
        for b in range(top + 1)
        if 1 <= a + b <= top and min(a, b) <= small
    ]


class OracleStream:
    """Fresh representations through the oracle, one input after another.

    Every input is hom_ext against a second random representation, then
    theta_test, then hn with the phase and with the slope extractor.  Inputs
    are seeded random representations of p2 and p3 (each dimension class of
    `stream_dims` once per quiver) and the rigid modules s_rep(2, k), |k| <= 5
    (built during set-up), each paired with random half-plane charges.
    """

    name = "oracle-stream"
    OPS = ("hom_ext", "theta_test", "hn_phase", "hn_slope")

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.rigid_k = range(-2, 3) if tiny else range(-5, 6)
        self.rigid_charges = 1 if tiny else 3
        self.seen = {}

    def setup(self) -> None:
        self.rigid = {k: pn.s_rep(2, k) for k in self.rigid_k}

    def inputs(self, seed: int) -> list:
        rng = random.Random(f"oracle-stream:{seed}")
        items = []
        for n in (2, 3):
            for dims in stream_dims(self.tiny):
                items.append(("random", n, dims))
        for k in self.rigid_k:
            items.extend(("rigid", 2, k) for _ in range(self.rigid_charges))
        rng.shuffle(items)
        out = []
        for item, (kind, n, spec) in enumerate(items):
            m = random_rep(rng, n, spec) if kind == "random" else self.rigid[spec]
            while True:
                other_dims = (rng.randint(0, 4), rng.randint(0, 4))
                if any(other_dims):
                    break
            other = random_rep(rng, n, other_dims, entry=3)
            charge = random_charge(rng)
            for op in self.OPS:
                out.append((op, kind, n, m, other, charge, item))
        return out

    def run(self, inp):
        op, _, _, m, other, charge, _ = inp
        if op == "hom_ext":
            return rep_lab.hom_ext(m, other)
        if op == "theta_test":
            return rep_lab.theta_test(m, charge, ORACLE_BOUND)
        return rep_lab.hn(m, charge, ORACLE_BOUND, extractor="phase" if op == "hn_phase" else "slope")

    def check(self, inp, res):
        op, kind, n, m, other, charge, item = inp
        if op == "hom_ext":
            chi = euler_pair(euler_matrix(m.quiver), m.dims, other.dims)
            expect(res.hom >= 0 and res.ext >= 0, "negative hom or ext")
            expect(res.hom - res.ext == chi, f"hom-ext {res.hom}-{res.ext} misses the pairing {chi}")
            return [op, kind, n, list(m.dims), list(other.dims), res.hom, res.ext]
        if op == "theta_test":
            self.seen[(item, op)] = res.verdict
            expect(res.verdict in ("stable", "semistable-not-stable", "unstable"), "verdict")
            return [op, res.verdict, list(res.witness) if res.witness else None, len(res.uncertified)]
        dims = [f.dims for f, _ in res]
        self.check_hn(m, charge, res)
        self.seen[(item, op)] = dims
        verdict = self.seen.get((item, "theta_test"))
        if op == "hn_phase" and verdict is not None:
            expect((len(res) == 1) == (verdict != "unstable"), "theta verdict and HN length disagree")
        phase_dims = self.seen.get((item, "hn_phase"))
        if op == "hn_slope" and phase_dims is not None:
            expect(dims == phase_dims, f"slope extractor {dims} vs phase extractor {phase_dims}")
        return [op, [list(d) for d in dims]]

    @staticmethod
    def check_hn(m, charge, factors) -> None:
        """HN axioms: factors refill the dimension vector, carry their own
        charge, have strictly decreasing phase, and none is unstable."""
        totals = tuple(sum(f.dims[v] for f, _ in factors) for v in range(2))
        expect(totals == m.dims, f"factor dims {totals} do not refill {m.dims}")
        zs = []
        for f, tok in factors:
            z = gauss(0)
            for d, c in zip(f.dims, charge.values):
                z = z + c * d
            expect(tok.z == z and tok.winding == 0, "factor token is not the factor charge")
            zs.append(z)
        for a, b in zip(zs, zs[1:]):
            expect(angle(a) > angle(b) and _cross(a, b) != 0, "factor phases do not decrease")
        for f, _ in factors:
            expect(rep_lab.theta_test(f, charge, ORACLE_BOUND).verdict != "unstable", "unstable HN factor")


# -- chart-queries ------------------------------------------------------------

# Op mix of one block; the stream repeats the block and shuffles the whole
# list.  The shares are the calls the stabctl acceptance suites (verify.py,
# run by the tier-1 tests) make, counted per outermost entry-point call and
# scaled by 1/100 (HOWTO.md has the counts): 7752 mutation round trips
# (braid, triangle and witness suites), 3304 membership pairs (overlap,
# aut, witness), 1000 stable-pair searches, 300 transports (aut), 5 cone
# and 5 build_stability checks (triangle, witness).  The suites never call
# classify or orbit_solve at top level; those two, cone and mutstab get one
# op per block so each is still timed and checked.  The cli share is the
# 10% the workload definition asks for.
CHART_MIX = {
    "mutate": 78,
    "overlap": 33,
    "stable_pair": 10,
    "transport": 3,
    "cone": 1,
    "mutstab": 1,
    "classify": 1,
    "orbit": 1,
    "cli": 14,
}
# 30 blocks make 4260 ops, so a pass yields thousands of latency samples
BLOCKS = 30
# commands in the shares of their calls in the CLI tests (tests/test_cli.py),
# taken in turn
CLI_MIX = {"member": 4, "mutate": 4, "classify": 3, "chart": 2, "build": 2, "orbit": 2, "stable-pair": 1}
CLI_TURNS = tuple(cmd for cmd, weight in CLI_MIX.items() for _ in range(weight))
# the overlap suite pairs charts (0,1), (0,2) and (1,2)
OVERLAP_OFFSETS = (1, 2, 1)
# search windows keep every module the oracle meets within the bound:
# n=2 uses S_-3..S_4, n=3 uses S_-2..S_3 (total dimension at most 11)
WINDOW = {2: 3, 3: 2}
BASES = range(-2, 3)
COLLECTION_OPS = ("mutate", "classify", "cone", "mutstab")
# the cone check raises the first token to this winding, above every
# constraint that starts at the first object (chart_shifts keep p_i >= -1)
RAISED_WINDING = 8


class ChartQueries:
    """Warm chart and collection queries, about 10% through the CLI.

    Set-up builds every helix module the queries can touch and fills the
    subrep cache for each, so the stream measures the warm interactive path.
    """

    name = "chart-queries"

    def __init__(self, tiny: bool):
        self.blocks = 1 if tiny else BLOCKS

    def modules(self):
        for n, w in WINDOW.items():
            for j in range(-w, w + 2):
                yield n, j

    def setup(self) -> None:
        for n, j in self.modules():
            rep, _ = pn.helix_module(n, j)
            rep_lab.subrep_dimvecs(rep, ORACLE_BOUND)
        for n in WINDOW:
            for b in BASES:
                pn.pn_collection(n, b)

    def inputs(self, seed: int) -> list:
        rng = random.Random(f"chart-queries:{seed}")
        kinds = [kind for kind, weight in CHART_MIX.items() for _ in range(weight * self.blocks)]
        rng.shuffle(kinds)
        out = []
        cli_i = 0
        for kind in kinds:
            n = rng.choice((2, 3))
            base = rng.choice(BASES)
            if kind in COLLECTION_OPS:
                c = random_collection(rng, rng.randint(2, 5))
                z = tuple(pn._random_half_plane(rng) for _ in range(c.size))
                adjacent = [j for j in range(c.size - 1) if c.table.entry(j, j + 1)]
                pair = rng.choice(adjacent) if kind == "mutstab" and adjacent else None
                out.append((kind, c, z, rng.randrange(c.size - 1), chart_shifts(c, pair), pair))
                continue
            if kind == "cli":
                kind = "cli:" + CLI_TURNS[cli_i % len(CLI_TURNS)]
                cli_i += 1
            if kind.endswith("orbit"):
                p = rank_two_point(rng, n, base)
            else:
                p = pn._sample_point(n, base, rng)
            extra = None
            if kind == "orbit":
                extra = moved(rng, p.tokens)
            elif kind == "overlap":
                extra = base + rng.choice(OVERLAP_OFFSETS)
            elif kind.startswith("cli:"):
                extra = {
                    "chart": base + rng.choice(OVERLAP_OFFSETS),
                    "direction": rng.choice((xc.LEFT, xc.RIGHT)),
                    "charges": (pn._random_half_plane(rng), pn._random_half_plane(rng)),
                    "target": moved(rng, p.tokens),
                }
            out.append((kind, p, extra))
        return out

    # -- timed calls ----------------------------------------------------------

    def run(self, inp):
        kind = inp[0]
        if kind in COLLECTION_OPS:
            _, c, z, i, shifts, pair = inp
            if kind == "mutate":
                once = xc.mutate(c, i, xc.RIGHT)
                return once, xc.mutate(once, i, xc.LEFT)
            if kind == "classify":
                return xc.classify(c)
            point = ca.build_stability(c, shifts, z)
            if kind == "cone":
                system = ca.cone_system(c)
                raised = ca.ChartPoint(c, (PhaseToken(z[0], RAISED_WINDING),) + point.tokens[1:])
                return system, point, ca.contains(system, point), ca.contains(system, raised)
            if pair is None:
                return point, None
            return point, ca.mutstab_check(point, pair, pair + 1)
        _, p, extra = inp
        if kind == "overlap":
            return pn.theta_member(p, extra, ORACLE_BOUND), pn.in_O_minus1(p)
        if kind == "stable_pair":
            try:
                return pn.find_stable_pair(p, WINDOW[p.n], ORACLE_BOUND)
            except pn.StablePairNotFound:
                return None
        if kind == "transport":
            return pn.fixed_basis_charge(p), pn.fixed_basis_charge(pn.aut_shift(p, 1))
        if kind == "orbit":
            return gl.orbit_solve(p, pn.PnPoint(p.n, p.base, extra[1]))
        return run_cli(self.cli_argv(kind[4:], p, extra))

    @staticmethod
    def cli_argv(cmd: str, p, extra) -> list[str]:
        pjson = json.dumps(p.to_data(), sort_keys=True)
        bound = ["--oracle-bound", str(ORACLE_BOUND)]
        pn_args = ["--pn", str(p.n), "--base", str(p.base)]
        if cmd == "member":
            return ["member", "--chart", str(extra["chart"]), *bound, "--point", pjson]
        if cmd == "stable-pair":
            return ["stable-pair", "--window", str(WINDOW[p.n]), *bound, "--point", pjson]
        if cmd == "orbit":
            q = pn.PnPoint(p.n, p.base, extra["target"][1])
            return ["orbit", "--point", pjson, "--target", json.dumps(q.to_data(), sort_keys=True)]
        if cmd == "mutate":
            return ["mutate", *pn_args, "--index", "0", "--direction", extra["direction"]]
        if cmd in ("classify", "chart"):
            return [cmd, *pn_args]
        z0, z1 = extra["charges"]
        return ["build", *pn_args, "--shifts", "1,0", f"--charges={z0},{z1}"]

    # -- answer checks --------------------------------------------------------

    def check(self, inp, res):
        kind = inp[0]
        if kind in COLLECTION_OPS:
            return self.check_collection(inp, res)
        _, p, extra = inp
        if kind == "overlap":
            member, orbit = res
            expect(member == orbit, f"overlap law: member {member}, orbit {orbit}")
            return [kind, member]
        if kind == "stable_pair":
            if res is not None:
                expect(abs(res - p.base) <= WINDOW[p.n], "stable pair outside the window")
                expect(pn.theta_member(p, res, ORACLE_BOUND), "reported pair is not stable")
            return [kind, res]
        if kind == "transport":
            w, wp = res
            expect((-wp[1], wp[0] + wp[1] * p.n) == tuple(w), "transport law")
            return [kind, [str(x) for x in w]]
        if kind == "orbit":
            expect(res == extra[0], f"orbit_solve returned {res}, generator {extra[0]}")
            return [kind, res.to_data()]
        code, out = res
        return ["cli", kind[4:], code, self.check_cli(kind[4:], p, extra, code, out)]

    def check_cli(self, cmd, p, extra, code, out):
        got = json.loads(out) if out else None
        if cmd == "member":
            want = pn.theta_member(p, extra["chart"], ORACLE_BOUND)
            expect(code == (0 if want else 1) and got == {"chart": extra["chart"], "member": want}, "cli member")
        elif cmd == "stable-pair":
            try:
                k = pn.find_stable_pair(p, WINDOW[p.n], ORACLE_BOUND)
                want = {"found": True, "chart": k}
            except pn.StablePairNotFound:
                want = {"found": False, "window": WINDOW[p.n]}
            expect(code == (0 if want["found"] else 1) and got == want, "cli stable-pair")
        elif cmd == "orbit":
            want = {"related": True, "element": extra["target"][0].to_data()}
            expect(code == 0 and got == want, f"cli orbit: {got} vs generator {want}")
        else:
            c = pn.pn_collection(p.n, p.base)
            if cmd == "mutate":
                want = xc.collection_to_data(xc.mutate(c, 0, extra["direction"]))
            elif cmd == "classify":
                want = reference_flags(c)
            elif cmd == "chart":
                want = {"size": 2, "constraints": [{"subset": [0, 1], "alpha": 0}]}
            else:
                z0, z1 = extra["charges"]
                # heart simples S_b[1], S_{b+1}: tokens carry winding -shift
                want = {"tokens": [{"z": str(z0), "w": -1}, {"z": str(z1), "w": 0}]}
            expect(code == 0 and got == want, f"cli {cmd}: {got} vs {want}")
        return got

    def check_collection(self, inp, res):
        kind, c, z, i, _, pair = inp
        size = c.size
        if kind == "mutate":
            once, back = res
            expect(tuple(o.kclass for o in back.objects) == tuple(o.kclass for o in c.objects), "round trip moved classes")
            for (a, b), entry in back.table.items():
                if entry is not None:
                    expect(entry == c.table.entry(a, b), f"round trip changed entry ({a},{b})")
            return [kind, size, i, [list(o.kclass) for o in once.objects]]
        if kind == "classify":
            want = reference_flags(c)
            got = {"strong": res.strong, "ext": res.ext, "regular": res.regular, "orthogonal": res.orthogonal}
            expect(got == want, f"classify {got} vs {want}")
            return [kind, size, got]
        if kind == "cone":
            system, point, (inside, _), (raised_in, violated) = res
            expect(len(system.constraints) == 2**size - size - 1, "constraint count")
            for con in system.constraints:
                if len(con.subset) == 2:
                    a, b = con.subset
                    entry = c.table.entry(a, b)
                    want = min(entry) if entry else math.inf
                    expect(con.alpha == want, f"alpha of ({a},{b})")
            expect(inside, "built point outside its own cone")
            first_row = any(c.table.entry(0, j) for j in range(1, size))
            expect(raised_in == (not first_row), "raised point membership")
            expect(violated is None or violated.subset[0] == 0, "violation does not start at 0")
            return [kind, size, len(system.constraints), raised_in]
        point, result = res
        if pair is None:
            return [kind, size, None]
        a, b = pair, pair + 1
        chi = euler_pair(c.euler, c.kclass(a), c.kclass(b))
        za, zb = point.tokens[a].z, point.tokens[b].z
        if _cross(za, zb) == 0:
            want = "semistable"
        else:
            want = "stable" if angle(zb) < angle(za) else "not-applicable"
        expect(result.verdict == want, f"mutstab verdict {result.verdict} vs {want}")
        if want != "not-applicable":
            expect(result.token.z == zb * abs(chi) + za, "mutated token charge")
        return [kind, size, pair, result.verdict]


def chart_shifts(c, pair: int | None) -> list[int]:
    """Shift vector whose chart holds every charge vector.

    Consecutive objects are spaced size + 2 degrees apart, which puts every
    shifted hom far above the cone's phase gaps.  When `pair` is given, the
    pair (pair, pair + 1) is moved to shifted degree one, the degree
    mutstab_check needs, as in the overlap witness construction.
    """
    gap = c.size + 2
    p = [gap * (c.size - 1 - i) for i in range(c.size)]
    if pair is not None:
        p[pair] = p[pair + 1] + 1 - min(c.table.entry(pair, pair + 1))
    return p


def reference_flags(c) -> dict:
    degs = [set(e) for _, e in c.table.items() if e]
    return {
        "strong": all(d == {0} for d in degs),
        "ext": all(min(d) >= 1 for d in degs),
        "regular": all(len(d) == 1 for d in degs),
        "orthogonal": not degs,
    }


def run_cli(argv) -> tuple[int, str]:
    """cli.main in-process with stdout captured and os.environ restored,
    since the command writes the oracle bound into the environment."""
    saved = dict(os.environ)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    if code == 3:
        raise rep_lab.OracleBoundError(err.getvalue().strip())
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (HelixTable, OracleStream, ChartQueries)}
