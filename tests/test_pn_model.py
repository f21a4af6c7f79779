"""The two-object model: helix classes, modules, charts, membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stabctl import chart_atlas as ca
from stabctl import _linalg, cli, gl_action, pn_model, rep_lab, verify
from stabctl.klattice import CentralCharge, PhaseToken, euler_pair, gauss, kronecker_quiver


def test_class_recursion_and_pairing():
    for n in (1, 2, 3, 4):
        em = pn_model.pn_euler(n)
        assert em.entries == ((1, -n), (0, 1))
        for i in range(-10, 9):
            c0, c1, c2 = (pn_model.s_class(n, i + k) for k in range(3))
            assert c2 == (n * c1[0] - c0[0], n * c1[1] - c0[1])
            assert euler_pair(em, c0, c0) == 1
            assert euler_pair(em, c0, c1) == n
            assert euler_pair(em, c1, c0) == 0
    assert pn_model.s_class(3, 0) == (-1, 0)
    assert pn_model.s_class(3, 1) == (0, 1)
    assert pn_model.s_class(3, 2) == (1, 3)
    assert pn_model.s_class(3, -1) == (-3, -1)


def test_natural_shift():
    assert [pn_model.natural_shift(i) for i in (-2, -1, 0, 1, 2)] == [1, 1, 1, 0, 0]


def test_helix_modules_match_classes():
    for n in (2, 3):
        for i in range(-4, 5):
            module, shift = pn_model.helix_module(n, i)
            sign = -1 if shift % 2 else 1
            assert tuple(sign * d for d in module.dims) == pn_model.s_class(n, i)
            assert rep_lab.hom_ext(module, module).hom == 1
            assert rep_lab.hom_ext(module, module).ext == 0


def test_helix_modules_single_arrow_cycle():
    # one arrow: six steps return to the start two floors down
    m0, s0 = pn_model.helix_module(1, 0)
    m6, s6 = pn_model.helix_module(1, 6)
    assert m0.dims == m6.dims
    assert s6 == s0 - 2
    dims = [pn_model.helix_module(1, i)[0].dims for i in range(3)]
    assert dims == [(1, 0), (0, 1), (1, 1)]
    # the recursion gives one period and its duals; the (1, 1) module is the
    # identity map
    assert [pn_model.s_rep(1, k).dims for k in range(-2, 4)] == [(0, 1), (1, 1), (1, 0)] * 2
    q = kronecker_quiver(1)
    assert pn_model.helix_module(1, 2)[0] == rep_lab.make_rep(q, (1, 1), [[[Fraction(1)]]])
    assert pn_model.s_rep(1, -1) == pn_model.s_rep(1, 2)


def test_backward_module_dims():
    dims = [pn_model.s_rep(2, -k).dims for k in range(1, 6)]
    assert dims == [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]
    forward = [pn_model.s_rep(2, k).dims for k in range(2, 6)]
    assert forward == [(1, 2), (2, 3), (3, 4), (4, 5)]
    # one arrow: the reflections stop at the sink simple S_-2, so the
    # recursion answers for -2 <= k <= 3 and refuses the rest
    for k in (-3, 4):
        with pytest.raises(ValueError):
            pn_model.s_rep(1, k)


def test_s_rep_reaches_the_dual_of_the_largest_kernel():
    rep = pn_model.s_rep(3, 5)
    assert rep.dims == (21, 55)
    assert rep == rep_lab.dual(pn_model.s_rep(3, -4))
    he = rep_lab.hom_ext(rep, rep)
    assert (he.hom, he.ext) == (1, 0)


def test_reflecting_the_source_simple_gives_unit_rows():
    for n in (2, 3, 4):
        q = kronecker_quiver(n)
        units = [[[Fraction(int(j == a)) for j in range(n)]] for a in range(n)]
        want = rep_lab.make_rep(q, (n, 1), units)
        assert pn_model._reflect(rep_lab.vertex_simple(q, 0)) == want
        assert pn_model.s_rep(n, -1) == want


def _frac_kernel_reflection(rep):
    """The reflection at the sink with the Fraction kernel of the Fraction joint map."""
    d0, d1 = rep.dims
    n = len(rep.matrices)
    rows = [[x for mat in rep.matrices for x in mat[i]] for i in range(d1)]
    kern = _linalg.frac_kernel(rows, n * d0)
    mats = [[[v[a * d0 + i] for v in kern] for i in range(d0)] for a in range(n)]
    return rep_lab.make_rep(rep.quiver, (len(kern), d0), mats)


def test_the_helix_matrices_are_those_of_the_fraction_kernel():
    # on the helix each Fraction kernel vector is integral with a 1 at its
    # free column, so it is its own primitive multiple: the integer joint
    # kernel gives the same matrices, on 18 reflections
    cases = [(n, k) for n, low in ((1, -2), (2, -6), (3, -6), (4, -4)) for k in range(-1, low - 1, -1)]
    assert len(cases) == 18
    for n, k in cases:
        assert pn_model.s_rep(n, k).matrices == _frac_kernel_reflection(pn_model.s_rep(n, k + 1)).matrices, (n, k)


def test_reflecting_the_sink_simple_is_refused():
    # the arrows of the sink simple are not jointly onto its sink
    with pytest.raises(RuntimeError):
        pn_model._reflect(rep_lab.vertex_simple(kronecker_quiver(3), 1))


def test_hom_degree_prediction():
    assert pn_model.hom_degrees(3, 0, 1) == (0, 3)
    assert pn_model.hom_degrees(3, 1, 0) == (1, 0)
    assert pn_model.hom_degrees(2, 0, 3) == (0, 4)
    with pytest.raises(ValueError):
        pn_model.hom_degrees(2, 1, 1)
    for n in (2, 3):
        for i in range(-2, 3):
            for j in range(-2, 3):
                if i == j:
                    continue
                degree, dim = pn_model.module_hom_prediction(n, i, j)
                he = rep_lab.hom_ext(
                    pn_model.helix_module(n, i)[0], pn_model.helix_module(n, j)[0]
                )
                assert (he.hom, he.ext) == ((dim, 0) if degree == 0 else (0, dim))


def test_four_arrow_helix_law():
    # the diagonal is the rigidity check of the n = 4 modules
    pairs = 0
    for i in range(-3, 5):
        for j in range(-3, 5):
            degree, dim = (0, 1) if i == j else pn_model.module_hom_prediction(4, i, j)
            he = rep_lab.hom_ext(
                pn_model.helix_module(4, i)[0], pn_model.helix_module(4, j)[0]
            )
            assert (he.hom, he.ext) == ((dim, 0) if degree == 0 else (0, dim)), (i, j)
            pairs += 1
    assert pairs == 64


def test_the_helix_is_built_without_hom_ext(monkeypatch):
    # rigidity comes from the reflection theorem, so no build computes a
    # hom space; the rigidity checks live in the tests and criterion 03
    def no_hom_ext(*args, **kwargs):
        raise AssertionError("hom_ext ran while building the helix")

    pn_model.s_rep.cache_clear()
    pn_model.helix_module.cache_clear()
    monkeypatch.setattr(rep_lab, "hom_ext", no_hom_ext)
    for n, low, high in ((2, -6, 6), (3, -5, 5), (4, -3, 4)):
        for k in range(low, high + 1):
            module, _ = pn_model.helix_module(n, k)
            assert module == pn_model.s_rep(n, k)
    big = pn_model.s_rep(3, -5)
    assert big.dims == (144, 55)
    assert big == pn_model._reflect(pn_model.s_rep(3, -4))


def test_reference_point_serialization():
    point = pn_model.sigma_minus1(2)
    assert point.to_data() == {
        "n": 2,
        "base": 0,
        "tokens": [{"z": "-1", "w": -1}, {"z": "1+1i", "w": 0}],
    }
    assert pn_model.point_from_data(point.to_data()) == point


def test_point_validation():
    with pytest.raises(ValueError):
        pn_model.PnPoint(2, 0, (PhaseToken(gauss(-1), 0),))
    with pytest.raises(ValueError):
        pn_model.PnPoint(0, 0, pn_model.sigma_minus1(2).tokens)


def test_membership_profile_of_shifted_chart_point():
    chart = ca.build_stability(
        pn_model.pn_collection(2, 2), (1, 0), (gauss(1, 1), gauss(0, 1))
    )
    point = pn_model.PnPoint(2, 2, chart.tokens)
    profile = {k: pn_model.theta_member(point, k, 12) for k in range(-1, 4)}
    assert profile == {-1: False, 0: False, 1: False, 2: True, 3: False}
    assert pn_model.find_stable_pair(point, window=20, bound=12) == 2
    assert not pn_model.in_O_minus1(point)


def test_reference_point_is_everywhere_member():
    point = pn_model.sigma_minus1(2)
    assert pn_model.in_O_minus1(point)
    for k in (-2, -1, 0, 1, 2, 3):
        assert pn_model.theta_member(point, k, 12)


def test_membership_is_orbit_invariant():
    rng = random.Random(61)
    base = pn_model.sigma_minus1(2)
    for _ in range(20):
        g = _random_element(rng)
        moved = pn_model.PnPoint(2, 0, gl_action.act_tokens(g, base.tokens))
        assert pn_model.in_O_minus1(moved)
        assert pn_model.theta_member(moved, 0, 12)


def _random_element(rng):
    while True:
        rows = (
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
        )
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] > 0:
            return gl_action.GLTildeElement(rows, rng.randint(-1, 1))


def test_membership_rejects_bad_presentations():
    # a pair is a chart presentation only when S_{b+1} has the higher phase,
    # so the point type refuses the rest before membership is asked
    for tokens in (
        (PhaseToken(gauss(-1), 1), PhaseToken(gauss(1, 1), 0)),  # winding falls
        (PhaseToken(gauss(0, 1), 0), PhaseToken(gauss(0, 2), 0)),  # one phase
        (PhaseToken(gauss(-1), 0), PhaseToken(gauss(1, 1), 0)),  # phase falls
    ):
        with pytest.raises(ValueError, match="phase order"):
            pn_model.PnPoint(2, 0, tokens)


def test_presentations_are_the_pairs_of_increasing_phase():
    # the rule the oracle reference reads off the winding gap and the cross
    # product, a gap above zero or a zero gap with cross(z0, z1) > 0, is the
    # phase order PnPoint checks
    rng = random.Random(23)
    kept = 0
    for _ in range(400):
        toks = tuple(PhaseToken(pn_model._random_half_plane(rng), rng.randint(-1, 1)) for _ in range(2))
        delta, c = toks[1].winding - toks[0].winding, pn_model._cross(toks[0].z, toks[1].z)
        valid = delta > 0 or (delta == 0 and c > 0)
        try:
            pn_model.PnPoint(2, 0, toks)
        except ValueError:
            assert not valid, toks
        else:
            assert valid, toks
            kept += 1
    assert 100 < kept < 300


def test_degenerate_ray_membership():
    # both charges on one ray: membership only on the chart of the base pair
    for delta in (1, 2):
        point = pn_model.PnPoint(
            3, 0, (PhaseToken(gauss(0, 1), 0), PhaseToken(gauss(0, 2), delta))
        )
        assert pn_model.theta_member(point, 0, 12)
        assert not pn_model.theta_member(point, 1, 12)
        assert not pn_model.theta_member(point, -1, 12)


def test_single_arrow_membership_repeats_every_third_chart():
    # S_{j+3} = S_j[-1] for one arrow, so charts kk and kk + 3 carry the
    # same pair up to shift; a gap of two and a degenerate ray (c = 0)
    wide = pn_model.PnPoint(1, 0, (PhaseToken(gauss(-1, 1), 0), PhaseToken(gauss(1, 1), 2)))
    ray = pn_model.PnPoint(1, 0, (PhaseToken(gauss(1, 1), 0), PhaseToken(gauss(2, 2), 1)))
    for point in (wide, ray):
        for k in (-3, 0, 3, 6):
            assert pn_model.theta_member(point, k)
            assert verify._member_by_oracle(point, k)
        for k in (-2, -1, 1, 2, 4):
            assert not pn_model.theta_member(point, k)
            assert not verify._member_by_oracle(point, k)


def test_transport_law_on_random_points():
    for n in (1, 2, 3):
        for trial in range(25):
            rng = random.Random(f"transport:{n}:{trial}")
            point = pn_model._sample_point(n, rng.randint(-2, 2), rng)
            w = pn_model.fixed_basis_charge(point)
            wp = pn_model.fixed_basis_charge(pn_model.aut_shift(point, 1))
            assert (-wp[1], wp[0] + wp[1] * Fraction(n)) == w


def test_find_stable_pair_exception_carries_the_point():
    # heart simples are stable, so the search cannot fail on a valid
    # presentation; the exception still reports failures as data
    point = pn_model.sigma_minus1(2)
    exc = pn_model.StablePairNotFound(point, 3)
    assert exc.window == 3 and exc.point == point
    assert '"base": 0' in str(exc)
    assert isinstance(exc, RuntimeError)


def test_find_stable_pair_prefers_the_base_chart():
    for n in (2, 3):
        point = pn_model.sigma_minus1(n)
        assert pn_model.find_stable_pair(point, window=2, bound=12) == 0
        shifted = pn_model.aut_shift(point, 4)
        assert pn_model.find_stable_pair(shifted, window=2, bound=12) == 4


def test_overlap_scan_small():
    report = pn_model.overlap_scan(2, 0, 1, samples=40, seed=7)
    assert report["agree"] == 40
    assert report["counterexamples"] == []
    with pytest.raises(ValueError):
        pn_model.overlap_scan(2, 1, 1)


def test_presented_reference_matches_chart():
    for n in (1, 2, 3):
        for m in (-1, 0, 2):
            assert pn_model.in_O_minus1(pn_model.sigma_minus1(n, m))


def test_reference_point_matches_the_module_route():
    # the route through the modules: S_j is the module (d0, d1) shifted
    # down, with charge -d0 + (1+i) d1
    for n in (1, 2, 3, 4):
        for m in range(-3, 4):
            toks = []
            for j in (m, m + 1):
                module, shift = pn_model.helix_module(n, j)
                d0, d1 = module.dims
                toks.append(PhaseToken(gauss(d1 - d0, d1), -shift))
            assert pn_model.sigma_minus1(n, m) == pn_model.PnPoint(n, m, tuple(toks))
        chart = ca.build_stability(pn_model.pn_collection(n, 0), (1, 0), (gauss(-1), gauss(1, 1)))
        assert pn_model.sigma_minus1(n).tokens == chart.tokens


def test_the_chart_path_builds_no_module(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the chart path built a module")

    monkeypatch.setattr(pn_model, "helix_module", refuse)
    monkeypatch.setattr(pn_model, "s_rep", refuse)
    pn_model.pn_collection.cache_clear()
    for n in (1, 2, 3, 4):
        for b in (-12, 9):
            c = pn_model.pn_collection(n, b)
            assert [o.kclass for o in c.objects] == [pn_model.s_class(n, b), pn_model.s_class(n, b + 1)]
            assert pn_model.in_O_minus1(pn_model.sigma_minus1(n, b))
    for argv in (
        ["classify"],
        ["chart"],
        ["mutate", "--index", "0", "--direction", "right"],
        ["build", "--shifts", "1,0", "--charges=-1,1+1i"],
        ["witness", "--index", "0"],
    ):
        assert cli.main([*argv, "--pn", "3", "--base", "9"]) == 0, argv
    capsys.readouterr()


def _check_closed_forms(n, charts, draws, bound):
    for trial in range(draws):
        rng = random.Random(f"closed:{n}:{trial}")
        base = rng.randint(-2, 2)
        point = pn_model._sample_point(n, base, rng)
        assert pn_model.in_O_minus1(point) == verify._orbit_by_solver(point)
        for kk in charts:
            want = verify._member_by_oracle(point, base + kk, bound)
            assert pn_model.theta_member(point, base + kk) == want, (point, kk)


def test_closed_forms_match_the_oracle_and_the_orbit_solver():
    # the search windows keep every module within the oracle bound 12:
    # S_-3..S_4 for one and two arrows, S_-2..S_3 for three
    for n, window in ((1, 3), (2, 3), (3, 2)):
        _check_closed_forms(n, range(-window, window + 1), 60, 12)


def test_closed_forms_match_the_oracle_on_four_arrows():
    # charts -2..2 meet S(4, -2)..S(4, 3), total dimension at most 19
    assert pn_model.s_rep(4, -2).dims == (15, 4)
    _check_closed_forms(4, range(-2, 3), 60, 20)


def test_chart_answers_past_the_oracle_bound(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the chart path reached the oracle")

    monkeypatch.setattr(rep_lab, "theta_test", refuse)
    monkeypatch.setattr(pn_model, "s_rep", refuse)
    monkeypatch.setattr(gl_action, "orbit_solve", refuse)
    # the tokens of sigma_minus1 on chart 0, written out
    sigma = (PhaseToken(gauss(-1), -1), PhaseToken(gauss(1, 1), 0))
    rng = random.Random(9)
    for n in (3, 4):
        for base in (-9, 9):
            ref = pn_model.PnPoint(n, base, sigma)
            assert pn_model.in_O_minus1(ref)
            assert all(pn_model.theta_member(ref, base + kk) for kk in (-1, 0, 1))
            assert pn_model.find_stable_pair(ref) == base
            wide = pn_model.PnPoint(
                n,
                base,
                (
                    PhaseToken(pn_model._random_half_plane(rng), 0),
                    PhaseToken(pn_model._random_half_plane(rng), 2),
                ),
            )
            assert not pn_model.in_O_minus1(wide)
            assert pn_model.theta_member(wide, base)
            assert not pn_model.theta_member(wide, base + 1)
            assert pn_model.find_stable_pair(wide, window=2) == base
        origin = pn_model.PnPoint(n, 0, sigma)
        assert all(pn_model.theta_member(origin, k) for k in (-9, 9))
