"""Acceptance gate: every checking suite must pass inside its time budget.

Each criterion prints one [PASS]/[FAIL] line through the capture layer so
the verdicts are visible in a plain ``pytest -v`` run.
"""

from __future__ import annotations

from stabctl import pn_model, verify


def _run(capsys, number: int, name: str, budget: float) -> None:
    result = verify.run_suite(name)
    ok = result.passed and result.elapsed < budget
    mark = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"[{mark}] criterion {number:02d} {name}: "
            f"{result.cases} cases in {result.elapsed:.2f}s (budget {budget:g}s)"
        )
        for line in result.failures[:10]:
            print(f"    {line}")
    assert result.passed, result.failures[:5]
    assert result.elapsed < budget, f"{result.elapsed:.2f}s over {budget:g}s"


def test_criterion_01_braid(capsys):
    _run(capsys, 1, "braid", 5.0)


def test_criterion_02_euler_hom(capsys):
    _run(capsys, 2, "euler-hom", 10.0)


def test_criterion_03_helix_law(capsys):
    _run(capsys, 3, "helix-law", 60.0)


def test_criterion_04_sigma_fixture(capsys):
    _run(capsys, 4, "sigma-fixture", 60.0)


def test_criterion_05_overlap(capsys):
    _run(capsys, 5, "overlap", 300.0)


def test_criterion_06_stable_pair(capsys):
    _run(capsys, 6, "stable-pair", 300.0)


def test_criterion_06_fails_when_every_chart_is_a_member(monkeypatch):
    monkeypatch.setattr(pn_model, "theta_member", lambda point, k, bound=None: True)
    result = verify.run_suite("stable-pair")
    # each chart off the base outside the reference orbit fails both checks
    assert len(result.failures) == 4448


def test_criterion_07_triangle_fixture(capsys):
    _run(capsys, 7, "triangle-fixture", 1.0)


def test_criterion_08_hn(capsys):
    _run(capsys, 8, "hn", 120.0)


def test_criterion_09_witness(capsys):
    _run(capsys, 9, "witness", 10.0)


def test_criterion_10_aut(capsys):
    _run(capsys, 10, "aut", 30.0)


def test_criterion_11_metric(capsys):
    _run(capsys, 11, "metric", 1.0)
