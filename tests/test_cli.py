"""End to end checks of the command line front end.

Each test drives cli.main directly and inspects the emitted JSON, so the
output format, the exit codes, and the error channel are all pinned down.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from stabctl import cli, rep_lab

SIGMA = '{"n":2,"base":0,"tokens":[{"z":"-1","w":-1},{"z":"1+1i","w":0}]}'
INTERIOR = '{"n":2,"base":2,"tokens":[{"z":"1+1i","w":-1},{"z":"1i","w":0}]}'

# two line bundles style basis with chi = 3 and the pair left unknown
UNKNOWN_PAIR = json.dumps(
    {
        "classes": [[1, 0], [0, 1]],
        "euler": [[1, 3], [0, 1]],
        "labels": ["A", "B"],
        "shifts": [0, 0],
        "table": {"0,1": None},
    }
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mutate_emits_compact_sorted_json(capsys):
    code, out, _ = run(
        capsys, ["mutate", "--pn", "2", "--index", "0", "--direction", "right"]
    )
    assert code == 0
    assert out == (
        '{"classes":[[0,1],[1,2]],"euler":[[1,-2],[0,1]],'
        '"labels":["S[1]","R[S[1]](S[0])"],"shifts":[0,0],'
        '"table":{"0,1":{"0":2}}}\n'
    )


def test_mutate_resolves_unknown_entries_on_request(capsys):
    code, _, err = run(
        capsys,
        ["mutate", "--collection", UNKNOWN_PAIR, "--index", "0", "--direction", "right"],
    )
    assert code == 2 and "error:" in err
    code, out, _ = run(
        capsys,
        [
            "mutate",
            "--collection",
            UNKNOWN_PAIR,
            "--index",
            "0",
            "--direction",
            "right",
            "--resolve",
            "0,1:0=3",
        ],
    )
    assert code == 0
    assert json.loads(out)["classes"] == [[0, 1], [-1, 3]]


def test_classify_reports_flags(capsys):
    code, out, _ = run(capsys, ["classify", "--pn", "3"])
    assert code == 0
    assert json.loads(out) == {
        "ext": False,
        "orthogonal": False,
        "regular": True,
        "strong": True,
    }


def test_chart_reports_the_cone(capsys):
    for base in ("0", "3"):
        code, out, _ = run(capsys, ["chart", "--pn", "2", "--base", base])
        assert code == 0
        assert json.loads(out) == {
            "constraints": [{"alpha": 0, "subset": [0, 1]}],
            "size": 2,
        }


def test_build_reproduces_the_reference_tokens(capsys):
    code, out, _ = run(
        capsys, ["build", "--pn", "2", "--shifts", "1,0", "--charges=-1,1+1i"]
    )
    assert code == 0
    assert json.loads(out) == {
        "tokens": [{"w": -1, "z": "-1"}, {"w": 0, "z": "1+1i"}]
    }
    code, _, err = run(
        capsys, ["build", "--pn", "2", "--shifts", "1", "--charges=-1"]
    )
    assert code == 2 and "error:" in err


# four objects with one degree-zero hom between each ordered pair
CHAIN4 = json.dumps(
    {
        "labels": ["A", "B", "C", "D"],
        "classes": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "euler": [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
        "table": {f"{i},{j}": {"0": 1} for i in range(4) for j in range(i + 1, 4)},
    }
)


def test_build_places_the_simples_of_a_heart(capsys):
    code, out, err = run(
        capsys, ["build", "--collection", CHAIN4, "--shifts", "3,2,1,0", "--charges=-1,i,i,1+1i"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "tokens": [{"w": -3, "z": "-1"}, {"w": -2, "z": "1i"}, {"w": -1, "z": "1i"}, {"w": 0, "z": "1+1i"}]
    }
    # a label that reads like a shift is only a label
    shifted_label = json.dumps(
        {"labels": ["A", "A[1]"], "classes": [[1, 0], [0, 1]], "euler": [[1, 1], [0, 1]], "table": {"0,1": {"0": 1}}}
    )
    code, out, err = run(
        capsys, ["build", "--collection", shifted_label, "--shifts", "1,0", "--charges=-1,1+1i"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"tokens": [{"w": -1, "z": "-1"}, {"w": 0, "z": "1+1i"}]}


def test_build_refuses_an_unknown_entry(capsys):
    code, out, err = run(
        capsys, ["build", "--collection", UNKNOWN_PAIR, "--shifts", "1,0", "--charges=-1,1+1i"]
    )
    assert (code, out, err) == (2, "", "error: entry (0,1) is unknown\n")


def test_member_both_verdicts(capsys):
    code, out, _ = run(
        capsys,
        ["member", "--point", INTERIOR, "--chart", "2", "--oracle-bound", "12"],
    )
    assert code == 0 and json.loads(out) == {"chart": 2, "member": True}
    code, out, _ = run(
        capsys,
        ["member", "--point", INTERIOR, "--chart", "3", "--oracle-bound", "12"],
    )
    assert code == 1 and json.loads(out) == {"chart": 3, "member": False}


def test_member_respects_the_oracle_bound(capsys):
    # membership is read from the phase gap, so the bound is accepted and
    # never reached: S_9 and S_10 (total dimension 17 and 19) are not built,
    # and the reference point lies on every chart
    code, out, err = run(
        capsys, ["member", "--point", SIGMA, "--chart", "9", "--oracle-bound", "8"]
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {"chart": 9, "member": True}


def test_hn_past_the_oracle_bound_exits_3(capsys):
    rep = "rep p2 2 3\n1 0\n0 1\n0 0\n0 0\n1 0\n0 1\n"
    code, out, err = run(
        capsys, ["hn", "--rep", rep, "--charge=-1,1+1i", "--oracle-bound", "4"]
    )
    assert code == 3 and out == ""
    assert "error: total dimension 5 exceeds the oracle bound 4" in err
    code, _, _ = run(
        capsys, ["hn", "--rep", rep, "--charge=-1,1+1i", "--oracle-bound", "5"]
    )
    assert code == 0


def test_a_negative_oracle_bound_is_a_usage_error(capsys):
    rep = "rep p2 1 1\n0\n0\n"
    for argv in (
        ["hn", "--rep", rep, "--charge=-1,1+1i"],
        ["member", "--point", INTERIOR, "--chart", "2"],
        ["stable-pair", "--point", SIGMA, "--window", "2"],
    ):
        for bound in ("-3", "three"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--oracle-bound", bound])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"argument --oracle-bound: a nonnegative integer is expected, not '{bound}'" in err
    code, _, _ = run(capsys, ["hn", "--rep", rep, "--charge=-1,1+1i", "--oracle-bound", "0"])
    assert code == 3


def test_oracle_bound_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    for argv in (
        ["member", "--point", INTERIOR, "--chart", "2"],
        ["hn", "--rep", "rep p2 1 2\n1\n0\n0\n1\n", "--charge=-1,1+1i"],
        ["stable-pair", "--point", SIGMA, "--window", "2"],
    ):
        code, _, _ = run(capsys, argv + ["--oracle-bound", "12"])
        assert code == 0
        assert dict(os.environ) == before


def test_hn_of_a_rep_with_a_zero_dimensional_source(capsys):
    code, out, _ = run(capsys, ["hn", "--rep", "rep p2 0 2\n", "--charge=-1,1+1i"])
    assert code == 0
    assert json.loads(out) == {"factors": [{"charge": "2+2i", "dims": [0, 2]}]}


def test_hn_single_stable_factor(capsys):
    rep = "rep p2 1 2\n1\n0\n0\n1\n"
    code, out, _ = run(
        capsys, ["hn", "--rep", rep, "--charge=-1,1+1i", "--oracle-bound", "12"]
    )
    assert code == 0
    assert out == '{"factors":[{"charge":"1+2i","dims":[1,2]}]}\n'


def test_hn_splits_the_zero_map_rep(capsys):
    rep = "rep p2 1 2\n0\n0\n0\n0\n"
    code, out, _ = run(
        capsys, ["hn", "--rep", rep, "--charge=-1,1+1i", "--oracle-bound", "12"]
    )
    assert code == 0
    assert out == (
        '{"factors":[{"charge":"-1","dims":[1,0]},'
        '{"charge":"2+2i","dims":[0,2]}]}\n'
    )


def test_hn_on_a_path_quiver(capsys):
    rep = "rep q 1 1 1\n1\n1\n"
    code, out, _ = run(
        capsys, ["hn", "--quiver", "3;0>1,1>2", "--rep", rep, "--charge=1+1i,1i,-1"]
    )
    assert code == 0
    assert [f["dims"] for f in json.loads(out)["factors"]] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


@pytest.mark.parametrize(
    "quiver, rep, charge, want",
    [
        ("2;", "rep q 1 1\n", "-1,1+1i", [[1, 0], [0, 1]]),
        ("3", "rep q 1 1 1\n", "-1,1+1i,1i", [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ],
)
def test_hn_on_a_quiver_without_arrows(capsys, quiver, rep, charge, want):
    code, out, _ = run(capsys, ["hn", "--quiver", quiver, "--rep", rep, f"--charge={charge}"])
    assert code == 0
    assert [f["dims"] for f in json.loads(out)["factors"]] == want


@pytest.mark.parametrize("chunk", ["x", "", "0-1", "0>1>0", "a>1"])
def test_a_malformed_quiver_arrow_is_a_usage_error(capsys, chunk):
    argv = ["hn", "--quiver", f"2;0>1,{chunk}", "--rep", "rep q 1 1\n1\n", "--charge=-1,1+1i"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: malformed '--quiver' field: quiver arrow {chunk!r} is not S>T with integer vertices\n"


HN_P2 = ["hn", "--rep", "rep q 1 1\n1\n"]


@pytest.mark.parametrize(
    "argv, err",
    [
        ([*HN_P2, "--charge=-1,1+1i", "--quiver", "x;0>1"], "'--quiver' field: 'x' is not a plain integer"),
        ([*HN_P2, "--charge=-1,1+1i", "--quiver", "+2;0>1"], "'--quiver' field: '+2' is not a plain integer"),
        ([*HN_P2, "--charge=-1,1+1i", "--quiver", "p\u00b2"], "'--quiver' field: 'p\u00b2' is not a plain integer"),
        (
            [*HN_P2, "--charge=-1,1+1i", "--quiver", "2;01>1"],
            "'--quiver' field: quiver arrow '01>1' is not S>T with integer vertices",
        ),
        ([*HN_P2, "--charge=-1,a", "--quiver", "2;0>1"], "'--charge' field: bad rational literal: 'a'"),
        ([*HN_P2, "--charge=-1,1/0i", "--quiver", "2;0>1"], "'--charge' field: bad rational literal: '1/0'"),
        (["build", "--pn", "2", "--shifts", "1,0", "--charges=a,b"], "'--charges' field: bad rational literal: 'a'"),
        (["build", "--pn", "2", "--shifts", "1,0", "--charges=1/0,1"], "'--charges' field: bad rational literal: '1/0'"),
    ],
    ids=["quiver-head", "quiver-sign", "quiver-superscript", "quiver-zero-led", "charge", "charge-zero-den", "charges", "charges-zero-den"],
)
def test_quiver_and_charge_errors_name_the_option(capsys, argv, err):
    code, out, got = run(capsys, argv)
    assert (code, out, got) == (2, "", f"error: malformed {err}\n")


def test_a_quiver_spelled_with_spaces_gives_the_same_answer(capsys):
    outs = {run(capsys, [*HN_P2, "--charge=-1,1+1i", "--quiver", q]) for q in ("2;0>1", " 2 ; 0 > 1 ")}
    assert outs == {(0, '{"factors":[{"charge":"1i","dims":[1,1]}]}\n', "")}


def test_hn_takes_no_extractor_option(capsys):
    # both extractors give the same factors, so the library alone offers the choice
    with pytest.raises(SystemExit) as exc:
        cli.main(["hn", "--rep", "rep p2 1 1\n0\n0\n", "--charge=-1,1+1i", "--extractor", "phase"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --extractor phase" in capsys.readouterr().err


def test_an_hn_invariant_failure_is_no_input_error(monkeypatch):
    # two HN witnesses that are not nested are a fault of the oracle, which
    # must not read as bad input (exit 2)
    def not_nested(m, lower, upper):
        raise RuntimeError("the witnesses of two HN vertices are not nested")

    monkeypatch.setattr(rep_lab, "_subquotient", not_nested)
    with pytest.raises(RuntimeError, match="not nested"):
        cli.main(["hn", "--rep", "rep p2 1 2\n0\n0\n0\n0\n", "--charge=-1,1+1i"])


def test_stable_pair_finds_the_base_chart(capsys):
    code, out, _ = run(
        capsys,
        ["stable-pair", "--point", SIGMA, "--window", "2", "--oracle-bound", "12"],
    )
    assert code == 0
    assert json.loads(out) == {"chart": 0, "found": True}


def test_overlap_scan_reports_agreement(capsys):
    code, out, _ = run(
        capsys,
        [
            "overlap",
            "--arrows", "2",
            "--chart", "0",
            "--other", "1",
            "--samples", "20",
            "--seed", "5",
        ],
    )
    assert code == 0
    assert json.loads(out) == {
        "agree": 20,
        "counterexamples": [],
        "h": 1,
        "k": 0,
        "n": 2,
        "samples": 20,
    }


def test_witness_lands_on_both_charts(capsys):
    code, out, _ = run(capsys, ["witness", "--pn", "3", "--index", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["shifts"] == [1, 0]
    assert payload["point"]["tokens"] == [
        {"w": -1, "z": "-1"},
        {"w": 0, "z": "1+1i"},
    ]
    assert payload["mutated_point"]["tokens"] == [
        {"w": 0, "z": "1+1i"},
        {"w": 0, "z": "2+3i"},
    ]
    assert payload["mutated"]["classes"] == [[0, 1], [1, 3]]


def test_orbit_solves_a_double_turn(capsys):
    up2 = '{"n":2,"base":0,"tokens":[{"z":"-1","w":1},{"z":"1+1i","w":2}]}'
    code, out, _ = run(capsys, ["orbit", "--point", SIGMA, "--target", up2])
    assert code == 0
    assert out == '{"element":{"g":[["1","0"],["0","1"]],"lift":-1},"related":true}\n'


def test_orbit_rejects_a_winding_twist(capsys):
    # one more turn on the second token: a gap of two, off the orbit
    twist = '{"n":2,"base":0,"tokens":[{"z":"-1","w":-1},{"z":"1+1i","w":1}]}'
    code, out, _ = run(capsys, ["orbit", "--point", SIGMA, "--target", twist])
    assert code == 1
    assert out == '{"related":false}\n'
    # a twist that makes the phases fall presents no point at all
    fallen = '{"n":2,"base":0,"tokens":[{"z":"-1","w":0},{"z":"1+1i","w":0}]}'
    code, out, err = run(capsys, ["orbit", "--point", SIGMA, "--target", fallen])
    assert code == 2 and out == ""
    assert err.startswith("error: phase order is wrong for a chart presentation")


@pytest.mark.parametrize("command", [["member", "--chart", "0"], ["stable-pair"]])
def test_a_point_whose_phases_fall_is_refused_at_load(capsys, command):
    fallen = '{"n":2,"base":0,"tokens":[{"z":"1+1i","w":0},{"z":"-1","w":-1}]}'
    code, out, err = run(capsys, [*command, "--point", fallen])
    assert code == 2 and out == ""
    assert err.startswith("error: phase order is wrong for a chart presentation")


@pytest.mark.parametrize(
    "target",
    [SIGMA.replace('"n":2', '"n":3'), SIGMA.replace('"base":0', '"base":5')],
    ids=["other-quiver", "other-chart"],
)
def test_orbit_refuses_points_on_different_charts(capsys, target):
    # the tokens are equal, but they present points of different charts
    code, out, err = run(capsys, ["orbit", "--point", SIGMA, "--target", target])
    assert code == 2 and out == ""
    want = json.loads(target)
    assert err == (
        "error: orbit needs both points on one chart: "
        f"n=2 base=0 and n={want['n']} base={want['base']}\n"
    )


def test_overlap_takes_no_oracle_bound(capsys):
    # the scan reads closed forms only; member and stable-pair keep the flag
    argv = ["overlap", "--arrows", "2", "--chart", "0", "--other", "1", "--oracle-bound", "12"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle-bound 12" in capsys.readouterr().err


def test_overlap_refuses_one_arrow_charts_three_apart(capsys):
    # S_{j+3} = S_j[-1], so such charts carry one pair and every point is a
    # member of both, in the orbit or not
    for chart, other in (("0", "3"), ("1", "-5")):
        argv = ["overlap", "--arrows", "1", "--chart", chart, "--other", other, "--samples", "3"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: for one arrow charts {chart} and {other} carry the same pair up to shift\n"
    code, out, _ = run(capsys, ["overlap", "--arrows", "1", "--chart", "0", "--other", "2", "--samples", "20"])
    assert code == 0 and json.loads(out)["agree"] == 20


def test_overlap_refuses_a_negative_sample_count(capsys):
    argv = ["overlap", "--arrows", "2", "--chart", "0", "--other", "1", "--samples", "-3"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: overlap needs a nonnegative sample count, not -3\n"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "metric"])
    assert code == 0
    assert out.startswith("[PASS] metric: 3 cases in")


def test_sources_can_be_files(tmp_path, capsys):
    point_file = tmp_path / "point.json"
    point_file.write_text(SIGMA)
    code, out, _ = run(
        capsys,
        ["member", "--point", str(point_file), "--chart", "0", "--oracle-bound", "12"],
    )
    assert code == 0 and json.loads(out)["member"] is True
    coll_file = tmp_path / "coll.json"
    resolved = json.loads(UNKNOWN_PAIR)
    resolved["table"] = {"0,1": {"0": 3}}
    coll_file.write_text(json.dumps(resolved))
    code, out, _ = run(capsys, ["classify", "--collection", str(coll_file)])
    assert code == 0 and json.loads(out)["regular"] is True


def test_bad_index_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, ["mutate", "--pn", "2", "--index", "5", "--direction", "right"]
    )
    assert code == 2
    assert "no adjacent pair at 5" in err


@pytest.mark.parametrize("rep", ["rep p2 3", "rep  "])
def test_a_short_rep_header_is_a_usage_error(capsys, rep):
    code, out, err = run(capsys, ["hn", "--rep", rep, "--charge=-1,1+1i"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("rep, dim", [("rep p2 a b", "a"), ("rep p2 -1 1", "-1"), ("rep p2 1 1.0\n1\n1", "1.0")])
def test_a_rep_header_dim_must_be_a_nonnegative_integer(capsys, rep, dim):
    code, out, err = run(capsys, ["hn", "--rep", rep, "--charge=-1,1+1i"])
    assert (code, out) == (2, "")
    assert err == f"error: rep header dim {dim!r} is not a nonnegative integer\n"


def _with(base: str, **fields) -> str:
    return json.dumps({**json.loads(base), **fields})


RESOLVE = ["mutate", "--collection", UNKNOWN_PAIR, "--index", "0", "--direction", "right", "--resolve"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["member", "--chart", "0", "--point", _with(SIGMA, tokens=5)], "tokens"),
        (["member", "--chart", "0", "--point", _with(SIGMA, tokens=[1, 2])], "tokens"),
        (
            ["member", "--chart", "0", "--point", _with(SIGMA, tokens=[{"z": 1, "w": 0}])],
            "tokens",
        ),
        (["classify", "--collection", _with(UNKNOWN_PAIR, classes=5)], "classes"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0,1": 5})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table=[1])], "table"),
        (["member", "--chart", "0", "--point", '{"n":[2],"base":0,"tokens":[]}'], "n"),
        (["member", "--chart", "0", "--point", SIGMA.replace('"base":0', '"base":null')], "base"),
        (["member", "--chart", "0", "--point", _with(SIGMA, n=2.9)], "n"),
        (["member", "--chart", "0", "--point", _with(SIGMA, n=True)], "n"),
        (["member", "--chart", "0", "--point", SIGMA.replace('"base":0', '"base":0.5')], "base"),
        (
            ["member", "--chart", "0", "--point", _with(SIGMA, tokens=[{"z": "-1", "w": -1.8}, {"z": "1", "w": 0}])],
            "tokens",
        ),
        (
            ["member", "--chart", "0", "--point", _with(SIGMA, tokens=[{"z": "-1", "w": -1}, {"z": "1", "w": True}])],
            "tokens",
        ),
        (["member", "--chart", "0", "--point", _with(SIGMA, tokens=[{"z": "-1", "w": "-1"}])], "tokens"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, classes=[[1.5, 0], [0, 1]])], "classes"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, shifts=[0, 0.5])], "shifts"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0,1": {"0": 2.7}})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, euler=[[1, 2.9], [0, 1]])], "euler"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, labels="AB")], "labels"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, labels=[1, 2])], "labels"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, classes=[[1, 0], [0, 1], [1, 1]])], "classes"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, shifts=[0, 0, 0])], "shifts"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"a,b": {"0": 3}})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0,x": {"0": 3}})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0,1,2": {"0": 3}})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0": {"0": 3}})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0,1": {"x": 3}})], "table"),
        (["classify", "--collection", _with(UNKNOWN_PAIR, table={"0,1": {"0": 1, "-0": 2}})], "table"),
        ([*RESOLVE, "a,b:0=3"], "--resolve"),
        ([*RESOLVE, "0:0=3"], "--resolve"),
        ([*RESOLVE, "0,1:0=3,x=0"], "--resolve"),
        ([*RESOLVE, "0,1:0=3,0=0"], "--resolve"),
        ([*RESOLVE, "0,1:0=3", "--resolve", "0,1:0=3"], "--resolve"),
        (["witness", "--pn", "2", "--index", "0", "--resolve", "1:0=2"], "--resolve"),
        (["build", "--pn", "2", "--shifts", "a,0", "--charges=-1,1+1i"], "--shifts"),
    ],
    ids=[
        "tokens-int",
        "tokens-ints",
        "z-int",
        "classes-int",
        "entry-int",
        "table-list",
        "n-list",
        "base-null",
        "n-float",
        "n-bool",
        "base-float",
        "w-float",
        "w-bool",
        "w-string",
        "class-float",
        "shift-float",
        "dim-float",
        "euler-float",
        "labels-string",
        "labels-ints",
        "classes-long",
        "shifts-long",
        "key-letters",
        "key-letter",
        "key-triple",
        "key-single",
        "degree-letter",
        "degree-minus-zero",
        "resolve-letters",
        "resolve-single",
        "resolve-degree-letter",
        "resolve-degree-twice",
        "resolve-pair-twice",
        "witness-resolve-single",
        "shifts-letter",
    ],
)
def test_badly_shaped_json_is_a_usage_error(capsys, argv, field):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed {field!r} field")


@pytest.mark.parametrize("flag", ["--point", "--collection"])
def test_a_json_file_without_an_object_is_a_usage_error(tmp_path, capsys, flag):
    source = tmp_path / "source.json"
    source.write_text("[1]")
    command = ["member", "--chart", "0"] if flag == "--point" else ["classify"]
    code, out, err = run(capsys, [*command, flag, str(source)])
    assert code == 2 and out == ""
    assert err == "error: a JSON object is expected, not list\n"


def test_missing_collection_source_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["classify"])
    assert code == 2
    assert "pass --collection FILE or --pn N" in err


def test_module_entry_point_runs():
    # the child imports the package from where this process found it, so
    # the test also runs when pytest alone put src on the path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "stabctl.cli", "verify", "--suite", "metric"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("[PASS] metric: 3 cases in")


# three objects with the two adjacent entries left unknown
UNKNOWN_CHAIN = json.dumps(
    {
        "classes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "euler": [[1, 3, 0], [0, 1, 3], [0, 0, 1]],
        "labels": ["A", "B", "C"],
        "shifts": [0, 0, 0],
        "table": {"0,1": None, "0,2": {"0": 0}, "1,2": None},
    }
)


def test_the_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    mutate = ["mutate", "--collection", UNKNOWN_CHAIN, "--direction", "right"]
    sequence = [
        mutate + ["--index", "0", "--resolve", "0,1:0=3", "--resolve", "1,2:0=3"],
        mutate + ["--index", "0", "--resolve", "0,1:0=3"],
        mutate + ["--index", "0"],
        ["classify", "--pn", "3"],
        mutate + ["--index", "1", "--resolve", "1,2:0=3", "--resolve", "0,1:0=3"],
        ["chart", "--pn", "2", "--base", "3"],
        ["witness", "--pn", "3", "--index", "0"],
        mutate + ["--index", "1"],
        ["orbit", "--point", SIGMA, "--target", SIGMA],
    ]
    shared = [run(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run(capsys, argv) for argv in sequence] == shared


def _random_collection_json(rng):
    """2 to 6 basis objects with labels that may read like shifts or
    mutations; each entry is empty, unknown, or over one or two degrees in
    -2..3, and the Euler form is read off the exact entries."""
    size = rng.randint(2, 6)
    labels = rng.sample(["A", "B", "C", "D", "E", "F", "A[1]", "B[-2]", "R[A](B)", "L[C](D)"], size)
    euler = [[int(i == j) for j in range(size)] for i in range(size)]
    table = {}
    for i in range(size):
        for j in range(i + 1, size):
            roll = rng.random()
            if roll < 0.04:
                table[f"{i},{j}"] = None
                euler[i][j] = rng.randint(-3, 3)
            elif roll < 0.8:
                k = rng.randint(-2, 3)
                entry = {k: rng.randint(1, 3)}
                if rng.random() < 0.3:
                    entry[k + rng.randint(1, 2)] = rng.randint(1, 2)
                table[f"{i},{j}"] = {str(d): n for d, n in entry.items()}
                euler[i][j] = sum(-n if d % 2 else n for d, n in entry.items())
    classes = [[int(i == j) for j in range(size)] for i in range(size)]
    return {"labels": labels, "classes": classes, "euler": euler, "table": table}


def _random_shifts(rng, data):
    """Usually the least shift making every exact shifted degree at least one,
    plus random steps; otherwise any vector of small integers."""
    size = len(data["labels"])
    if rng.random() < 0.2:
        return [rng.randint(-3, 3) for _ in range(size)]
    p = [0] * size
    for i in range(size - 2, -1, -1):
        entries = (data["table"].get(f"{i},{j}") for j in range(i + 1, size))
        bounds = [p[j] + 1 - min(map(int, e)) for j, e in enumerate(entries, i + 1) if e]
        p[i] = max(bounds, default=0) + rng.choice((0, 0, 0, 1))
    return p


def test_collection_commands_end_in_an_exit_code(capsys):
    # the README's exit codes, 0 success, 1 negative result and 2 bad input,
    # are the only ends of these commands on any collection: none raises
    rng = random.Random(2602)
    charges = ["-1", "-2", "i", "1+1i", "-1+1/2i", "3+2i", "-3+1i"]
    codes = []
    for _ in range(200):
        data = _random_collection_json(rng)
        size = len(data["labels"])
        source = ["--collection", json.dumps(data)]
        index = f"--index={rng.randint(-1, size - 1)}"
        shifts = ",".join(map(str, _random_shifts(rng, data)))
        for argv in (
            ["build", *source, f"--shifts={shifts}", "--charges=" + ",".join(rng.choices(charges, k=size))],
            ["witness", *source, index],
            ["chart", *source],
            ["classify", *source],
            ["mutate", *source, index, f"--direction={rng.choice(('left', 'right'))}"],
        ):
            code, _, err = run(capsys, argv)
            assert code in (0, 1, 2), (argv, code)
            assert (code == 2) == err.startswith("error: "), (argv, err)
            codes.append((argv[0], code))
    # every command both answers and refuses on these inputs
    for command in ("build", "witness", "chart", "classify", "mutate"):
        assert {code for name, code in codes if name == command} == {0, 2}, command
