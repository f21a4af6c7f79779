"""End to end checks of the command line front end.

Each test drives cli.main directly and inspects the emitted JSON, so the
output format, the exit codes, and the error channel are all pinned down.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from stabctl import cli

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
    code, _, err = run(
        capsys, ["member", "--point", SIGMA, "--chart", "9", "--oracle-bound", "8"]
    )
    assert code == 3
    assert "total dimension 17 exceeds the oracle bound 8" in err


def test_oracle_bound_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    for argv in (
        ["member", "--point", INTERIOR, "--chart", "2"],
        ["hn", "--rep", "rep p2 1 2\n1\n0\n0\n1\n", "--charge=-1,1+1i"],
        ["stable-pair", "--point", SIGMA, "--window", "2"],
        ["overlap", "--arrows", "2", "--chart", "0", "--other", "1", "--samples", "2"],
    ):
        code, _, _ = run(capsys, argv + ["--oracle-bound", "12"])
        assert code == 0
        assert dict(os.environ) == before


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
            "--oracle-bound", "12",
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
    twist = '{"n":2,"base":0,"tokens":[{"z":"-1","w":0},{"z":"1+1i","w":0}]}'
    code, out, _ = run(capsys, ["orbit", "--point", SIGMA, "--target", twist])
    assert code == 1
    assert out == '{"related":false}\n'


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
