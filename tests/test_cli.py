import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipstrata
from zipstrata.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_strata_list_gl42(capsys):
    code, out = run(capsys, "--gl", "4", "2", "strata-list")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 6
    edges = {(tuple(c["upper"]), tuple(c["lower"])) for c in doc["covers"]}
    assert ((3, 1, 4, 2), (3, 1, 2, 4)) in edges
    assert ((3, 1, 4, 2), (1, 3, 4, 2)) in edges
    assert len(edges) == 6


def test_strata_list_gl21(capsys):
    code, out = run(capsys, "--gl", "2", "1", "strata-list")
    doc = json.loads(out)
    assert code == 0 and len(doc["nodes"]) == 2 and len(doc["covers"]) == 1


def test_strata_list_gl53_counts(capsys):
    code, out = run(capsys, "--gl", "5", "3", "strata-list")
    doc = json.loads(out)
    assert code == 0 and len(doc["nodes"]) == 10


def test_strata_list_dot(capsys):
    code, out = run(capsys, "--gl", "4", "2", "--format", "dot", "strata-list")
    assert code == 0
    assert out.startswith("digraph strata")
    assert out.count("->") == 6


def test_decide_smooth_json(capsys):
    code, out = run(capsys, "--gl", "5", "3", "decide", "s3 s4", "s3")
    doc = json.loads(out)
    assert code == 0 and doc["smooth"] is True


def test_decide_not_smooth_certificate(capsys):
    code, out = run(capsys, "--gl", "5", "3", "decide", "s3 s2", "s3")
    doc = json.loads(out)
    assert code == 0 and doc["smooth"] is False
    assert doc["certificate"] == [1, 3, 2, 4, 5]


def test_decide_precondition_exit_code(capsys):
    code, _ = run(capsys, "--gl", "4", "2", "decide", "1,3,2,4", "3,4,1,2")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _ = run(capsys, "--gl", "8", "4", "--budget", "10", "strata-list")
    assert code == 3


@pytest.mark.parametrize("budget,code", [(20, 3), (35, 3), (36, 0)])
def test_lower_neighbour_scan_budget_exit_code(capsys, budget, code):
    # GL_6 (3,3): |^I W| = 20 fits every budget here, and the scan of
    # W_I (36 elements) for a candidate below no element of W_I w' psi(.)^-1
    # ends only after all of W_I
    assert main(["--gl", "6", "3", "--budget", str(budget), "strata-list"]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err == f"budget exceeded: twisted_leq scanned more than {budget} elements of W_K\n"


def test_generic_budget_caps_the_representatives_not_the_group(capsys, tmp_path):
    # B3, I = {2,3}: |W| = 48, |W_I| = 8, |^I W| = 6; every lower-neighbour
    # scan hits within 7 elements of W_I, and ^I W is searched without
    # enumerating W
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]}))
    argv = ["--cartan", str(path), "--I", "2,3", "--budget"]
    assert main(argv + ["7", "strata-list"]) == 0
    capsys.readouterr()
    assert main(argv + ["5", "strata-list"]) == 3
    assert capsys.readouterr().err == "budget exceeded: |^K W| exceeds budget 5\n"


def test_sweep_length2_csv(capsys):
    code, out = run(capsys, "--format", "csv", "sweep-length2", "--n-max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,s,n,gcd,branch")
    assert len(lines) == 1 + 6  # (2,2),(3,2),(4,2),(3,3),(5,2),(4,3)


def test_sweep_length2_verify_honours_budget(capsys):
    # at (3,2) the twisted-order scan over W_K passes 3 elements
    code = main(["--budget", "3", "sweep-length2", "--verify", "--n-max", "5"])
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_sweep_length2_verify_past_the_default_budget(capsys):
    # (11,2) has |W_I| = 11! 2!, above the default budget
    code, out = run(capsys, "--budget", "100000000", "sweep-length2", "--verify",
                    "--n-max", "13")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == sum(n // 2 - 1 for n in range(4, 14))
    assert all(row[key]["agrees"] for row in rows for key in ("U1", "U2"))


def test_hasse_single(capsys):
    code, out = run(capsys, "--gl", "4", "2", "hasse", "1,3,2,4")
    doc = json.loads(out)
    assert code == 0 and doc["feasible"] is False


def test_hasse_all_with_weight(capsys):
    code, out = run(capsys, "--gl", "4", "2", "hasse", "--weight", "0,0,0,0")
    docs = json.loads(out)
    assert code == 0 and len(docs) == 6


def test_xi_element(capsys):
    code, out = run(capsys, "--gl", "4", "2", "xi", "e")
    doc = json.loads(out)
    assert code == 0 and doc["xi"] == [1, 2, 3, 4]


def test_xi_matrix(capsys):
    entries = ",".join("1" if i == j else "0" for i in range(4) for j in range(4))
    code, out = run(capsys, "--gl", "4", "2", "xi", "--matrix", entries)
    doc = json.loads(out)
    assert code == 0 and doc["xi"] == [1, 2, 3, 4]


def test_xi_singular_matrix_rejected(capsys):
    code, _ = run(capsys, "--gl", "4", "2", "xi", "--matrix", ",".join(["0"] * 16))
    assert code == 2


def test_census_csv(capsys):
    code, out = run(capsys, "--gl", "3", "2", "--q", "2", "--format", "csv",
                    "census", "--m-list", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,stratum,count"
    assert len(lines) == 1 + 6  # 3 strata x 2 exponents


def test_closed_form(capsys):
    code, out = run(capsys, "closed-form", "8", "4")
    doc = json.loads(out)
    assert code == 0 and doc["branch"] == "unbounded"


def test_generic_cartan_file(tmp_path, capsys):
    doc = {
        "cartan": [[2, -1], [-1, 2]],
        "I": [1],
        "lattice": {
            "dim": 2,
            "pairing": [[2, -1], [-1, 2]],
            "root_embedding": [[1, 0], [0, 1]],
        },
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--cartan", str(path), "strata-list")
    parsed = json.loads(out)
    assert code == 0 and len(parsed["nodes"]) == 3


def test_json_round_trip_and_determinism(capsys):
    _, out1 = run(capsys, "--gl", "4", "2", "strata-list")
    _, out2 = run(capsys, "--gl", "4", "2", "strata-list")
    assert out1 == out2
    doc = json.loads(out1)
    assert json.loads(json.dumps(doc)) == doc


def test_closure_command(capsys):
    code, out = run(capsys, "--gl", "5", "3", "closure", "s3 s2")
    doc = json.loads(out)
    assert code == 0 and doc["smooth_in_codim_1"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("--gl", "6", "3", "--budget", "10", "xi", "e"),  # |W_I| = 36
        ("--gl", "10", "8", "--budget", "50000", "xi", "e"),  # |W_I| = 80640
    ],
)
def test_xi_budget_exit_code(capsys, argv):
    code = main(list(argv))
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_xi_large_parabolic_runs_without_numpy():
    # |W_I| = 7! 4! = 120960; no third-party module may be loaded
    script = (
        "import sys; from zipstrata.cli import main; "
        "code = main(['--gl', '11', '7', 'xi', 'e']); "
        "print('numpy' in sys.modules); sys.exit(code)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(zipstrata.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    xi_doc, _, loaded = proc.stdout.rstrip().rpartition("\n")
    assert json.loads(xi_doc)["xi"] == list(range(1, 12))
    assert loaded == "False"


def _cartan_file(tmp_path, doc):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ("--cartan", str(tmp / "missing.json"), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"I": [1]}), "strata-list"),
        lambda tmp: ("--gl", "4", "2", "--I", "1", "strata-list"),
    ],
    ids=["missing-file", "no-cartan-key", "I-with-gl"],
)
def test_bad_datum_input_is_a_precondition_error(tmp_path, capsys, argv):
    code = main(list(argv(tmp_path)))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
