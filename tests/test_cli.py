import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import budget_sweep
import zipstrata
from conftest import PROCESS_CACHES
from zipstrata import cli, glnzip, hasse, zipdatum
from zipstrata.cli import main
from zipstrata.weyl import BUDGET, DEFAULT_BUDGET


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
        assert err == f"budget exceeded: |W_K| = 36 exceeds budget {budget}\n"


@pytest.mark.parametrize("budgets", [(35, 36), (36, 35)])
def test_lower_neighbour_scan_budget_exit_code_in_one_process(capsys, budgets):
    # the budgets share one Weyl group and datum of GL_6; whichever runs
    # first, a refusal at 35 leaves nothing that changes the run at 36, and
    # the run at 36 nothing that lifts the refusal at 35
    seen = {}
    for budget in budgets + budgets:
        code = main(["--gl", "6", "3", "--budget", str(budget), "strata-list"])
        seen.setdefault(budget, set()).add((code, *capsys.readouterr()))
    assert seen[35] == {(3, "", "budget exceeded: |W_K| = 36 exceeds budget 35\n")}
    assert len(seen[36]) == 1
    code, out, err = next(iter(seen[36]))
    assert (code, err) == (0, "") and len(json.loads(out)["nodes"]) == 20


@pytest.mark.parametrize("budget,code", [(3, 3), (4, 0)])
def test_witness_past_the_budget_exit_code(capsys, budget, code):
    # GL_5 (2,3), closure of 3,1,2,4,5: I_w = {1,4}, |W_K| = 4; the
    # candidate 1,2,4,3,5 misses x = e, so the scan past e costs all of W_K
    argv = ["--gl", "5", "2", "--budget", str(budget), "closure", "3,1,2,4,5"]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err == f"budget exceeded: |W_K| = 4 exceeds budget {budget}\n"


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_refuses_the_first_key(capsys, budget):
    # testing x = e is free, so a closure whose candidates all hit at e
    # runs at any budget and prints what the default budget prints; the
    # first key past e costs |W_K| and is refused
    assert main(["--gl", "4", "2", "closure", "3,4,1,2"]) == 0
    default = capsys.readouterr()
    assert main(["--gl", "4", "2", "--budget", str(budget), "closure", "3,4,1,2"]) == 0
    assert capsys.readouterr() == default
    assert main(["--gl", "5", "2", "--budget", "0", "closure", "3,1,2,4,5"]) == 3
    assert capsys.readouterr().err == "budget exceeded: |W_K| = 4 exceeds budget 0\n"
    # GL_4 (2,2), closure of 3,1,2,4: I_w is empty and a candidate misses
    # x = e, but W_K = {e} leaves no key past e to charge
    assert main(["--gl", "4", "2", "closure", "3,1,2,4"]) == 0
    default = capsys.readouterr()
    assert main(["--gl", "4", "2", "--budget", str(budget), "closure", "3,1,2,4"]) == 0
    assert capsys.readouterr() == default


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


# every run of this module pinned below the default budget, as (argv before
# --budget, budget, argv after it), and one of the matrix classifier, whose
# model table is built from ^I W; "B3" stands for the B3 document above
_PINNED = [
    (["--gl", "8", "4"], 10, ["strata-list"]),
    (["--gl", "6", "3"], 35, ["strata-list"]),
    (["--gl", "6", "3"], 36, ["strata-list"]),
    (["--gl", "5", "2"], 3, ["closure", "3,1,2,4,5"]),
    (["--gl", "5", "2"], 4, ["closure", "3,1,2,4,5"]),
    (["--gl", "4", "2"], 0, ["closure", "3,4,1,2"]),
    (["--gl", "4", "2"], -1, ["closure", "3,4,1,2"]),
    (["--gl", "5", "2"], 0, ["closure", "3,1,2,4,5"]),
    (["--cartan", "B3", "--I", "2,3"], 5, ["strata-list"]),
    (["--gl", "6", "3"], 10, ["xi", "e"]),
    (["--gl", "10", "8"], 50_000, ["xi", "e"]),
    (["--gl", "5", "2"], 1, ["decide", "1,3,4,5,2", "1,3,4,2,5"]),
    ([], 3, ["sweep-length2", "--verify", "--n-max", "5"]),
    (["--gl", "4", "2"], 5, ["xi", "--matrix", "1,1,0,0,0,1,0,0,0,0,1,0,0,0,1,1"]),
]


@pytest.mark.parametrize("head,budget,tail", _PINNED,
                         ids=[" ".join(h + [str(b)] + t[:1]) for h, b, t in _PINNED])
def test_a_pinned_budget_after_the_default_one_reads_as_on_empty_caches(
        capsys, tmp_path, head, budget, tail):
    # the run at the default budget fills the memos of the shared data; a
    # memo that ignored the budget would answer the pinned run from them
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]}))
    head = [str(path) if arg == "B3" else arg for arg in head]
    pinned = head + ["--budget", str(budget)] + tail

    def record(argv):
        return (main(argv), *capsys.readouterr())

    cold = record(pinned)
    for cache in PROCESS_CACHES:
        cache.clear()
    record(head + tail)
    assert record(pinned) == cold


def test_the_budget_sweep_matches_its_table():
    # the table was written before a trivial W_K stopped being charged: only
    # runs it refused with "|W_K| = 1" change, and each now reads as the
    # table's run at budget 1, where that charge fitted, with its own budget
    golden, table = budget_sweep.load(), budget_sweep.sweep()
    assert table.keys() == golden.keys()
    changed, now_ok = 0, 0
    for command, runs in golden.items():
        assert table[command].keys() == runs.keys()
        for budget, run in runs.items():
            new = table[command][budget]
            if new == run:
                continue
            assert run[1] == f"budget exceeded: |W_K| = 1 exceeds budget {budget}\n", (
                command, budget)
            code, err, out = runs["1"]
            assert new == [code, err.replace("budget 1\n", f"budget {budget}\n"), out], (
                command, budget)
            changed += 1
            now_ok += code == 0
    # the other 72 are refused next by the Xi walk's |W_I| check
    assert (changed, now_ok) == (132, 60)


def test_one_weyl_group_serves_every_budget(capsys):
    for budget in [10**k for k in range(1, 11)]:
        assert main(["--gl", "8", "4", "--budget", str(budget), "strata-list"]) in (0, 3)
        assert BUDGET.get() == DEFAULT_BUDGET  # main restores the budget it set
    capsys.readouterr()
    assert len(zipdatum._WEYL_GROUPS) == 1 and len(zipdatum._ZIP_DATA) == 1
    # and one lower-neighbour memo entry per element of ^I W, C(8, 4) = 70,
    # whatever budgets filled it
    (zd,) = zipdatum._ZIP_DATA.values()
    assert len(zd._extra["lower_neighbors"]) == 70


@pytest.mark.parametrize("datum,err", [
    (["--gl", "4", "2", "--sigma", "1,1,2"],
     "delta_perm must be a permutation of 1..3: [1, 1, 2]"),
    (["--cartan", "B2", "--I", "1", "--sigma", "2,1"],
     "delta_perm does not preserve the Cartan pairing"),
])
def test_an_invalid_sigma_exits_2_on_every_call(capsys, tmp_path, datum, err):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-2, 2]]}))
    argv = [str(path) if arg == "B2" else arg for arg in datum] + ["strata-list"]
    for _ in range(3):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_sweep_length2_csv(capsys):
    code, out = run(capsys, "--format", "csv", "sweep-length2", "--n-max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,s,n,gcd,branch")
    assert len(lines) == 1 + 6  # (2,2),(3,2),(4,2),(3,3),(5,2),(4,3)


def test_sweep_length2_verify_honours_budget(capsys):
    # at (3,2) a twisted-order scan goes past x = e and is charged |W_K| = 4
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


@pytest.mark.parametrize("argv,err", [
    (["hasse", "--weight", "0,0,0"], "weight has dimension 3, lattice has 4"),
    (["hasse", "1,3,2,4", "--weight", "0,0,0,0,0"], "weight has dimension 5, lattice has 4"),
    # w outside ^I W is refused first
    (["hasse", "2,1,3,4", "--weight", "0,0,0"], "w = [2 1 3 4] is not in ^I W"),
], ids=["all strata", "one stratum", "not in ^I W"])
def test_a_zero_weight_of_the_wrong_dimension_exits_2(capsys, argv, err):
    assert main(["--gl", "4", "2", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_xi_element(capsys):
    code, out = run(capsys, "--gl", "4", "2", "xi", "e")
    doc = json.loads(out)
    assert code == 0 and doc["xi"] == [1, 2, 3, 4]


def test_xi_matrix(capsys):
    entries = ",".join("1" if i == j else "0" for i in range(4) for j in range(4))
    code, out = run(capsys, "--gl", "4", "2", "xi", "--matrix", entries)
    doc = json.loads(out)
    assert code == 0 and doc["xi"] == [1, 2, 3, 4]
    assert doc["m"] == 1  # --m not given reads as 1


def test_xi_singular_matrix_rejected(capsys):
    code, _ = run(capsys, "--gl", "4", "2", "xi", "--matrix", ",".join(["0"] * 16))
    assert code == 2


def test_xi_singular_matrix_with_independent_column_blocks_rejected(capsys):
    # columns e_0, e_1, e_2, e_0 + e_2: each pair of columns that z permutes
    # into the first r = 2 is independent, so only the rank check catches it
    rows = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0))
    entries = ",".join(str(x) for row in rows for x in row)
    code = main(["--gl", "4", "2", "xi", "--matrix", entries])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: matrix is singular\n")


def test_census_csv(capsys):
    code, out = run(capsys, "--gl", "3", "2", "--format", "csv",
                    "census", "--q", "2", "--m-list", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,stratum,count"
    assert len(lines) == 1 + 6  # 3 strata x 2 exponents


@pytest.mark.parametrize("gl,q,code,err", [
    (["2", "1"], "11", 0, ""),
    (["2", "1"], "12", 2, "error: 12 is not a prime power\n"),
    (["2", "1"], "16", 2, "error: extension degree k must be 1, 2 or 3\n"),
    (["5", "3"], "2", 3, "budget exceeded: |GL_5(F_2)| = 9999360 exceeds budget 3628800\n"),
], ids=["GL_2(F_11)", "GL_2(F_12)", "GL_2(F_16)", "GL_5(F_2)"])
def test_census_is_capped_by_the_budget_alone(capsys, gl, q, code, err):
    # |GL_n(F_q)| is checked against the budget before q is factored
    assert main(["--gl", *gl, "census", "--q", q]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:
        assert json.loads(captured.out)["total"] == 13_200


@pytest.mark.parametrize("m_list,shown", [
    ("1,1", "[1, 1]"), ("2,1,2", "[2, 1, 2]"), ("1,0", "[1, 0]"), ("0", "[0]"),
])
def test_census_exponents_are_checked_before_any_point(capsys, monkeypatch, m_list, shown):
    # a repeated exponent would count every point once more per repeat
    # (24 + 72 of 48 at GL_2(F_3)), and m < 1 was refused only at the
    # first point; both exit 2 before any point is classified
    classified = []
    monkeypatch.setattr(glnzip, "xi_classify", lambda *args: classified.append(args))
    code = main(["--gl", "2", "1", "census", "--q", "3", "--m-list", m_list])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: census exponents must be distinct and >= 1, got {shown}\n")
    assert classified == []


def test_xi_matrix_over_a_large_prime_field():
    # q is factored by trial division up to sqrt(q), not up to q
    argv = ["--gl", "2", "1", "xi", "--matrix", "1,0,0,1", "--q", "1000000007"]
    env = {**os.environ, "PYTHONPATH": str(Path(zipstrata.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "zipstrata.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["xi"] == [1, 2]


def test_closed_form(capsys):
    code, out = run(capsys, "closed-form", "8", "4")
    doc = json.loads(out)
    assert code == 0 and doc["branch"] == "unbounded"


_NO_FILE = "/nonexistent.json"


@pytest.mark.parametrize("datum,command,option", [
    *((datum, command, option)
      for command in (["closed-form", "2", "2"], ["sweep-length2", "--n-max", "4"])
      for datum, option in [
          (["--gl", "3", "1", "--cartan", _NO_FILE], "--gl N R"),
          (["--gl", "3", "1"], "--gl N R"),
          (["--cartan", _NO_FILE], "--cartan FILE"),
          (["--I", "1"], "--I"),
          (["--sigma", "flip"], "--sigma flip"),
      ]),
    (["--gl", "2", "1", "--sigma", "flip"], ["census", "--q", "3", "--m-list", "1"],
     "--sigma flip"),
    (["--gl", "2", "1", "--cartan", _NO_FILE], ["census", "--q", "3", "--m-list", "1"],
     "--cartan FILE"),
    (["--gl", "2", "1", "--I", "1"], ["census", "--q", "3", "--m-list", "1"], "--I"),
    (["--cartan", _NO_FILE], ["census"], "--cartan FILE"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_command_refuses_the_datum_options_it_cannot_honour(capsys, monkeypatch,
                                                               datum, command, option):
    # closed-form and sweep-length2 build no datum, and census counts the
    # points of the split GL_n datum that --gl names (xi_classify refuses
    # sigma != id); each refuses the others by name before any work is done
    monkeypatch.setattr(cli, "length2_closed_form", None)
    monkeypatch.setattr(cli, "fp_point_census", None)
    assert main(datum + command) == 2
    assert capsys.readouterr() == ("", f"error: {command[0]} does not take {option}\n")


@pytest.mark.parametrize("argv,error", [
    # --m, when it was global, after the subcommand abbreviated xi's
    # --matrix: the class of the second matrix was printed with m = 1.  It
    # is xi's own exponent now, and a matrix given there is no integer
    (["--gl", "2", "1", "xi", "--matrix", "1 1 0 1", "--m", "0 1 1 0"],
     "argument --m: invalid int value: '0 1 1 0'"),
    # census has no --m, and does not read it as --m-list
    (["--gl", "4", "2", "census", "--m", "2"], "unrecognized arguments: --m 2"),
    # --q and --m belong to the commands that read them; every other
    # command dropped them with exit 0 when they were global
    (["--gl", "2", "1", "strata-list", "--q", "5"], "unrecognized arguments: --q 5"),
    (["--gl", "2", "1", "closure", "2,1", "--m", "3"], "unrecognized arguments: --m 3"),
], ids=["xi --m", "census --m", "strata-list --q", "closure --m"])
def test_a_global_flag_after_the_subcommand_is_refused(capsys, monkeypatch, argv, error):
    monkeypatch.setattr(cli, "xi_classify", None)
    monkeypatch.setattr(cli, "fp_point_census", None)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f"error: {error}\n"), err


@pytest.mark.parametrize("m", ["3", "1"])
def test_census_refuses_the_global_m(capsys, monkeypatch, m):
    # census takes its exponents from --m-list; the global --m it once
    # dropped (printing the m = 1 counts with exit 0) is gone, and an --m
    # before census or after it is refused by the parser, 1 included
    monkeypatch.setattr(cli, "fp_point_census", None)
    for argv in (["--gl", "2", "1", "--m", m, "census"], ["--gl", "2", "1", "census", "--m", m]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "error: " in err, argv


@pytest.mark.parametrize("argv,code,err", [
    (["--gl", "4", "2", "xi", "3,1,2,4", "--m", "2"], 2, "error: xi takes --m only with --matrix\n"),
    (["--gl", "2", "1", "xi", "2,1", "--q", "4"], 2, "error: xi takes --q only with --matrix\n"),
    (["--gl", "2", "1", "xi", "--matrix", "0,1,1,0", "--q", "3", "--m", "2"], 0, ""),
], ids=["xi element --m", "xi element --q", "xi --matrix --q --m"])
def test_xi_reads_q_and_m_only_with_a_matrix(capsys, argv, code, err):
    assert main(argv) == code
    out, got = capsys.readouterr()
    assert got == err
    if code == 0:
        assert json.loads(out)["m"] == 2


@pytest.mark.parametrize("argv", [
    ["--gl", "2", "1", "--q", "5", "strata-list"],
    ["--gl", "2", "1", "--q", "5", "--m", "3", "strata-list"],
], ids=lambda v: " ".join(v))
def test_q_and_m_before_the_command_are_refused(capsys, argv):
    # both were global, and strata-list dropped them with exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "error: " in err


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


def test_fourier_motzkin_row_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(hasse, "_FM_ROW_CAP", 0)
    assert main(["--gl", "5", "2", "hasse"]) == 3
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


def test_closed_stdout_exits_1_without_a_traceback():
    # the child waits for its stdin to close, so the read end of its stdout
    # is closed before the report is written
    script = (
        "import sys; from zipstrata.cli import main; sys.stdin.read(); "
        "sys.exit(main(['--gl', '7', '3', 'strata-list']))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(zipstrata.__file__).parent.parent)}
    proc = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    proc.stdin.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (1, b"")


A2 = [[2, -1], [-1, 2]]


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
        lambda tmp: ("--cartan", _cartan_file(tmp, {"gl": {"n": 4, "r": 2}}), "--I", "1",
                     "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2}), "--I", "a", "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, [1, 2]), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, None), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": 5}), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": [2]}), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": [[2, None], [-1, 2]]}),
                     "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "I": None}), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "I": 5}), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "sigma": 5}), "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "sigma": None}),
                     "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "lattice": []}),
                     "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "lattice": {"dim": 2}}),
                     "strata-list"),
        lambda tmp: ("--cartan", _cartan_file(tmp, {"cartan": A2, "lattice": {
            "dim": 2, "pairing": 5, "root_embedding": [[1, 0], [0, 1]]}}), "strata-list"),
        lambda tmp: ("--gl", "4", "2", "decide", "s9", "s1"),
        lambda tmp: ("--gl", "4", "2", "decide", "s0", "s1"),
        lambda tmp: ("--gl", "4", "2", "decide", "s-1", "s1"),
        lambda tmp: ("--gl", "3", "1", "--cartan", _cartan_file(tmp, {"cartan": A2}),
                     "strata-list"),
    ],
    ids=["missing-file", "no-cartan-key", "I-with-gl", "I-with-gl-document", "I-not-a-number",
         "list-document", "null-document", "cartan-number", "cartan-row-number",
         "cartan-null-entry",
         "I-null", "I-number", "sigma-number", "sigma-null", "lattice-list",
         "lattice-without-pairing", "lattice-pairing-number", "simple-index-9",
         "simple-index-0", "simple-index-negative", "gl-with-cartan"],
)
def test_bad_datum_input_is_a_precondition_error(tmp_path, capsys, argv):
    code = main(list(argv(tmp_path)))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_a_lattice_block_that_is_no_object_is_named(tmp_path, capsys):
    path = _cartan_file(tmp_path, {"cartan": A2, "lattice": [1]})
    assert main(["--cartan", path, "strata-list"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", 'error: the "lattice" block must be a JSON object\n')


def test_a_bad_cartan_document_after_a_good_one_still_exits_2(tmp_path, capsys):
    # the same Cartan matrix with a lattice that contradicts it, then a matrix
    # of no finite type: the root system kept from the good document must not
    # let either pass, and a bad document keeps nothing for the next run
    lattice = {"dim": 2, "pairing": A2, "root_embedding": [[1, 0], [0, 1]]}
    docs = [
        ({"cartan": A2, "lattice": lattice}, 0, ""),
        ({"cartan": A2, "lattice": dict(lattice, root_embedding=[[1, 0], [0, 2]])}, 2,
         "error: lattice is inconsistent: root_embedding o coroot_pairing gives -2 at "
         "(2,1), Cartan says -1\n"),
        ({"cartan": [[2, -2], [-2, 2]]}, 2, "error: Cartan matrix is not of finite type\n"),
        ({"cartan": [[2, -2], [-2, 2]]}, 2, "error: Cartan matrix is not of finite type\n"),
        ({"cartan": A2, "lattice": lattice}, 0, ""),
    ]
    for doc, code, err in docs:
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(doc))
        assert main(["--cartan", str(path), "--I", "1", "strata-list"]) == code, doc
        assert capsys.readouterr().err == err


def test_decide_checks_its_precondition_by_the_first_witness(capsys):
    # GL_5 (3,2) at budget 1: |W_I| = 12, but the witness of w' <=_I w is
    # x = e, so the witness search of twisted_leq charges nothing
    argv = ["--gl", "5", "2", "--budget", "1", "decide", "1,3,4,5,2", "1,3,4,2,5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["smooth"] is True


# -- malformed input, drawn: every run exits 0, 2 or 3 ------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
_GENERIC_DOC = {"cartan": A2, "I": [1], "sigma": "flip",
                "lattice": {"dim": 2, "pairing": A2, "root_embedding": [[1, 0], [0, 1]]}}
_GL_DOC = {"gl": {"n": 3, "r": 1}, "sigma": "id"}
# each document with the paths of its fields; () is the whole document
_DOCUMENTS = [
    (_GENERIC_DOC, [(), ("cartan",), ("cartan", 0), ("cartan", 0, 1), ("I",), ("I", 0),
                    ("sigma",), ("lattice",), ("lattice", "dim"), ("lattice", "pairing"),
                    ("lattice", "pairing", 1), ("lattice", "root_embedding")]),
    (_GL_DOC, [(), ("gl",), ("gl", "n"), ("gl", "r"), ("sigma",)]),
]
_texts = st.text(alphabet="se0123456789, -", max_size=10)
_elements = _texts | st.sampled_from(["e", "s1", "s2 s1", "s9", "s0", "2,1,3", "3,1,2,4"])


@st.composite
def _documents(draw):
    """A valid datum document with one field replaced by any JSON value or
    deleted, or the whole document replaced."""
    doc, paths = draw(st.sampled_from(_DOCUMENTS))
    path = draw(st.sampled_from(paths))
    value = draw(_json_values)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _argvs(draw, cartan_path):
    """argv for one run: a small GL datum or a drawn document, then a command
    with drawn element texts, --I, --m-list, --weight and signatures."""
    if draw(st.booleans()):
        with open(cartan_path, "w") as fh:
            json.dump(draw(_documents()), fh)
        datum = ["--cartan", cartan_path]
        if draw(st.booleans()):
            datum += ["--I", draw(_texts)]
    else:
        datum = ["--gl", str(draw(st.integers(-1, 5))), str(draw(st.integers(-1, 5)))]
    command = draw(st.sampled_from(["decide", "closure", "xi", "hasse", "census",
                                    "closed-form", "strata-list"]))
    if command == "decide":
        tail = [command, draw(_elements), draw(_elements)]
    elif command in ("closure", "xi"):
        tail = [command, draw(_elements)]
    elif command == "hasse":
        tail = [command, draw(_elements), "--weight", draw(_texts)]
    elif command == "census":
        tail = [command, "--m-list", draw(_texts)]
    elif command == "closed-form":
        return ["closed-form", str(draw(st.integers(-2, 9))), str(draw(st.integers(-2, 9)))]
    else:
        tail = [command]
    # a small budget keeps every run cheap (the GL_4(F_2) census alone takes
    # about 18 s); exit 3 is one of the allowed outcomes
    return ["--budget", "200"] + datum + tail


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_exits_with_a_code_not_a_traceback(tmp_path, capsys, data):
    argv = data.draw(_argvs(str(tmp_path / "datum.json")))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the command line itself
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3), argv
