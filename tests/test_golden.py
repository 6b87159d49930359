"""Representation gates: frozen `strata-list` output on generic data, generic
A_{n-1} against GL_n, and the shape of generic element keys; frozen
`strata-list` and `hasse` output on GL_n and small generic data.

The generic `strata_*.json` files under tests/data/ were written by the
integer-matrix implementation of generic Weyl elements, the
`strata_GL*.json` and `hasse_*.json` files by the Fraction Hasse solver and
the per-w enumeration of lower neighbours, `strata_E6.json` by the
Cartan formula for every reflection key, and `strata_E7.json` by
Fourier-Motzkin without Chernikov's rule; every later implementation must
reproduce them byte for byte, witnesses and multipliers included.
"""

import json
from pathlib import Path

import pytest

from zipstrata.cli import main
from zipstrata.rootdata import build_generic
from zipstrata.weyl import WeylGroup

DATA = Path(__file__).parent / "data"

A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
C4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
# Bourbaki numbering: the chain 1-3-4-5-6, with node 2 attached to 4
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
# the chain 1-3-4-5-6-7, with node 2 attached to 4
E7 = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
      [0, 0, 0, 0, 0, -1, 2]]

# name: (Cartan matrix in Bourbaki numbering, I, sigma)
GOLDEN = {
    "G2": ([[2, -1], [-3, 2]], [2], "id"),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [2, 3], "id"),
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 3], "id"),
    "B4": (B4, [2, 3, 4], "id"),
    "C4": (C4, [2, 3, 4], "id"),
    "D4": (D4, [2, 3, 4], "id"),
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], [2, 3, 4], "id"),
    "A4_flip": (A4, [1, 4], "flip"),
    "D4_triality": (D4, [1, 3, 4], "3,2,4,1"),
}


def _type_a_cartan(rank):
    return [
        [2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
        for i in range(rank)
    ]


def _canonical_word(one_line):
    """The word generic data print for a permutation: strip the smallest left
    descent s_k (value k+1 left of value k) until none is left; s_k * w swaps
    the values k and k+1."""
    p = list(one_line)
    out = []
    while True:
        pos = {v: i for i, v in enumerate(p)}
        k = next((k for k in range(1, len(p)) if pos[k] > pos[k + 1]), None)
        if k is None:
            return out
        out.append(k)
        p = [k + 1 if v == k else k if v == k + 1 else v for v in p]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _strata_list(capsys, tmp_path, cartan, I, sigma="id"):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": cartan}))
    return _run(capsys, "--cartan", str(path), "--I", ",".join(map(str, I)),
                "--sigma", sigma, "strata-list")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_strata_list_matches_golden_dump(name, tmp_path, capsys):
    cartan, I, sigma = GOLDEN[name]
    out = _strata_list(capsys, tmp_path, cartan, I, sigma)
    assert out == (DATA / f"strata_{name}.json").read_text()


def test_e6_strata_list_matches_golden_dump(tmp_path, capsys):
    out = _strata_list(capsys, tmp_path, E6, [1, 2, 3, 4, 5])
    assert out == (DATA / "strata_E6.json").read_text()


def test_e7_strata_list_matches_golden_dump(tmp_path, capsys):
    out = _strata_list(capsys, tmp_path, E7, [1, 2, 3, 4, 5, 6])
    assert out == (DATA / "strata_E7.json").read_text()


@pytest.mark.parametrize(
    "n,r,sigma", [(n, r, s) for n in (4, 5, 6) for r in range(1, n) for s in ("id", "flip")]
)
def test_gl_strata_list_matches_golden_dump(n, r, sigma, capsys):
    out = _run(capsys, "--gl", str(n), str(r), "--sigma", sigma, "strata-list")
    assert out == (DATA / f"strata_GL{n}_{r}_{sigma}.json").read_text()


@pytest.mark.parametrize("name,datum", [
    ("GL4_2", ("--gl", "4", "2")),
    ("GL5_3", ("--gl", "5", "3")),
    ("G2", GOLDEN["G2"][:2]),
    ("B3", GOLDEN["B3"][:2]),
])
def test_hasse_search_matches_golden_dump(name, datum, tmp_path, capsys):
    if datum[0] == "--gl":
        argv = datum
    else:
        cartan, I = datum
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"cartan": cartan}))
        argv = ("--cartan", str(path), "--I", ",".join(map(str, I)))
    out = _run(capsys, *argv, "hasse")
    assert out == (DATA / f"hasse_{name}.json").read_text()


@pytest.mark.parametrize("n,r", [(n, r) for n in (4, 5) for r in range(1, n)])
def test_generic_type_a_equals_gl(n, r, tmp_path, capsys):
    I = [k for k in range(1, n) if k != r]
    generic = json.loads(_strata_list(capsys, tmp_path, _type_a_cartan(n - 1), I))
    gl = json.loads(_run(capsys, "--gl", str(n), str(r), "strata-list"))
    word = _canonical_word
    assert generic == {
        "z": word(gl["z"]),
        "J": gl["J"],
        "nodes": [dict(node, w=word(node["w"])) for node in gl["nodes"]],
        "covers": [
            {"upper": word(c["upper"]), "lower": word(c["lower"])} for c in gl["covers"]
        ],
    }


@pytest.mark.parametrize("cartan", [[[2, -1], [-3, 2]], B4, C4, D4])
def test_generic_keys_permute_the_roots(cartan):
    rs, _ = build_generic(cartan)
    W = WeylGroup(rs)
    two_n = 2 * len(rs.positive_roots)
    for w in W.elements():
        assert sorted(w.key) == list(range(two_n))
