"""Reflections on root indices against the Cartan formula.

Root generation records each simple reflection as a permutation of the
root indices, and `WeylGroup.reflection` builds every other s_alpha as
s_k s_beta s_k from a lower root beta = s_k(alpha).  Both are compared here
with `root_oracle.reflection_by_cartan`, which applies s_alpha(beta) =
beta - <beta, alpha^vee> alpha root by root, on every connected type up to
rank 8 (E6, E7, E8 included), some reducible ones, and GL_2..8.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from root_oracle import reflection_by_cartan
from zipstrata import rootdata
from zipstrata.rootdata import build_generic, build_gl
from zipstrata.weyl import WeylGroup


def _cartan(family, rank):
    """The Cartan matrix of a connected type, Bourbaki numbering."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if family == "E":  # the chain 1-3-4-...-rank, with node 2 attached to 4
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)]
    elif family == "D":  # the chain 1-...-(rank-1), with node rank attached to rank-2
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    else:
        edges = [(i, i + 1) for i in range(rank - 1)]
    for i, j in edges:
        C[i][j] = C[j][i] = -1
    if family == "B":
        C[rank - 2][rank - 1] = -2
    elif family == "C":
        C[rank - 1][rank - 2] = -2
    elif family == "F":
        C[1][2] = -2
    elif family == "G":
        C[1][0] = -3
    return C


def _product(*blocks):
    """The block-diagonal Cartan matrix of a reducible system."""
    rank = sum(len(b) for b in blocks)
    C = [[0] * rank for _ in range(rank)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            C[at + i][at:at + len(row)] = row
        at += len(b)
    return C


GENERIC = {
    "A1": _cartan("A", 1),
    "A1xA1": _product(_cartan("A", 1), _cartan("A", 1)),
    "G2xA1": _product(_cartan("G", 2), _cartan("A", 1)),
    "A2xB2": _product(_cartan("A", 2), _cartan("B", 2)),
    **{f"B{n}": _cartan("B", n) for n in range(2, 7)},
    **{f"C{n}": _cartan("C", n) for n in range(3, 7)},
    **{f"D{n}": _cartan("D", n) for n in range(4, 7)},
    **{f"E{n}": _cartan("E", n) for n in range(6, 9)},
    "F4": _cartan("F", 4),
    "G2": _cartan("G", 2),
}
# |Phi+| of each connected type, so a wrong matrix above cannot pass unseen
POSITIVE_ROOTS = {"B": lambda n: n * n, "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                  "E": {6: 36, 7: 63, 8: 120}.get, "F": {4: 24}.get, "G": {2: 6}.get}


def _system(name):
    if name.startswith("GL"):
        return build_gl(int(name[2:]), 1)[0]
    return build_generic(GENERIC[name])[0]


@pytest.mark.parametrize("name", sorted(GENERIC) + [f"GL{n}" for n in range(2, 9)])
def test_reflection_keys_match_the_cartan_formula(name):
    rs = _system(name)
    if name[0] in POSITIVE_ROOTS and name[1:].isdigit():
        assert len(rs.positive_roots) == POSITIVE_ROOTS[name[0]](int(name[1:]))
    W = WeylGroup(rs)
    for root in rs.roots:  # both signs: s_{-alpha} = s_alpha
        assert W.root_key(W.reflection(root)) == reflection_by_cartan(rs, root), (name, root)


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_simple_images_match_the_cartan_formula(name):
    rs = _system(name)
    assert len(rs.simple_images) == rs.rank
    for k in rs.delta_indices():
        assert rs.simple_images[k - 1] == reflection_by_cartan(rs, rs.simple(k)), (name, k)


def test_a_root_no_simple_reflection_lowers_raises_under_python_O():
    # with every simple image replaced by the identity, no s_k lowers the
    # highest root of A2, so its reflection cannot be built: the check raises
    # InvariantViolation, also under -O
    script = (
        "from zipstrata.rootdata import build_generic\n"
        "from zipstrata.weyl import InvariantViolation, WeylGroup\n"
        "assert False, 'python -O keeps asserts'\n"
        "rs, _ = build_generic([[2, -1], [-1, 2]])\n"
        "W = WeylGroup(rs)\n"
        "object.__setattr__(rs, 'simple_images', (tuple(range(6)),) * 2)\n"
        "try:\n"
        "    W.reflection(rs.positive_roots[-1])\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(rootdata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "no simple reflection negates or lowers the root Root(1, 1)"]
