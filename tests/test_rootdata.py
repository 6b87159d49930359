import doctest
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from zipstrata import fq, glnzip, hasse, rootdata, weyl, zipdatum
from zipstrata.rootdata import (
    RootDataError,
    build_generic,
    build_gl,
    load_generic_json,
)


def test_build_gl_4_2():
    rs, lat, I = build_gl(4, 2)
    assert len(rs.positive_roots) == 6
    assert sorted(I) == [1, 3]
    assert rs.ambient_dim == 4 and rs.rank == 3


def test_build_gl_3_2():
    _, _, I = build_gl(3, 2)
    assert sorted(I) == [1]


def test_build_gl_2_1():
    rs, _, I = build_gl(2, 1)
    assert [r.coords for r in rs.positive_roots] == [(1, -1)]
    assert I == frozenset()


@pytest.mark.parametrize("n,r", [(4, 0), (4, 4), (4, 7), (1, 1)])
def test_build_gl_rejects_bad_r(n, r):
    with pytest.raises(RootDataError):
        build_gl(n, r)


def test_positive_roots_are_nonneg_simple_combinations():
    rs, _, _ = build_gl(5, 2)
    for root in rs.positive_roots:
        assert all(c >= 0 for c in root.simple_coords)


def test_generic_a2_has_three_positive_roots():
    rs, _ = build_generic([[2, -1], [-1, 2]])
    assert len(rs.positive_roots) == 3


def test_generic_b2_has_four_positive_roots():
    # classical count for B_2
    rs, _ = build_generic([[2, -1], [-2, 2]])
    assert len(rs.positive_roots) == 4


def test_generic_a1_degenerate():
    rs, _ = build_generic([[2]])
    assert len(rs.positive_roots) == 1


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -1], [-3, 2]],  # G_2-like but... fine type, so use affine instead
        [[2, -2], [-2, 2]],  # affine A_1: not finite type
        [[2, 0], [-1, 2]],  # asymmetric zero pattern
        [[1, 0], [0, 2]],  # bad diagonal
        [[2, 1], [1, 2]],  # positive off-diagonal
    ],
)
def test_generic_rejects_nonfinite_or_malformed(cartan):
    if cartan == [[2, -1], [-3, 2]]:
        # G_2 is finite type; it must be accepted, with 6 positive roots
        rs, _ = build_generic(cartan)
        assert len(rs.positive_roots) == 6
        return
    with pytest.raises(RootDataError):
        build_generic(cartan)


def _simply_laced(rank, edges):
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        C[i - 1][j - 1] = C[j - 1][i - 1] = -1
    return C


# Bourbaki E_rank: the chain 1-3-4-...-rank, node 2 attached to 4; E_9 is
# affine E_8 and E_10 hyperbolic, so only their last leading minor fails
E_EDGES = [(1, 3), (2, 4)]


@pytest.mark.parametrize(
    "cartan,finite",
    [
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], False),  # affine A_2
        ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], False),  # affine C_2
        ([[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1], [0, 0, 0, 2, -1],
          [-1, -1, -1, -1, 2]], False),  # affine D_4
        ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], False),  # B/G hybrid, indefinite
        (_simply_laced(9, E_EDGES + [(k, k + 1) for k in range(3, 9)]), False),
        (_simply_laced(10, E_EDGES + [(k, k + 1) for k in range(3, 10)]), False),
        (_simply_laced(8, E_EDGES + [(k, k + 1) for k in range(3, 8)]), True),
        ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], True),  # F_4
        ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], True),  # B_3
    ],
)
def test_finite_type_is_decided_by_the_leading_minors(cartan, finite):
    if finite:
        build_generic(cartan)
    else:
        with pytest.raises(RootDataError, match="not of finite type"):
            build_generic(cartan)


def test_lattice_consistency_is_enforced():
    with pytest.raises(RootDataError):
        build_generic(
            [[2, -1], [-1, 2]],
            {"dim": 2, "pairing": [[2, -1], [-1, 2]], "root_embedding": [[1, 1], [0, 1]]},
        )


def test_pairing_gl_examples():
    rs, lat, _ = build_gl(3, 2)
    e12 = rs.root_from_coords((1, -1, 0))
    e13 = rs.root_from_coords((1, 0, -1))
    assert lat.pairing((0, 1, 1), e12) == -1
    assert lat.pairing((0, 1, 1), e13) == -1


def test_pairing_negates_and_is_additive():
    rs, lat, _ = build_gl(4, 2)
    rng = random.Random(7)
    for _ in range(50):
        lam = tuple(rng.randrange(-5, 6) for _ in range(4))
        mu = tuple(rng.randrange(-5, 6) for _ in range(4))
        root = rng.choice(rs.roots)
        assert lat.pairing(lam, -root) == -lat.pairing(lam, root)
        both = tuple(a + b for a, b in zip(lam, mu))
        assert lat.pairing(both, root) == lat.pairing(lam, root) + lat.pairing(mu, root)


def test_pairing_matches_coordinate_difference():
    rs, lat, _ = build_gl(5, 2)
    lam = (3, -1, 4, 1, -5)
    for root in rs.positive_roots:
        i = root.coords.index(1)
        j = root.coords.index(-1)
        assert lat.pairing(lam, root) == lam[i] - lam[j]


def test_is_compact_22(zd22):
    rs = zd22.rs
    alpha1 = rs.simple(1)
    e13 = rs.root_from_coords((1, 0, -1, 0))
    assert alpha1.support() <= zd22.I
    assert not e13.support() <= zd22.I


def test_nothing_compact_for_empty_I():
    rs, _, _ = build_gl(3, 1)
    for root in rs.roots:
        assert not root.support() <= frozenset()


def test_noncompact_positive_count_is_rs():
    for n, r in [(4, 2), (5, 2), (5, 3), (6, 1)]:
        rs, _, I = build_gl(n, r)
        noncompact = [a for a in rs.positive_roots if not a.support() <= I]
        assert len(noncompact) == r * (n - r)


def test_simple_reflections_permute_positive_roots():
    # s_alpha permutes Phi, and permutes Phi+ minus {alpha}
    for builder in (lambda: build_gl(4, 2)[0], lambda: build_generic([[2, -1], [-2, 2]])[0]):
        rs = builder()
        from zipstrata.weyl import WeylGroup

        W = WeylGroup(rs)
        for k in rs.delta_indices():
            s = W.simple(k)
            images = {s.apply(a).coords for a in rs.roots}
            assert images == {a.coords for a in rs.roots}
            others = [a for a in rs.positive_roots if a.coords != rs.simple(k).coords]
            assert all(s.apply(a).is_positive for a in others)
            assert s.apply(rs.simple(k)).coords == (-rs.simple(k)).coords


def test_json_roundtrip_loader():
    doc = {
        "cartan": [[2, -1], [-1, 2]],
        "lattice": {
            "dim": 2,
            "pairing": [[2, -1], [-1, 2]],
            "root_embedding": [[1, 0], [0, 1]],
        },
    }
    rs, lat = load_generic_json(json.dumps(doc))
    assert len(rs.positive_roots) == 3
    assert lat.dim == 2


def _golden_data():
    """The golden generic data: each root system, lattice and zip datum."""
    from test_golden import GOLDEN

    for cartan, I, sigma in GOLDEN.values():
        rs, lat = build_generic(cartan)
        aut = zipdatum.BasedAutomorphism.parse(rs, sigma)
        yield rs, lat, zipdatum.make_zip_datum(rs, frozenset(I), aut, lat)


def test_golden_data_hash_apart_and_are_found_without_equality_calls(monkeypatch):
    # hash(-1) == hash(-2) in CPython: hashed as plain rows, B4, C4, A4 and
    # F4 share one hash, and every cache lookup keyed on one of them falls
    # through to a full RootSystem comparison with another
    built = list(_golden_data())
    for part in range(2):
        distinct = list({id(x[part]): x[part] for x in built}.values())
        assert len({hash(x) for x in distinct}) == len(distinct) > 5
    calls = []
    real = rootdata.RootSystem.__eq__
    monkeypatch.setattr(rootdata.RootSystem, "__eq__",
                        lambda self, other: calls.append(other) or real(self, other))
    again = list(_golden_data())
    assert all(a is b for old, new in zip(built, again) for a, b in zip(old, new))
    assert calls == []


def test_zero_root_sign_raises_under_python_O():
    # Root refuses the zero vector, so a zero root is made by writing past
    # the frozen dataclass; its sign is an invariant violation, also under -O
    script = (
        "from zipstrata.rootdata import Root\n"
        "from zipstrata.weyl import InvariantViolation\n"
        "assert False, 'python -O keeps asserts'\n"
        "root = Root((1, 0), (1, 0), (1, 0))\n"
        "object.__setattr__(root, 'coords', (0, 0))\n"
        "try:\n"
        "    root.sign\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(rootdata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["a root has no non-zero coordinate"]


def test_module_doctests():
    for module in (rootdata, weyl, zipdatum, hasse, fq, glnzip):
        result = doctest.testmod(module)
        assert result.attempted > 0 and result.failed == 0, module.__name__
