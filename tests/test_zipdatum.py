import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zipstrata.rootdata import build_generic, build_gl
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import (
    BasedAutomorphism,
    ZipDatumError,
    gl_zip_datum,
    make_zip_datum,
)

_A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
_D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def test_frame_element_22(zd22):
    assert zd22.z.one_line() == [3, 4, 1, 2]
    assert sorted(zd22.J) == [1, 3]


def test_frame_element_32():
    zd = gl_zip_datum(3, 2)
    assert zd.z.one_line() == [3, 1, 2]


def test_frame_element_full_parabolic():
    rs, lat, _ = build_gl(4, 2)
    zd = make_zip_datum(rs, frozenset({1, 2, 3}), lattice=lat)
    assert zd.z == zd.W.identity
    assert sorted(zd.J) == [1, 2, 3]


def test_psi_maps_W_I_onto_W_J(zd32):
    for k in sorted(zd32.I):
        img = zd32.psi(zd32.W.simple(k))
        assert img.length == 1
        assert img.word[0] in zd32.J


def test_sigma_flip_is_based_automorphism():
    rs, lat, I = build_gl(4, 2)
    flip = BasedAutomorphism.flip(rs)
    assert flip.apply_root(rs.simple(1)).coords == rs.simple(3).coords
    # flip respects positivity and the W-action
    from zipstrata.weyl import WeylGroup

    W = WeylGroup(rs)
    for w in itertools.islice(W.elements(), 8):
        for a in rs.positive_roots:
            assert flip.apply_w(W, w).apply(flip.apply_root(a)) == flip.apply_root(w.apply(a))


def test_sigma_must_preserve_cartan():
    rs, _ = build_generic([[2, -1], [-2, 2]])  # B_2 has no diagram flip
    with pytest.raises(ZipDatumError):
        BasedAutomorphism(rs, [2, 1])


def test_minimal_reps_22(zd22):
    got = [w.one_line() for w in zd22.minimal_reps()]
    assert got == [
        [1, 2, 3, 4],
        [1, 3, 2, 4],
        [3, 1, 2, 4],
        [1, 3, 4, 2],
        [3, 1, 4, 2],
        [3, 4, 1, 2],
    ]


def test_minimal_reps_edge_subsets(zd22):
    assert len(zd22.minimal_reps(frozenset())) == 24
    assert zd22.minimal_reps(frozenset({1, 2, 3})) == [zd22.W.identity]


def test_twisted_leq_reflexive(zd22):
    for w in zd22.minimal_reps():
        assert zd22.twisted_leq(zd22.I, w, w)


def test_twisted_leq_cover_from_diagram(zd22):
    W = zd22.W
    assert zd22.twisted_leq(zd22.I, W.from_one_line([1, 3, 4, 2]), W.from_one_line([3, 1, 4, 2]))


def test_twisted_incomparable_pair(zd22):
    W = zd22.W
    a = W.from_one_line([1, 3, 4, 2])
    b = W.from_one_line([3, 1, 2, 4])
    assert not zd22.twisted_leq(zd22.I, a, b)
    assert not zd22.twisted_leq(zd22.I, b, a)


def test_twisted_leq_rejects_K_outside_I(zd22):
    with pytest.raises(ZipDatumError):
        zd22.twisted_leq(frozenset({2}), zd22.W.identity, zd22.W.identity)


def test_twisted_leq_rejects_non_minimal(zd22):
    s1 = zd22.W.simple(1)  # in W_I, so not in ^I W
    with pytest.raises(ZipDatumError):
        zd22.twisted_leq(zd22.I, s1, zd22.z)


def test_lower_neighbors_match_closure_diagram(zd22):
    W = zd22.W
    diagram = {
        (3, 4, 1, 2): [[3, 1, 4, 2]],
        (3, 1, 4, 2): [[3, 1, 2, 4], [1, 3, 4, 2]],
        (1, 3, 4, 2): [[1, 3, 2, 4]],
        (3, 1, 2, 4): [[1, 3, 2, 4]],
        (1, 3, 2, 4): [[1, 2, 3, 4]],
        (1, 2, 3, 4): [],
    }
    for label, lowers in diagram.items():
        got = [v.one_line() for v in zd22.lower_neighbors(zd22.I, W.from_one_line(label))]
        assert sorted(got) == sorted(lowers), label


def test_gamma_of_identity_is_empty(zd22):
    assert zd22.lower_neighbors(zd22.I, zd22.W.identity) == []


def test_canonical_types_22_table(zd22):
    table = {
        (3, 4, 1, 2): [1, 3],
        (3, 1, 4, 2): [],
        (1, 3, 4, 2): [],
        (3, 1, 2, 4): [],
        (1, 3, 2, 4): [],
        (1, 2, 3, 4): [1, 3],
    }
    for label, expected in table.items():
        w = zd22.W.from_one_line(label)
        assert sorted(zd22.canonical_type(w)) == expected


def test_canonical_types_32(zd32):
    W = zd32.W
    assert sorted(zd32.canonical_type(W.simple(3) * W.simple(4))) == [1, 4]
    assert sorted(zd32.canonical_type(W.simple(3) * W.simple(2))) == []


def test_canonical_type_53():
    zd = gl_zip_datum(8, 5)
    W = zd.W
    w2 = W.simple(5) * W.simple(4)
    assert sorted(zd.canonical_type(w2)) == [2, 4, 7]


def test_canonical_type_rejects_non_minimal(zd22):
    with pytest.raises(ZipDatumError):
        zd22.canonical_type(zd22.W.simple(1))


def test_canonical_type_is_phi_w_fixed(zd32):
    # (w z^-1) sigma(I_w) = I_w exactly
    for w in zd32.minimal_reps():
        Iw = zd32.canonical_type(w)
        images = {zd32.phi_w(w, zd32.rs.simple(k)).coords for k in Iw}
        assert images == {zd32.rs.simple(k).coords for k in Iw}


def test_lower_neighbor_restriction_lemma():
    # Gamma_{K'}(w) /\ ^K W is inside Gamma_K(w) for K' inside K, exhaustively
    # at rank <= 4
    for n, r in [(3, 2), (4, 2), (4, 3), (5, 3), (5, 2)]:
        zd = gl_zip_datum(n, r)
        subsets = [
            frozenset(c)
            for size in range(len(zd.I) + 1)
            for c in itertools.combinations(sorted(zd.I), size)
        ]
        for K in subsets:
            for Kp in subsets:
                if not Kp <= K:
                    continue
                for w in zd.minimal_reps(K):
                    inner = {v.key for v in zd.lower_neighbors(Kp, w) if zd.W.is_minimal_rep(v, K)}
                    outer = {v.key for v in zd.lower_neighbors(K, w)}
                    assert inner <= outer


def test_lower_neighbors_intern_no_scanned_candidate():
    # GL_6 (3,3), K = I with |W_K| = 36.  With the reflections, the candidate
    # level and w's inverse formed first, a call interns nothing: neither a
    # coatom of w nor any scanned x w' psi(x)^{-1}
    zd = gl_zip_datum(6, 3)
    W = zd.W
    for a in zd.rs.positive_roots:
        W.reflection(a)
    for w in zd.minimal_reps():
        W.minimal_reps_of_length(zd.I, w.length - 1)
        W.is_minimal_rep(w, zd.I)
        before = len(W._elements)
        zd.lower_neighbors(zd.I, w)
        assert len(W._elements) == before, w


def test_twisted_leq_implies_length_leq(zd22):
    reps = zd22.minimal_reps()
    for a in reps:
        for b in reps:
            if zd22.twisted_leq(zd22.I, a, b):
                assert a.length < b.length or a == b


def test_duality_poset_profile_matches():
    # swapping (r, s) gives isomorphic closure posets: same rank sizes and
    # cover multiset per length
    for r, s in [(3, 2), (4, 2)]:
        profiles = []
        for rr, ss in ((r, s), (s, r)):
            zd = gl_zip_datum(r + s, rr)
            reps = zd.minimal_reps()
            sizes = sorted(w.length for w in reps)
            covers = sorted(
                (w.length, v.length)
                for w in reps
                for v in zd.lower_neighbors(zd.I, w)
            )
            profiles.append((sizes, covers))
        assert profiles[0] == profiles[1]


def test_generic_datum_with_flip():
    # A_2 with the flip automorphism (the inert unitary picture): psi fixes
    # W_I and z = s_2 w_0 has word (1, 2)
    rs, lat = build_generic([[2, -1], [-1, 2]])
    zd = make_zip_datum(rs, frozenset({1}), BasedAutomorphism.flip(rs), lat)
    assert sorted(zd.J) == [1]
    assert zd.z.word == (1, 2)
    assert zd.psi(zd.W.simple(1)) == zd.W.simple(1)


def test_zip_datum_from_json_forms():
    from zipstrata.zipdatum import zip_datum_from_json

    zd = zip_datum_from_json('{"gl": {"n": 4, "r": 2}, "sigma": "id"}')
    assert zd.z.one_line() == [3, 4, 1, 2]
    zd2 = zip_datum_from_json(
        {"cartan": [[2, -1], [-1, 2]], "I": [1], "sigma": "flip"}
    )
    assert sorted(zd2.J) == [1]
    zd3 = zip_datum_from_json({"gl": {"n": 4, "r": 2}, "sigma": [3, 2, 1]})
    assert zd3.z.one_line() == [3, 4, 1, 2]


@pytest.mark.parametrize(
    "make",
    [
        lambda: BasedAutomorphism.flip(build_gl(5, 2)[0]),
        lambda: BasedAutomorphism.flip(build_generic(_A4)[0]),
        lambda: BasedAutomorphism(build_generic(_D4)[0], [3, 2, 4, 1]),
    ],
    ids=["GL5-flip", "A4-flip", "D4-triality"],
)
def test_apply_w_agrees_with_word_replay(make):
    # sigma(s_{k1} ... s_{kl}) = s_{sigma(k1)} ... s_{sigma(kl)}
    sigma = make()
    W = WeylGroup(sigma.rs)
    for w in W.elements():
        image = sigma.apply_w(W, w)
        assert image == W.from_word(sigma.delta_perm[k - 1] for k in w.word)
        assert image.length == w.length


def test_sigma_parse_forms():
    rs = build_generic(_D4)[0]
    assert BasedAutomorphism.parse(rs, "id").is_identity
    assert BasedAutomorphism.parse(rs, "3,2,4,1").delta_perm == (3, 2, 4, 1)
    assert BasedAutomorphism.parse(rs, [3, 2, 4, 1]).delta_perm == (3, 2, 4, 1)
    assert BasedAutomorphism.parse(build_gl(4, 2)[0], "flip").delta_perm == (3, 2, 1)
    with pytest.raises(ZipDatumError):
        BasedAutomorphism.parse(rs, "2,1,3,4")


def test_datum_and_pi_checks_survive_python_O():
    # under -O: a twist that sends simple reflections to w_0 breaks "psi
    # maps simples to simples"; an Xi that returns e breaks "pi preserves
    # length"; an in_parabolic that accepts nothing leaves the Xi walk empty
    script = (
        "from zipstrata import strata\n"
        "from zipstrata.weyl import InvariantViolation, WeylGroup\n"
        "from zipstrata.zipdatum import gl_zip_datum\n"
        "assert False, 'python -O keeps asserts'\n"
        "twist = WeylGroup.twist\n"
        "WeylGroup.twist = lambda W, w, p: (\n"
        "    W.longest_element(W.rs.delta_indices()) if w.length == 1 else twist(W, w, p))\n"
        "try:\n"
        "    gl_zip_datum(4, 2, sigma='flip')\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
        "WeylGroup.twist = twist\n"
        "zd = gl_zip_datum(4, 2)\n"
        "w = zd.W.from_one_line([1, 3, 2, 4])\n"
        "walk = strata.xi_of_weyl\n"
        "strata.xi_of_weyl = lambda zd, w: zd.W.identity\n"
        "try:\n"
        "    strata.pi_small(zd, w)\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
        "zd.W.in_parabolic = lambda u, K: False\n"
        "try:\n"
        "    walk(zd, w)\n"
        "except InvariantViolation as exc:\n"
        "    print(str(exc).split(' from ')[0])\n"
    )
    src = str(Path(make_zip_datum.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "psi must map simple reflections to simple reflections",
        "pi must preserve length on small elements",
        "the Xi walk",
    ]
