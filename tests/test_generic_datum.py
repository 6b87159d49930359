"""End-to-end runs on non-type-A and twisted data.

No external catalog pins these values, so the checks are the structural
invariants: conservation of sequence counts, the section property, length
monotonicity of Xi, verdict coherence, and witness validity.
"""

import itertools

import pytest

from test_hasse_solver import general_at_zero
from xi_oracle import xi_scan
from zipstrata.hasse import e_w_set, hasse_any_Lweight, hasse_feasible
from zipstrata.rootdata import build_generic
from zipstrata.strata import (
    decide_smooth,
    is_small,
    orbit_codim,
    pi_small,
    w_sequences,
    xi_of_weyl,
)
from zipstrata.weyl import WeylGroup
from zipstrata.zipdatum import BasedAutomorphism, gl_zip_datum, make_zip_datum


@pytest.fixture(scope="module")
def zd_b2():
    rs, lat = build_generic([[2, -1], [-2, 2]])
    return make_zip_datum(rs, frozenset({1}), lattice=lat)


@pytest.fixture(scope="module")
def zd_a2_flip():
    rs, lat = build_generic([[2, -1], [-1, 2]])
    return make_zip_datum(rs, frozenset({1}), BasedAutomorphism.flip(rs), lat)


@pytest.fixture(scope="module")
def zd22_flip():
    return gl_zip_datum(4, 2, sigma="flip")


def test_b2_minimal_reps_partition(zd_b2):
    reps = zd_b2.minimal_reps()
    assert len(reps) * zd_b2.W.parabolic_order(zd_b2.I) == 8


def test_generic_parabolic_order_is_counted_once(monkeypatch):
    # |W_K| comes from the height product: with every enumeration of W_K
    # refused, parabolic_order still gives the counts enumerated before, for
    # every K of B3, and the Xi walk still runs
    rs, lat = build_generic([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
    zd = make_zip_datum(rs, frozenset({2, 3}), lattice=lat)
    w = zd.W.from_word([1, 2, 1])
    first = xi_of_weyl(zd, w)
    subsets = [frozenset(K) for size in range(4)
               for K in itertools.combinations((1, 2, 3), size)]
    counted = {K: sum(1 for _ in zd.W.parabolic_keys(K)) for K in subsets}

    def refuse(*args):
        raise AssertionError("W_K was enumerated")

    monkeypatch.setattr(WeylGroup, "parabolic_keys", refuse)
    fresh = WeylGroup(rs)  # nothing memoized yet
    assert {K: fresh.parabolic_order(K) for K in subsets} == counted
    assert xi_of_weyl(zd, w) == first
    assert zd.W.parabolic_order(zd.I) == 8


def test_b2_sequence_conservation(zd_b2):
    noncompact = sum(
        1 for a in zd_b2.rs.positive_roots if not a.support() <= zd_b2.I
    )
    for w in zd_b2.W.elements():
        _, n_plus, n_minus = w_sequences(zd_b2, w * zd_b2.z.inverse())
        assert n_plus + n_minus == noncompact


def test_b2_xi_section_and_length(zd_b2):
    for w in zd_b2.W.elements():
        image = xi_of_weyl(zd_b2, w)
        assert image.length <= w.length
    for w in zd_b2.minimal_reps():
        assert pi_small(zd_b2, w) == w
        _, excess = orbit_codim(zd_b2, w)
        assert excess == w.length


def test_b2_decisions_are_coherent(zd_b2):
    for w in zd_b2.minimal_reps():
        for wp in zd_b2.lower_neighbors(zd_b2.I, w):
            verdict = decide_smooth(zd_b2, w, wp)
            assert verdict.smooth == (verdict.bounded and verdict.separating)
            if not verdict.separating:
                assert pi_small(zd_b2, verdict.certificate) == wp


def test_b2_hasse_witnesses_validate(zd_b2):
    for w in zd_b2.minimal_reps():
        lam, res = hasse_any_Lweight(zd_b2, w)
        if res.feasible:
            wit = res.witness
            moved = tuple(
                a - b
                for a, b in zip(
                    w.apply_weight(wit.scaled_integral, zd_b2.lattice),
                    zd_b2.z.apply_weight(wit.scaled_integral, zd_b2.lattice),
                )
            )
            assert moved == tuple(lam)
            for alpha in e_w_set(zd_b2, w):
                assert zd_b2.lattice.pairing(wit.scaled_integral, alpha) < 0
        else:
            assert res.certificate.replay()


def test_two_lattices_of_one_root_system_keep_their_own_coroot_tables():
    # A_2 on the lattice Z^3 of GL_3, then on its root lattice: the two zip
    # data share the root system and the Weyl group, and each weight-0
    # witness is a weight of its own lattice, fixed by w z^{-1} and strictly
    # negative on E_w, where the general elimination finds one too
    A2 = [[2, -1], [-1, 2]]
    rs, root_lattice = build_generic(A2)
    _, z3 = build_generic(A2, {"dim": 3, "pairing": [[1, 0], [-1, 1], [0, -1]],
                               "root_embedding": [[1, -1, 0], [0, 1, -1]]})
    for lattice in (z3, root_lattice):
        zd = make_zip_datum(rs, frozenset({1}), lattice=lattice)
        for w in zd.minimal_reps():
            res = hasse_feasible(zd, w, [0] * lattice.dim)
            assert general_at_zero(zd, w).feasible
            wit = res.witness.scaled_integral
            assert len(wit) == lattice.dim
            assert w.apply_weight(wit, lattice) == zd.z.apply_weight(wit, lattice)
            assert all(lattice.pairing(wit, alpha) < 0 for alpha in res.e_w)


def test_a2_flip_small_locus_and_xi(zd_a2_flip):
    # sigma has order 2; the operator precomposition must honor it
    for w in zd_a2_flip.W.elements():
        assert xi_of_weyl(zd_a2_flip, w).length <= w.length
    for w in zd_a2_flip.minimal_reps():
        assert is_small(zd_a2_flip, w)
        assert pi_small(zd_a2_flip, w) == w


def test_a2_flip_hasse_identity(zd_a2_flip):
    res = hasse_feasible(zd_a2_flip, zd_a2_flip.W.identity, (0, 0))
    assert res.feasible


def test_22_flip_full_decision_sweep(zd22_flip):
    assert zd22_flip.z.one_line() == [3, 4, 1, 2]
    verdicts = {}
    for w in zd22_flip.minimal_reps():
        for wp in zd22_flip.lower_neighbors(zd22_flip.I, w):
            v = decide_smooth(zd22_flip, w, wp)
            verdicts[(tuple(w.one_line()), tuple(wp.one_line()))] = v.smooth
            assert v.smooth == (v.bounded and v.separating)
    # frozen from the first validated run of the twisted sweep
    assert verdicts == {
        ((1, 3, 2, 4), (1, 2, 3, 4)): False,
        ((3, 1, 2, 4), (1, 3, 2, 4)): True,
        ((1, 3, 4, 2), (1, 3, 2, 4)): True,
        ((3, 1, 4, 2), (3, 1, 2, 4)): True,
        ((3, 1, 4, 2), (1, 3, 4, 2)): True,
        ((3, 4, 1, 2), (3, 1, 4, 2)): True,
    }


def test_22_flip_matches_untwisted_where_sigma_acts_trivially(zd22_flip, zd22):
    # at (2,2) the flip fixes I and w_{0,I}, so z agrees with the untwisted
    # datum and the minimal representatives coincide
    assert [w.one_line() for w in zd22_flip.minimal_reps()] == [
        w.one_line() for w in zd22.minimal_reps()
    ]


def test_flip_xi_agrees_with_scan_oracle():
    zd = gl_zip_datum(4, 2, sigma="flip")
    for w in zd.W.elements():
        assert xi_scan(zd, w) == xi_of_weyl(zd, w)
