import itertools
import random

import pytest

from xi_oracle import xi_scan
from zipstrata.strata import (
    NotSmallError,
    closure_codim1,
    decide_smooth,
    is_small,
    orbit_codim,
    pi_small,
    w_sequences,
    xi_of_weyl,
)
from zipstrata.zipdatum import ZipDatumError, gl_zip_datum


# ---------------------------------------------------------------------------
# w-sequences


def test_sequences_at_identity_operator(zd22):
    seqs, n_plus, n_minus = w_sequences(zd22, zd22.W.identity)
    assert (n_plus, n_minus) == (4, 0)
    for s in seqs:
        assert s.body == ()
        assert s.tail is s.head  # the operator fixes every root


def test_sequence_counts_sum_to_rs():
    rng = random.Random(3)
    for n, r in [(4, 2), (5, 3), (6, 4)]:
        zd = gl_zip_datum(n, r)
        els = list(zd.W.elements())
        for w in rng.sample(els, 12):
            _, n_plus, n_minus = w_sequences(zd, w * zd.z.inverse())
            assert n_plus + n_minus == r * (n - r)


def test_sequences_body_is_compact_head_noncompact(zd32):
    v = zd32.W.from_one_line([2, 4, 1, 5, 3]) * zd32.z.inverse()
    seqs, _, _ = w_sequences(zd32, v)
    for s in seqs:
        assert s.head.is_positive and not s.head.support() <= zd32.I
        assert all(b.support() <= zd32.I for b in s.body)
        assert not s.tail.support() <= zd32.I
        # the recursion beta_{i+1} = v sigma(beta_i) holds along the sequence
        roots = s.roots
        for a, b in zip(roots, roots[1:]):
            assert v.apply(zd32.sigma.apply_root(a)).coords == b.coords


def test_s5_sequences_all_negative_at_42(zd42):
    v = zd42.W.simple(5) * zd42.z.inverse()
    _, n_plus, _ = w_sequences(zd42, v)
    assert n_plus == 0


# ---------------------------------------------------------------------------
# smallness


def test_minimal_reps_are_small(zd22, zd32):
    for zd in (zd22, zd32):
        for w in zd.minimal_reps():
            assert is_small(zd, w)


def test_smallness_catalog_length_one(zd32, zd42):
    # gcd(3,2) = 1: both short reflections small; gcd(4,2) = 2: not small
    assert is_small(zd32, zd32.W.simple(4))
    assert is_small(zd32, zd32.W.simple(2))
    assert not is_small(zd42, zd42.W.simple(5))
    assert not is_small(zd42, zd42.W.simple(3))


def _two_condition_smallness(zd, w):
    """Independent smallness oracle: no positive-to-negative step inside a
    sequence body, and compact orbits of the operator are sign-constant."""
    v = w * zd.z.inverse()
    seqs, _, _ = w_sequences(zd, v)
    for s in seqs:
        roots = s.roots
        for i in range(1, len(roots) - 1):
            if roots[i].is_positive and not roots[i + 1].is_positive:
                return False
    # orbits of v sigma entirely inside Phi_L
    seen = set()
    for a in zd.rs.roots:
        if a.coords in seen or not a.support() <= zd.I:
            continue
        orbit = []
        cur = a
        while cur.coords not in {o.coords for o in orbit}:
            orbit.append(cur)
            cur = v.apply(zd.sigma.apply_root(cur))
        if all(o.support() <= zd.I for o in orbit):
            signs = {o.is_positive for o in orbit}
            if len(signs) > 1:
                return False
        seen.update(o.coords for o in orbit)
    return True


@pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (5, 2)])
def test_two_condition_criterion_matches_chain_count(n, r):
    zd = gl_zip_datum(n, r)
    for w in zd.W.elements():
        assert is_small(zd, w) == _two_condition_smallness(zd, w), w.one_line()


# ---------------------------------------------------------------------------
# Xi and pi


def test_xi_fixes_minimal_reps(zd22, zd32):
    for zd in (zd22, zd32):
        for w in zd.minimal_reps():
            assert xi_of_weyl(zd, w) == w


def test_xi_32_short_reflections(zd32):
    s3 = zd32.W.simple(3)
    assert xi_of_weyl(zd32, zd32.W.simple(4)) == s3
    assert xi_of_weyl(zd32, zd32.W.simple(2)) == s3


def test_xi_agrees_with_scan_oracle(zd32):
    for w in itertools.islice(zd32.W.elements(), 0, 120, 11):
        assert xi_scan(zd32, w) == xi_of_weyl(zd32, w)


def test_xi_shortens_length():
    for n, r in [(4, 2), (5, 3), (5, 2)]:
        zd = gl_zip_datum(n, r)
        for w in zd.W.elements():
            assert xi_of_weyl(zd, w).length <= w.length


def test_pi_small_is_section(zd22, zd32):
    for zd in (zd22, zd32):
        for w in zd.minimal_reps():
            assert pi_small(zd, w) == w


def test_pi_rejects_non_small(zd42):
    with pytest.raises(NotSmallError):
        pi_small(zd42, zd42.W.simple(5))


def test_pi_32_short_reflection(zd32):
    assert pi_small(zd32, zd32.W.simple(4)) == zd32.W.simple(3)


def test_sequence_conjugation_covariance(zd32):
    # sequences of the twisted operator w_1 v sigma(w_1)^{-1} are the
    # w_1-translates of the sequences of v, so the sign counts agree
    rng = random.Random(11)
    els = list(zd32.W.elements())
    wI = list(zd32.W.parabolic_elements(zd32.I))
    for _ in range(1000):
        v = rng.choice(els)
        w1 = rng.choice(wI)
        twisted = w1 * v * zd32.sigma.apply_w(zd32.W, w1).inverse()
        seqs1, np1, nm1 = w_sequences(zd32, v)
        seqs2, np2, nm2 = w_sequences(zd32, twisted)
        assert (np1, nm1) == (np2, nm2)
        lookup = {s.head.coords: s for s in seqs2}
        for s in seqs1:
            translated = lookup[w1.apply(s.head).coords]
            assert translated.roots == tuple(w1.apply(a) for a in s.roots)


def test_small_lower_neighbor_abundance():
    # |Gamma^sm_{I_0}(w)| >= |Gamma_I(w)| exhaustively at n <= 5
    for n, r in [(4, 2), (5, 3), (5, 2), (4, 3)]:
        zd = gl_zip_datum(n, r)
        subsets = [
            frozenset(c)
            for size in range(len(zd.I) + 1)
            for c in itertools.combinations(sorted(zd.I), size)
        ]
        for w in zd.minimal_reps():
            gamma_I = zd.lower_neighbors(zd.I, w)
            for I0 in subsets:
                small = [v for v in zd.lower_neighbors(I0, w) if is_small(zd, v)]
                assert len(small) >= len(gamma_I), (w.one_line(), sorted(I0))


# ---------------------------------------------------------------------------
# orbit dimensions


def test_orbit_codim_at_frame_and_identity(zd22):
    assert orbit_codim(zd22, zd22.z) == (0, 4)
    stab, excess = orbit_codim(zd22, zd22.W.identity)
    assert stab + excess == 4


def test_orbit_excess_is_length_on_minimal_reps(zd32):
    for w in zd32.minimal_reps():
        _, excess = orbit_codim(zd32, w)
        assert excess == w.length


# ---------------------------------------------------------------------------
# the smoothness decision


def test_decide_smooth_32(zd32):
    W = zd32.W
    w1 = W.simple(3) * W.simple(4)
    w2 = W.simple(3) * W.simple(2)
    wp = W.simple(3)
    v1 = decide_smooth(zd32, w1, wp)
    assert v1.smooth and v1.bounded and v1.separating
    v2 = decide_smooth(zd32, w2, wp)
    assert not v2.smooth and v2.bounded and not v2.separating
    assert v2.certificate == W.simple(2)
    assert pi_small(zd32, v2.certificate) == wp


def test_decide_smooth_84_unbounded():
    zd = gl_zip_datum(12, 8)
    W = zd.W
    w1 = W.simple(8) * W.simple(9)
    wp = W.simple(8)
    verdict = decide_smooth(zd, w1, wp)
    assert not verdict.bounded and not verdict.smooth
    assert verdict.bound_violation in verdict.I_w_prime


def test_decide_smooth_preconditions(zd22):
    W = zd22.W
    with pytest.raises(ZipDatumError, match="not in \\^I W"):
        decide_smooth(zd22, W.simple(1), W.identity)
    with pytest.raises(ZipDatumError, match="l\\(w'\\)"):
        decide_smooth(zd22, W.from_one_line([3, 1, 4, 2]), W.identity)


def test_decide_smooth_rejects_non_neighbor(zd32):
    W = zd32.W
    with pytest.raises(ZipDatumError, match="twisted order"):
        decide_smooth(
            zd32, W.from_one_line([4, 1, 2, 3, 5]), W.from_one_line([1, 2, 4, 5, 3])
        )


def test_verdict_json_shape(zd32):
    W = zd32.W
    verdict = decide_smooth(zd32, W.simple(3) * W.simple(2), W.simple(3))
    doc = verdict.to_json()
    assert doc["smooth"] is False
    assert doc["bounded"] is True
    assert doc["certificate"] == [1, 3, 2, 4, 5]
    assert doc["flag_dim"] == 2 + (5 + 10 + 4)  # l(w) + dim P


def test_closure_codim1_identity(zd22):
    ok, verdicts = closure_codim1(zd22, zd22.W.identity)
    assert ok and verdicts == {}


def test_closure_codim1_32(zd32):
    W = zd32.W
    ok1, _ = closure_codim1(zd32, W.simple(3) * W.simple(4))
    ok2, _ = closure_codim1(zd32, W.simple(3) * W.simple(2))
    assert ok1 and not ok2


def test_closure_codim1_equals_all_neighbors_smooth():
    for n, r in [(4, 2), (5, 3), (5, 2)]:
        zd = gl_zip_datum(n, r)
        for w in zd.minimal_reps():
            ok, verdicts = closure_codim1(zd, w)
            assert ok == all(v.smooth for v in verdicts.values()), w.one_line()
