import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fq_oracle
from zipstrata import glnzip
from zipstrata.fq import (
    Fq, FqSubspace, QQ, det, enumerate_gl, mat_identity, mat_mul, mat_inv)
from zipstrata.glnzip import (
    Signature,
    _char_poly,
    blocks_of,
    canonical_filtration,
    char_ha_coeffs,
    classify_22,
    delta,
    delta_prime,
    fp_point_census,
    inv_mod,
    label_of,
    length2_closed_form,
    perm_matrix,
    phi_map,
    pi_char_poly,
    trace,
    verify_length2,
    x_element,
    xi_classify,
)
from zipstrata.strata import pi_small, is_small, xi_of_weyl
from zipstrata.weyl import BudgetExceeded, budget_scope
from zipstrata.zipdatum import ZipDatumError

F2 = Fq(2)
F3 = Fq(3)
F4 = Fq(2, 2)


# the fields of the determinant identities below: odd and even
# characteristic, an extension field, and characteristic zero
_MINOR_FIELDS = [Fq(7), F4, QQ]
_MINOR_IDS = ["F7", "F4", "QQ"]


def _seeded_matrix(F, rng, n):
    if F is QQ:
        return tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
                     for _ in range(n))
    els = list(F.elements())
    return tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n))


def _random_invertible(F, n, rng):
    from zipstrata.fq import det

    els = list(F.elements())
    while True:
        g = tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n))
        if det(F, g) != F.zero:
            return g


def _zip_pair_sample(F, sig, m, rng):
    """A random element (x, y) of the exponent-m zip group over F.

    x = [[A,0],[C,D]] in P and y = [[sigma^m A, B'],[0, sigma^m D]] in Q share
    Levi parts up to sigma^m.  For m = 0 the Levi parts agree on the nose.
    """
    n, r, s = sig.n, sig.r, sig.s
    els = list(F.elements())
    A = _random_invertible(F, r, rng)
    D = _random_invertible(F, s, rng)
    C = tuple(tuple(rng.choice(els) for _ in range(r)) for _ in range(s))
    Bp = tuple(tuple(rng.choice(els) for _ in range(s)) for _ in range(r))
    x = tuple(
        tuple(
            (A[i][j] if j < r else F.zero) if i < r else
            (C[i - r][j] if j < r else D[i - r][j - r])
            for j in range(n)
        )
        for i in range(n)
    )
    sA = tuple(tuple(F.frobenius_pow(v, m) for v in row) for row in A)
    sD = tuple(tuple(F.frobenius_pow(v, m) for v in row) for row in D)
    y = tuple(
        tuple(
            (sA[i][j] if j < r else Bp[i][j - r]) if i < r else
            (F.zero if j < r else sD[i - r][j - r])
            for j in range(n)
        )
        for i in range(n)
    )
    return x, y


def test_signature_catalog_invariant():
    # w_1, w_2 are the only length-2 minimal representatives; w' the only
    # length-1 one
    for r, s in [(2, 2), (3, 2), (4, 3)]:
        sig = Signature(r, s)
        zd = sig.zip_datum()
        by_len = {}
        for w in zd.minimal_reps():
            by_len.setdefault(w.length, set()).add(w.key)
        assert by_len[1] == {sig.w_prime.key}
        assert by_len[2] == {sig.w1.key, sig.w2.key}


def test_inv_mod():
    assert inv_mod(2, 5) == 3
    assert inv_mod(3, 8) == 3
    with pytest.raises(ValueError):
        inv_mod(2, 8)


# ---------------------------------------------------------------------------
# the Dieudonne dictionary


def test_phi_map_identity_gives_projections():
    sig = Signature(1, 1)
    a, b = phi_map(F2, mat_identity(F2, 2), sig)
    assert a == ((1, 0), (0, 0))
    assert b == ((0, 0), (0, 1))


def test_phi_map_hand_example_over_f2():
    sig = Signature(1, 1)
    a, b = phi_map(F2, ((1, 1), (1, 0)), sig)
    assert a == ((1, 0), (1, 0))
    assert b == ((0, 0), (1, 1))
    zero = ((0, 0), (0, 0))
    assert mat_mul(F2, a, b) == zero and mat_mul(F2, b, a) == zero


def test_phi_map_rank_is_r():
    rng = random.Random(23)
    sig = Signature(2, 1)
    from zipstrata.fq import rank

    mats = list(enumerate_gl(F2, 3))
    for f in rng.sample(mats, 20):
        a, _ = phi_map(F2, f, sig)
        assert rank(F2, a) == 2


def test_canonical_filtration_identity_and_antidiagonal():
    chain = canonical_filtration(F2, mat_identity(F2, 2), 1)
    assert [c.rows for c in chain] == [(), ((1, 0),), ((1, 0), (0, 1))]
    chain = canonical_filtration(F2, ((0, 1), (1, 0)), 1)
    assert [c.rows for c in chain] == [(), ((0, 1),), ((1, 0), (0, 1))]


def test_filtration_endpoints_and_stability():
    # every step is F-stable and V^{-1}-stable, by the reference maps of
    # fq_oracle on the pair phi_map builds; endpoints are 0 and D
    rng = random.Random(5)
    sig = Signature(2, 2)
    mats = list(enumerate_gl(F2, 4))
    for f in rng.sample(mats, 30):
        a, b = phi_map(F2, f, sig)
        chain = canonical_filtration(F2, f, 2)
        assert chain[0].dim == 0 and chain[-1].dim == 4
        for step in chain:
            assert FqSubspace(F2, 4, fq_oracle.map_semilinear(F2, step.rows, a, 1)) <= step
            # V^{-1}-stability: step <= sigma({y : b y in step})
            assert step <= FqSubspace(F2, 4, fq_oracle.apply_frobenius(
                F2, fq_oracle.preimage(F2, step.rows, 4, b), 1))


def test_filtration_checks_survive_python_O():
    # the closure fed a = b = e_1 e_1^T, as F M = a sigma(M) and
    # V^{-1} M = sigma{y : b y in M}: on F^3 the family {0, <e1>, <e2,e3>, D}
    # has n + 1 members but is no chain; on F^2, {0, <e1>, <e2>, D} exceeds
    # n + 1.  The maps of a matrix g give a chain (and over F_2 with n <= 3
    # they do so even for singular g), so the one closure is fed these maps
    # directly: on tuple rows over F_3 through FqSubspace, and on packed rows
    # over F_2 (e_0 = 1, e_1 = 2).  The singular-matrix rejection, the rank
    # test of the packed kernel over F_2, is checked on its own.
    script = (
        "from zipstrata.fq import Fq, FqSubspace, mat_identity\n"
        "from zipstrata.glnzip import _close_chain, _image_maps, canonical_filtration\n"
        "from zipstrata.weyl import InvariantViolation\n"
        "assert False, 'python -O keeps asserts'\n"
        "F3, F2 = Fq(3), Fq(2)\n"
        "e11 = tuple(tuple(int(i == j == 0) for j in range(3)) for i in range(3))\n"
        "def tuple_step(rows, m):\n"
        "    sp = FqSubspace(F3, 3, rows)\n"
        "    return sp.map_semilinear(e11, 1).rows, sp.preimage(e11).apply_frobenius(1).rows\n"
        "def packed_step(rows, m):\n"
        "    f_img = (1,) if any(v & 1 for v in rows) else ()\n"
        "    return f_img, ((1, 2) if 1 in rows else (2,))\n"
        "for F, n, step in ((F3, 3, tuple_step), (F2, 2, packed_step)):\n"
        "    kernel = _image_maps(F, mat_identity(F, n), 1)._replace(step=step)\n"
        "    try:\n"
        "        _close_chain(kernel, 1)\n"
        "    except InvariantViolation as exc:\n"
        "        print(exc)\n"
        "try:\n"
        "    canonical_filtration(F2, ((1, 1), (1, 1)), 1)\n"
        "except ZeroDivisionError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(canonical_filtration.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "canonical family is not a chain; implementation bug",
        "canonical family exceeds n + 1 = 3 subspaces; it is not a chain",
        "matrix is singular",
    ]


# ---------------------------------------------------------------------------
# xi_classify


def test_xi_classify_fixes_minimal_reps(zd22):
    for w in zd22.minimal_reps():
        assert xi_classify(zd22, F2, perm_matrix(F2, w)) == w


def test_xi_classify_matches_combinatorial_on_all_of_w(zd32):
    for w in itertools.islice(zd32.W.elements(), 0, 120, 7):
        got = xi_classify(zd32, F2, perm_matrix(F2, w))
        assert got == xi_of_weyl(zd32, w)


def test_xi_classify_matches_combinatorial_every_signature_n_le_4():
    from zipstrata.zipdatum import gl_zip_datum

    for n in (2, 3, 4):
        for r in range(1, n):
            zd = gl_zip_datum(n, r)
            for w in zd.W.elements():
                assert xi_classify(zd, F2, perm_matrix(F2, w)) == xi_of_weyl(zd, w)


def test_gl2_f4_census_realizes_both_strata():
    sig = Signature(1, 1)
    report = fp_point_census(sig, 4, [1])
    assert report["counts"]["1"] == {"1,2": 36, "2,1": 144}
    assert report["total"] == 180


def test_gl2_f8_census_obeys_point_count_law():
    # sigma^m differs for m = 1, 2, 3 on F_8; every stratum w has
    # |P(F_8)| 8^{l(w)} points, with |P(F_8)| = 7 * 7 * 8 = 392
    report = fp_point_census(Signature(1, 1), 8, [1, 2, 3])
    assert report["total"] == 3528
    law = {"1,2": {"expected": 392, "matched": True},
           "2,1": {"expected": 3136, "matched": True}}
    assert report["point_count_law"] == {str(m): law for m in (1, 2, 3)}
    assert all(report["counts"][str(m)] == {"1,2": 392, "2,1": 3136} for m in (1, 2, 3))


def test_gl3_f4_census_obeys_point_count_law_for_both_exponents():
    # the stress census of signature (2,1) over F_4, where sigma^1 != sigma^2:
    # |P(F_4)| = 15 * 12 * 3 * 4^2 = 8640, and the strata of lengths 0, 1, 2
    # have 8640 * 4^l points for m = 1 and m = 2 alike
    report = fp_point_census(Signature(2, 1), 4, [1, 2])
    counts = {"1,2,3": 8640, "1,3,2": 34560, "3,1,2": 138240}
    assert report["total"] == sum(counts.values()) == 181440
    assert report["counts"] == {"1": counts, "2": counts}
    assert report["counts_m_independent"]
    assert all(row["matched"] for law in report["point_count_law"].values()
               for row in law.values())


def test_census_classifies_every_point_once_per_exponent(monkeypatch):
    # sigma^1 != sigma^2 on F_4, so the filtration of a point depends on m:
    # the profile is taken for every (point, m) with that m, never once per
    # point with its label copied to the other exponents
    sig = Signature(1, 1)
    zd = sig.zip_datum()
    glnzip._model_table(zd)  # built before recording: it classifies models
    seen, built = [], []
    image_maps, profile = glnzip._image_maps, glnzip._stratum_invariant

    def record_maps(F, g, r):
        built.append((image_maps(F, g, r), g))
        return built[-1][0]

    def record(kernel, m):
        seen.append((next(g for k, g in built if k is kernel), m))
        return profile(kernel, m)

    monkeypatch.setattr(glnzip, "_image_maps", record_maps)
    monkeypatch.setattr(glnzip, "_stratum_invariant", record)
    report = fp_point_census(sig, 4, [1, 2])
    z_inverse = perm_matrix(F4, zd.z.inverse())
    points = [fq_oracle.mat_mul(F4, f, z_inverse) for f in enumerate_gl(F4, 2)]
    assert len(points) == report["total"] == 180
    assert sorted(seen) == sorted((g, m) for g in points for m in (1, 2))


def test_xi_classify_zip_orbit_invariance(zd22):
    # the strata are the E_m-orbits, so classifying g z by Xi is invariant
    # under g |-> x g y^{-1} for zip pairs (x, y) of exponent m
    rng = random.Random(42)
    sig = Signature(2, 2)
    zmat = perm_matrix(F2, zd22.z)
    zmat4 = perm_matrix(F4, zd22.z)
    for F, zm in ((F2, zmat), (F4, zmat4)):
        for m in (1, 2):
            for _ in range(12):
                g = _random_invertible(F, 4, rng)
                x, y = _zip_pair_sample(F, sig, m, rng)
                moved = mat_mul(F, mat_mul(F, x, g), mat_inv(F, y))
                got = xi_classify(zd22, F, mat_mul(F, moved, zm), m)
                want = xi_classify(zd22, F, mat_mul(F, g, zm), m)
                assert got == want


def test_xi_classify_m_independent_pointwise_over_prime_field(zd22):
    rng = random.Random(9)
    mats = list(enumerate_gl(F2, 4))
    for f in rng.sample(mats, 25):
        labels = {xi_classify(zd22, F2, f, m).key for m in (1, 2, 3)}
        assert len(labels) == 1


@pytest.mark.parametrize("f,message", [
    (mat_identity(F2, 5), "the matrix must be 4 x 4 for this GL_4 datum"),
    (mat_identity(F2, 3), "the matrix must be 4 x 4 for this GL_4 datum"),
    (((1, 0, 0, 0), (0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
     "the matrix must be 4 x 4 for this GL_4 datum"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)),
     "matrix entries must be elements of F_2: integers 0..1"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
     "matrix entries must be elements of F_2: integers 0..1"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1.0)),
     "matrix entries must be elements of F_2: integers 0..1"),
])
def test_xi_classify_rejects_malformed_matrices(zd22, f, message):
    # each used to escape as ZeroDivisionError, IndexError or KeyError
    with pytest.raises(ZipDatumError) as exc:
        xi_classify(zd22, F2, f)
    assert str(exc.value) == message


def test_xi_classify_rejects_singular_matrices(zd22):
    with pytest.raises(ZeroDivisionError, match="^matrix is singular$"):
        xi_classify(zd22, F4, ((1, 2, 3, 0),) * 4)


# ---------------------------------------------------------------------------
# (2,2) closed form


def test_classify_22_delta_invertible_is_top():
    g = mat_identity(F2, 4)
    assert classify_22(F2, g) == (3, 4, 1, 2)


def test_classify_22_delta_zero_is_bottom():
    g = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    assert classify_22(F2, g) == (1, 2, 3, 4)


def test_classify_22_works_over_rationals():
    g = tuple(
        tuple(Fraction(x) for x in row)
        for row in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    assert classify_22(QQ, g) == (3, 4, 1, 2)


def test_delta_prime_block_diagonal():
    # for g = diag(A, D) with C = B = 0: Delta'(g) = det(A) D
    A = ((1, 2), (3, 5))
    D = ((7, 1), (2, 4))
    g = tuple(
        tuple(Fraction(v) for v in row)
        for row in (
            (1, 2, 0, 0),
            (3, 5, 0, 0),
            (0, 0, 7, 1),
            (0, 0, 2, 4),
        )
    )
    dp = delta_prime(QQ, g, 2)
    detA = Fraction(1 * 5 - 2 * 3)
    assert dp == tuple(tuple(detA * Fraction(x) for x in row) for row in D)


def test_delta_covariance_under_zip_pairs():
    # Delta(x g y^{-1}) = Delta(x) Delta(g) Delta(x)^{-1} and the D-block
    # analogue for Delta', for m = 0 pairs (equal Levi parts)
    rng = random.Random(31)
    sig = Signature(2, 2)
    F = Fq(7)
    els = list(F.elements())
    for _ in range(25):
        g = None
        while g is None:
            cand = tuple(tuple(rng.choice(els) for _ in range(4)) for _ in range(4))
            from zipstrata.fq import det

            if det(F, cand) != 0:
                g = cand
        x, y = _zip_pair_sample(F, sig, 0, rng)
        moved = mat_mul(F, mat_mul(F, x, g), mat_inv(F, y))
        dx = delta(F, x, 2)
        lhs = delta(F, moved, 2)
        rhs = mat_mul(F, mat_mul(F, dx, delta(F, g, 2)), mat_inv(F, dx))
        assert lhs == rhs
        Dx = blocks_of(F, x, 2)[3]
        lhs2 = delta_prime(F, moved, 2)
        rhs2 = mat_mul(F, mat_mul(F, Dx, delta_prime(F, g, 2)), mat_inv(F, Dx))
        assert lhs2 == rhs2


def test_classify_22_constant_on_zip_orbits():
    rng = random.Random(77)
    sig = Signature(2, 2)
    for _ in range(25):
        f = _random_invertible(F3, 4, rng)
        x, y = _zip_pair_sample(F3, sig, 0, rng)
        moved = mat_mul(F3, mat_mul(F3, x, f), mat_inv(F3, y))
        assert classify_22(F3, moved) == classify_22(F3, f)


def test_classify_22_degenerations_respect_diagram(zd22):
    # pointwise: if g lies in stratum w, then g satisfies the closed
    # conditions of every stratum above w in the closure order
    closed_conditions = {
        (3, 4, 1, 2): lambda F, g: True,
        (3, 1, 4, 2): lambda F, g: _ha0(F, g) == F.zero,
        (1, 3, 4, 2): lambda F, g: _ha0(F, g) == F.zero and _ha1p(F, g) == F.zero,
        (3, 1, 2, 4): lambda F, g: _ha0(F, g) == F.zero and _ha1(F, g) == F.zero,
        (1, 3, 2, 4): lambda F, g: _ha0(F, g) == F.zero
        and _ha1(F, g) == F.zero
        and _ha1p(F, g) == F.zero,
        (1, 2, 3, 4): lambda F, g: all(x == F.zero for row in delta(F, g, 2) for x in row),
    }
    order = {}  # label -> set of labels weakly above it
    reps = zd22.minimal_reps()
    for w in reps:
        above = {tuple(v.one_line()) for v in reps if zd22.twisted_leq(zd22.I, w, v)}
        order[tuple(w.one_line())] = above
    for g in itertools.islice(enumerate_gl(F2, 4), 0, 20160, 97):
        lab = classify_22(F2, g)
        for upper in order[lab]:
            assert closed_conditions[upper](F2, g), (lab, upper)


def _ha0(F, g):
    from zipstrata.fq import det

    return det(F, delta(F, g, 2))


def _ha1(F, g):
    from zipstrata.glnzip import trace

    return trace(F, delta(F, g, 2))


def _ha1p(F, g):
    from zipstrata.glnzip import trace

    return trace(F, delta_prime(F, g, 2))


def test_delta_invariants_do_not_separate_32_short_strata():
    # recorded negative: at (3,2) the stratum representatives w z^{-1} for
    # w = e and w = s_3 lie in different strata but have conjugate Delta and
    # conjugate Delta', so the pair (Delta, Delta') is non-injective there
    zd = Signature(3, 2).zip_datum()
    W = zd.W
    g0 = perm_matrix(F2, zd.z.inverse())
    g1 = perm_matrix(F2, W.simple(3) * zd.z.inverse())
    zmat = perm_matrix(F2, zd.z)
    lab0 = label_of(xi_classify(zd, F2, mat_mul(F2, g0, zmat)))
    lab1 = label_of(xi_classify(zd, F2, mat_mul(F2, g1, zmat)))
    assert lab0 == (1, 2, 3, 4, 5) and lab1 == (1, 2, 4, 3, 5)

    def conjugate(A, B):
        return any(
            mat_mul(F2, mat_mul(F2, P, A), mat_inv(F2, P)) == B
            for P in enumerate_gl(F2, len(A))
        )

    assert conjugate(delta(F2, g0, 3), delta(F2, g1, 3))
    assert conjugate(delta_prime(F2, g0, 3), delta_prime(F2, g1, 3))


@pytest.mark.parametrize("F", _MINOR_FIELDS, ids=_MINOR_IDS)
def test_delta_prime_is_the_schur_complement_times_det_a(F):
    # A invertible: Adj(A) = det(A) A^{-1}, so Delta' = det(A) D - C Adj(A) B
    rng = random.Random(20)
    for n, r in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 4)]:
        checked = 0
        while checked < 6:
            g = _seeded_matrix(F, rng, n)
            A, B, C, D = blocks_of(F, g, r)
            dA = det(F, A)
            if dA == F.zero:
                continue
            adj = tuple(tuple(F.mul(dA, x) for x in row) for row in mat_inv(F, A))
            CAdjB = mat_mul(F, mat_mul(F, C, adj), B)
            expected = tuple(
                tuple(F.sub(F.mul(dA, d), x) for d, x in zip(drow, crow))
                for drow, crow in zip(D, CAdjB)
            )
            assert delta_prime(F, g, r) == expected
            checked += 1


@pytest.mark.parametrize("F", _MINOR_FIELDS, ids=_MINOR_IDS)
def test_delta_prime_with_a_singular_block_matches_the_2x2_adjugate(F):
    # A = [[a, b], [c, d]] singular, Adj(A) = [[d, -b], [-c, a]]:
    # Delta' = -C Adj(A) B; the second row of A is t times the first, or
    # the first row is zero
    rng = random.Random(21)
    for n in (3, 4, 5):
        for trial in range(8):
            g = _seeded_matrix(F, rng, n)
            (a, b), t = g[0][:2], g[1][0]
            if trial % 2:
                a = b = F.zero
            c, d = F.mul(t, a), F.mul(t, b)
            g = ((a, b) + g[0][2:], (c, d) + g[1][2:]) + g[2:]
            _, B, C, _ = blocks_of(F, g, 2)
            adj = ((d, F.neg(b)), (F.neg(c), a))
            CAdjB = mat_mul(F, mat_mul(F, C, adj), B)
            assert delta_prime(F, g, 2) == tuple(
                tuple(F.neg(x) for x in row) for row in CAdjB)


# ---------------------------------------------------------------------------
# (n-1,1) invariants


@pytest.mark.parametrize("F", _MINOR_FIELDS, ids=_MINOR_IDS)
def test_char_poly_satisfies_cayley_hamilton(F):
    # sum_k c_k A^k = 0, c_r = 1, c_{r-1} = -Tr A and c_0 = (-1)^r det A
    rng = random.Random(22)
    for r in range(1, 7):
        for _ in range(6):
            A = _seeded_matrix(F, rng, r)
            c = _char_poly(F, A)
            assert len(c) == r + 1 and c[r] == F.one
            assert c[r - 1] == F.neg(trace(F, A))
            assert c[0] == (F.neg(det(F, A)) if r % 2 else det(F, A))
            total = [[F.zero] * r for _ in range(r)]
            power = mat_identity(F, r)
            for ck in c:
                for i in range(r):
                    for j in range(r):
                        total[i][j] = F.add(total[i][j], F.mul(ck, power[i][j]))
                power = mat_mul(F, power, A)
            assert all(x == F.zero for row in total for x in row)
            g = tuple(row + (F.zero,) for row in A) + ((F.zero,) * r + (F.one,),)
            assert char_ha_coeffs(F, g, Signature(r, 1)) == c[:r]


def test_char_ha_coeffs_gl3():
    sig = Signature(2, 1)
    g = tuple(
        tuple(Fraction(v) for v in row)
        for row in ((2, 1, 0), (4, 3, 0), (0, 0, 1))
    )
    coeffs = char_ha_coeffs(QQ, g, sig)
    # char of [[2,1],[4,3]] is X^2 - 5X + 2: constant (-1)^{n-1} det, and the
    # X-coefficient is minus the displayed trace section x_11 + x_22
    assert coeffs == (Fraction(2), Fraction(-5))


def test_char_ha_zero_block():
    # char of the zero block is X^{n-1}; only possible off GL_n, which is
    # fine since the coefficients are polynomial in g
    sig = Signature(3, 1)
    g = tuple(tuple(0 for _ in range(4)) for _ in range(4))
    coeffs = char_ha_coeffs(F2, g, sig)
    assert coeffs == (0, 0, 0)


def test_char_ha_det_sign_relation():
    rng = random.Random(3)
    sig = Signature(4, 1)
    F = Fq(7)
    els = list(F.elements())
    from zipstrata.fq import det

    for _ in range(20):
        g = tuple(tuple(rng.choice(els) for _ in range(5)) for _ in range(5))
        coeffs = char_ha_coeffs(F, g, sig)
        assert coeffs[0] == F.mul((-1) ** 4 % 7, det(F, delta(F, g, 4)))


def test_pi_char_poly_fixes_x_i():
    for n in (3, 4, 5):
        sig = Signature(n - 1, 1)
        for i in range(n):
            assert pi_char_poly(sig, x_element(sig, i)) == i


def test_pi_char_poly_agrees_with_pi_small():
    for n in (4, 5):
        sig = Signature(n - 1, 1)
        zd = sig.zip_datum()
        for w in zd.W.elements():
            if not is_small(zd, w):
                continue
            i = pi_char_poly(sig, w)
            assert x_element(sig, i) == pi_small(zd, w)


def test_pi_char_poly_valuation_bound():
    sig = Signature(4, 1)
    zd = sig.zip_datum()
    rng = random.Random(2)
    els = list(zd.W.elements())
    for w in rng.sample(els, 30):
        i = pi_char_poly(sig, w)
        assert (sig.n - 1 - i) <= w.length  # l(x_i) <= l(w)


def test_pi_char_poly_deterministic_under_seed():
    sig = Signature(3, 1)
    w = sig.zip_datum().W.from_one_line([2, 3, 4, 1])
    assert pi_char_poly(sig, w, seed=123) == pi_char_poly(sig, w, seed=123)


# ---------------------------------------------------------------------------
# length-2 closed form and censuses


def test_length2_closed_form_branches():
    assert length2_closed_form(Signature(3, 2))["U1"]["smooth"] is True
    assert length2_closed_form(Signature(3, 2))["U2"]["smooth"] is False
    both = length2_closed_form(Signature(4, 2))
    assert both["U1"]["smooth"] and both["U2"]["smooth"]
    unb = length2_closed_form(Signature(8, 4))
    assert not unb["U1"]["bounded"] and not unb["U2"]["bounded"]


def test_length2_rejects_s1():
    with pytest.raises(ValueError):
        length2_closed_form(Signature(4, 1))


def test_verify_length2_cross_checks():
    for r, s in [(3, 2), (4, 2), (3, 3)]:
        report = verify_length2(Signature(r, s))
        assert report["U1"]["agrees"] and report["U2"]["agrees"]


@pytest.mark.parametrize("m_list", [[], [0], [2, 2]], ids=["empty", "zero", "repeated"])
def test_census_refuses_bad_exponents_before_any_point(monkeypatch, m_list):
    def no_points(F, n):
        raise AssertionError("a point was enumerated")

    monkeypatch.setattr(glnzip, "enumerate_gl", no_points)
    with pytest.raises(ZipDatumError, match="^census exponents must be distinct and >= 1"):
        fp_point_census(Signature(2, 1), 2, m_list)


def test_census_budget_rejection():
    with pytest.raises(BudgetExceeded):
        fp_point_census(Signature(3, 2), 2, [1])
    with pytest.raises(BudgetExceeded):
        fp_point_census(Signature(2, 1), 11, [1])


def test_census_is_capped_by_the_request_budget():
    # |GL_2(F_2)| = 6: the census refuses it under budget 5 and runs at 6
    message = r"^\|GL_2\(F_2\)\| = 6 exceeds budget 5$"
    with budget_scope(5), pytest.raises(BudgetExceeded, match=message):
        fp_point_census(Signature(1, 1), 2, [1])
    with budget_scope(6):
        assert fp_point_census(Signature(1, 1), 2, [1])["total"] == 6


def test_census_gl2_f2_partitions_group():
    report = fp_point_census(Signature(1, 1), 2, [1, 2])
    counts = report["counts"]["1"]
    assert sum(counts.values()) == 6
    assert report["counts_m_independent"]
    assert report["pointwise_m_independent"]


def test_gl3_pointwise_strata_match_char_valuation():
    # at (2,1) the stratum of each rational point is read off the valuation
    # of char_{Delta(g)}: det block nonzero -> open stratum x_0, else trace
    # nonzero -> x_1, else the closed stratum x_2; the exponent-1 classifier
    # must agree on every F_2-point
    sig = Signature(2, 1)
    zd = sig.zip_datum()
    zmat = perm_matrix(F2, zd.z)
    for g in enumerate_gl(F2, 3):
        coeffs = char_ha_coeffs(F2, g, sig)
        val = next(k for k, c in enumerate(coeffs + (F2.one,)) if c != F2.zero)
        member = xi_classify(zd, F2, mat_mul(F2, g, zmat), 1)
        assert member == x_element(sig, val)
