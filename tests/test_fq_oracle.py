"""Whole-row F_q elimination and the worklist canonical filtration against
the entry-by-entry reference in `fq_oracle`, on seeded random inputs over
F_2, F_3, F_4, F_8 and F_9 with Frobenius exponents m = 1, 2, 3 (on the
extension fields sigma^m is the identity for some m and not for others);
and the pivot-count stratum profile against intersections of subspaces.
The kernels `rref`, `det` and subspace containment are also checked on
every shape over F_5 and QQ, `det` against a Leibniz sum as well.

The filtration takes both maps as images under g; the reference closes the
pair (a, b) of `_phi_pair` with preimages, round by round.  With the cut of
V^{-1} moved by one, the comparison must fail.
"""

import itertools
import random
from fractions import Fraction

import pytest

import fq_oracle
from zipstrata import glnzip
from zipstrata.fq import (
    QQ,
    Fq,
    FqSubspace,
    det,
    kernel_basis,
    mat_identity,
    mat_inv,
    mat_mul,
    rref,
)
from zipstrata.glnzip import _phi_pair, _stratum_invariant, canonical_filtration
from zipstrata.weyl import InvariantViolation
from zipstrata.zipdatum import gl_zip_datum

FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]
EXPONENTS = [1, 2, 3]


def _ids(field):
    p, k = field
    return f"F{p ** k}"


def _rand_rows(F, rng, count, n):
    """``count`` random combinations of a random set of at most n vectors,
    so that ranks, repeats and zero rows all occur."""
    els = list(F.elements())
    base = [[rng.choice(els) for _ in range(n)] for _ in range(rng.randint(0, n))]
    rows = []
    for _ in range(count):
        row = [F.zero] * n
        for v in base:
            c = rng.choice(els)
            row = [fq_oracle._add(F, x, F.mul(c, y)) for x, y in zip(row, v)]
        rows.append(tuple(row))
    return rows


def _rand_matrix(F, rng, n):
    els = list(F.elements())
    return tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n))


def _rand_invertible(F, rng, n):
    while True:
        f = _rand_matrix(F, rng, n)
        if len(fq_oracle.rref(F, f)) == n:
            return f


@pytest.mark.parametrize("field", FIELDS, ids=_ids)
def test_rref_and_kernel_match_reference(field):
    F = Fq(*field)
    rng = random.Random(field[0] * 10 + field[1])
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = _rand_rows(F, rng, rng.randint(0, 7), n)
        assert rref(F, rows) == fq_oracle.rref(F, rows), rows
        # the same subspace as the reference kernel, and in its canonical form
        assert kernel_basis(F, rows, n) == fq_oracle.rref(
            F, fq_oracle.kernel_basis(F, rows, n)), rows


@pytest.mark.parametrize("m", EXPONENTS)
@pytest.mark.parametrize("field", FIELDS, ids=_ids)
def test_subspace_maps_match_reference(field, m):
    F = Fq(*field)
    rng = random.Random(field[0] * 100 + field[1] * 10 + m)
    els = list(F.elements())
    for _ in range(150):
        n = rng.randint(1, 5)
        sp = FqSubspace.from_vectors(F, n, _rand_rows(F, rng, rng.randint(0, n + 1), n))
        A = _rand_matrix(F, rng, n)
        assert sp.preimage(A).rows == fq_oracle.preimage(F, sp.rows, n, A)
        assert sp.map_semilinear(A, m).rows == fq_oracle.map_semilinear(F, sp.rows, A, m)
        assert sp.apply_frobenius(m).rows == fq_oracle.apply_frobenius(F, sp.rows, m)
        v = tuple(rng.choice(els) for _ in range(n))
        assert sp.contains(v) == (len(fq_oracle.rref(F, sp.rows + (v,))) == sp.dim)


@pytest.mark.parametrize("field", FIELDS, ids=_ids)
def test_inverse_and_determinant(field):
    F = Fq(*field)
    rng = random.Random(field[0] * 1000 + field[1])
    for _ in range(100):
        n = rng.randint(1, 5)
        f, g = _rand_invertible(F, rng, n), _rand_matrix(F, rng, n)
        assert fq_oracle.mat_mul(F, f, mat_inv(F, f)) == mat_identity(F, n)
        assert mat_mul(F, f, g) == fq_oracle.mat_mul(F, f, g)
        assert det(F, f) != F.zero
        assert det(F, fq_oracle.mat_mul(F, f, g)) == F.mul(det(F, f), det(F, g))
        if len(fq_oracle.rref(F, g)) < n:
            assert det(F, g) == F.zero
            with pytest.raises(ZeroDivisionError):
                mat_inv(F, g)


def _filtration_against_reference(field, m):
    """(chain, reference chain) on seeded invertible g with n = 2..5 and every
    cut r; the reference closes the pair (a, b) of `_phi_pair` round by round
    with preimages.  A chain the closure rejects is None."""
    F = Fq(*field)
    rng = random.Random(field[0] * 7 + field[1] * 3 + m)
    for _ in range(40):
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        g = _rand_invertible(F, rng, n)
        try:
            chain = [sp.rows for sp in canonical_filtration(F, g, r, m)]
        except InvariantViolation:
            chain = None
        yield chain, fq_oracle.canonical_filtration(F, *_phi_pair(F, g, n, r, m), m)


@pytest.mark.parametrize("m", EXPONENTS)
@pytest.mark.parametrize("field", FIELDS, ids=_ids)
def test_filtration_matches_round_based_reference(field, m):
    for chain, want in _filtration_against_reference(field, m):
        assert chain == want


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("m", EXPONENTS)
@pytest.mark.parametrize("field", FIELDS, ids=_ids)
def test_a_moved_v_inverse_cut_breaks_the_comparison(monkeypatch, field, m, shift):
    # V^{-1} M = g(W_1 + (N /\ W_2)) taken with the cut at r - 1 (mostly a
    # family the chain check rejects) or r + 1 (mostly a wrong chain)
    image_maps = glnzip._image_maps

    def moved(F, g, r, m, ends):
        f_map = image_maps(F, g, r, m, ends)
        v_map = image_maps(F, g, min(r + shift, len(g) - 1), m, ends)
        return lambda sp: (f_map(sp)[0], v_map(sp)[1])

    monkeypatch.setattr(glnzip, "_image_maps", moved)
    assert any(chain != want for chain, want in _filtration_against_reference(field, m))


def test_rational_rows_match_reference():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                for _ in range(rng.randint(0, 6))]
        assert rref(QQ, rows) == fq_oracle.rref(QQ, rows), rows
        if len(rows) == n and len(fq_oracle.rref(QQ, rows)) == n:
            assert fq_oracle.mat_mul(QQ, rows, mat_inv(QQ, rows)) == mat_identity(QQ, n)
            assert det(QQ, rows) != 0


def _reference_profile(F, g, n, r, m):
    """(dim D_i, dim(V(D) /\\ D_i)) with V(D) the echelon form of b's columns
    and each intersection dimension through the sum of subspaces."""
    _, b = _phi_pair(F, g, n, r, m)
    vd = FqSubspace.from_vectors(F, n, zip(*b))
    # the fact the pivot count rests on: V(D) = span(e_r, ..., e_{n-1})
    assert vd.rows == mat_identity(F, n)[r:]
    return tuple((c.dim, vd.dim + c.dim - vd.sum(c).dim)
                 for c in canonical_filtration(F, g, r, m))


def _rand_near_monomial(F, rng, n):
    """A scaled permutation matrix with up to two entries overwritten; unlike
    uniform matrices, these land in the small strata too."""
    nonzero = list(F.elements())[1:]
    perm = rng.sample(range(n), n)
    while True:
        g = [[F.zero] * n for _ in range(n)]
        for i, j in enumerate(perm):
            g[i][j] = rng.choice(nonzero)
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(n), 2)
            g[i][j] = rng.choice(list(F.elements()))
        if len(fq_oracle.rref(F, g)) == n:
            return tuple(map(tuple, g))


@pytest.mark.parametrize("field", FIELDS + [(5, 1)], ids=_ids)
def test_stratum_profile_matches_intersection_reference(field):
    F = Fq(*field)
    rng = random.Random(field[0] * 31 + field[1])
    for n in range(2, 7):
        for r in range(1, n):
            zd = gl_zip_datum(n, r)
            for m in EXPONENTS:
                for sample in (_rand_invertible, _rand_near_monomial) * 5:
                    g = sample(F, rng, n)
                    assert _stratum_invariant(zd, F, g, m) == _reference_profile(
                        F, g, n, r, m), (g, r, m)


# ---------------------------------------------------------------------------
# the kernels on every shape: rref, det and subspace containment

KERNEL_FIELDS = [Fq(2), Fq(3), Fq(2, 2), Fq(5), Fq(3, 2), QQ]


def _kernel_ids(F):
    return "QQ" if F is QQ else f"F{F.q}"


def _elements(F):
    if F is QQ:
        return sorted({Fraction(a, b) for a in range(-2, 3) for b in (1, 2)})
    return list(F.elements())


def _combinations(F, rng, count, n, base):
    """``count`` random combinations of the vectors in ``base``, each of
    length n, with a zero row now and then."""
    els = _elements(F)
    rows = []
    for _ in range(count):
        row = [F.zero] * n
        if rng.random() > 0.15:
            for v in base:
                c = rng.choice(els)
                row = [fq_oracle._add(F, x, F.mul(c, y)) for x, y in zip(row, v)]
        rows.append(tuple(row))
    return rows


def _draw_rows(F, rng, count, n, rank_at_most):
    """``count`` rows of length n spanning at most ``rank_at_most`` dimensions."""
    els = _elements(F)
    base = [[rng.choice(els) for _ in range(n)] for _ in range(rank_at_most)]
    return _combinations(F, rng, count, n, base)


def _leibniz(F, A):
    """sum over permutations p of sign(p) prod_i A[i][p(i)]."""
    n = len(A)
    acc = F.zero
    for perm in itertools.permutations(range(n)):
        term = F.one
        for i, j in enumerate(perm):
            term = F.mul(term, A[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = fq_oracle._add(F, acc, fq_oracle._neg(F, term) if inversions % 2 else term)
    return acc


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=_kernel_ids)
def test_rref_matches_reference_on_every_shape(F):
    # square and rectangular, 0 to n + 2 rows, every rank, zero rows
    rng = random.Random(_kernel_ids(F))
    for n in range(1, 6):
        for count in range(n + 3):
            for rank_at_most in range(n + 1):
                rows = _draw_rows(F, rng, count, n, rank_at_most)
                assert rref(F, rows) == fq_oracle.rref(F, rows), rows


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=_kernel_ids)
def test_det_vanishes_exactly_below_full_rank_and_is_the_leibniz_sum(F):
    rng = random.Random(_kernel_ids(F))
    for n in range(6):
        for rank_at_most in range(n + 1):
            for _ in range(12):
                A = tuple(_draw_rows(F, rng, n, n, rank_at_most))
                d = det(F, A)
                assert (d == F.zero) == (len(fq_oracle.rref(F, A)) < n), A
                if n <= 4:
                    assert d == _leibniz(F, A), A


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=_kernel_ids)
def test_containment_matches_the_rank_test_for_every_dimension(F):
    # Y of each dimension 0..n, F^n included; X inside Y about half the time
    rng = random.Random(_kernel_ids(F))
    for n in range(1, 6):
        for d in range(n + 1):
            for _ in range(20):
                rows = []
                while len(fq_oracle.rref(F, rows)) < d:
                    rows = _draw_rows(F, rng, d, n, d)
                Y = FqSubspace(F, n, rref(F, rows))
                base = Y.rows if rng.random() < 0.5 else _draw_rows(F, rng, n, n, n)
                X = FqSubspace(F, n, rref(F, _combinations(F, rng, rng.randint(0, 3), n, base)))
                want = len(fq_oracle.rref(F, Y.rows + X.rows)) == Y.dim
                assert (X <= Y) == want, (X.rows, Y.rows)
