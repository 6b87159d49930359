import random

import pytest

from zipstrata import fq
from zipstrata.fq import (
    Fq,
    FqSubspace,
    QQ,
    det,
    enumerate_gl,
    gl_order,
    kernel_basis,
    mat_identity,
    mat_inv,
    mat_mul,
    rank,
    rref,
)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1)])
def test_field_axioms_sampled(p, k):
    F = Fq(p, k)
    rng = random.Random(p * 10 + k)
    els = list(F.elements())
    for _ in range(200):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3)])
def test_frobenius_fixes_exactly_prime_field(p, k):
    F = Fq(p, k)
    fixed = [a for a in F.elements() if F.frobenius_pow(a, 1) == a]
    assert len(fixed) == p
    for a in F.elements():
        assert F.frobenius_pow(a, k) == a


def test_prime_field_large_modulus():
    F = Fq(65521)
    assert F.mul(12345, F.inv(12345)) == 1


def test_rref_is_canonical():
    F = Fq(2)
    a = rref(F, [(1, 1, 0), (0, 1, 1)])
    b = rref(F, [(1, 0, 1), (0, 1, 1)])
    assert a == b == ((1, 0, 1), (0, 1, 1))


def test_matrix_inverse_roundtrip():
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        F = Fq(p, k)
        rng = random.Random(17)
        els = list(F.elements())
        n = 3
        found = 0
        while found < 10:
            A = tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n))
            if det(F, A) == 0:
                continue
            found += 1
            assert mat_mul(F, A, mat_inv(F, A)) == mat_identity(F, n)


def test_kernel_orthogonal_to_matrix():
    F = Fq(3)
    A = ((1, 2, 0, 1), (0, 1, 1, 2))
    for v in kernel_basis(F, A):
        assert all(x == 0 for x in (sum(r * c for r, c in zip(row, v)) % 3 for row in A))
    assert rank(F, A) + len(kernel_basis(F, A)) == 4


def test_subspace_canonical_and_lattice_ops():
    F = Fq(2)
    U = FqSubspace.from_vectors(F, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert U.dim == 2
    V = FqSubspace.from_vectors(F, 3, [(1, 1, 0)])
    assert V <= U
    assert U.sum(V) == U
    assert V.dim + U.dim - V.sum(U).dim == 1
    assert U.contains((1, 0, 1)) and not U.contains((1, 0, 0))


def test_identity_rows_are_kept_per_field_and_n():
    F, G = Fq(2), Fq(2)
    full = F.identity(3)
    assert full == mat_identity(F, 3) == FqSubspace.full(F, 3).rows
    assert F.identity(3) is full
    assert F.identity(2) == mat_identity(F, 2)
    assert G.identity(3) is not full


def test_subspace_preimage():
    F = Fq(2)
    A = ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    M = FqSubspace.from_vectors(F, 3, [(1, 0, 0)])
    # {x : A x in span(e1)} = {x : x3 = 0}
    pre = M.preimage(A)
    assert pre == FqSubspace.from_vectors(F, 3, [(1, 0, 0), (0, 1, 0)])


def test_zero_subspace_maps_without_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("rref was called")

    monkeypatch.setattr(fq, "rref", refuse)
    F = Fq(2, 2)
    zero = FqSubspace.zero(F, 3)
    A = ((0, 1, 0), (2, 0, 1), (1, 0, 0))
    for m in (0, 1, 2):
        assert zero.map_semilinear(A, m) == zero


def test_enumerate_gl_counts():
    assert sum(1 for _ in enumerate_gl(Fq(2), 2)) == gl_order(2, 2) == 6
    assert sum(1 for _ in enumerate_gl(Fq(3), 2)) == gl_order(3, 2) == 48
    assert sum(1 for _ in enumerate_gl(Fq(2), 3)) == gl_order(2, 3) == 168


def test_rational_field_protocol():
    from fractions import Fraction

    assert QQ.mul(Fraction(2, 3), QQ.inv(Fraction(2, 3))) == 1
    assert QQ.frobenius_pow(Fraction(5), 3) == 5
