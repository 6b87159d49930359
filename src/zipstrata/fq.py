"""Small finite fields F_{p^k} (k <= 3) and exact linear algebra over them.

Field elements are integers 0..q-1 encoding polynomials over F_p in base-p
digits (little endian).  Extensions are table-driven (addition, negation,
multiplication, inverse and Frobenius tables), so they stay small by
construction; prime fields work for any p (arithmetic mod p, no tables).

Elimination works on whole rows: a field gives two row operations,
``scale_row(row, c)`` = c row and ``sub_multiple(row, c, other)`` =
row - c other, each one list comprehension (``% p`` on prime fields, the
table row of c on extensions).  `RationalField` gives the same two, so
`rref`, `det`, `mat_inv` and `mat_mul` also run over QQ.  `rref` and `det`
bind the row operations once per call and find each pivot with a plain
loop over the rows.

Subspaces are kept in row-reduced echelon form, which is canonical, so
equality of subspaces is tuple equality; the pivot of an echelon row is the
index of its first 1.  Containment in a space of n rows, F_q^n itself, is
answered without reducing anything.  Each subspace costs at most one
elimination:
`kernel_basis` returns the kernel already in that form, and `apply_frobenius`
maps entries without re-reducing, since sigma^m is an automorphism fixing 0
and 1 and so keeps echelon rows echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rootdata import InvariantViolation

_TABLE_LIMIT = 2048


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Fq:
    """The finite field with q = p^k elements."""

    def __init__(self, p: int, k: int = 1):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= k <= 3:
            raise ValueError("extension degree k must be 1, 2 or 3")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            self.modulus = (0, 1)
            self._add_table = None
            self._neg_table = None
            self._mul_table = None
            self._inv_table = None
            self._frob_table = None
        else:
            if self.q > _TABLE_LIMIT:
                raise ValueError(f"extension field with q = {self.q} exceeds table limit")
            self.modulus = self._find_irreducible()
            self._build_tables()
        self.zero = 0
        self.one = 1
        # n -> (0, F^n), built once by `FqSubspace.ends`
        self.subspace_ends: dict[int, tuple] = {}

    # -- construction helpers -------------------------------------------------

    def _has_root(self, poly: Sequence[int]) -> bool:
        # degree <= 3: irreducible iff no root in F_p
        for x in range(self.p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % self.p
            if acc == 0:
                return True
        return False

    def _find_irreducible(self) -> tuple[int, ...]:
        for tail in range(self.p**self.k):
            digits = []
            t = tail
            for _ in range(self.k):
                digits.append(t % self.p)
                t //= self.p
            poly = tuple(digits) + (1,)
            if not self._has_root(poly):
                return poly
        raise InvariantViolation("no irreducible polynomial found")

    def _poly_of(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _of_poly(self, coeffs: Sequence[int]) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * self.p + (c % self.p)
        return acc

    def _poly_mul_mod(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(k):
                    prod[d - k + j] = (prod[d - k + j] - c * self.modulus[j]) % p
        return prod[:k]

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        polys = [self._poly_of(a) for a in range(q)]
        self._add_table = [
            [self._of_poly([(x + y) % p for x, y in zip(pa, pb)]) for pb in polys]
            for pa in polys
        ]
        self._neg_table = [self._of_poly([-x % p for x in pa]) for pa in polys]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = self._of_poly(self._poly_mul_mod(polys[a], polys[b]))
                mul[a][b] = v
                mul[b][a] = v
        self._mul_table = mul
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise InvariantViolation("modulus is not irreducible")
        self._inv_table = inv
        frob = [0] * q
        for a in range(q):
            acc = 1
            for _ in range(self.p):
                acc = mul[acc][a]
            frob[a] = acc
        self._frob_table = frob
        fixed = [a for a in range(q) if frob[a] == a]
        if len(fixed) != self.p:
            raise InvariantViolation("Frobenius must fix exactly F_p")
        cur = list(range(q))
        for _ in range(self.k):
            cur = [frob[a] for a in cur]
        if cur != list(range(q)):
            raise InvariantViolation("sigma^k must be the identity")

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv_table[a]

    def scale_row(self, row: Sequence[int], c: int) -> list[int]:
        """c row."""
        if self.k == 1:
            p = self.p
            return [c * x % p for x in row]
        t = self._mul_table[c]
        return [t[x] for x in row]

    def sub_multiple(self, row: Sequence[int], c: int, other: Sequence[int]) -> list[int]:
        """row - c other."""
        if self.k == 1:
            p = self.p
            return [(x - c * y) % p for x, y in zip(row, other)]
        add, t = self._add_table, self._mul_table[self._neg_table[c]]
        return [add[x][t[y]] for x, y in zip(row, other)]

    def frobenius_pow(self, a: int, m: int) -> int:
        """x |-> x^{p^m}; only m mod k matters."""
        if self.k == 1:
            return a
        for _ in range(m % self.k):
            a = self._frob_table[a]
        return a

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"Fq(p={self.p}, k={self.k})"


class RationalField:
    """The rationals with the same little protocol as Fq (for exact checks)."""

    zero = Fraction(0)
    one = Fraction(1)
    k = 1  # QQ is its own prime field: every Frobenius power is the identity

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    @staticmethod
    def scale_row(row, c):
        return [c * x for x in row]

    @staticmethod
    def sub_multiple(row, c, other):
        return [x - c * y for x, y in zip(row, other)]

    @staticmethod
    def frobenius_pow(a, m):
        return a


QQ = RationalField()


# ---------------------------------------------------------------------------
# matrices (tuples of row tuples) and canonical subspaces

Matrix = tuple


def mat_identity(F, n: int) -> Matrix:
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def mat_mul(F, A: Matrix, B: Matrix) -> Matrix:
    """Row i of AB: the rows of B combined with row i of A as coefficients."""
    zero = [F.zero] * len(B[0])
    out = []
    for row in A:
        acc = zero
        for c, brow in zip(row, B):
            if c:
                acc = F.sub_multiple(acc, F.neg(c), brow)
        out.append(tuple(acc))
    return tuple(out)


def mat_transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def rref(F, rows: Iterable[Sequence]) -> tuple:
    """Canonical row-reduced echelon form; zero rows dropped.

    Gauss-Jordan on whole rows: the pivot rows come out in pivot-column
    order, each led by a 1.
    """
    work = list(rows)
    out: list = []
    one, inv, scale, sub = F.one, F.inv, F.scale_row, F.sub_multiple
    for col in range(len(work[0]) if work else 0):
        for i, row in enumerate(work):
            if row[col]:
                break
        else:
            continue
        del work[i]
        c = row[col]
        if c != one:
            row = scale(row, inv(c))
        work = [sub(r, r[col], row) if r[col] else r for r in work]
        out = [sub(r, r[col], row) if r[col] else r for r in out]
        out.append(row)
        if not work:
            break
    return tuple(map(tuple, out))


def rank(F, A: Matrix) -> int:
    return len(rref(F, A))


def mat_inv(F, A: Matrix) -> Matrix:
    """The right half of rref [A | 1]."""
    n = len(A)
    red = rref(F, [tuple(row) + tuple(F.one if j == i else F.zero for j in range(n))
                   for i, row in enumerate(A)])
    # [A | 1] has rank n, and A is invertible iff the pivots are its first n
    # columns, that is iff the last pivot sits in column n - 1
    if n and red[-1][n - 1] != F.one:
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in red)


def det(F, A: Matrix):
    """Gaussian elimination below the diagonal; a row swap flips the sign."""
    n = len(A)
    work = list(A)
    d = F.one
    mul, inv, neg, sub = F.mul, F.inv, F.neg, F.sub_multiple
    for col in range(n):
        for piv in range(col, n):
            if work[piv][col]:
                break
        else:
            return F.zero
        row = work[piv]
        if piv != col:
            work[col], work[piv] = row, work[col]
            d = neg(d)
        c = row[col]
        d = mul(d, c)
        c_inv = inv(c)
        for r in range(col + 1, n):
            x = work[r][col]
            if x:
                work[r] = sub(work[r], mul(x, c_inv), row)
    return d


def kernel_basis(F, A: Matrix, ncols: int | None = None) -> tuple:
    """{x : A x = 0} in row-reduced echelon form; ``ncols`` gives the width
    when A has no rows.

    A is reduced on reversed columns, so the vector of free column f has its
    leading 1 at f and its other entries at pivots right of f: the basis is
    the canonical echelon form of the kernel.

    >>> kernel_basis(Fq(3), ((1, 2, 0, 1), (0, 1, 1, 2)))
    ((1, 0, 2, 2), (0, 1, 0, 1))
    >>> kernel_basis(Fq(2), (), 2)
    ((1, 0), (0, 1))
    """
    n = len(A[0]) if A else (ncols or 0)
    last = n - 1
    # pivot column (original order) -> its echelon row (reversed order)
    pivots = {last - r.index(F.one): r for r in rref(F, [row[::-1] for row in A])}
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [F.zero] * n
        vec[fc] = F.one
        for pc, row in pivots.items():
            vec[pc] = F.neg(row[last - fc])
        basis.append(tuple(vec))
    return tuple(basis)


@dataclass(frozen=True)
class FqSubspace:
    """Subspace of F_q^n in canonical echelon form."""

    field: Fq
    n: int
    rows: tuple

    @classmethod
    def from_vectors(cls, F, n: int, vectors: Iterable[Sequence]) -> "FqSubspace":
        return cls(F, n, rref(F, vectors))

    @classmethod
    def zero(cls, F, n: int) -> "FqSubspace":
        return cls(F, n, ())

    @classmethod
    def full(cls, F, n: int) -> "FqSubspace":
        return cls(F, n, mat_identity(F, n))

    @classmethod
    def ends(cls, F: Fq, n: int) -> tuple["FqSubspace", "FqSubspace"]:
        """(0, F^n), built once per field and n and kept on the field."""
        ends = F.subspace_ends.get(n)
        if ends is None:
            ends = F.subspace_ends[n] = cls.zero(F, n), cls.full(F, n)
        return ends

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence) -> bool:
        F = self.field
        for row in self.rows:
            c = vec[row.index(F.one)]
            if c:
                vec = F.sub_multiple(vec, c, row)
        return not any(vec)

    def __le__(self, other: "FqSubspace") -> bool:
        # F_q^n holds every vector of length n
        return len(other.rows) == other.n or all(other.contains(r) for r in self.rows)

    def sum(self, other: "FqSubspace") -> "FqSubspace":
        return FqSubspace.from_vectors(self.field, self.n, self.rows + other.rows)

    def map_semilinear(self, A: Matrix, frob_m: int) -> "FqSubspace":
        """Image under v |-> A sigma^m(v): the row space of sigma^m(rows) A^T."""
        F, rows = self.field, self.rows
        if not rows:  # the zero subspace maps to itself
            return self
        if frob_m % F.k:
            rows = [[F.frobenius_pow(x, frob_m) for x in row] for row in rows]
        return FqSubspace.from_vectors(F, self.n, mat_mul(F, rows, mat_transpose(A)))

    def preimage(self, A: Matrix) -> "FqSubspace":
        """{x : A x in self}."""
        F, n, rows = self.field, self.n, self.rows
        if len(rows) == n:
            return self
        # y lies in self iff y_j = sum_i rows[i][j] y_{p_i} at every non-pivot
        # j (p_i the pivots); for y = A x that is row j of A minus the rows
        # p_i of A weighted by rows[i][j], applied to x.
        pivots = [r.index(F.one) for r in rows]
        constraints = []
        for j in range(n):
            if j in pivots:
                continue
            c = A[j]
            for row, p in zip(rows, pivots):
                if row[j]:
                    c = F.sub_multiple(c, row[j], A[p])
            constraints.append(c)
        return FqSubspace(F, n, kernel_basis(F, constraints))

    def apply_frobenius(self, m: int) -> "FqSubspace":
        """sigma^m entrywise; it fixes 0 and 1, so the rows stay echelon."""
        F = self.field
        if m % F.k == 0:  # sigma^m is the identity on F
            return self
        return FqSubspace(
            F, self.n, tuple(tuple(F.frobenius_pow(x, m) for x in row) for row in self.rows)
        )


def enumerate_gl(F, n: int) -> Iterator[Matrix]:
    """All invertible n x n matrices over F, by extending independent rows."""
    vectors = list(_all_vectors(F, n))

    def rec(rows: list, space: FqSubspace):
        if len(rows) == n:
            yield tuple(rows)
            return
        for v in vectors:
            if not space.contains(v):
                yield from rec(rows + [v], FqSubspace.from_vectors(F, n, space.rows + (v,)))

    yield from rec([], FqSubspace.zero(F, n))


def _all_vectors(F, n: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for rest in _all_vectors(F, n - 1):
        for x in F.elements():
            yield (x,) + rest


def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out
