"""GL_n specialization: the finite-field Dieudonne-space classifier (full Xi
on matrices), the (2,2) closed-form classifier, the (n-1,1) characteristic
polynomial invariants, the length-2 closed form, and point censuses.
Delta' and char(Delta) are read from `fq.det` alone: Delta' from minors
of A bordered by one more row and column, char(Delta) from principal minors.

A matrix f determines a pair (a, b) = (f p_1, sigma^{-m}(p_2 f^{-1})), hence
semilinear operators F = a sigma^m and V = b sigma^{-m}; the coarsest F- and
V^{-1}-stable filtration, compared with 0 < V(D) < D, recovers the stratum
label of f z^{-1}.  Since b is zero above row r and has rank s,
V(D) = span(e_r, ..., e_{n-1}), so that comparison is read off the echelon
pivots of the filtration, with no further elimination.  Both maps of the
filtration are images under f z^{-1} alone (`canonical_filtration`), so the
classifier inverts no matrix and takes no preimage or kernel; `phi_map`
still builds (a, b) for the checks that use them.  The ends 0 and D of the
filtration are built once per field and n (`FqSubspace.ends`).  A census
forms g = f z^{-1} and checks it with `det` once per point, and takes the
filtration once per point and exponent, through the profile code that
`xi_classify` uses.  The classifiers here
and the combinatorial map on W are developed independently and
cross-validated on permutation matrices.  The request's budget caps a
census at |GL_n(F_q)| and the model table at |^I W|, checked on every call.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .fq import (
    Fq,
    FqSubspace,
    Matrix,
    det,
    enumerate_gl,
    gl_order,
    kernel_basis,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_transpose,
    rank,
)
from .rootdata import TYPE_A_GL
from .weyl import InvariantViolation, WeylElement, check_budget
from .zipdatum import ZipDatum, ZipDatumError, gl_zip_datum


def inv_mod(x: int, n: int) -> int:
    """The unique k in {1,...,n-1} with k x = 1 mod n."""
    if math.gcd(x, n) != 1:
        raise ValueError(f"{x} is not invertible mod {n}")
    return pow(x, -1, n)


@dataclass(frozen=True)
class Signature:
    """A signature (r, s) with r >= s >= 1 and its distinguished short elements."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if not self.r >= self.s >= 1:
            raise ValueError(f"need r >= s >= 1, got ({self.r}, {self.s})")

    @property
    def n(self) -> int:
        return self.r + self.s

    def zip_datum(self) -> ZipDatum:
        return gl_zip_datum(self.n, self.r)

    @property
    def w_prime(self) -> WeylElement:
        """The unique length-1 element of ^I W."""
        return self.zip_datum().W.simple(self.r)

    @property
    def w1(self) -> WeylElement:
        """s_{alpha_r} s_{alpha_{r+1}} (needs s >= 2)."""
        if self.s < 2:
            raise ValueError("w1 needs s >= 2")
        W = self.zip_datum().W
        return W.simple(self.r) * W.simple(self.r + 1)

    @property
    def w2(self) -> WeylElement:
        """s_{alpha_r} s_{alpha_{r-1}} (needs r >= 2)."""
        if self.r < 2:
            raise ValueError("w2 needs r >= 2")
        W = self.zip_datum().W
        return W.simple(self.r) * W.simple(self.r - 1)


def perm_matrix(F, w: WeylElement) -> Matrix:
    """Column i carries a single 1 in row w(i)."""
    p = w.one_line()
    n = len(p)
    return tuple(
        tuple(F.one if p[j] == i + 1 else F.zero for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# Dieudonne dictionary


def phi_map(F, f: Matrix, sig: Signature, m: int = 1) -> tuple[Matrix, Matrix]:
    """The pair (a, b) attached to f: a = f p_1, b = sigma^{-m}(p_2 f^{-1}).

    Validates a sigma^m(b) = sigma^m(b) a = 0, rank a = r, rank b = s and
    ker(a) = W_2; failures indicate an arithmetic bug, not bad input.
    """
    n, r, s = sig.n, sig.r, sig.s
    if len(f) != n:
        raise ValueError(f"matrix size {len(f)} does not match signature n={n}")
    a, b = _phi_pair(F, f, n, r, m)
    sb = tuple(tuple(F.frobenius_pow(x, m) for x in row) for row in b)
    zero = tuple(tuple(F.zero for _ in range(n)) for _ in range(n))
    if mat_mul(F, a, sb) != zero or mat_mul(F, sb, a) != zero:
        raise InvariantViolation("a sigma(b) != 0")
    if rank(F, a) != r or rank(F, b) != s:
        raise InvariantViolation("phi_map rank condition failed")
    # kernel_basis is in echelon form, and W_2's is the unit rows r..n-1
    if kernel_basis(F, a, n) != mat_identity(F, n)[r:]:
        raise InvariantViolation("ker(a) must be W_2")
    return a, b


def canonical_filtration(F, g: Matrix, r: int, m: int = 1) -> list[FqSubspace]:
    """The coarsest filtration stable under F and V^{-1}, as an ascending chain,
    for the Dieudonne pair (a, b) = (g p_1, sigma^{-m}(p_2 g^{-1})) of the
    invertible matrix g with parabolic cut r (`_phi_pair`).

    Both maps are images under g.  Let W_1 = span(e_0, ..., e_{r-1}),
    W_2 = span(e_r, ..., e_{n-1}) and N = sigma^m(M).  Then a = g p_1 gives

        F M = a sigma^m(M) = g(p_1 N),

    and sigma^m(b) = p_2 g^{-1}, so y = sigma^m(x) with b x in M means
    p_2 g^{-1} y in N, that is g^{-1} y in W_1 + (N /\\ W_2):

        V^{-1} M = sigma^m{x : b x in M} = g(W_1 + (N /\\ W_2)).

    sigma^m keeps echelon rows echelon.  In echelon form N /\\ W_2 is spanned
    by the k' rows of N with pivot >= r, and p_1 N by the k rows with pivot
    < r cut off at column r; so each map is one elimination of at most n
    vectors g v, with no inverse, preimage or kernel.  g is injective, so
    dim F M = k and dim V^{-1} M = r + k' before eliminating, and the ends
    need none: F M = 0 for k = 0, F M = g(W_1) for k = r, V^{-1} M = g(W_1)
    for k' = 0 and V^{-1} M = D for k' = n - r.  In particular F(0) = 0,
    V^{-1}(D) = D and F(D) = V^{-1}(0) = g(W_1), which is computed once.

    Raises ZeroDivisionError when g is singular; `_close_chain` enforces
    that the family is a chain of at most n + 1 members.
    """
    _require_invertible(F, g)
    return _filtration(F, g, r, m)


def _require_invertible(F, g: Matrix) -> None:
    if det(F, g) == F.zero:
        raise ZeroDivisionError("matrix is singular")


def _filtration(F, g: Matrix, r: int, m: int) -> list[FqSubspace]:
    """`canonical_filtration` of a g already checked to be invertible."""
    ends = FqSubspace.ends(F, len(g))
    return _close_chain(ends, _image_maps(F, g, r, m, ends))


def _image_maps(F, g: Matrix, r: int, m: int, ends: tuple[FqSubspace, FqSubspace]):
    """M |-> (F M, V^{-1} M) as images under g (see `canonical_filtration`);
    ``ends`` is (0, D)."""
    n = len(g)
    cols = mat_transpose(g)  # cols[j] = g e_j, so mat_mul(v, cols) = g v
    low_cols, high_cols = cols[:r], cols[r:]
    zero, full = ends
    gw1 = FqSubspace.from_vectors(F, n, low_cols)
    one = F.one

    def step(sp: FqSubspace) -> tuple[FqSubspace, FqSubspace]:
        rows = sp.apply_frobenius(m).rows
        # echelon rows come in pivot order: those with pivot < r first
        k = 0
        while k < len(rows) and rows[k].index(one) < r:
            k += 1
        if k == 0:
            f_img = zero
        elif k == r:
            f_img = gw1
        else:  # mat_mul pairs only the first r entries of a row with low_cols
            f_img = FqSubspace.from_vectors(F, n, mat_mul(F, rows[:k], low_cols))
        if k == len(rows):
            v_img = gw1
        elif len(rows) - k == n - r:
            v_img = full
        else:
            high = mat_mul(F, [row[r:] for row in rows[k:]], high_cols)
            v_img = FqSubspace.from_vectors(F, n, gw1.rows + high)
        return f_img, v_img

    return step


def _close_chain(ends: tuple[FqSubspace, FqSubspace], step) -> list[FqSubspace]:
    """Close ends = (0, D) under the two maps M |-> step(M) with a worklist,
    so each member of the family is mapped once.  The family must be
    totally ordered, so it has at most n + 1 members; both conditions raise
    InvariantViolation.
    """
    n = ends[1].dim
    todo = list(ends)
    family = {sp.rows: sp for sp in todo}
    while todo:
        sp = todo.pop()
        for cand in step(sp):
            if cand.rows not in family:
                if len(family) > n:
                    raise InvariantViolation(
                        f"canonical family exceeds n + 1 = {n + 1} subspaces; "
                        "it is not a chain"
                    )
                family[cand.rows] = cand
                todo.append(cand)
    chain = [family[rows] for rows in sorted(family, key=len)]
    for lower, upper in zip(chain, chain[1:]):
        if not (len(lower.rows) < len(upper.rows) and lower <= upper):
            raise InvariantViolation("canonical family is not a chain; implementation bug")
    return chain


def _stratum_invariant(zd: ZipDatum, F, g: Matrix, m: int, invertible: bool = False) -> tuple:
    """The relative position of the canonical filtration with 0 < V(D) < D,
    recorded as the intersection-dimension profile (dim D_i, dim(V(D) /\\ D_i)).

    This profile is a complete isomorphism invariant of the Dieudonne pair of
    g, hence classifies the stratum containing g.  b is zero above row rr and
    has rank s, so V(D) = im b = span(e_rr, ..., e_{n-1}); a vector of D_i lies
    in it iff its coefficients on the echelon rows with pivot < rr vanish, so
    dim(V(D) /\\ D_i) is the number of echelon rows of D_i with pivot >= rr.
    ``invertible`` says that the caller has already checked g with `det`.
    """
    (rr,) = sorted(set(zd.rs.delta_indices()) - zd.I)
    chain = (_filtration if invertible else canonical_filtration)(F, g, rr, m)
    one = F.one
    return tuple((len(c.rows), [row.index(one) >= rr for row in c.rows].count(True))
                 for c in chain)


def _model_table(zd: ZipDatum) -> dict:
    """Profile -> label lookup, built from the T-point models w z^{-1}.

    The models have 0/1 entries fixed by every Frobenius power, so one table
    (computed over F_2) serves all fields and exponents.
    """
    table = zd._extra.get("xi_model_table")
    if table is not None:  # one profile per element of ^I W
        check_budget(len(table), "|^K W|")
    else:
        F2 = Fq(2)
        table = {}
        for w in zd.minimal_reps():
            inv = _stratum_invariant(zd, F2, perm_matrix(F2, w * zd.z.inverse()), 1)
            if inv in table:
                raise InvariantViolation(
                    "stratum profiles must separate ^I W; collision at "
                    f"{w.one_line()} vs {table[inv].one_line()}"
                )
            table[inv] = w
        zd._extra["xi_model_table"] = table
    return table


def xi_classify(zd: ZipDatum, F, f: Matrix, m: int = 1) -> WeylElement:
    """The stratum label of f z^{-1}: full Xi on GL_n over a finite field.

    Computes the canonical filtration of the Dieudonne pair of f z^{-1}
    (with Frobenius exponent m) and matches its relative position against
    0 < V(D) < D to the T-point models of ^I W; the class is independent of
    all auxiliary choices.

    The corner convention is pinned empirically: labeling through the models
    of w z^{-1} is the unique framing for which permutation matrices of
    minimal representatives classify to themselves (validated over all of W
    against the combinatorial representative algorithm at n <= 4).
    """
    if zd.rs.realization != TYPE_A_GL:
        raise ZipDatumError("the matrix classifier is specific to GL_n data")
    if not zd.sigma.is_identity:
        raise ZipDatumError("the matrix classifier needs sigma = id (split case)")
    if m < 1:
        raise ZipDatumError("the Frobenius exponent m must be >= 1")
    n = zd.rs.ambient_dim
    if len(f) != n or any(len(row) != n for row in f):
        raise ZipDatumError(f"the matrix must be {n} x {n} for this GL_{n} datum")
    entries = list(itertools.chain.from_iterable(f))
    if set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= F.q:
        raise ZipDatumError(f"matrix entries must be elements of F_{F.q}: integers 0..{F.q - 1}")
    return _model_table(zd)[_stratum_invariant(zd, F, _frame_columns(zd, f), m)]


def _frame_columns(zd: ZipDatum, f: Matrix) -> Matrix:
    """g = f perm_matrix(z^{-1}): column j of g is column z^{-1}(j) of f, so
    each row is one gather by the key of z^{-1} (n >= 2 indices, so the
    gather returns a tuple)."""
    return tuple(map(itemgetter(*zd.z.inverse().key), f))


def _phi_pair(F, f: Matrix, n: int, r: int, m: int):
    """phi_map without the Signature wrapper (r is the parabolic cut)."""
    finv = mat_inv(F, f)
    zeros = (F.zero,) * (n - r)
    a = tuple(tuple(row[:r]) + zeros for row in f)
    zero_row = (F.zero,) * n
    b = tuple(finv[i] if i >= r else zero_row for i in range(n))
    minus = (-m) % F.k
    if minus:
        b = tuple(tuple(F.frobenius_pow(x, minus) for x in row) for row in b)
    return a, b


# ---------------------------------------------------------------------------
# Schur-complement invariants and the (2,2) closed form


def _minor(A: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return tuple(tuple(A[i][j] for j in cols) for i in rows)


def blocks_of(F, g: Matrix, r: int):
    """(A, B, C, D) with A the top-left r x r block."""
    top, bottom = range(r), range(r, len(g))
    return tuple(_minor(g, rows, cols) for rows in (top, bottom) for cols in (top, bottom))


def delta(F, g: Matrix, r: int) -> Matrix:
    return blocks_of(F, g, r)[0]


def delta_prime(F, g: Matrix, r: int) -> Matrix:
    """det(A) D - C Adj(A) B, the Schur-complement companion of Delta: entry
    (i, j) is the determinant of A bordered by row r + i and column r + j of
    g, as det [[A, b], [c, d]] = det(A) d - c Adj(A) b (Horn and Johnson,
    Matrix Analysis, 2nd ed., 0.8.5), so A may be singular.

    >>> g = ((1, 2, 3), (0, 0, 4), (5, 6, 0))  # det A = 0: -C Adj(A) B = 16
    >>> delta_prime(Fq(7), g, 2)
    ((2,),)
    """
    head, tail = tuple(range(r)), range(r, len(g))
    return tuple(tuple(det(F, _minor(g, head + (i,), head + (j,))) for j in tail) for i in tail)


def trace(F, A: Matrix):
    acc = F.zero
    for i in range(len(A)):
        acc = F.add(acc, A[i][i])
    return acc


def classify_22(F, g: Matrix) -> tuple[int, ...]:
    """The (2,2) stratum of g itself (identity-isogeny stratification).

    Evaluates Ha_0 = det(Delta), Ha_1 = Tr(Delta), Ha'_1 = Tr(Delta') and
    matches the unique applicable row; returns the one-line label.
    """
    if len(g) != 4:
        raise ValueError("classify_22 needs a 4 x 4 matrix")
    dl = delta(F, g, 2)
    ha0 = det(F, dl)
    ha1 = trace(F, dl)
    ha1p = trace(F, delta_prime(F, g, 2))
    zero = F.zero
    if ha0 != zero:
        return (3, 4, 1, 2)
    if ha1 != zero and ha1p != zero:
        return (3, 1, 4, 2)
    if ha1 != zero and ha1p == zero:
        return (1, 3, 4, 2)
    if ha1 == zero and ha1p != zero:
        return (3, 1, 2, 4)
    if any(x != zero for row in dl for x in row):
        return (1, 3, 2, 4)
    return (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# (n-1, 1): characteristic-polynomial invariants and the pi formula


def _char_poly(F, A: Matrix) -> tuple:
    """Coefficients (low to high) of det(X I - A), exact over F: c_k is
    (-1)^(r-k) times the sum of the principal minors of size r - k (Horn
    and Johnson, 1.2), and c_r is the empty minor, 1."""
    r = len(A)
    out = []
    for k in range(r + 1):
        acc = F.zero
        for idx in itertools.combinations(range(r), r - k):
            acc = F.add(acc, det(F, _minor(A, idx, idx)))
        out.append(F.neg(acc) if (r - k) % 2 else acc)
    return tuple(out)


def char_ha_coeffs(F, g: Matrix, sig: Signature) -> tuple:
    """Coefficients Ha_0,...,Ha_{n-2} of char_{Delta(g)}(X) = det(X 1 - Delta(g)).

    Only defined for signature (n-1, 1); the constant term is
    (-1)^{n-1} det(Delta(g)).
    """
    if sig.s != 1:
        raise ValueError(f"char_ha_coeffs needs signature (n-1, 1), got {sig}")
    if len(g) != sig.n:
        raise ValueError("matrix size does not match the signature")
    coeffs = _char_poly(F, delta(F, g, sig.r))
    return coeffs[: sig.n - 1]


def x_element(sig: Signature, i: int) -> WeylElement:
    """The minimal representative x_i at signature (n-1, 1); l(x_i) = n-1-i."""
    if sig.s != 1:
        raise ValueError("x_element needs signature (n-1, 1)")
    n = sig.n
    if not 0 <= i <= n - 1:
        raise ValueError(f"index {i} out of range 0..{n - 1}")
    one_line = list(range(1, i + 1)) + [n] + list(range(i + 1, n))
    return sig.zip_datum().W.from_one_line(one_line)


def pi_char_poly(sig: Signature, w: WeylElement, samples: int = 8,
                 p: int = 65521, seed: int = 0) -> int:
    """The index i with pi(w) = x_i, via the generic X-valuation of
    char_{b Delta(w z^{-1})}(X) for random b in the Levi Borel.

    Probabilistic with repetition: the generic valuation is the minimum over
    ``samples`` draws; each coefficient that is a nonzero function of b
    vanishes on a sample with probability at most deg/p (Schwartz-Zippel),
    so the failure probability is bounded by (n deg / p)^samples-ish.
    """
    if sig.s != 1:
        raise ValueError("pi_char_poly needs signature (n-1, 1)")
    zd = sig.zip_datum()
    if w.group is not zd.W:
        raise ValueError("w belongs to a different group")
    F = Fq(p)
    n = sig.n
    base = perm_matrix(F, w * zd.z.inverse())
    rng = random.Random(seed)
    best = n - 1
    for _ in range(samples):
        b = [[F.zero] * n for _ in range(n)]
        for i in range(n - 1):
            b[i][i] = rng.randrange(1, p)
            for j in range(i):
                b[i][j] = rng.randrange(p)
        b[n - 1][n - 1] = rng.randrange(1, p)
        M = mat_mul(F, tuple(tuple(row) for row in b), base)
        coeffs = _char_poly(F, delta(F, M, sig.r))
        val = next(k for k, c in enumerate(coeffs) if c != F.zero)
        best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# length-2 closed form and censuses


def length2_closed_form(sig: Signature) -> dict:
    """The trichotomy for the two length-2 strata, decided arithmetically.

    gcd(r,s) > 3: neither piece is bounded; gcd in {2,3}: both smooth;
    gcd = 1: with m = inv_n(s), U_1 is smooth iff m > n/2 and U_2 iff m < n/2.
    """
    r, s, n = sig.r, sig.s, sig.n
    if s < 2:
        raise ValueError(
            "length2_closed_form needs s >= 2 (for s = 1 every stratum closure "
            "is smooth; see the signature (n-1,1) catalog)"
        )
    g = math.gcd(r, s)
    report: dict = {"r": r, "s": s, "n": n, "gcd": g}
    if g > 3:
        report["branch"] = "unbounded"
        report["U1"] = {"bounded": False, "smooth": False}
        report["U2"] = {"bounded": False, "smooth": False}
    elif g in (2, 3):
        report["branch"] = "smooth"
        report["U1"] = {"bounded": True, "smooth": True}
        report["U2"] = {"bounded": True, "smooth": True}
    else:
        m = inv_mod(s, n)
        report["branch"] = "coprime"
        report["m_inverse"] = m
        report["U1"] = {"bounded": True, "smooth": 2 * m > n}
        report["U2"] = {"bounded": True, "smooth": 2 * m < n}
    return report


def verify_length2(sig: Signature) -> dict:
    """Cross-check the closed form against the general decision procedure."""
    from .strata import decide_smooth

    closed = length2_closed_form(sig)
    zd = sig.zip_datum()
    # w', w1 and w2 (see Signature) in the Weyl group of this datum
    simple = zd.W.simple
    w_prime = simple(sig.r)
    for key, w in (("U1", w_prime * simple(sig.r + 1)), ("U2", w_prime * simple(sig.r - 1))):
        verdict = decide_smooth(zd, w, w_prime)
        closed[key]["decided_smooth"] = verdict.smooth
        closed[key]["decided_bounded"] = verdict.bounded
        closed[key]["agrees"] = (
            verdict.smooth == closed[key]["smooth"]
            and (closed[key]["bounded"] is verdict.bounded or closed[key]["bounded"])
        )
    return closed


def _factor_prime_power(q: int) -> tuple[int, int]:
    # the least factor is prime, and a composite q has one up to sqrt(q)
    p = next((d for d in range(2, math.isqrt(max(q, 0)) + 1) if q % d == 0), q)
    k = 1
    while p**k < q:
        k += 1
    if q < 2 or p**k != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def label_of(w: WeylElement) -> tuple[int, ...]:
    return tuple(w.one_line())


def fp_point_census(sig: Signature, q: int, m_list: Sequence[int]) -> dict:
    """Classify every f in GL_n(F_q) for each exponent in m_list.

    Returns per-stratum counts per exponent; over a prime field the counts
    (indeed the pointwise classes) must agree across exponents.  For every
    exponent and every w in ^I W, ``point_count_law`` compares the count
    with |P(F_q)| q^{l(w)} = |E_Z(F_q)| q^{l(w) - dim G/P}, the count of the
    stack [E_Z\\O^w] (Pink-Wedhorn-Ziegler, Doc. Math. 2011) times |E_Z(F_q)|;
    a mislabelled point breaks it stratum by stratum even when the total
    holds.  |GL_n(F_q)| is checked against the budget before q is factored,
    and the exponents, at least one, distinct and >= 1, before any point.

    Each point f is turned into g = f z^{-1} and checked for invertibility
    once; only the filtration depends on the exponent, so the profile of
    `xi_classify` is taken once per (point, m), each time with that m.
    """
    n = sig.n
    total = gl_order(q, n)
    check_budget(total, "|GL_{}(F_{})| = {}", n, q, total)
    p, k = _factor_prime_power(q)
    F = Fq(p, k)
    zd = sig.zip_datum()
    if not m_list or min(m_list) < 1 or len(set(m_list)) < len(m_list):
        raise ZipDatumError(f"census exponents must be distinct and >= 1, got {list(m_list)}")
    labels_of = {profile: label_of(w) for profile, w in _model_table(zd).items()}
    counts = {m: Counter() for m in m_list}
    pointwise_equal = True
    for f in enumerate_gl(F, n):
        g = _frame_columns(zd, f)
        _require_invertible(F, g)
        labels = [labels_of[_stratum_invariant(zd, F, g, m, invertible=True)] for m in m_list]
        for m, lab in zip(m_list, labels):
            counts[m][lab] += 1
        pointwise_equal = pointwise_equal and len(set(labels)) == 1
    parabolic = gl_order(q, sig.r) * gl_order(q, sig.s) * q ** (sig.r * sig.s)
    expected = sorted((label_of(w), parabolic * q**w.length) for w in zd.minimal_reps())
    report = {
        "signature": [sig.r, sig.s],
        "q": q,
        "total": total,
        "m_list": list(m_list),
        "counts": {
            str(m): {",".join(map(str, lab)): c for lab, c in sorted(counts[m].items())}
            for m in m_list
        },
        "counts_m_independent": all(
            counts[m] == counts[m_list[0]] for m in m_list[1:]
        ),
        "point_count_law": {
            str(m): {
                ",".join(map(str, lab)): {"expected": e, "matched": counts[m][lab] == e}
                for lab, e in expected
            }
            for m in m_list
        },
    }
    if k == 1:
        report["pointwise_m_independent"] = pointwise_equal
    return report
