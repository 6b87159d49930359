"""Reference answers computed without zipstrata.

Everything here is plain integer arithmetic on one-line permutations and on
matrices over a prime field F_p, so a defect in the library's element
representations, finite-field code or decision procedures cannot also
corrupt the value it is checked against.
"""

from __future__ import annotations

import itertools
import math
import random


# -- permutations (0-based one-line tuples) ----------------------------------


def inversions(one_line) -> int:
    """Length of a permutation: the number of inversions of its one-line form."""
    p = list(one_line)
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def canonical_word(one_line_1based) -> list[int]:
    """The reduced word zipstrata prints for generic data: repeatedly strip the
    smallest left descent s_k (values k and k+1 appear in decreasing position
    order) from the left."""
    p = [v - 1 for v in one_line_1based]
    word = []
    while True:
        pos = [0] * len(p)
        for i, v in enumerate(p):
            pos[v] = i
        k = next((k for k in range(1, len(p)) if pos[k - 1] > pos[k]), None)
        if k is None:
            return word
        word.append(k)
        p = [k if v == k - 1 else k - 1 if v == k else v for v in p]


def gl_frame_element(n: int, r: int) -> list[int]:
    """z = w_{0,I} w_0 for GL_n of signature (r, n-r), sigma = id (0-based)."""
    w0 = [n - 1 - i for i in range(n)]
    w0I = list(reversed(range(r))) + list(reversed(range(r, n)))
    return [w0I[w0[i]] for i in range(n)]


def invert(one_line) -> list[int]:
    out = [0] * len(one_line)
    for i, v in enumerate(one_line):
        out[v] = i
    return out


def gl_coset_count(n: int, r: int) -> int:
    """|^I W| for GL_n of signature (r, n-r): n! / (r! (n-r)!)."""
    return math.comb(n, r)


# -- the length-2 trichotomy ----------------------------------------------------


def length2_expected(r: int, s: int) -> dict:
    """Closed-form (bounded, smooth) for U_1 and U_2 at signature (r, s).

    gcd(r, s) > 3: neither piece is bounded; gcd in {2, 3}: both smooth;
    gcd = 1: with m = s^{-1} mod n, U_1 is smooth iff 2m > n and U_2 iff 2m < n.
    """
    n, g = r + s, math.gcd(r, s)
    if g > 3:
        return {"U1": (False, False), "U2": (False, False)}
    if g > 1:
        return {"U1": (True, True), "U2": (True, True)}
    m = pow(s, -1, n)
    return {"U1": (True, 2 * m > n), "U2": (True, 2 * m < n)}


# -- matrices over a prime field -----------------------------------------------


def det_mod(A, p: int) -> int:
    work = [list(row) for row in A]
    n, d = len(work), 1
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            d = -d
        d = d * work[col][col] % p
        inv = pow(work[col][col], p - 2, p)
        for i in range(col + 1, n):
            f = work[i][col] * inv % p
            if f:
                for j in range(col, n):
                    work[i][j] = (work[i][j] - f * work[col][j]) % p
    return d % p


def random_invertible(n: int, p: int, rng: random.Random):
    while True:
        g = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if det_mod(g, p):
            return g


def perm_matrix(one_line, n: int):
    """Column i carries a single 1 in row w(i)."""
    return tuple(tuple(1 if one_line[j] == i else 0 for j in range(n)) for i in range(n))


def times_perm(A, one_line):
    """A * P_w: column j of the product is column w(j) of A."""
    return tuple(tuple(row[one_line[j]] for j in range(len(row))) for row in A)


def char_valuation(g, r: int, p: int) -> int:
    """X-adic valuation of det(X - A) for A the top-left r x r block of g.

    The coefficient of X^k is, up to sign, the sum of the principal minors of
    A of size r - k; the polynomial is monic, so the valuation is at most r.
    """
    A = [row[:r] for row in g[:r]]
    for k in range(r):
        size = r - k
        total = sum(
            det_mod([[A[i][j] for j in rows] for i in rows], p)
            for rows in itertools.combinations(range(r), size)
        )
        if total % p:
            return k
    return r


def x_label(n: int, i: int) -> tuple[int, ...]:
    """One-line label of x_i at signature (n-1, 1): [1..i, n, i+1..n-1]."""
    return tuple(range(1, i + 1)) + (n,) + tuple(range(i + 1, n))
