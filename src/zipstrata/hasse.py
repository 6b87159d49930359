"""Characteristic-zero Hasse-invariant feasibility.

Existence of a generalized Hasse invariant on the closure of the w-stratum in
weight lambda reduces to exact rational linear feasibility: find lambda_0 in
X*(T) (rationally, then scale) with

    lambda = w lambda_0 - z lambda_0   and   <lambda_0, alpha^vee> < 0
                                             for every alpha in E_w,

where E_w is the set of positive roots alpha with l(w s_alpha) = l(w) - 1.
E_w is read off the Bruhat coatoms of w (`WeylGroup.coatoms`).  The
equalities are solved by one fraction-free integer Gauss-Jordan elimination
and the strict rows decided by Fourier-Motzkin elimination on primitive
integer rows.  Infeasibility comes with an integer certificate: multipliers
(the strict ones nonnegative) that replay to the symbolic contradiction
0 < 0.  Back-substitution runs on integers too, with its values over one
shared denominator, and so does everything after it: the point comes back
as integer numerators over that denominator, a witness is kept as its
integer scaling and the least multiplier that makes it integral, and a
Fraction is built only when `HasseWitness.lambda0` is read.  The coroot
rows, z^{-1} and z's columns are built once per datum and kept on it
(`_tables`).  Every load-bearing check (certificate replay, the witness
re-check) raises `InvariantViolation`, so it also runs under ``python
-O``; the re-check pairs the witness with the simple coroots and expands
each alpha^vee over them, so it reads none of the rows the system was
built from.  Scaling the rational witness to an integer one is sound
because the geometric statement allows passing to a positive power of
the line bundle; the multiplier is least for the lambda_0 found, and no
other lambda_0 with a smaller one is sought.

Fourier-Motzkin keeps, with each row, its multipliers over the input rows
(the certificate needs them), and their support is the row's history.
After k variables are eliminated, a combined row whose history holds more
than k + 1 input rows is implied by the other rows of its stage
(Chernikov's rule: S. N. Chernikov, 1965; D. A. Kohler, 1967; Schrijver,
*Theory of Linear and Integer Programming*, 1986, §12.2), and is dropped.
The rule is stated for an elimination that keeps every derived row.  This
one keeps a positive multiple of a row once, with the history of its first
derivation, and another derivation of the same row may have a history the
rule would let combine where the first one's does not.  So the rule can
drop a row the system needs (on F4 with I = {1, 3}, one of 288 strata at
weight 0).  That shows at once: the rule drops only combined rows, so
every input row is read, up to a positive factor, by back-substitution at
its first nonzero variable.  A back-substitution that finds a value at
each variable has thus found a point of the original system, and an
infeasible system whose contradiction was dropped meets an empty interval
on the way.  Such a system is eliminated
again without the rule.  Where the rule keeps every stage's polyhedron,
every back-substitution interval, hence t and lambda_0, is that of the
rule-free elimination; on all golden data and on every system of the
property-test data the witnesses agree.  Without the rule, redundant rows
compound from one eliminated variable to the next.

At lambda = 0, the query `strata-list` makes for every stratum,
`hasse_feasible` eliminates no equality.  Let u = z^{-1} w.  Then
(w - z) lambda_0 = 0 says exactly that u fixes lambda_0, and for such a
lambda_0 the pairing <lambda_0, beta^vee> = <u lambda_0, (u beta)^vee> is
constant on each u-orbit O of roots.  So the strict rows become one row per
u-orbit O that meets E_w, the orbit sum c_O = sum_{beta in O} beta^vee,
which u fixes.  Distinct orbits often share a sum; each distinct sum is one
row, kept with the first orbit that has it.  Columns equal in every row are
merged into one variable (in GL_n one per cycle of u), and Fourier-Motzkin
decides <t, c_O> < 0 for t anywhere in X*(T).

- Averaging.  If t solves the orbit rows, lambda_0 = the sum of the u-orbit
  of t (a positive multiple of sum_{k < ord u} u^k t) is fixed by u, and
  <lambda_0, c_O> is a positive multiple of <t, c_O> < 0; by the constancy
  above every strict row of E_w holds.  Conversely a u-fixed solution is
  such a t, so the two systems are feasible together.
- Telescoping.  By the W-invariance of the pairing, beta^vee - (u beta)^vee
  = (row of (w beta)^vee) (w - z).  Summed along the orbit alpha, u alpha,
  ..., u^{m-1} alpha of alpha in E_w, this gives c_O = m alpha^vee -
  sum_{i < m} (m - 1 - i) (row of (w u^i alpha)^vee) (w - z).  So
  multipliers y_O >= 0 with sum_O y_O c_O = 0 become the strict multiplier
  m y_O on alpha and integer equality multipliers, a certificate for the
  original system that replays like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, attrgetter, mul, sub
from typing import Sequence

from .rootdata import Root
from .weyl import BudgetExceeded, InvariantViolation, WeylElement, compose
from .zipdatum import ZipDatum, ZipDatumError

_FM_ROW_CAP = 200_000


def e_w_set(zd: ZipDatum, w: WeylElement) -> list[Root]:
    """E_w = {alpha in Phi+ : l(w s_alpha) = l(w) - 1}, the roots of the
    Bruhat coatoms of w, sorted by coordinates.

    Each w s_alpha lies below w by the definition of the Bruhat order, so
    no comparison is made here (`tests/test_hasse.py` checks it).
    """
    return sorted([alpha for alpha, _ in zd.W.coatoms(w)], key=attrgetter("coords"))


@dataclass(frozen=True)
class HasseWitness:
    """A rational lambda_0 certifying feasibility, kept as its integer
    scaling: lambda_0 = scaled_integral / multiplier, with multiplier > 0
    the least that makes it integral (`_scaled_witness`)."""

    scaled_integral: tuple[int, ...]
    multiplier: int

    @property
    def lambda0(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.multiplier) for x in self.scaled_integral)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Nonnegative multipliers deriving the contradiction 0 < 0.

    ``equality_multipliers`` (unconstrained sign) apply to the equality
    rows; ``strict_multipliers`` (nonnegative, not all zero unless the
    equalities alone are inconsistent) apply to the strict rows
    <lambda_0, alpha^vee> < 0 indexed by E_w order.  The solver builds
    every entry as an integer; rational entries replay as well.
    """

    eq_rows: tuple[tuple[int | Fraction, ...], ...]
    eq_rhs: tuple[int | Fraction, ...]
    strict_rows: tuple[tuple[int | Fraction, ...], ...]
    equality_multipliers: tuple[int | Fraction, ...]
    strict_multipliers: tuple[int | Fraction, ...]

    def replay(self) -> bool:
        """Re-derive the contradiction directly from the original system.

        The multipliers combine the rows to 0 = c with c != 0 (pure equality
        failure) or to 0 < 0 / 0 <= -c with c > 0 (strict failure).  The sums
        start from the integer 0, so integer certificates replay on integers.

        x + y = 1 and x + y < 0 contradict each other, with integers or
        with Fractions:

        >>> InfeasibilityCertificate(
        ...     eq_rows=((1, 1),), eq_rhs=(1,), strict_rows=((1, 1),),
        ...     equality_multipliers=(-1,), strict_multipliers=(1,)).replay()
        True
        >>> half = Fraction(1, 2)
        >>> InfeasibilityCertificate(
        ...     eq_rows=((half, half),), eq_rhs=(half,), strict_rows=((1, 1),),
        ...     equality_multipliers=(Fraction(-1),), strict_multipliers=(half,)
        ... ).replay()
        True
        """
        dim = len(self.eq_rows[0]) if self.eq_rows else len(self.strict_rows[0])
        coeffs = [0] * dim
        rhs = 0
        for mult, row, b in zip(self.equality_multipliers, self.eq_rows, self.eq_rhs):
            if mult:
                coeffs = [c + mult * x for c, x in zip(coeffs, row)]
                rhs += mult * b
        strict = False
        for mult, row in zip(self.strict_multipliers, self.strict_rows):
            if mult < 0:
                return False
            if mult > 0:
                strict = True
                coeffs = [c + mult * x for c, x in zip(coeffs, row)]
        if any(coeffs):
            return False
        # combined: 0 (+ strict negatives) REL rhs; contradiction iff:
        if strict:
            return rhs <= 0  # 0 < sum(strict) <= rhs <= 0
        return rhs != 0


@dataclass(frozen=True)
class HasseResult:
    """Outcome of a feasibility query: a witness or a replayable certificate,
    with the set E_w the strict inequalities were taken over."""

    witness: HasseWitness | None
    certificate: InfeasibilityCertificate | None
    e_w: tuple[Root, ...]

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def _check_L_weight(zd: ZipDatum, lam: Sequence[int]) -> None:
    for k in sorted(zd.I):
        if zd.lattice.pairing_simple(lam, k) != 0:
            raise ZipDatumError(
                f"lambda is not an L-weight: <lambda, alpha_{k}^vee> != 0"
            )


class _Tables:
    """A datum's constants for the Hasse queries, built on its first query
    and kept on it (`_tables`)."""

    __slots__ = ("coroots", "supports", "index", "zinv", "zinv_roots", "units", "zcols")

    def __init__(self, zd: ZipDatum) -> None:
        lattice, dim = zd.lattice, zd.lattice.dim
        # (<e_d, beta^vee>)_d for every root index beta, and its nonzero entries
        self.coroots, self.supports = _coroot_rows(zd.rs, lattice)
        self.index = zd.rs.root_index
        self.zinv = zd.z.inverse()
        self.zinv_roots = zd.W.root_key(self.zinv)
        self.units = tuple(tuple(int(j == k) for j in range(dim)) for k in range(dim))
        self.zcols = tuple(zd.z.apply_weight(e, lattice) for e in self.units)  # z e_k


# (root system, lattice) -> `_coroot_rows`, kept for the life of the process
_COROOT_ROWS: dict = {}


def _coroot_rows(rs, lattice) -> tuple[tuple, tuple]:
    """The coroot rows (<e_d, beta^vee>)_d of every root index beta
    (`RootSystem.roots` order) and their nonzero entries, one table per
    root datum, shared by its zip data.  A row is read off the coroot
    expansion of beta^vee and the lattice's simple coroot pairings; the
    negative roots follow the positive ones in the same order, and
    (-beta)^vee = -beta^vee."""
    key = (rs, lattice)
    hit = _COROOT_ROWS.get(key)
    if hit is None:
        simple = tuple(zip(*lattice.coroot_pairing))  # <e_d, alpha_k^vee> over d
        rows = []
        for beta in rs.positive_roots:
            row = [0] * lattice.dim
            for c, col in zip(beta.coroot_coords, simple):
                if c:
                    row = [x + c * y for x, y in zip(row, col)]
            rows.append(tuple(row))
        rows += [tuple([-x for x in row]) for row in rows]
        supports = tuple(tuple((d, x) for d, x in enumerate(row) if x) for row in rows)
        hit = _COROOT_ROWS[key] = (tuple(rows), supports)
    return hit


def _tables(zd: ZipDatum) -> _Tables:
    tables = zd._extra.get("hasse")
    if tables is None:
        tables = zd._extra["hasse"] = _Tables(zd)
    return tables


# ---------------------------------------------------------------------------
# exact linear algebra over the integers: equalities by fraction-free
# Gauss-Jordan elimination (after Bareiss, Math. Comp. 1968, dividing each
# row by its gcd instead of by the previous pivot), strict rows by
# Fourier-Motzkin elimination.  Every row is kept as a primitive integer
# vector, so no Fraction is built inside an elimination loop.


def _rref_with_combos(rows, rhs, dim):
    """Row reduce the integer system [rows | rhs] in ``dim`` variables
    fraction-free, tracking each work row as an integer combination of the
    input rows.

    Elimination replaces row i by d * row_i - f * row_r (d the pivot of row
    r, f the entry of row i in the pivot column) and divides by the gcd of
    the whole row; every work row is then a nonzero multiple of the row
    plain Gauss-Jordan elimination gives.
    Returns (pivots, reduced, bad_combo): ``reduced[i]`` is the integer pivot
    row ``[coeffs | rhs | combination]`` whose pivot sits in column
    ``pivots[i]``, and ``bad_combo`` combines the input rows to 0 = nonzero
    when the system is inconsistent (else None).
    """
    m = len(rows)
    # one augmented row: coefficients, rhs, combination of the inputs
    work, zeros = [], [0] * m
    for i, (row, b) in enumerate(zip(rows, rhs)):
        aug = [*row, b, *zeros]
        aug[dim + 1 + i] = 1
        work.append(aug)
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, m) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        d = prow[c]
        for i in range(m):
            f = work[i][c]
            if i != r and f:
                row = [d * x - f * y for x, y in zip(work[i], prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    bad = next((i for i in range(r, m) if work[i][dim]), None)
    bad_combo = None if bad is None else work[bad][dim + 1:]
    return pivots, work[:r], bad_combo


def _solve_equalities(rows, rhs, dim):
    """Solve rows . x = rhs over Q in ``dim`` variables; with no rows every
    x solves it (P = 0, B the unit vectors, D = 1).

    Returns ('infeasible', multipliers) with integer multipliers deriving
    0 = nonzero, or ('ok', (P, B, D, span)): the solutions are
    (P + sum_j t_j B_j) / D for rational t, with integer vectors P, B_j and a
    common denominator D > 0.  P / D and B_j / D are the particular solution
    and the nullspace basis read off the reduced row echelon form (free
    variable j set to 1).  ``span`` lists, per pivot row, its pivot column
    c, the factor D / d (d the row's pivot entry) and the row's integer
    combination of the input rows.
    """
    pivots, red, bad_combo = _rref_with_combos(rows, rhs, dim)
    if bad_combo is not None:
        return "infeasible", bad_combo
    denom = lcm(*(abs(row[c]) for row, c in zip(red, pivots)))
    scale = [denom // row[c] for row, c in zip(red, pivots)]
    span = [(c, k, row[dim + 1:]) for row, c, k in zip(red, pivots, scale)]
    particular = [0] * dim
    for row, c, k in zip(red, pivots, scale):
        particular[c] = row[dim] * k
    basis = []
    for fc in sorted(set(range(dim)) - set(pivots)):
        vec = [0] * dim
        vec[fc] = denom
        for row, c, k in zip(red, pivots, scale):
            vec[c] = -row[fc] * k
        basis.append(vec)
    return "ok", (particular, basis, denom, span)


def _fm_add(new, seen, row, nvars):
    """Append ``row`` unless a positive multiple of its (coeffs, rhs) is
    already in ``new``; the stored row is divided by its gcd."""
    head = row[:nvars + 1]
    g = gcd(*head)
    key = tuple(head) if g < 2 else tuple([x // g for x in head])
    if key in seen:
        return
    seen.add(key)
    g = gcd(g, *row[nvars + 1:])
    new.append([x // g for x in row] if g > 1 else row)


def _fm_contradiction(rows, nvars):
    """Multipliers of the first row reading 0 < b with b <= 0, or None."""
    for row in rows:
        if row[nvars] <= 0 and not any(row[:nvars]):
            return tuple(row[nvars + 1:])
    return None


def _fourier_motzkin(strict_rows, rhs):
    """Decide {t : row . t < rhs_row for all rows} over Q, integer rows.

    Returns ('feasible', (num, den)), the point t = num / den in lowest
    terms (den > 0 the lcm of the denominators of t), or ('infeasible',
    multipliers) with nonnegative integer multipliers over the input rows
    deriving 0 < 0.

    The elimination first follows Chernikov's rule (module docstring).  If
    back-substitution then meets an empty interval, the rule dropped a row
    the system needs, and the system is eliminated again without the rule.
    """
    return _fm_eliminate(strict_rows, rhs, True) or _fm_eliminate(strict_rows, rhs, False)


def _fm_eliminate(strict_rows, rhs, chernikov):
    """`_fourier_motzkin`'s elimination and back-substitution.  With
    ``chernikov``, after eliminating variable ``var`` (0-based), a combined
    row with more than var + 2 nonzero multipliers is not kept, and an
    empty back-substitution interval returns None.

    Back-substitution picks, at each variable, the midpoint of its interval,
    or the one bound it has moved by 1, or 0.  It works on integers: every
    value chosen so far is a numerator over one shared denominator, which
    grows (and the numerators with it) when a value needs more, and bounds
    are compared by cross-multiplication.  Each value is reduced, and the
    shared denominator starts at 1 and grows only to the lcm of itself and
    a value's denominator, so the point comes out in lowest terms."""
    nvars = len(strict_rows[0]) if strict_rows else 0
    m = len(strict_rows)
    # a row is [coeffs | rhs | multipliers]; positive multiples of a row
    # describe the same half-space, so a row is kept once, divided by its gcd
    rows, zeros = [], [0] * m
    for i, (row, b) in enumerate(zip(strict_rows, rhs)):
        aug = [*row, b, *zeros]
        aug[nvars + 1 + i] = 1
        rows.append(aug)
    stages = []
    for var in range(nvars):
        bad = _fm_contradiction(rows, nvars)
        if bad is not None:
            return "infeasible", bad
        stages.append(rows)
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        new = []
        seen = set()
        for r in rows:
            if r[var] == 0:
                _fm_add(new, seen, r, nvars)
        for rp in pos:
            ap = rp[var]
            for rn in neg:
                an = -rn[var]
                row = [an * x + ap * y for x, y in zip(rp, rn)]
                if chernikov and m - row[nvars + 1:].count(0) > var + 2:
                    continue  # Chernikov's rule
                _fm_add(new, seen, row, nvars)
                if len(new) > _FM_ROW_CAP:
                    raise BudgetExceeded("Fourier-Motzkin row cap exceeded")
        rows = new
    bad = _fm_contradiction(rows, nvars)
    if bad is not None:
        return "infeasible", bad

    # back-substitute, last eliminated variable first, on integers: t_k is
    # num[k] / den with one shared den > 0, and a bound is a pair (p, q),
    # q > 0, standing for p / q.  The row a t_var + rest' < b bounds t_var by
    # (b den - rest' den) / (a den), which does not change when the row is
    # scaled by a positive number.
    num = [0] * nvars
    den = 1
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        tail = num[var + 1:]
        for row in stages[var]:
            a = row[var]
            if a == 0:
                continue
            rest = row[nvars] * den - sum(map(mul, row[var + 1:nvars], tail))
            if a > 0:  # t_var < rest / (a den)
                q = a * den
                if hi is None or rest * hi[1] < hi[0] * q:
                    hi = (rest, q)
            else:  # t_var > -rest / (-a den)
                q = -a * den
                if lo is None or -rest * lo[1] > lo[0] * q:
                    lo = (-rest, q)
        if lo is None and hi is None:
            continue  # t_var = 0
        if lo is None:
            p, q = hi[0] - hi[1], hi[1]
        elif hi is None:
            p, q = lo[0] + lo[1], lo[1]
        else:
            if not lo[0] * hi[1] < hi[0] * lo[1]:
                if chernikov:
                    return None
                raise InvariantViolation(
                    "feasible FM system must leave room at each variable"
                )
            p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(p, q)
        p, q = p // g, q // g
        if den % q:  # the shared denominator grows to lcm(den, q)
            grow = q // gcd(den, q)
            num = [x * grow for x in num]
            den *= grow
        num[var] = p * (den // q)
    return "feasible", (tuple(num), den)


def _certificate(eq_rows, eq_rhs, strict_rows, eq_mults, strict_mults):
    """The infeasibility certificate, replayed before it is returned."""
    cert = InfeasibilityCertificate(
        eq_rows=tuple(map(tuple, eq_rows)),
        eq_rhs=tuple(eq_rhs),
        strict_rows=tuple(map(tuple, strict_rows)),
        equality_multipliers=tuple(eq_mults),
        strict_multipliers=tuple(strict_mults),
    )
    if not cert.replay():
        raise InvariantViolation("infeasibility certificate failed to replay")
    return cert


def _feasible_lambda0(dim, eq_rows, eq_rhs, strict_rows):
    """Rational x with eq_rows . x = eq_rhs and strict_rows . x < 0.

    Returns ((numerators, den), None), x = numerators / den with den > 0, or
    (None, certificate); all rows are integer.
    """
    status, payload = _solve_equalities(eq_rows, eq_rhs, dim)
    if status == "infeasible":
        return None, _certificate(
            eq_rows, eq_rhs, strict_rows, payload, [0] * len(strict_rows)
        )
    particular, basis, denom, span = payload
    if not strict_rows:
        return (particular, denom), None

    # substitute D x = P + B t (D > 0) into the strict rows: row . x < 0
    # becomes the integer row (row . B) t < -(row . P)
    sub_rows, sub_rhs = [], []
    for row in strict_rows:
        nz = [(k, c) for k, c in enumerate(row) if c]
        sub_rows.append([sum(c * bvec[k] for k, c in nz) for bvec in basis])
        sub_rhs.append(-sum(c * particular[k] for k, c in nz))

    status, payload = _fourier_motzkin(sub_rows, sub_rhs)
    if status == "infeasible":
        # combined = sum mu_j strict_j vanishes on every B_j, so it lies in
        # the row span of the equalities, and in reduced echelon form
        # D combined = sum_i combined[c_i] (D / d_i) red_i (pivot column c_i,
        # pivot entry d_i); the strict multipliers are scaled by D to match
        combined = [
            sum(mu * row[k] for mu, row in zip(payload, strict_rows) if mu)
            for k in range(dim)
        ]
        eq_mults = [0] * len(eq_rows)
        for c, k, combo in span:
            f = combined[c] * k
            if f:
                for i, x in enumerate(combo):
                    eq_mults[i] -= f * x
        return None, _certificate(
            eq_rows, eq_rhs, strict_rows, eq_mults, [denom * mu for mu in payload]
        )
    # x = (P + B t) / D on the integer numerators of t = T / E
    tnum, tden = payload
    num = [
        p * tden + sum(bvec[k] * tv for bvec, tv in zip(basis, tnum) if bvec[k])
        for k, p in enumerate(particular)
    ]
    return (num, denom * tden), None


def _scaled_witness(num, den) -> HasseWitness:
    """The witness lambda_0 = num / den (den > 0): its multiplier
    den / gcd(den, *num) is the lcm of the reduced denominators."""
    g = gcd(den, *num)
    return HasseWitness(tuple(x // g for x in num), den // g)


def _w_minus_z_cols(zd, w, tables):
    """Columns (w - z) e_k of the lattice map lambda_0 |-> w lambda_0 -
    z lambda_0."""
    lattice = zd.lattice
    return [
        tuple(map(sub, w.apply_weight(e, lattice), zk))
        for e, zk in zip(tables.units, tables.zcols)
    ]


def _prologue(zd, w):
    """E_w and the datum's tables, after refusing w outside ^I W."""
    if not zd.in_IW(w):
        raise ZipDatumError(f"w = {w!r} is not in ^I W")
    return tuple(e_w_set(zd, w)), _tables(zd)


def hasse_feasible(zd: ZipDatum, w: WeylElement, lam: Sequence[int]) -> HasseResult:
    """Does some positive power of L(lambda) carry a Hasse invariant on w?

    Decides the existence of rational lambda_0 with
    (w - z) lambda_0 = lambda and <lambda_0, alpha^vee> < 0 on E_w.  At
    lambda = 0 this is decided on u-orbit sums of coroots
    (`_feasible_at_zero`), with a witness and a certificate of its own;
    any other weight goes to the general elimination (`_eliminate`).
    """
    ew, tables = _prologue(zd, w)
    if len(lam) != zd.lattice.dim:
        raise ZipDatumError(f"weight has dimension {len(lam)}, lattice has {zd.lattice.dim}")
    if not any(lam):
        return _feasible_at_zero(zd, w, ew, tables)
    lam = [int(x) for x in lam]
    _check_L_weight(zd, lam)
    return _eliminate(zd, w, ew, tables, lambda cols: (list(zip(*cols)), lam),
                      lambda cols, witness: [witness.multiplier * x for x in lam])[1]


def hasse_any_Lweight(zd: ZipDatum, w: WeylElement):
    """Search for any L-weight lambda admitting a Hasse invariant on w.

    Decides existence of lambda_0 with (w - z) lambda_0 orthogonal to every
    coroot in I and <lambda_0, alpha^vee> < 0 on E_w; on success returns
    ``(lambda, HasseResult)`` with lambda = (w - z) lambda_0 scaled integral.
    """
    ew, tables = _prologue(zd, w)

    def equalities(cols):
        # row k: <(w - z) e_j, alpha_k^vee> for each j, alpha_k simple in I
        rows = [[zd.lattice.pairing_simple(col, k) for col in cols] for k in sorted(zd.I)]
        return rows, [0] * len(rows)

    def image(cols, witness):
        lam = tuple(sum(map(mul, row, witness.scaled_integral)) for row in zip(*cols))
        _check_L_weight(zd, lam)
        return lam

    return _eliminate(zd, w, ew, tables, equalities, image)


def _eliminate(zd, w, ew, tables, equalities, image):
    """The general elimination, shared by `hasse_feasible` and
    `hasse_any_Lweight`: rational lambda_0 meeting the equality rows and
    right-hand side ``equalities(cols)`` and <lambda_0, alpha^vee> < 0 on
    E_w, where cols are the columns (w - z) e_k.  A witness is re-checked
    against ``image(cols, witness)``, the (w - z)-image its scaled integral
    vector must have.  Returns (that image, or None when infeasible,
    HasseResult)."""
    cols = _w_minus_z_cols(zd, w, tables)
    eq_rows, eq_rhs = equalities(cols)
    point, cert = _feasible_lambda0(zd.lattice.dim, eq_rows, eq_rhs, _strict_rows(tables, ew))
    if point is None:
        return None, HasseResult(witness=None, certificate=cert, e_w=ew)
    witness = _scaled_witness(*point)
    expected = image(cols, witness)
    _verify_witness(zd, w, expected, witness, ew)
    return expected, HasseResult(witness=witness, certificate=None, e_w=ew)


def _feasible_at_zero(zd, w, ew, tables) -> HasseResult:
    """`hasse_feasible` at lambda = 0, decided on u-orbit sums of coroots,
    u = z^{-1} w, with no equality elimination (module docstring).

    Gives the verdict and E_w of `_eliminate` at lambda = 0; the witness and
    the certificate are its own, and both are re-checked.
    """
    coroots, supports, index = tables.coroots, tables.supports, tables.index
    # u permutes the root indices as z^{-1} after w
    on_w = zd.W.root_key(w)
    on_roots = compose(tables.zinv_roots, on_w)
    # the coroot sum c_O of the u-orbit O of each root of E_w, walked from
    # the first root of E_w in it; orbits with the same sum give one row,
    # kept with the first of them
    by_sum, seen = {}, set()
    for j, alpha in enumerate(ew):
        a = index[alpha.coords]
        if a in seen:
            continue
        seen.add(a)
        total, b = list(coroots[a]), on_roots[a]
        while b != a:
            seen.add(b)
            for d, x in supports[b]:
                total[d] += x
            b = on_roots[b]
        by_sum.setdefault(tuple(total), (a, j))
    # columns equal in every row share one variable, kept at the first of
    # them; t is 0 on the others and on the zero columns
    first = {}
    for k, col in enumerate(zip(*by_sum)):
        if any(col):
            first.setdefault(col, k)
    keep = list(first.values())
    status, payload = _fourier_motzkin(
        [[row[k] for k in keep] for row in by_sum], [0] * len(by_sum))
    dim = zd.lattice.dim
    if status == "infeasible":
        # sum y_O c_O = 0 with c_O = |O| alpha^vee - sum_i (|O| - 1 - i)
        # (row of (w u^i alpha)^vee) (w - z): the telescoped orbit sum
        strict_mults = [0] * len(ew)
        eq_mults = [0] * dim
        for y, (a, j) in zip(payload, by_sum.values()):
            if not y:
                continue
            orbit, b = [a], on_roots[a]
            while b != a:
                orbit.append(b)
                b = on_roots[b]
            m = len(orbit)
            strict_mults[j] = y * m
            for i, b in enumerate(orbit[:-1]):
                f = y * (m - 1 - i)
                for d, x in supports[on_w[b]]:
                    eq_mults[d] -= f * x
        cert = _certificate(list(zip(*_w_minus_z_cols(zd, w, tables))), [0] * dim,
                            _strict_rows(tables, ew), eq_mults, strict_mults)
        return HasseResult(witness=None, certificate=cert, e_w=ew)
    # lambda_0 = the sum of the u-orbit of t, on the integer numerators of t
    tnum, tden = payload
    t = [0] * dim
    for k, x in zip(keep, tnum):
        t[k] = x
    t, u = tuple(t), tables.zinv * w
    total, v = t, u.apply_weight(t, zd.lattice)
    while v != t:
        total = tuple(map(add, total, v))
        v = u.apply_weight(v, zd.lattice)
    witness = _scaled_witness(total, tden)
    _verify_witness(zd, w, [0] * dim, witness, ew)
    return HasseResult(witness=witness, certificate=None, e_w=ew)


def _strict_rows(tables, ew):
    """Row d of alpha's strict row is <e_d, alpha^vee>."""
    coroots, index = tables.coroots, tables.index
    return [coroots[index[alpha.coords]] for alpha in ew]


def _verify_witness(zd, w, image, witness, ew):
    """Exact integer re-check of a scaled witness: its image under w - z,
    taken by the Weyl action on the lattice, must be ``image``, and each
    strict row is checked through the coroot expansion of alpha^vee over
    the witness's pairings with the simple coroots, so it reads none of the
    coroot rows the system was built from."""
    scaled = witness.scaled_integral
    lattice = zd.lattice
    got = list(map(sub, w.apply_weight(scaled, lattice), zd.z.apply_weight(scaled, lattice)))
    if got != list(image):
        raise InvariantViolation("witness fails the weight equation")
    simple = [sum(map(mul, scaled, col)) for col in zip(*lattice.coroot_pairing)]
    for alpha in ew:
        if not sum(map(mul, alpha.coroot_coords, simple)) < 0:
            raise InvariantViolation("witness fails a strict pairing")


def hasse_report(zd: ZipDatum, w: WeylElement, lam: Sequence[int] | None) -> dict:
    """JSON-ready feasibility report for one stratum."""
    if lam is None:
        lam_out, result = hasse_any_Lweight(zd, w)
        lam_field = None if lam_out is None else list(lam_out)
    else:
        result = hasse_feasible(zd, w, lam)
        lam_field = list(lam)
    return {
        "w": w.label(),
        "E_w": [list(a.coords) for a in result.e_w],
        "lambda": lam_field,
        "feasible": result.feasible,
        "witness": list(result.witness.scaled_integral) if result.feasible else None,
        "multiplier": result.witness.multiplier if result.feasible else None,
    }
