"""Characteristic-zero Hasse-invariant feasibility.

Existence of a generalized Hasse invariant on the closure of the w-stratum in
weight lambda reduces to exact rational linear feasibility: find lambda_0 in
X*(T) (rationally, then scale) with

    lambda = w lambda_0 - z lambda_0   and   <lambda_0, alpha^vee> < 0
                                             for every alpha in E_w,

where E_w is the set of positive roots alpha with l(w s_alpha) = l(w) - 1.
Strict systems are decided by Fourier-Motzkin elimination over Fraction
arithmetic; infeasibility comes with a nonnegative-multiplier certificate
that replays to the symbolic contradiction 0 < 0.  Scaling the rational
witness to an integer one is sound because the geometric statement allows
passing to a positive power of the line bundle; no minimality of the
multiplier is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .rootdata import Root
from .weyl import WeylElement
from .zipdatum import ZipDatum, ZipDatumError

_FM_ROW_CAP = 200_000


def e_w_set(zd: ZipDatum, w: WeylElement) -> list[Root]:
    """E_w = {alpha in Phi+ : l(w s_alpha) = l(w) - 1}.

    The Bruhat condition w s_alpha <= w is implied but re-checked.
    """
    out = []
    for alpha in zd.rs.positive_roots:
        ws = w * zd.W.reflection(alpha)
        if ws.length == w.length - 1:
            assert zd.W.bruhat_leq(ws, w), "length drop must imply Bruhat descent"
            out.append(alpha)
    out.sort(key=lambda a: a.coords)
    return out


@dataclass(frozen=True)
class HasseWitness:
    """A rational lambda_0 certifying feasibility, plus its integer scaling."""

    lambda0: tuple[Fraction, ...]
    scaled_integral: tuple[int, ...]
    multiplier: int


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Nonnegative multipliers deriving the contradiction 0 < 0.

    ``equality_multipliers`` (rational, unconstrained sign) apply to the
    equality rows; ``strict_multipliers`` (nonnegative, not all zero unless
    the equalities alone are inconsistent) apply to the strict rows
    <lambda_0, alpha^vee> < 0 indexed by E_w order.
    """

    eq_rows: tuple[tuple[Fraction, ...], ...]
    eq_rhs: tuple[Fraction, ...]
    strict_rows: tuple[tuple[Fraction, ...], ...]
    equality_multipliers: tuple[Fraction, ...]
    strict_multipliers: tuple[Fraction, ...]

    def replay(self) -> bool:
        """Re-derive the contradiction directly from the original system.

        The multipliers combine the rows to 0 = c with c != 0 (pure equality
        failure) or to 0 < 0 / 0 <= -c with c > 0 (strict failure).
        """
        dim = len(self.eq_rows[0]) if self.eq_rows else len(self.strict_rows[0])
        coeffs = [Fraction(0)] * dim
        for mult, row in zip(self.equality_multipliers, self.eq_rows):
            for k in range(dim):
                coeffs[k] += mult * row[k]
        rhs = sum(
            (m * b for m, b in zip(self.equality_multipliers, self.eq_rhs)),
            Fraction(0),
        )
        strict = False
        for mult, row in zip(self.strict_multipliers, self.strict_rows):
            if mult < 0:
                return False
            if mult > 0:
                strict = True
                for k in range(dim):
                    coeffs[k] += mult * row[k]
        if any(coeffs):
            return False
        # combined: 0 (+ strict negatives) REL rhs; contradiction iff:
        if strict:
            return rhs <= 0  # 0 < sum(strict) <= rhs <= 0
        return rhs != 0


@dataclass(frozen=True)
class HasseResult:
    """Outcome of a feasibility query: a witness or a replayable certificate."""

    witness: HasseWitness | None
    certificate: InfeasibilityCertificate | None

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def _check_L_weight(zd: ZipDatum, lam: Sequence[int]) -> None:
    if len(lam) != zd.lattice.dim:
        raise ZipDatumError(
            f"weight has dimension {len(lam)}, lattice has {zd.lattice.dim}"
        )
    for k in sorted(zd.I):
        if zd.lattice.pairing(lam, zd.rs.simple(k)) != 0:
            raise ZipDatumError(
                f"lambda is not an L-weight: <lambda, alpha_{k}^vee> != 0"
            )


# ---------------------------------------------------------------------------
# exact linear algebra: equalities by Gaussian elimination, strict rows by
# Fourier-Motzkin elimination


def _rref_with_combos(rows, rhs):
    """Row reduce [rows | rhs], tracking each work row as a combination of
    the input rows.  Returns (pivots, reduced, reduced_rhs, combo, bad) where
    bad indexes a 0 = nonzero row if the system is inconsistent."""
    m = len(rows)
    dim = len(rows[0]) if m else 0
    work = [list(map(Fraction, r)) for r in rows]
    b = [Fraction(x) for x in rhs]
    combo = [
        [Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)
    ]
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, m) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        b[r], b[piv] = b[piv], b[r]
        combo[r], combo[piv] = combo[piv], combo[r]
        d = work[r][c]
        work[r] = [x / d for x in work[r]]
        b[r] /= d
        combo[r] = [x / d for x in combo[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
                b[i] -= f * b[r]
                combo[i] = [x - f * y for x, y in zip(combo[i], combo[r])]
        pivots.append(c)
        r += 1
    bad = next((i for i in range(r, m) if b[i] != 0), None)
    return pivots, work[:r], b[:r], combo, bad


def _solve_equalities(rows, rhs):
    """Solve rows . x = rhs over Q.

    Returns ('infeasible', multipliers, None) or
    ('ok', particular, nullspace_basis).
    """
    if not rows:
        return "ok", None, None  # caller interprets: x free

    pivots, red, redb, combo, bad = _rref_with_combos(rows, rhs)
    if bad is not None:
        return "infeasible", tuple(combo[bad]), None
    dim = len(rows[0])
    free = [c for c in range(dim) if c not in pivots]
    particular = [Fraction(0)] * dim
    for i, c in enumerate(pivots):
        particular[c] = redb[i]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -red[i][fc]
        basis.append(tuple(vec))
    return "ok", tuple(particular), tuple(basis)


def _solve_linear_combination(rows, target):
    """Express target as a rational combination of rows (must be solvable)."""
    if not rows:
        assert not any(target)
        return ()
    dim = len(target)
    cols = [[rows[i][k] for i in range(len(rows))] for k in range(dim)]
    status, particular, _ = _solve_equalities(cols, list(target))
    assert status == "ok", "target is not in the row span"
    if particular is None:
        particular = tuple(Fraction(0) for _ in rows)
    return tuple(particular)


def _fourier_motzkin(strict_rows, rhs):
    """Decide {t : row . t < rhs_row for all rows} over Q.

    Returns ('feasible', t) or ('infeasible', multipliers) with nonnegative
    multipliers over the input rows deriving 0 < 0.
    """
    nvars = len(strict_rows[0]) if strict_rows else 0
    m = len(strict_rows)
    rows = []
    for i in range(m):
        mults = [Fraction(1 if j == i else 0) for j in range(m)]
        rows.append((list(map(Fraction, strict_rows[i])), Fraction(rhs[i]), mults))

    def normalize(row):
        coeffs, b, mults = row
        scale = next((abs(c) for c in coeffs if c), None)
        if scale is None or scale == 1:
            return row
        return ([c / scale for c in coeffs], b / scale, [x / scale for x in mults])

    def const_contradiction(row):
        coeffs, b, _ = row
        return not any(coeffs) and b <= 0

    stages = []
    for var in range(nvars):
        for row in rows:
            if const_contradiction(row):
                return "infeasible", tuple(row[2])
        stages.append(rows)
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        zero = [r for r in rows if r[0][var] == 0]
        new = []
        seen = set()
        for r in zero:
            nr = normalize(r)
            key = (tuple(nr[0]), nr[1])
            if key not in seen:
                seen.add(key)
                new.append(nr)
        for rp in pos:
            ap = rp[0][var]
            for rn in neg:
                an = -rn[0][var]
                coeffs = [an * x + ap * y for x, y in zip(rp[0], rn[0])]
                b = an * rp[1] + ap * rn[1]
                mults = [an * x + ap * y for x, y in zip(rp[2], rn[2])]
                nr = normalize((coeffs, b, mults))
                key = (tuple(nr[0]), nr[1])
                if key not in seen:
                    seen.add(key)
                    new.append(nr)
                if len(new) > _FM_ROW_CAP:
                    raise RuntimeError("Fourier-Motzkin row cap exceeded")
        rows = new
    for row in rows:
        if const_contradiction(row):
            return "infeasible", tuple(row[2])

    # back-substitute, last eliminated variable first
    values = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        lo = hi = None
        for coeffs, b, _ in stages[var]:
            a = coeffs[var]
            if a == 0:
                continue
            rest = b - sum(
                coeffs[k] * values[k] for k in range(var + 1, nvars) if coeffs[k]
            )
            bound = rest / a
            if a > 0:  # t_var < bound
                hi = bound if hi is None else min(hi, bound)
            else:  # t_var > bound
                lo = bound if lo is None else max(lo, bound)
        if lo is None and hi is None:
            values[var] = Fraction(0)
        elif lo is None:
            values[var] = hi - 1
        elif hi is None:
            values[var] = lo + 1
        else:
            assert lo < hi, "feasible FM system must leave room at each variable"
            values[var] = (lo + hi) / 2
    return "feasible", tuple(values)


def _feasible_lambda0(zd, eq_rows, eq_rhs, strict_pairs):
    """Common core: equalities eq_rows . x = eq_rhs plus strict rows < 0."""
    dim = zd.lattice.dim
    strict_rows = [row for _, row in strict_pairs]

    status, particular, basis = _solve_equalities(eq_rows, eq_rhs)
    if status == "infeasible":
        cert = InfeasibilityCertificate(
            eq_rows=tuple(tuple(map(Fraction, r)) for r in eq_rows),
            eq_rhs=tuple(map(Fraction, eq_rhs)),
            strict_rows=tuple(tuple(map(Fraction, r)) for r in strict_rows),
            equality_multipliers=particular,
            strict_multipliers=tuple(Fraction(0) for _ in strict_rows),
        )
        assert cert.replay(), "equality certificate failed to replay"
        return None, cert
    if particular is None:  # no equality constraints at all
        particular = tuple(Fraction(0) for _ in range(dim))
        basis = tuple(
            tuple(Fraction(1 if j == k else 0) for j in range(dim))
            for k in range(dim)
        )

    if not strict_rows:
        return tuple(particular), None

    # substitute x = p + N t into the strict rows
    sub_rows, sub_rhs = [], []
    for row in strict_rows:
        const = sum((Fraction(c) * p for c, p in zip(row, particular)), Fraction(0))
        coeffs = [
            sum((Fraction(c) * n for c, n in zip(row, bvec)), Fraction(0))
            for bvec in basis
        ]
        sub_rows.append(coeffs)
        sub_rhs.append(-const)

    status, payload = _fourier_motzkin(sub_rows, sub_rhs)
    if status == "infeasible":
        strict_mults = payload
        combined = [
            sum((m * Fraction(r[k]) for m, r in zip(strict_mults, strict_rows)),
                Fraction(0))
            for k in range(dim)
        ]
        eq_mults = _solve_linear_combination(eq_rows, combined)
        cert = InfeasibilityCertificate(
            eq_rows=tuple(tuple(map(Fraction, r)) for r in eq_rows),
            eq_rhs=tuple(map(Fraction, eq_rhs)),
            strict_rows=tuple(tuple(map(Fraction, r)) for r in strict_rows),
            equality_multipliers=tuple(-x for x in eq_mults),
            strict_multipliers=strict_mults,
        )
        assert cert.replay(), "strict certificate failed to replay"
        return None, cert
    t = payload
    lambda0 = tuple(
        p + sum((bvec[k] * tv for bvec, tv in zip(basis, t)), Fraction(0))
        for k, p in enumerate(particular)
    )
    return lambda0, None


def _witness_from_lambda0(zd, w, lambda0, ew):
    mult = lcm(*(x.denominator for x in lambda0)) if lambda0 else 1
    scaled = tuple(int(x * mult) for x in lambda0)
    for alpha in ew:
        assert zd.lattice.pairing(scaled, alpha) < 0 or mult == 0
    return HasseWitness(lambda0=lambda0, scaled_integral=scaled, multiplier=mult)


def _w_minus_z_rows(zd, w):
    """Rows of the lattice map lambda_0 |-> w lambda_0 - z lambda_0."""
    dim = zd.lattice.dim
    cols = []
    for k in range(dim):
        e = tuple(1 if j == k else 0 for j in range(dim))
        wk = w.apply_weight(e, zd.lattice)
        zk = zd.z.apply_weight(e, zd.lattice)
        cols.append([a - b for a, b in zip(wk, zk)])
    return [[cols[k][d] for k in range(dim)] for d in range(dim)]


def hasse_feasible(zd: ZipDatum, w: WeylElement, lam: Sequence[int]) -> HasseResult:
    """Does some positive power of L(lambda) carry a Hasse invariant on w?

    Decides the existence of rational lambda_0 with
    (w - z) lambda_0 = lambda and <lambda_0, alpha^vee> < 0 on E_w.
    """
    lam = tuple(int(x) for x in lam)
    if not zd.in_IW(w):
        raise ZipDatumError(f"w = {w!r} is not in ^I W")
    _check_L_weight(zd, lam)
    ew = e_w_set(zd, w)
    eq_rows = _w_minus_z_rows(zd, w)
    eq_rhs = list(lam)
    strict_pairs = [
        (alpha, [zd.lattice.pairing(_unit(zd.lattice.dim, k), alpha)
                 for k in range(zd.lattice.dim)])
        for alpha in ew
    ]
    lambda0, cert = _feasible_lambda0(zd, eq_rows, eq_rhs, strict_pairs)
    if lambda0 is None:
        return HasseResult(witness=None, certificate=cert)
    witness = _witness_from_lambda0(zd, w, lambda0, ew)
    _verify_witness(zd, w, lam, witness, ew)
    return HasseResult(witness=witness, certificate=None)


def hasse_any_Lweight(zd: ZipDatum, w: WeylElement):
    """Search for any L-weight lambda admitting a Hasse invariant on w.

    Decides existence of lambda_0 with (w - z) lambda_0 orthogonal to every
    coroot in I and <lambda_0, alpha^vee> < 0 on E_w; on success returns
    ``(lambda, HasseResult)`` with lambda = (w - z) lambda_0 scaled integral.
    """
    if not zd.in_IW(w):
        raise ZipDatumError(f"w = {w!r} is not in ^I W")
    ew = e_w_set(zd, w)
    dim = zd.lattice.dim
    wz = _w_minus_z_rows(zd, w)
    eq_rows = []
    for k in sorted(zd.I):
        alpha = zd.rs.simple(k)
        row = []
        for j in range(dim):
            img = tuple(wz[d][j] for d in range(dim))
            row.append(zd.lattice.pairing(img, alpha))
        eq_rows.append(row)
    eq_rhs = [0] * len(eq_rows)
    strict_pairs = [
        (alpha, [zd.lattice.pairing(_unit(dim, k), alpha) for k in range(dim)])
        for alpha in ew
    ]
    lambda0, cert = _feasible_lambda0(zd, eq_rows, eq_rhs, strict_pairs)
    if lambda0 is None:
        return None, HasseResult(witness=None, certificate=cert)
    witness = _witness_from_lambda0(zd, w, lambda0, ew)
    lam_scaled = tuple(
        sum(wz[d][k] * witness.scaled_integral[k] for k in range(dim))
        for d in range(dim)
    )
    _check_L_weight(zd, lam_scaled)
    _verify_witness(zd, w, lam_scaled, witness, ew, lam_multiplier=1)
    return lam_scaled, HasseResult(witness=witness, certificate=None)


def _unit(dim: int, k: int) -> tuple[int, ...]:
    return tuple(1 if j == k else 0 for j in range(dim))


def _verify_witness(zd, w, lam, witness, ew, lam_multiplier=None):
    """Exact integer re-check of a scaled witness."""
    mult = witness.multiplier
    scaled = witness.scaled_integral
    got = tuple(
        a - b
        for a, b in zip(
            w.apply_weight(scaled, zd.lattice), zd.z.apply_weight(scaled, zd.lattice)
        )
    )
    factor = mult if lam_multiplier is None else lam_multiplier
    assert got == tuple(factor * x for x in lam), "witness fails the weight equation"
    for alpha in ew:
        assert zd.lattice.pairing(scaled, alpha) < 0, "witness fails a strict pairing"


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
        "E_w": [list(a.coords) for a in e_w_set(zd, w)],
        "lambda": lam_field,
        "feasible": result.feasible,
        "witness": list(result.witness.scaled_integral) if result.feasible else None,
        "multiplier": result.witness.multiplier if result.feasible else None,
    }
