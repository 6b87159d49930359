"""The seed's Fraction Gauss-Jordan and Fourier-Motzkin solver, kept as the
reference for the integer solver in `zipstrata.hasse`.

`_feasible_lambda0(dim, eq_rows, eq_rhs, strict_rows)` and
`_fourier_motzkin(strict_rows, rhs)` take the arguments of their namesakes
in `zipstrata.hasse` and return their points as tuples of Fractions;
`feasible_point` and `fourier_motzkin_point` return them the way
`zipstrata.hasse` does, in lowest terms (`lowest_terms`), so a test can
swap them in.  Its Fourier-Motzkin keeps every combined row that is no
positive multiple of one it holds: it is the reference without Chernikov's
rule.
"""

from fractions import Fraction
from math import lcm

from zipstrata.hasse import _FM_ROW_CAP, InfeasibilityCertificate


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


def _fm_contradiction(rows):
    """Multipliers of the first row reading 0 < b with b <= 0, or None; run
    on every stage, as in `zipstrata.hasse`, so a test can count the rows."""
    for coeffs, b, mults in rows:
        if not any(coeffs) and b <= 0:
            return tuple(mults)
    return None


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

    stages = []
    for var in range(nvars):
        bad = _fm_contradiction(rows)
        if bad is not None:
            return "infeasible", bad
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
    bad = _fm_contradiction(rows)
    if bad is not None:
        return "infeasible", bad

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


def _feasible_lambda0(dim, eq_rows, eq_rhs, strict_rows):
    """Common core: equalities eq_rows . x = eq_rhs plus strict rows < 0."""

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


def lowest_terms(point):
    """A tuple of Fractions as (numerators, den): den > 0 the lcm of their
    denominators, so that point[k] = numerators[k] / den."""
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def feasible_point(dim, eq_rows, eq_rhs, strict_rows):
    """`_feasible_lambda0` with lambda_0 in lowest terms."""
    lambda0, cert = _feasible_lambda0(dim, eq_rows, eq_rhs, strict_rows)
    return (None if lambda0 is None else lowest_terms(lambda0)), cert


def fourier_motzkin_point(strict_rows, rhs):
    """`_fourier_motzkin` with the point t in lowest terms."""
    status, payload = _fourier_motzkin(strict_rows, rhs)
    return status, (lowest_terms(payload) if status == "feasible" else payload)
