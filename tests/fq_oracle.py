"""Entry-by-entry F_q linear algebra and the round-based canonical
filtration, kept as the reference for `zipstrata.fq` and
`zipstrata.glnzip.canonical_filtration`.

Subspaces are echelon row tuples.  Every entry goes through the scalar field
methods, except addition on extension fields, which is redone here digit by
digit in base p so that the reference does not share the field's addition
table.  No Frobenius power is skipped, even when it is the identity.
"""

from zipstrata.fq import Fq


def _add(F, a, b):
    if not isinstance(F, Fq) or F.k == 1:
        return F.add(a, b)
    p, out, mult = F.p, 0, 1
    for _ in range(F.k):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _neg(F, a):
    if not isinstance(F, Fq) or F.k == 1:
        return F.neg(a)
    p, out, mult = F.p, 0, 1
    for _ in range(F.k):
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def _sub(F, a, b):
    return _add(F, a, _neg(F, b))


def rref(F, rows):
    """Canonical row-reduced echelon form; zero rows dropped."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    out = []
    col = 0
    while work and col < ncols:
        piv = next((i for i, r in enumerate(work) if r[col] != F.zero), None)
        if piv is None:
            col += 1
            continue
        row = work.pop(piv)
        inv = F.inv(row[col])
        row = [F.mul(inv, x) for x in row]
        for r in work + out:
            if r[col] != F.zero:
                f = r[col]
                for j in range(ncols):
                    r[j] = _sub(F, r[j], F.mul(f, row[j]))
        out.append(row)
        col += 1
    out = [tuple(r) for r in out if any(x != F.zero for x in r)]
    out.sort(key=lambda r: next(j for j, x in enumerate(r) if x != F.zero))
    return tuple(out)


def _dot(F, row, v):
    acc = F.zero
    for a, b in zip(row, v):
        acc = _add(F, acc, F.mul(a, b))
    return acc


def mat_mul(F, A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(_dot(F, row, col) for col in cols) for row in A)


def kernel_basis(F, A, n):
    """Basis of {x : A x = 0} for an m x n matrix A (m may be 0)."""
    red = rref(F, A)
    pivots = [next(j for j, x in enumerate(r) if x != F.zero) for r in red]
    basis = []
    for fc in (j for j in range(n) if j not in pivots):
        vec = [F.zero] * n
        vec[fc] = F.one
        for i, pc in enumerate(pivots):
            vec[pc] = _neg(F, red[i][fc])
        basis.append(tuple(vec))
    return basis


def map_semilinear(F, rows, A, m):
    """Image of span(rows) under v |-> A sigma^m(v)."""
    imgs = []
    for row in rows:
        v = [F.frobenius_pow(x, m) for x in row]
        imgs.append(tuple(_dot(F, arow, v) for arow in A))
    return rref(F, imgs)


def preimage(F, rows, n, A):
    """{x : A x in span(rows)}: reduce every unit vector modulo span(rows),
    multiply the reduction matrix by A and take the kernel."""
    reducer = []
    for k in range(n):
        v = [F.one if j == k else F.zero for j in range(n)]
        for row in rows:
            piv = next(j for j, x in enumerate(row) if x != F.zero)
            if v[piv] != F.zero:
                f = v[piv]
                v = [_sub(F, a, F.mul(f, b)) for a, b in zip(v, row)]
        reducer.append(v)
    R = tuple(zip(*reducer))  # y |-> y mod span(rows)
    return rref(F, kernel_basis(F, mat_mul(F, R, A), n))


def apply_frobenius(F, rows, m):
    return rref(F, [[F.frobenius_pow(x, m) for x in row] for row in rows])


def canonical_filtration(F, a, b, m=1):
    """The closure of {0, D} under M |-> span(a sigma^m M) and
    M |-> sigma^m{y : b y in M}, round by round; the echelon row tuples of
    the resulting chain, by dimension."""
    n = len(a)
    full = tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))
    family = {(), full}
    for _ in range(2 * n + 1):
        new = set()
        for rows in family:
            new.add(map_semilinear(F, rows, a, m))
            new.add(apply_frobenius(F, preimage(F, rows, n, b), m))
        if new <= family:
            break
        family |= new
    else:
        raise AssertionError("canonical filtration failed to stabilize in 2n steps")
    chain = sorted(family, key=len)
    for lower, upper in zip(chain, chain[1:]):
        if not (len(lower) < len(upper) and rref(F, lower + upper) == upper):
            raise AssertionError("canonical family is not a chain")
    return chain
