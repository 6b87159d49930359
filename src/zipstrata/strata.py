"""Decision procedures on zip strata: w-sequences, smallness, the stratum
representative map Xi, its restriction pi to small elements, and the
smoothness test for elementary pairs (w, w').

The verdict semantics: ``smooth`` means the elementary two-stratum piece
U(w, w') is smooth, equivalently normal, and the answer is independent of the
Frobenius exponent m >= 1.  When the separating condition fails, the verdict
carries a certificate: a small lower neighbor v != w' whose image pi(v) hits
w', i.e. the flag stratum that breaks the separating cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Root, is_compact
from .weyl import BudgetExceeded, InvariantViolation, WeylElement
from .zipdatum import ZipDatum, ZipDatumError


class NotSmallError(ZipDatumError):
    """pi was asked for a non-small element; no algorithm exists for those."""


@dataclass(frozen=True)
class WSequence:
    """An orbit segment (beta_0, ..., beta_n) of beta |-> v sigma(beta).

    ``head`` is non-compact positive, the ``body`` roots are compact, and the
    segment stops at ``tail``, the first non-compact root with index >= 1.
    The sequence counts as positive or negative by the sign of its tail.
    """

    head: Root
    body: tuple[Root, ...]
    tail: Root

    @property
    def sign(self) -> int:
        return self.tail.sign

    @property
    def roots(self) -> tuple[Root, ...]:
        return (self.head, *self.body, self.tail)


def w_sequences(zd: ZipDatum, v: WeylElement):
    """All w-sequences of the operator beta |-> v sigma(beta).

    Returns ``(sequences, n_plus, n_minus)``; there is exactly one sequence
    per non-compact positive root, so n_plus + n_minus is the number of
    those roots.
    """
    rs, sigma = zd.rs, zd.sigma
    noncompact_pos = [
        a for a in rs.positive_roots if not is_compact(rs, a, zd.I)
    ]
    bound = 2 * len(rs.positive_roots) + 1
    seqs = []
    for beta0 in noncompact_pos:
        body = []
        cur = beta0
        for _ in range(bound):
            cur = v.apply(sigma.apply_root(cur))
            if not is_compact(rs, cur, zd.I):
                break
            body.append(cur)
        else:
            raise InvariantViolation("w-sequence failed to terminate")
        seqs.append(WSequence(beta0, tuple(body), cur))
    n_plus = sum(1 for s in seqs if s.sign > 0)
    return seqs, n_plus, len(seqs) - n_plus


def orbit_codim(zd: ZipDatum, w: WeylElement) -> tuple[int, int]:
    """(stabilizer dimension, orbit-dimension excess over dim P) for w.

    The stabilizer dimension is the number of negative w z^{-1}-sequences;
    the excess is the number of positive ones.
    """
    _, n_plus, n_minus = w_sequences(zd, w * zd.z.inverse())
    return n_minus, n_plus


def is_small(zd: ZipDatum, w: WeylElement) -> bool:
    """w is small iff |S+_{w z^-1}| = l(w).

    Smallness is independent of the Frobenius exponent, so there is no
    exponent argument.
    """
    cached = zd._small.get(w.key)
    if cached is None:
        _, n_plus, _ = w_sequences(zd, w * zd.z.inverse())
        cached = n_plus == w.length
        zd._small[w.key] = cached
    return cached


# ---------------------------------------------------------------------------
# the representative map Xi on W


def xi_of_weyl(zd: ZipDatum, w: WeylElement) -> WeylElement:
    """The unique v in ^I W whose stratum contains w z^{-1}.

    Walks the W_I-orbit of w under the elementary twisted conjugations
    y |-> s y psi(s), s a simple reflection in I (psi(s) is simple in J).
    Any length-decreasing step is taken as soon as it is seen; otherwise the
    equal-length part of the orbit reachable from the current element is
    explored.  The walk stops at the first y = u v (u in W_I, v in ^I W)
    with u in the parabolic of the canonical type I_v, and returns v.
    Every element visited is some x w psi(x)^{-1}, and by X. He's reduction
    (Adv. Math. 2007) a length-non-increasing path of such steps reaches an
    accepted element from any start, so each length level either drops or
    holds the answer.  The orbit is no larger than W_I, hence the budget.
    """
    W = zd.W
    order = W.parabolic_order(zd.I)
    if order > W.budget:
        raise BudgetExceeded(f"the Xi walk over |W_I| = {order} exceeds budget {W.budget}")
    steps = [(W.simple(k), zd.psi(W.simple(k))) for k in sorted(zd.I)]
    level, seen = [w], {w.key}
    while level:
        y = level.pop()
        u, v = W.min_coset_rep(zd.I, y)
        if W.in_parabolic(u, zd.canonical_type(v)):
            return v
        for s, t in steps:
            nxt = s * y * t
            if nxt.length < y.length:
                level, seen = [nxt], {nxt.key}
                break
            if nxt.length == y.length and nxt.key not in seen:
                seen.add(nxt.key)
                level.append(nxt)
    raise InvariantViolation(
        f"the Xi walk from {w!r} accepted nothing; the representative theory is violated"
    )


def pi_small(zd: ZipDatum, w: WeylElement) -> WeylElement:
    """pi(w) for small w (equal to Xi(w)); rejects non-small input.

    The artifact computes pi only on the small locus, where the image is
    algorithmically known; lengths are preserved there.
    """
    if not is_small(zd, w):
        raise NotSmallError(
            f"pi is only computed on small elements; {w!r} is not small"
        )
    out = xi_of_weyl(zd, w)
    if out.length != w.length:
        raise InvariantViolation("pi must preserve length on small elements")
    return out


# ---------------------------------------------------------------------------
# the smoothness decision


@dataclass(frozen=True)
class StratumVerdict:
    """Decision record for an elementary pair (w, w')."""

    w: WeylElement
    w_prime: WeylElement
    I_w: frozenset[int]
    I_w_prime: frozenset[int]
    bounded: bool
    bound_violation: int | None  # a simple index in I_{w'} \ I_w, if any
    gamma: tuple[WeylElement, ...]  # Gamma_{I_w}(w)
    gamma_small: tuple[WeylElement, ...]
    separating: bool
    certificate: WeylElement | None  # v in gamma_small \ {w'} with pi(v) = w'
    flag_dim: int  # l(w) + dim P

    @property
    def smooth(self) -> bool:
        return self.bounded and self.separating

    def to_json(self) -> dict:
        return {
            "w": self.w.label(),
            "w_prime": self.w_prime.label(),
            "bounded": self.bounded,
            "bound_violation": self.bound_violation,
            "I_w": sorted(self.I_w),
            "I_w_prime": sorted(self.I_w_prime),
            "gamma": [v.label() for v in self.gamma],
            "gamma_small": [v.label() for v in self.gamma_small],
            "separating": self.separating,
            "certificate": None if self.certificate is None else self.certificate.label(),
            "smooth": self.smooth,
            "flag_dim": self.flag_dim,
        }


def _dim_parabolic(zd: ZipDatum) -> int:
    phi_I_plus = sum(
        1 for a in zd.rs.positive_roots if is_compact(zd.rs, a, zd.I)
    )
    return zd.lattice.dim + len(zd.rs.positive_roots) + phi_I_plus


def decide_smooth(zd: ZipDatum, w: WeylElement, w_prime: WeylElement) -> StratumVerdict:
    """Decide smoothness (= normality) of the elementary piece U(w, w').

    Preconditions: w in ^I W and w' a lower neighbor of w in ^I W.  The piece
    is smooth iff it is w-bounded (I_{w'} inside I_w) and no other small
    lower neighbor of w in ^{I_w} W maps to w' under pi.
    """
    if not zd.in_IW(w):
        raise ZipDatumError(f"precondition failed: w = {w!r} is not in ^I W")
    if not zd.in_IW(w_prime):
        raise ZipDatumError(f"precondition failed: w' = {w_prime!r} is not in ^I W")
    if w_prime.length != w.length - 1:
        raise ZipDatumError(
            "precondition failed: l(w') = l(w) - 1 is required, got "
            f"l(w')={w_prime.length}, l(w)={w.length}"
        )
    if not zd.twisted_leq(zd.I, w_prime, w):
        raise ZipDatumError(
            "precondition failed: w' is not below w in the twisted order on ^I W"
        )

    I_w = zd.canonical_type(w)
    I_wp = zd.canonical_type(w_prime)
    bounded = I_wp <= I_w
    violation = min(I_wp - I_w) if not bounded else None

    gamma = tuple(zd.lower_neighbors(I_w, w))
    gamma_small = tuple(v for v in gamma if is_small(zd, v))
    certificate = None
    for v in gamma_small:
        if v.key == w_prime.key:
            continue
        if pi_small(zd, v).key == w_prime.key:
            certificate = v
            break
    separating = certificate is None

    return StratumVerdict(
        w=w,
        w_prime=w_prime,
        I_w=I_w,
        I_w_prime=I_wp,
        bounded=bounded,
        bound_violation=violation,
        gamma=gamma,
        gamma_small=gamma_small,
        separating=separating,
        certificate=certificate,
        flag_dim=w.length + _dim_parabolic(zd),
    )


def closure_codim1(zd: ZipDatum, w: WeylElement):
    """Is the closure of the w-stratum smooth in codimension one?

    Evaluates: I_{w'} inside I_w for every w' in Gamma_I(w), and the small
    part of Gamma_{I_w}(w) is contained in Gamma_I(w).  Also returns the
    per-neighbor elementary verdicts.
    """
    if not zd.in_IW(w):
        raise ZipDatumError(f"w = {w!r} is not in ^I W")
    gamma_I = zd.lower_neighbors(zd.I, w)
    I_w = zd.canonical_type(w)
    bounded_all = all(zd.canonical_type(wp) <= I_w for wp in gamma_I)
    gamma_small = [v for v in zd.lower_neighbors(I_w, w) if is_small(zd, v)]
    gamma_I_keys = {v.key for v in gamma_I}
    contained = all(v.key in gamma_I_keys for v in gamma_small)
    verdicts = {wp: decide_smooth(zd, w, wp) for wp in gamma_I}
    return bounded_all and contained, verdicts
