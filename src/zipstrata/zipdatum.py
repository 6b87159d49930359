"""Combinatorial zip data: the frame element z, the twisted orders, and
canonical parabolic types.

A zip datum here is the combinatorial shadow of a group-theoretic one: a root
system, a parabolic type I, a based automorphism sigma of the Dynkin diagram,
and a character lattice.  From these it derives

    z = sigma(w_{0,I}) * w_0,      J = z^{-1}(sigma(I)),
    psi : W_I -> W_J,  x |-> z^{-1} sigma(x) z.

With tau the permutation of key points that sigma induces (sigma(x) =
tau x tau^{-1}) and the frame A = z^{-1} tau, psi(x) = A x A^{-1}; this
conjugation of raw keys is the one definition of psi that the code uses.

The same frame element z serves every sub-datum attached to a parabolic type
K inside I, so the twisted order on ^K W is always

    w' <=_K w  iff  exists x in W_K with  x w' psi(x)^{-1} <= w  (Bruhat).

A "re-derived z per K" variant would silently change these orders; do not do
that.

Canonical types and w-sequences are read from the operator

    phi_w : alpha |-> (w z^{-1}) sigma(alpha)

on root indices (`RootSystem.roots` order): `phi_key(w)` is root_key(w)
after the root frame root_key(z^{-1}) sigma, which is phi_e, so each
element costs one permutation of integers.  The datum keeps, next to the
frame, the root frame, the non-compact flag of each root index (a root is
non-compact iff a simple root outside I occurs in it; a negative root has
the flag of its positive) and the root index of each simple root.  J is
read off the root frame: J = z^{-1} sigma(I).  The canonical type I_w is
the largest set of I's simple roots that phi_w maps onto itself.

Pairs with l(w') = l(w) - 1 (lower neighbours, and the precondition of
`decide`) use two facts.  For w' in ^K W and x in W_K, l(x w') = l(x) +
l(w') and psi preserves length, so l(x w' psi(x)^{-1}) >= l(w'), and by
the sign character l(x w' psi(x)^{-1}) = l(w') mod 2; hence when l(w') =
l(w) - 1 a witness has length l(w) - 1 and is a Bruhat coatom of w.  And

    x w' psi(x)^{-1} = t   iff   x (w' A) x^{-1} = t A,

one conjugation of a raw key and one set lookup per x.  One search,
`ZipDatum._witnesses`, makes this test for `lower_neighbors` and for
`twisted_leq` on such a pair, with everything below.

Most candidates w' are rejected before that scan.  Label each key point by
its W_K-orbit; the cycle shape of a key (`weyl.cycle_shape`: its cycles as
words of labels, each rotated to its least form, sorted) is kept by
conjugation with any x in W_K, because x keeps every label.  So w' A can
reach a target t A only if their shapes agree, and a candidate whose shape
matches no target's is not a neighbour.  The shape is only a necessary
condition; a candidate that passes it is scanned, so every neighbour comes
with an explicit witness x.  (In type A, W_K is the whole group of
permutations that keep the labels, so there a matching shape always leads
to a witness.)  Testing x = e is free; testing any other x costs |W_K|,
the scan it may take, charged once per search (per (K, w) for lower
neighbours, per pair for `twisted_leq`) at the first candidate that misses
x = e, so whether a command fits its budget does not depend on where
in W_K a witness sits; W_K = {e} leaves no x past e and costs nothing.  A
W_K of order at most `_SCAN_ONLY_ORDER` is scanned without the shape test,
which costs more than such a scan.

Data are built once per process.  `make_zip_datum` keeps one `WeylGroup`
per root system and one `ZipDatum` per (root system, lattice, I, sigma),
`BasedAutomorphism.parse` one sigma per (root system, permutation), and
`rootdata` one root system and lattice per input, so equal inputs get the
same objects and their memos, which must be treated as immutable.  The
budget is the request's (`weyl.budget_scope`), not the datum's: a memo is
stored only once complete, and one whose answer depends on the budget is
read only after the budget is checked (`weyl.check_budget`, or the charge
`lower_neighbors` records), so no result depends on earlier budgets.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .rootdata import CharacterLattice, Root, RootSystem, build_gl
from .weyl import (
    BUDGET,
    InvariantViolation,
    WeylElement,
    WeylGroup,
    check_budget,
    compose,
    conjugate,
    cycle_shape,
    invert,
)


# the witness search scans a W_K of at most this order without comparing
# cycle shapes.  On GL_7 and GL_8 data the shape test took 1.45 times the scan's
# time at |W_K| = 2, 1.07 at 4, 0.86 at 6 and 0.75 at 8; end to end, the
# shape test on every W_K made decide-sweep (|W_K| in {1, 4, 8, 16}) 4.6%
# slower in wall_s (BENCH_10.json)
_SCAN_ONLY_ORDER = 4

# the Weyl groups, sigmas and zip data built so far (module docstring):
# root system -> WeylGroup, (root system, delta_perm) -> BasedAutomorphism
# and (root system, lattice, I, sigma.delta_perm) -> ZipDatum
_WEYL_GROUPS: dict = {}
_SIGMAS: dict = {}
_ZIP_DATA: dict = {}


class ZipDatumError(ValueError):
    """Invalid zip datum input (bad sigma, K not inside I, w not minimal...)."""


class BasedAutomorphism:
    """An automorphism of the based root datum, given by a permutation of Delta.

    Acts on roots by one table on the root indices, ``root_perm``, built once
    here and read by `apply_root`, the root frame of `ZipDatum` and the
    generic `WeylGroup.twist_points`; acts on the Weyl group by conjugating
    keys.  Must preserve the Cartan pairing and hence Phi+.
    """

    def __init__(self, rs: RootSystem, delta_perm: Sequence[int]):
        self.rs = rs
        if sorted(delta_perm) != list(rs.delta_indices()):
            raise ZipDatumError(
                f"delta_perm must be a permutation of 1..{rs.rank}: {list(delta_perm)}"
            )
        self.delta_perm = tuple(delta_perm)
        self.is_identity = self.delta_perm == tuple(rs.delta_indices())
        C = rs.cartan
        for i in range(rs.rank):
            for j in range(rs.rank):
                si, sj = self.delta_perm[i] - 1, self.delta_perm[j] - 1
                if C[si][sj] != C[i][j]:
                    raise ZipDatumError(
                        "delta_perm does not preserve the Cartan pairing"
                    )
        # sigma on the roots as a permutation of the root indices
        # (`RootSystem.roots` order): alpha_k -> alpha_{delta_perm[k]},
        # extended linearly
        at = {r.simple_coords: i for i, r in enumerate(rs.roots)}
        perm = []
        for r in rs.roots:
            img = [0] * rs.rank
            for k, c in enumerate(r.simple_coords):
                img[self.delta_perm[k] - 1] = c
            perm.append(at[tuple(img)])
        npos = len(rs.positive_roots)
        if any((i < npos) != (j < npos) for i, j in enumerate(perm)):
            raise InvariantViolation("sigma must fix Phi+")
        self.root_perm = tuple(perm)

    @classmethod
    def identity(cls, rs: RootSystem) -> "BasedAutomorphism":
        return cls.parse(rs, "id")

    @classmethod
    def flip(cls, rs: RootSystem) -> "BasedAutomorphism":
        """The order-reversing diagram automorphism (type A duality)."""
        return cls.parse(rs, "flip")

    @classmethod
    def parse(cls, rs: RootSystem, spec: str | Sequence[int]) -> "BasedAutomorphism":
        """sigma from "id", "flip", "2,1" or a sequence; one per (rs, permutation)."""
        if spec in ("id", "flip"):
            perm = tuple(rs.delta_indices())[:: 1 if spec == "id" else -1]
        else:
            perm = tuple(int(x) for x in (spec.split(",") if isinstance(spec, str) else spec))
        sigma = _SIGMAS.get((rs, perm))
        if sigma is None or sigma.rs is not rs:  # make_zip_datum wants rs itself
            sigma = _SIGMAS[rs, perm] = cls(rs, perm)
        return sigma

    def apply_root(self, root: Root) -> Root:
        return self.rs.roots[self.root_perm[self.rs.root_index[root.coords]]]

    def apply_w(self, W: WeylGroup, w: WeylElement) -> WeylElement:
        """sigma(w), characterized by sigma(w) . sigma(a) = sigma(w . a): the
        key of w conjugated by the permutation tau of the key points that
        sigma induces, sigma(w)[tau[i]] = tau[w[i]]."""
        if self.is_identity:
            return w
        return W._intern(conjugate(W.twist_points(self), w.key), w._length)

    def __repr__(self) -> str:
        return f"BasedAutomorphism({list(self.delta_perm)})"


@dataclass
class ZipDatum:
    """Derived combinatorial data of a zip datum; immutable after construction."""

    rs: RootSystem
    I: frozenset[int]
    sigma: BasedAutomorphism
    lattice: CharacterLattice
    W: WeylGroup
    z: WeylElement
    _extra: dict = field(default_factory=dict, repr=False)
    J: frozenset[int] = field(init=False)
    _frame: tuple = field(init=False, repr=False)
    _root_frame: tuple = field(init=False, repr=False)
    _noncompact: tuple = field(init=False, repr=False)
    _simple_index: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rs, W, zinv = self.rs, self.W, self.z.inverse()
        # A = z^{-1} tau, so that psi(x) = A x A^{-1} (module docstring)
        self._frame = compose(zinv.key, W.twist_points(self.sigma))
        # the tables on root indices (module docstring)
        self._root_frame = compose(W.root_key(zinv), self.sigma.root_perm)
        outside = [k not in self.I for k in rs.delta_indices()]
        flags = tuple(any(itertools.compress(r.simple_coords, outside)) for r in rs.positive_roots)
        self._noncompact = flags + flags
        self._simple_index = tuple(rs.root_index[r.coords] for r in rs.simple_roots)
        simple_at = {i: k for k, i in enumerate(self._simple_index, 1)}
        J = set()
        for k in sorted(self.I):
            j = simple_at.get(self._root_frame[self._simple_index[k - 1]])
            if j is None:
                raise ZipDatumError(
                    f"z^-1 sigma(alpha_{k}) is not simple; inconsistent datum"
                )
            J.add(j)
        self.J = frozenset(J)

    # -- basic derived maps ----------------------------------------------------

    def psi(self, x: WeylElement) -> WeylElement:
        """The Coxeter isomorphism W_I -> W_J, x |-> z^{-1} sigma(x) z = A x A^{-1}."""
        return self.W._intern(conjugate(self._frame, x.key))

    def in_IW(self, w: WeylElement) -> bool:
        return self.W.is_minimal_rep(w, self.I)

    def minimal_reps(self, K: Iterable[int] | None = None) -> list[WeylElement]:
        """^K W sorted by (length, canonical word); K defaults to I."""
        K = self.I if K is None else frozenset(K)
        self._check_subset_delta(K)
        return self.W.minimal_reps(K)

    def _check_subset_delta(self, K: frozenset[int]) -> None:
        bad = K - set(self.rs.delta_indices())
        if bad:
            raise ZipDatumError(f"not simple root indices: {sorted(bad)}")

    def _check_K_inside_I(self, K: frozenset[int]) -> None:
        self._check_subset_delta(K)
        if not K <= self.I:
            raise ZipDatumError(
                f"twisted order is only defined for K inside I; got K={sorted(K)}, "
                f"I={sorted(self.I)}"
            )

    # -- twisted order -----------------------------------------------------------

    def twisted_leq(self, K: Iterable[int], w1: WeylElement, w2: WeylElement) -> bool:
        """w1 <=_K w2: some x in W_K has x w1 psi(x)^{-1} Bruhat-below w2.

        A pair with l(w1) = l(w2) - 1 goes to the witness search
        (`_witnesses`).  Otherwise the keys of W_K are scanned up to the
        first witness; x w1 psi(x)^{-1} = (x (w1 A)
        x^{-1}) A^{-1} is interned only when no longer than w2.  Either way,
        testing x = e is free and a scan past it charges |W_K| once.
        """
        K = frozenset(K)
        self._check_K_inside_I(K)
        for label, w in (("w'", w1), ("w", w2)):
            if not self.W.is_minimal_rep(w, K):
                raise ZipDatumError(f"{label} = {w!r} is not in ^K W for K={sorted(K)}")
        if w1.key == w2.key:
            return True
        if w1.length > w2.length:
            return False
        if w1.length == w2.length - 1:
            return self._witnesses(K, w2, [w1])[0][0] is not None
        W = self.W
        c, frame_inv = compose(w1.key, self._frame), invert(self._frame)
        for x in W.parabolic_keys(K):
            y = compose(conjugate(x, c), frame_inv)
            length = W._key_length(y)
            if length <= w2.length and W.bruhat_leq(W._intern(y, length), w2):
                return True
        return False

    def lower_neighbors(self, K: Iterable[int], w: WeylElement) -> list[WeylElement]:
        """Gamma_K(w): the w' in ^K W with l(w') = l(w) - 1 and w' <=_K w,
        memoized per (K, w).

        Each candidate w' goes to the witness search (`_witnesses`).  The
        memo keeps its charge, |W_K| or 0, and is read only under a budget
        that fits it.
        """
        K = frozenset(K)
        self._check_K_inside_I(K)
        W = self.W
        if not W.is_minimal_rep(w, K):
            raise ZipDatumError(f"w = {w!r} is not in ^K W for K={sorted(K)}")
        # (K, w.key) -> (the budget the search charged, Gamma_K(w))
        memo = self._extra.setdefault("lower_neighbors", {})
        hit = memo.get((K, w.key))
        if hit is not None and hit[0] <= BUDGET.get():
            return list(hit[1])
        cands = W.minimal_reps_of_length(K, w.length - 1)
        found, charged = self._witnesses(K, w, cands)
        out = sorted((v for v, x in zip(cands, found) if x is not None),
                     key=lambda v: (v.length, v.word))
        memo[(K, w.key)] = (charged, tuple(out))
        return out

    def _witnesses(self, K: frozenset, w: WeylElement,
                   cands: Sequence[WeylElement]) -> tuple[list, int]:
        """For each candidate w' in ^K W of length l(w) - 1, the key of the
        first x in W_K with x (w' A) x^{-1} = t A for a coatom t of w, that
        is of a witness of w' <=_K w (module docstring), or None; and the
        charge, |W_K| or 0.  In this order: x = e, free; the charge, at the
        first miss of x = e unless W_K = {e}; the shape filter; the scan.
        """
        W, frame = self.W, self._frame
        targets = {compose(t, frame) for _, t in W.coatoms(w)}
        order = W.parabolic_order(K)
        # the orbit labels and the targets' shapes, formed with the charge,
        # unless W_K is small enough to scan outright
        labels = shapes = None
        # never advanced itself: each copy replays the keys drawn so far
        # and draws the rest on demand, so W_K is enumerated at most once
        drawn = itertools.tee(W.parabolic_keys(K), 1)[0]
        found, charged = [], 0
        for cand in cands:
            c = compose(cand.key, frame)
            if c in targets:  # x = e, the first key of the scan
                found.append(W.identity.key)
                continue
            if not charged and order > 1:  # the first miss charges the scan, once
                check_budget(order, "|W_K| = {}", order)
                charged = order
                if order > _SCAN_ONLY_ORDER:
                    labels = W.orbit_labels(K)
                    shapes = {cycle_shape(t, labels) for t in targets}
            if shapes is not None and cycle_shape(c, labels) not in shapes:
                found.append(None)
            else:
                found.append(next((x for x in copy.copy(drawn) if conjugate(x, c) in targets),
                                  None))
        return found, charged

    # -- canonical parabolic type ------------------------------------------------

    def phi_key(self, w: WeylElement) -> tuple:
        """phi_w : alpha |-> (w z^{-1}) sigma(alpha) as a permutation of the
        root indices: root_key(w) after the root frame."""
        return compose(self.W.root_key(w), self._root_frame)

    def phi_w(self, w: WeylElement, root: Root) -> Root:
        """The operator phi_w : alpha |-> (w z^{-1}) . sigma(alpha)."""
        return self.rs.roots[self.phi_key(w)[self.rs.root_index[root.coords]]]

    def canonical_type(self, w: WeylElement) -> frozenset[int]:
        """I_w: the largest I_0 inside I with (w z^{-1}) sigma(I_0) = I_0.

        On the root indices of I's simple roots, S <- {i in S : phi_w(i) in
        S} reaches the greatest S with phi_w(S) inside S in at most |I|
        steps; phi_w is a permutation, so there phi_w(S) = S.
        """
        memo = self._extra.setdefault("canonical_type", {})
        cached = memo.get(w.key)
        if cached is not None:  # a memoized key is in ^I W
            return cached
        if not self.in_IW(w):
            raise ZipDatumError(f"canonical_type needs w in ^I W, got {w!r}")
        phi = self.phi_key(w)
        current = {self._simple_index[k - 1]: k for k in self.I}
        while True:
            kept = {i: k for i, k in current.items() if phi[i] in current}
            if len(kept) == len(current):
                break
            current = kept
        # phi_w(S) = S exactly: a phi that is not injective on S fails here
        if {phi[i] for i in current} != current.keys():
            raise InvariantViolation("canonical type is not phi_w-stable")
        result = memo[w.key] = frozenset(current.values())
        return result


def make_zip_datum(
    rs: RootSystem,
    I: Iterable[int],
    sigma: BasedAutomorphism | None = None,
    lattice: CharacterLattice | None = None,
) -> ZipDatum:
    """Assemble a zip datum and verify its structural invariants, or return
    the datum an earlier call assembled from equal inputs.

    >>> rs, lat, I = build_gl(4, 2)
    >>> zd = make_zip_datum(rs, I, lattice=lat)
    >>> zd.z.one_line()
    [3, 4, 1, 2]
    """
    I = frozenset(I)
    bad = I - set(rs.delta_indices())
    if bad:
        raise ZipDatumError(f"I contains invalid simple indices: {sorted(bad)}")
    if sigma is None:
        sigma = BasedAutomorphism.identity(rs)
    if sigma.rs is not rs:
        raise ZipDatumError("sigma was built for a different root system")
    if lattice is None:
        raise ZipDatumError("a character lattice is required")
    key = (rs, lattice, I, sigma.delta_perm)
    zd = _ZIP_DATA.get(key)
    if zd is None:
        W = _WEYL_GROUPS.get(rs)
        if W is None:
            W = _WEYL_GROUPS[rs] = WeylGroup(rs)
        w0 = W.longest_element(frozenset(rs.delta_indices()))
        w0I = W.longest_element(I)
        z = sigma.apply_w(W, w0I) * w0
        zd = ZipDatum(rs, I, sigma, lattice, W, z)
        for k in sorted(I):
            if zd.psi(W.simple(k)).length != 1:
                raise InvariantViolation("psi must map simple reflections to simple reflections")
        _ZIP_DATA[key] = zd
    return zd


def gl_zip_datum(n: int, r: int, sigma: str | Sequence[int] = "id") -> ZipDatum:
    """Convenience constructor: the GL_n datum of signature (r, n-r).

    ``sigma`` is anything `BasedAutomorphism.parse` accepts.
    """
    rs, lattice, I = build_gl(n, r)
    return make_zip_datum(rs, I, BasedAutomorphism.parse(rs, sigma), lattice)


def zip_datum_from_json(doc: str | dict) -> ZipDatum:
    """Build a datum from a JSON document.

    Accepts ``{"gl": {"n": 5, "r": 3}, "sigma": "id"}`` or a generic
    description ``{"cartan": [[...]], "I": [...], "sigma": [...],
    "lattice": {...}}``.
    """
    import json

    from .rootdata import int_tuple, load_generic_json

    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ZipDatumError("a datum document must be a JSON object")
    sigma_spec = doc.get("sigma", "id")
    if not isinstance(sigma_spec, str):
        sigma_spec = int_tuple(sigma_spec, '"sigma"')
    if "gl" in doc:
        if "I" in doc:
            raise ZipDatumError('a "gl" datum takes no "I": I is fixed by r')
        gl = doc["gl"] if isinstance(doc["gl"], dict) else {}
        n, r = int_tuple([gl.get("n"), gl.get("r")], 'the n and r of "gl"')
        return gl_zip_datum(n, r, sigma=sigma_spec)
    rs, lattice = load_generic_json(doc)
    aut = BasedAutomorphism.parse(rs, sigma_spec)
    I = frozenset(int_tuple(doc.get("I", []), '"I"'))
    return make_zip_datum(rs, I, aut, lattice)
