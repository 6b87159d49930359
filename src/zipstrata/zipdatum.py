"""Combinatorial zip data: the frame element z, the twisted orders, and
canonical parabolic types.

A zip datum here is the combinatorial shadow of a group-theoretic one: a root
system, a parabolic type I, a based automorphism sigma of the Dynkin diagram,
and a character lattice.  From these it derives

    z = sigma(w_{0,I}) * w_0,      J = z^{-1}(sigma(I)),
    psi : W_I -> W_J,  x |-> z^{-1} sigma(x) z.

The same frame element z serves every sub-datum attached to a parabolic type
K inside I, so the twisted order on ^K W is always

    w' <=_K w  iff  exists x in W_K with  x w' psi(x)^{-1} <= w  (Bruhat).

A "re-derived z per K" variant would silently change these orders; do not do
that.

Lower neighbours use two facts.  For w' in ^K W and x in W_K, l(x w') =
l(x) + l(w') and psi preserves length, so l(x w' psi(x)^{-1}) >= l(w');
hence when l(w') = l(w) - 1 a witness is w itself or a Bruhat coatom of w.
And with tau the permutation of key points that sigma induces (sigma(x) =
tau x tau^{-1}) and A = z^{-1} tau, psi(x) = A x A^{-1}, so

    x w' psi(x)^{-1} = t   iff   x (w' A) x^{-1} = t A,

one conjugation of a raw key and one set lookup per x.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .rootdata import CharacterLattice, Root, RootSystem, build_gl
from .weyl import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    InvariantViolation,
    WeylElement,
    WeylGroup,
    compose,
    conjugate,
)


class ZipDatumError(ValueError):
    """Invalid zip datum input (bad sigma, K not inside I, w not minimal...)."""


class BasedAutomorphism:
    """An automorphism of the based root datum, given by a permutation of Delta.

    Acts on roots (table-driven) and on the Weyl group; must preserve the
    Cartan pairing and hence Phi+.
    """

    def __init__(self, rs: RootSystem, delta_perm: Sequence[int]):
        self.rs = rs
        if sorted(delta_perm) != list(rs.delta_indices()):
            raise ZipDatumError(
                f"delta_perm must be a permutation of 1..{rs.rank}: {list(delta_perm)}"
            )
        self.delta_perm = tuple(delta_perm)
        C = rs.cartan
        for i in range(rs.rank):
            for j in range(rs.rank):
                si, sj = self.delta_perm[i] - 1, self.delta_perm[j] - 1
                if C[si][sj] != C[i][j]:
                    raise ZipDatumError(
                        "delta_perm does not preserve the Cartan pairing"
                    )
        self.is_identity = self.delta_perm == tuple(rs.delta_indices())
        self._root_table = self._build_root_table()

    @classmethod
    def identity(cls, rs: RootSystem) -> "BasedAutomorphism":
        return cls(rs, list(rs.delta_indices()))

    @classmethod
    def flip(cls, rs: RootSystem) -> "BasedAutomorphism":
        """The order-reversing diagram automorphism (type A duality)."""
        return cls(rs, list(reversed(list(rs.delta_indices()))))

    @classmethod
    def parse(cls, rs: RootSystem, spec: str | Sequence[int]) -> "BasedAutomorphism":
        """sigma from "id", "flip", a comma-separated permutation "2,1", or a sequence."""
        if spec == "id":
            return cls.identity(rs)
        if spec == "flip":
            return cls.flip(rs)
        if isinstance(spec, str):
            spec = spec.split(",")
        return cls(rs, [int(x) for x in spec])

    def _build_root_table(self) -> dict:
        by_simple = {r.simple_coords: self.rs.root_from_coords(r.coords) for r in self.rs.roots}
        table = {}
        for r in self.rs.roots:
            img = [0] * self.rs.rank
            for k, c in enumerate(r.simple_coords):
                img[self.delta_perm[k] - 1] = c
            table[r.coords] = by_simple[tuple(img)]
        for r in self.rs.roots:
            if table[r.coords].is_positive != r.is_positive:
                raise InvariantViolation("sigma must fix Phi+")
        return table

    def apply_root(self, root: Root) -> Root:
        return self._root_table[root.coords]

    def apply_w(self, W: WeylGroup, w: WeylElement) -> WeylElement:
        """sigma(w), characterized by sigma(w) . sigma(a) = sigma(w . a)."""
        if self.is_identity:
            return w
        return W.twist(w, self.delta_perm)

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
    J: frozenset[int]
    _canonical_types: dict = field(default_factory=dict, repr=False)
    _small: dict = field(default_factory=dict, repr=False)
    _extra: dict = field(default_factory=dict, repr=False)
    _frame: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # A = z^{-1} tau, so that psi(x) = A x A^{-1} (module docstring)
        self._frame = compose(
            self.z.inverse().key, self.W.twist_points(self.sigma.delta_perm)
        )

    # -- basic derived maps ----------------------------------------------------

    def psi(self, x: WeylElement) -> WeylElement:
        """The Coxeter isomorphism W_I -> W_J, x |-> z^{-1} sigma(x) z."""
        return self.z.inverse() * self.sigma.apply_w(self.W, x) * self.z

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
        """w1 <=_K w2: some x in W_K has x w1 psi(x)^{-1} Bruhat-below w2."""
        K = frozenset(K)
        self._check_K_inside_I(K)
        for label, w in (("w'", w1), ("w", w2)):
            if not self.W.is_minimal_rep(w, K):
                raise ZipDatumError(f"{label} = {w!r} is not in ^K W for K={sorted(K)}")
        if w1.key == w2.key:
            return True
        if w1.length > w2.length:
            return False
        W = self.W
        target_len = w2.length
        scanned = 0
        for x in W.parabolic_elements(K):
            scanned += 1
            if scanned > W.budget:
                raise BudgetExceeded(
                    f"twisted_leq scanned more than {W.budget} elements of W_K"
                )
            cand = x * w1 * self.psi(x).inverse()
            if cand.length <= target_len and W.bruhat_leq(cand, w2):
                return True
        return False

    def lower_neighbors(self, K: Iterable[int], w: WeylElement) -> list[WeylElement]:
        """Gamma_K(w): the w' in ^K W with l(w') = l(w) - 1 and w' <=_K w.

        The witnesses are w and its Bruhat coatoms, tested on keys (see the
        module docstring); W_K is scanned lazily up to the first hit, with
        the budget of `twisted_leq` per candidate.
        """
        K = frozenset(K)
        self._check_K_inside_I(K)
        W = self.W
        if not W.is_minimal_rep(w, K):
            raise ZipDatumError(f"w = {w!r} is not in ^K W for K={sorted(K)}")
        if w.length == 0:
            return []
        frame = self._frame
        targets = {compose(t, frame) for t in (w.key, *W.coatom_keys(w))}
        # never advanced itself: each copy replays the keys drawn so far and
        # draws the rest on demand, so W_K is enumerated at most once per call
        drawn = itertools.tee(W.parabolic_keys(K), 1)[0]
        out = []
        for cand in W.minimal_reps_of_length(K, w.length - 1):
            c = compose(cand.key, frame)
            for scanned, x in enumerate(copy.copy(drawn), 1):
                if scanned > W.budget:
                    raise BudgetExceeded(
                        f"twisted_leq scanned more than {W.budget} elements of W_K"
                    )
                if conjugate(x, c) in targets:
                    out.append(cand)
                    break
        out.sort(key=lambda v: (v.length, v.word))
        return out

    # -- canonical parabolic type ------------------------------------------------

    def phi_w(self, w: WeylElement, root: Root) -> Root:
        """The operator phi_w : alpha |-> (w z^{-1}) . sigma(alpha)."""
        return (w * self.z.inverse()).apply(self.sigma.apply_root(root))

    def canonical_type(self, w: WeylElement) -> frozenset[int]:
        """I_w: the largest I_0 inside I with (w z^{-1}) sigma(I_0) = I_0.

        Computed as the stable intersection of the iterates phi_w^m(I); the
        iteration S <- I intersect phi_w(S) reaches the greatest fixed point
        in at most |I| steps.
        """
        if not self.in_IW(w):
            raise ZipDatumError(f"canonical_type needs w in ^I W, got {w!r}")
        cached = self._canonical_types.get(w.key)
        if cached is not None:
            return cached
        op = w * self.z.inverse()
        current = {self.rs.simple(k).coords: k for k in sorted(self.I)}
        while True:
            images = set()
            for coords in current:
                img = op.apply(self.sigma.apply_root(self.rs.root_from_coords(coords)))
                images.add(img.coords)
            kept = {c: k for c, k in current.items() if c in images}
            if len(kept) == len(current):
                break
            current = kept
        result = frozenset(current.values())
        # fixed-point sanity: (w z^{-1}) sigma(I_w) = I_w exactly
        img = {
            op.apply(self.sigma.apply_root(self.rs.simple(k))).coords
            for k in result
        }
        if img != set(current.keys()):
            raise InvariantViolation("canonical type is not phi_w-stable")
        self._canonical_types[w.key] = result
        return result


def make_zip_datum(
    rs: RootSystem,
    I: Iterable[int],
    sigma: BasedAutomorphism | None = None,
    lattice: CharacterLattice | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ZipDatum:
    """Assemble a zip datum and verify its structural invariants.

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
    W = WeylGroup(rs, budget=budget)
    w0 = W.longest_element(frozenset(rs.delta_indices()))
    w0I = W.longest_element(I)
    z = sigma.apply_w(W, w0I) * w0
    zinv = z.inverse()
    J = set()
    for k in sorted(I):
        img = zinv.apply(sigma.apply_root(rs.simple(k)))
        if not img.is_positive or sum(img.simple_coords) != 1:
            raise ZipDatumError(
                f"z^-1 sigma(alpha_{k}) is not simple; inconsistent datum"
            )
        J.add(img.simple_coords.index(1) + 1)
    zd = ZipDatum(rs, I, sigma, lattice, W, z, frozenset(J))
    for k in sorted(I):
        if zd.psi(W.simple(k)).length != 1:
            raise InvariantViolation("psi must map simple reflections to simple reflections")
    return zd


def gl_zip_datum(n: int, r: int, sigma: str | Sequence[int] = "id",
                 budget: int = DEFAULT_BUDGET) -> ZipDatum:
    """Convenience constructor: the GL_n datum of signature (r, n-r).

    ``sigma`` is anything `BasedAutomorphism.parse` accepts.
    """
    rs, lattice, I = build_gl(n, r)
    return make_zip_datum(rs, I, BasedAutomorphism.parse(rs, sigma), lattice, budget=budget)


def zip_datum_from_json(doc: str | dict, budget: int = DEFAULT_BUDGET) -> ZipDatum:
    """Build a datum from a JSON document.

    Accepts ``{"gl": {"n": 5, "r": 3}, "sigma": "id"}`` or a generic
    description ``{"cartan": [[...]], "I": [...], "sigma": [...],
    "lattice": {...}}``.
    """
    import json

    from .rootdata import load_generic_json

    if isinstance(doc, str):
        doc = json.loads(doc)
    sigma_spec = doc.get("sigma", "id")
    if "gl" in doc:
        return gl_zip_datum(
            int(doc["gl"]["n"]), int(doc["gl"]["r"]), sigma=sigma_spec, budget=budget
        )
    rs, lattice = load_generic_json(doc)
    aut = BasedAutomorphism.parse(rs, sigma_spec)
    return make_zip_datum(rs, frozenset(doc.get("I", [])), aut, lattice, budget=budget)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
