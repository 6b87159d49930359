"""Finite reduced root systems, character lattices and compact/non-compact splits.

Two realizations are supported.  ``TYPE_A_GL`` keeps roots in the ambient
lattice Z^n (so e_i - e_j is stored with a literal +1/-1 pair), which matches
the coordinate conventions of the GL_n catalogs.  ``GENERIC`` stores roots in
simple-root coordinates and is driven entirely by a user-supplied Cartan
matrix.  Everything is exact integer arithmetic; no floats anywhere.

``RootSystem.roots`` lists the positive roots in their fixed order followed
by their negatives in the same order; for generic systems a Weyl element is
keyed by the permutation it induces on these 2N indices (see ``weyl``), so
that order is part of the element representation.  ``RootSystem.root_index``
is the one map from coordinates to these indices, and a generic system keeps
the simple reflections its root generation applied as permutations of them.

`build_gl` and `build_generic` build each root system and character lattice
once per process: equal inputs return the same objects, which callers share
and must not mutate.  The checks on the input run on every call; only input
that passed them is kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

TYPE_A_GL = "TYPE_A_GL"
GENERIC = "GENERIC"

_MAX_ROOTS = 10_000

# the data built so far (module docstring): n -> (root system, lattice) of
# GL_n; a Cartan matrix that passed `_validate_cartan` -> its root system;
# (Cartan matrix, lattice block or None) -> the lattice that passed
# `_check_lattice`
_GL_DATA: dict = {}
_GENERIC_SYSTEMS: dict = {}
_GENERIC_LATTICES: dict = {}


class RootDataError(ValueError):
    """Invalid root datum input (bad Cartan matrix, inconsistent lattice...)."""


class InvariantViolation(AssertionError):
    """A load-bearing invariant failed; raised explicitly, so ``python -O``
    does not remove the check."""


def int_tuple(value, what: str) -> tuple[int, ...]:
    """``value``, a list from a JSON document, as a tuple of integers."""
    if isinstance(value, (list, tuple)) and all(type(x) is int for x in value):
        return tuple(value)
    raise RootDataError(f"{what} must be integers")


def int_matrix(value, what: str) -> tuple[tuple[int, ...], ...]:
    """``value``, a list of lists from a JSON document, as integer rows."""
    if not isinstance(value, (list, tuple)):
        raise RootDataError(f"{what} must be a list of lists of integers")
    return tuple(int_tuple(row, f"each row of {what}") for row in value)


@dataclass(frozen=True)
class Root:
    """A root as an exact integer vector.

    ``coords`` is realization dependent (ambient Z^n for type A, simple-root
    basis otherwise); ``simple_coords`` and ``coroot_coords`` are the
    expansions of the root / its coroot in the simple (co)root basis and are
    realization independent.
    """

    coords: tuple[int, ...]
    simple_coords: tuple[int, ...]
    coroot_coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.coords):
            raise RootDataError("the zero vector is not a root")

    @property
    def sign(self) -> int:
        for c in self.coords:
            if c:
                return 1 if c > 0 else -1
        raise InvariantViolation("a root has no non-zero coordinate")

    @property
    def is_positive(self) -> bool:
        return self.sign > 0

    def __neg__(self) -> "Root":
        return Root(
            tuple(-c for c in self.coords),
            tuple(-c for c in self.simple_coords),
            tuple(-c for c in self.coroot_coords),
        )

    def support(self) -> frozenset[int]:
        """1-based indices of simple roots appearing in the expansion."""
        return frozenset(k + 1 for k, c in enumerate(self.simple_coords) if c)

    def __repr__(self) -> str:
        return f"Root{self.coords}"


def _hash_form(rows) -> tuple:
    """Integer rows with each entry x written as 2x (x >= 0) or -2x - 1
    (x < 0), which is one to one onto the naturals.  CPython hashes -1 like
    -2, so Cartan matrices that differ only there (B4, C4, A4 and F4 do)
    would share the hash of their plain rows."""
    return tuple(tuple(2 * x if x >= 0 else -2 * x - 1 for x in row) for row in rows)


@dataclass(frozen=True)
class CharacterLattice:
    """Character lattice X*(T): a free Z-module with coroot pairings.

    ``coroot_pairing[d][k]`` is <basis_d, alpha_k^vee> and ``root_embedding[k]``
    expresses the simple root alpha_k as a lattice vector; composing the two
    must reproduce the Cartan pairing.
    """

    dim: int
    coroot_pairing: tuple[tuple[int, ...], ...]
    root_embedding: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.dim, _hash_form(self.coroot_pairing), _hash_form(self.root_embedding))))

    def __hash__(self) -> int:
        return self._hash

    def pairing_simple(self, lam: Sequence[int], k: int) -> int:
        """<lam, alpha_k^vee> for the k-th simple coroot (1-based k)."""
        col = k - 1
        return sum(lam[d] * self.coroot_pairing[d][col] for d in range(self.dim))

    def pairing(self, lam, root: Root):
        """<lam, alpha^vee> for an arbitrary root, via its coroot expansion."""
        return sum(
            c * self.pairing_simple(lam, k + 1)
            for k, c in enumerate(root.coroot_coords)
            if c
        )


@dataclass(frozen=True)
class RootSystem:
    rank: int
    realization: str
    ambient_dim: int
    simple_roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    cartan: tuple[tuple[int, ...], ...]  # cartan[i][j] = <alpha_i, alpha_j^vee>
    # generic systems only: s_1..s_rank as permutations of the root indices
    simple_images: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)
    # the positive roots, then their negatives in the same order
    roots: tuple[Root, ...] = field(init=False, repr=False, hash=False, compare=False)
    # coords -> index into ``roots``
    root_index: dict = field(init=False, repr=False, hash=False, compare=False)
    _hash: int = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        roots = self.positive_roots + tuple(-r for r in self.positive_roots)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "root_index", {r.coords: i for i, r in enumerate(roots)})
        # equal systems have equal Cartan matrices; hashing every root would
        # cost each lookup in the caches keyed on a root system
        object.__setattr__(self, "_hash", hash((self.realization, _hash_form(self.cartan))))

    def __hash__(self) -> int:
        return self._hash

    def root_from_coords(self, coords: Sequence[int]) -> Root:
        try:
            return self.roots[self.root_index[tuple(coords)]]
        except KeyError:
            raise RootDataError(f"{tuple(coords)} is not a root") from None

    def delta_indices(self) -> range:
        """1-based simple root indices."""
        return range(1, self.rank + 1)

    def simple(self, k: int) -> Root:
        """The simple root alpha_k (1-based)."""
        return self.simple_roots[k - 1]


# ---------------------------------------------------------------------------
# type A_{n-1} realized in Z^n (GL_n)

def _gl_root(n: int, i: int, j: int) -> Root:
    """e_i - e_j, 0-based i != j."""
    coords = [0] * n
    coords[i], coords[j] = 1, -1
    lo, hi = (i, j) if i < j else (j, i)
    sgn = 1 if i < j else -1
    simple = [0] * (n - 1)
    for k in range(lo, hi):
        simple[k] = sgn
    return Root(tuple(coords), tuple(simple), tuple(simple))


def build_gl(n: int, r: int):
    """Root datum of GL_n with parabolic type I = Delta \\ {alpha_r}.

    Returns ``(RootSystem, CharacterLattice, I)`` with X*(T) = Z^n and the
    simple roots alpha_i = e_i - e_{i+1}.

    >>> rs, lat, I = build_gl(4, 2)
    >>> len(rs.positive_roots), sorted(I)
    (6, [1, 3])
    """
    if n < 2:
        raise RootDataError(f"need n >= 2, got n={n}")
    if not 1 <= r < n:
        raise RootDataError(f"need 1 <= r < n, got r={r}, n={n}")
    hit = _GL_DATA.get(n)
    if hit is None:
        hit = _GL_DATA[n] = _gl_root_datum(n)
    rs, lattice = hit
    return rs, lattice, frozenset(k for k in range(1, n) if k != r)


def _gl_root_datum(n: int) -> tuple[RootSystem, CharacterLattice]:
    simples = tuple(_gl_root(n, i, i + 1) for i in range(n - 1))
    positives = tuple(_gl_root(n, i, j) for i in range(n) for j in range(i + 1, n))
    cartan = tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n - 1))
        for i in range(n - 1)
    )
    pair = tuple(
        tuple((1 if d == k else 0) - (1 if d == k + 1 else 0) for k in range(n - 1))
        for d in range(n)
    )
    emb = tuple(
        tuple((1 if d == k else 0) - (1 if d == k + 1 else 0) for d in range(n))
        for k in range(n - 1)
    )
    lattice = CharacterLattice(n, pair, emb)
    _check_lattice(cartan, lattice)
    return RootSystem(n - 1, TYPE_A_GL, n, simples, positives, cartan), lattice


# ---------------------------------------------------------------------------
# generic finite-type systems from a Cartan matrix

def _validate_cartan(C: tuple[tuple[int, ...], ...]) -> None:
    """Reject an integer matrix that is no finite-type Cartan matrix."""
    m = len(C)
    if m == 0 or any(len(row) != m for row in C):
        raise RootDataError("Cartan matrix must be square and nonempty")
    for i in range(m):
        if C[i][i] != 2:
            raise RootDataError("Cartan matrix needs 2 on the diagonal")
        for j in range(m):
            if i != j:
                if C[i][j] > 0:
                    raise RootDataError("off-diagonal Cartan entries must be <= 0")
                if (C[i][j] == 0) != (C[j][i] == 0):
                    raise RootDataError("Cartan zero pattern must be symmetric")
    # Symmetrize: find d_i > 0 with d_i C[i][j] = d_j C[j][i], then demand
    # positive definiteness (finite type) via leading principal minors.
    d = [Fraction(0)] * m
    for start in range(m):
        if d[start]:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(m):
                if C[i][j] and i != j:
                    dj = d[i] * C[i][j] / C[j][i]
                    if d[j] == 0:
                        d[j] = dj
                        stack.append(j)
                    elif d[j] != dj:
                        raise RootDataError("Cartan matrix is not symmetrizable")
    # S = diag(d) C, scaled to integers, is positive definite iff every
    # leading principal minor is positive.  One fraction-free elimination
    # without row swaps (Bareiss, Math. Comp. 1968) leaves the k-th leading
    # minor as its k-th pivot, so the first pivot <= 0 rejects C.
    scale = lcm(*(x.denominator for x in d))
    S = [[int(d[i] * scale) * C[i][j] for j in range(m)] for i in range(m)]
    prev = 1
    for k in range(m):
        pivot = S[k][k]
        if pivot <= 0:
            raise RootDataError("Cartan matrix is not of finite type")
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                S[i][j] = (S[i][j] * pivot - S[i][k] * S[k][j]) // prev
        prev = pivot


def _generate_roots(C) -> tuple[list[Root], tuple[tuple[int, ...], ...]]:
    """The positive roots, sorted by (height, simple coordinates), and each
    s_j as a permutation of the root indices: the closure of the simple roots
    under s_j(beta) = beta - <beta, alpha_j^vee> alpha_j applies every s_j
    to every root once, and keeps each image by its place in the closure."""
    rank = len(C)
    columns = [tuple(row[j] for row in C) for j in range(rank)]
    units = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    roots = [Root(e, e, e) for e in units]
    at = {r.coords: g for g, r in enumerate(roots)}
    images = []  # images[g][j]: the place of s_j(roots[g]) in the closure
    for g, root in enumerate(roots):  # the loop reaches the roots it appends
        row = []
        for j in range(rank):
            p = sum(map(mul, root.simple_coords, columns[j]))
            if not p:
                row.append(g)
                continue
            new = list(root.simple_coords)
            new[j] -= p
            key = tuple(new)
            h = at.get(key)
            if h is None:
                cnew = list(root.coroot_coords)
                cnew[j] -= sum(map(mul, root.coroot_coords, C[j]))
                h = at[key] = len(roots)
                roots.append(Root(key, key, tuple(cnew)))
                if len(roots) > _MAX_ROOTS:
                    raise RootDataError("root generation exceeded budget")
            row.append(h)
        images.append(row)
    positives = sorted(
        (g for g, r in enumerate(roots) if r.is_positive),
        key=lambda g: (sum(roots[g].coords), roots[g].coords),
    )
    order = positives + [at[tuple(-c for c in roots[g].coords)] for g in positives]
    place = {g: i for i, g in enumerate(order)}
    simple_images = tuple(tuple(place[images[g][j]] for g in order) for j in range(rank))
    return [roots[g] for g in positives], simple_images


def _check_lattice(cartan, lattice: CharacterLattice) -> None:
    rank = len(cartan)
    for i in range(rank):
        for j in range(rank):
            got = sum(
                lattice.root_embedding[i][d] * lattice.coroot_pairing[d][j]
                for d in range(lattice.dim)
            )
            if got != cartan[i][j]:
                raise RootDataError(
                    "lattice is inconsistent: root_embedding o coroot_pairing "
                    f"gives {got} at ({i + 1},{j + 1}), Cartan says {cartan[i][j]}"
                )


def build_generic(cartan: Sequence[Sequence[int]], lattice_spec: dict | None = None):
    """Root system from a finite-type Cartan matrix, plus a character lattice.

    ``lattice_spec`` is ``{"dim": d, "pairing": [[...]], "root_embedding":
    [[...]]}``; when omitted the root lattice itself is used.

    >>> rs, _ = build_generic([[2, -1], [-1, 2]])
    >>> len(rs.positive_roots)
    3
    """
    C = int_matrix(cartan, "the Cartan matrix")
    rs = _GENERIC_SYSTEMS.get(C)
    if rs is None:
        _validate_cartan(C)
        rank = len(C)
        positives, simple_images = _generate_roots(C)
        simples = tuple(positives[:rank])[::-1]  # height 1, sorted by coordinates
        rs = _GENERIC_SYSTEMS[C] = RootSystem(
            rank, GENERIC, rank, simples, tuple(positives), C, simple_images)
    rank, spec = rs.rank, None
    if lattice_spec is not None:
        if not isinstance(lattice_spec, dict):
            raise RootDataError('the "lattice" block must be a JSON object')
        (dim,) = int_tuple([lattice_spec.get("dim")], 'the lattice "dim"')
        pair = int_matrix(lattice_spec.get("pairing"), 'the lattice "pairing"')
        emb = int_matrix(lattice_spec.get("root_embedding"), 'the lattice "root_embedding"')
        if len(pair) != dim or any(len(row) != rank for row in pair):
            raise RootDataError("coroot_pairing must have `dim` rows of `rank` entries")
        if len(emb) != rank or any(len(row) != dim for row in emb):
            raise RootDataError("root_embedding must have `rank` rows of `dim` entries")
        spec = (dim, pair, emb)
    lattice = _GENERIC_LATTICES.get((C, spec))
    if lattice is None:
        if spec is None:  # the root lattice
            units = tuple(tuple(int(d == k) for d in range(rank)) for k in range(rank))
            lattice = CharacterLattice(rank, C, units)
        else:
            lattice = CharacterLattice(*spec)
        _check_lattice(C, lattice)
        _GENERIC_LATTICES[(C, spec)] = lattice
    return rs, lattice


def load_generic_json(doc: str | dict):
    """Build a generic system from the JSON document format.

    ``{"cartan": [[...]], "lattice": {"dim": d, "pairing": [[...]],
    "root_embedding": [[...]]}}`` -- the lattice block is optional.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise RootDataError("a datum document must be a JSON object")
    if "cartan" not in doc:
        raise RootDataError('a generic datum needs a "cartan" matrix')
    return build_generic(doc["cartan"], doc.get("lattice"))

