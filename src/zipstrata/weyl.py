"""Weyl group arithmetic: composition, length, Bruhat order, parabolic cosets.

Elements are hash-consed per group and keyed by a permutation tuple: the
one-line permutation of the n coordinates for GL_n, and otherwise the
permutation of the 2N root indices (the positive roots in the order of
``RootSystem.positive_roots``, then their negatives in the same order), so
index i >= N is the root -positive_roots[i - N].  Composition and inverse
are the same tuple indexing in both cases, and a positive root goes negative
under w iff w.key[a] > w.key[b] for the pair of points (a, b) recorded for
that root.  The Bruhat order is decided by the lifting property, whose
recursion never branches: `bruhat_leq` runs it as one loop on the inverse
keys, stripping a left descent of w (a right descent of w^{-1}) per step,
and memoizes nothing.  Reduced words are chosen greedily (smallest simple
index first) so that all enumerations are reproducible.

Every group operation has one algorithm on keys, shared by GL_n and generic
data.  |W_K| is the height product prod_{alpha in Phi_K+} (ht alpha + 1) /
ht alpha (Macdonald, Math. Ann. 199, 1972), so no order is counted by
enumeration.  Hot loops work on raw key tuples (`compose`, `invert`,
`conjugate`) and intern only their results; `coatoms` gives the Bruhat
coatoms w s_alpha (l(w s_alpha) = l(w) - 1) with their roots, memoized per
key.  `orbit_labels` names the W_K-orbit of each key point, and
`cycle_shape` writes a key's cycles in those names, which conjugation by
W_K keeps.

W_K and ^K W are both built one length level at a time up the right weak
order from {e}, by one step (`_level_up`): w -> w s for each simple s that
is no right descent of w.  `parabolic_keys` takes only the moves s_k, k in
K, and yields W_K lazily as keys (`parabolic_elements` interns on top of
it).  ^K W is closed under prefixes in the right weak order (Deodhar), so
`minimal_reps_of_length` takes every move and keeps the keys with no left
descent in K, and `minimal_reps` never enumerates W (Bjorner-Brenti,
*Combinatorics of Coxeter Groups*, ch. 3).

`root_key` is the permutation of the 2N root indices (`RootSystem.roots`
order) that w induces: the key itself for generic data, and in type A the
image of e_a - e_b read off a table of root indices by point pair, built
once per element and kept on it.  The
action on roots (`WeylElement.apply`) and phi_w (`ZipDatum.phi_key`) are
indexing into it.  Generic reflections need no Cartan arithmetic: the
simple keys are the images root generation recorded, and every other
s_alpha is one conjugation of a lower one (`_reflection_at`).

The realization is read only where the key layout itself differs: the
one-line view (`one_line`, `label`, `__repr__`, `from_one_line`), the key
layout in `__init__`, and the coordinate action (`_reflection_at`,
`twist_points`, `root_key`, `_apply_weight`).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .rootdata import TYPE_A_GL, CharacterLattice, InvariantViolation, Root, RootSystem

DEFAULT_BUDGET = math.factorial(10)
# the group-size budget of the running request, not of a group (`budget_scope`)
BUDGET: contextvars.ContextVar[int] = contextvars.ContextVar("budget", default=DEFAULT_BUDGET)


@contextlib.contextmanager
def budget_scope(budget: int) -> Iterator[None]:
    """Run the enclosed calls under ``budget``; the previous one returns on exit."""
    token = BUDGET.set(budget)
    try:
        yield
    finally:
        BUDGET.reset(token)


def check_budget(size: int, what: str, *args) -> None:
    """Raise `BudgetExceeded`, "<what> exceeds budget N", when ``size`` is
    over the request's budget N; ``what`` is formatted with ``args`` only
    then."""
    budget = BUDGET.get()
    if size > budget:
        raise BudgetExceeded(f"{what.format(*args)} exceeds budget {budget}")


def compose(u: tuple, v: tuple) -> tuple:
    """The key of u v: (u v)[i] = u[v[i]], gathered in C by
    ``itemgetter(*v)(u)``.

    ``itemgetter`` returns a bare item for one index and refuses none, so a
    key needs at least two points; every datum's keys have them (GL_n needs
    n >= 2, and a generic rank >= 1 gives 2N >= 2 root indices).

    >>> compose((1, 2, 0), (2, 0, 1))
    (0, 1, 2)
    """
    return itemgetter(*v)(u)


def invert(p: tuple) -> tuple:
    """The key of p^{-1}."""
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def conjugate(x: tuple, y: tuple) -> tuple:
    """The key of x y x^{-1}: it sends x[i] to x[y[i]]."""
    out = [0] * len(y)
    for i, v in enumerate(y):
        out[x[i]] = x[v]
    return tuple(out)


def cycle_shape(p: tuple, labels: Sequence) -> tuple:
    """The cycles of the key p, each written as the word of its points'
    labels, rotated to its least form, then sorted.

    Conjugating p by a permutation that keeps every label keeps the shape:
    x p x^{-1} sends x[i] to x[p[i]], so each cycle is carried to a cycle
    with the same word.

    >>> cycle_shape((1, 0, 3, 2), "aabb")
    (('a', 'a'), ('b', 'b'))
    >>> cycle_shape((2, 3, 0, 1), "aabb")
    (('a', 'b'), ('a', 'b'))
    """
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i]:
            continue
        word = []
        while not seen[i]:
            seen[i] = True
            word.append(labels[i])
            i = p[i]
        if len(word) > 1:  # the least rotation starts at a least label
            low = min(word)
            word = min(word[r:] + word[:r] for r, lab in enumerate(word) if lab == low)
        cycles.append(tuple(word))
    cycles.sort()
    return tuple(cycles)


def _level_up(level: Iterable[tuple], moves, K_pairs=()) -> Iterator[tuple]:
    """The next level of a weak-order search: each w s, w in ``level`` and
    (pair, s) in ``moves`` (`WeylGroup._simple_moves`) with s no right
    descent of w, once; with the point pairs ``K_pairs`` of a K, only those
    without a left descent in K."""
    seen = set()
    for p in level:
        for (a, b), s in moves:
            if p[a] > p[b]:
                continue  # s is a right descent of w
            u = compose(p, s)
            if u in seen:
                continue
            seen.add(u)
            if K_pairs:
                q = invert(u)
                if not all(q[c] < q[d] for c, d in K_pairs):
                    continue  # u has a left descent in K
            yield u


class BudgetExceeded(RuntimeError):
    """The work asked for would exceed the request's budget (`check_budget`)."""


class WeylElement:
    """Immutable group element; compare/hash by the action key."""

    __slots__ = ("group", "key", "_length", "_word", "_inv", "_roots")

    def __init__(self, group: "WeylGroup", key, length=None):
        self.group = group
        self.key = key
        self._length = length
        self._word = None
        self._inv = None
        self._roots = None  # GL_n: `WeylGroup.root_key`, once built

    # -- group arithmetic ---------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.group is not self.group:
            raise ValueError("elements belong to different Weyl groups")
        return self.group._intern(compose(self.key, other.key))

    def inverse(self) -> "WeylElement":
        if self._inv is None:
            self._inv = self.group._intern(invert(self.key), self._length)
            self._inv._inv = self
        return self._inv

    def apply(self, root: Root) -> Root:
        """Image of a root under the action on the root space."""
        rs = self.group.rs
        return rs.roots[self.group.root_key(self)[rs.root_index[root.coords]]]

    def apply_weight(self, lam: Sequence[int], lattice: CharacterLattice | None = None):
        """Action on the character lattice (coordinate permutation in type A)."""
        return self.group._apply_weight(self, lam, lattice)

    # -- length / words -----------------------------------------------------

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = self.group._key_length(self.key)
        return self._length

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical reduced word (greedy smallest left-descent first)."""
        if self._word is None:
            w, out = self, []
            while True:
                i = self.group.first_left_descent(w)
                if i is None:
                    break
                out.append(i)
                w = self.group.simple(i) * w
            self._word = tuple(out)
        return self._word

    def one_line(self) -> list[int]:
        """One-line notation [w(1),...,w(n)] for type A elements."""
        if self.group.rs.realization != TYPE_A_GL:
            raise ValueError("one_line only makes sense for type A elements")
        return [v + 1 for v in self.key]

    def label(self) -> list[int]:
        """The printed form: one-line notation in type A, else the canonical word."""
        if self.group.rs.realization == TYPE_A_GL:
            return self.one_line()
        return list(self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        if self.group.rs.realization == TYPE_A_GL:
            return "[" + " ".join(str(v + 1) for v in self.key) + "]"
        return "w(" + " ".join(f"s{i}" for i in self.word) + ")" if self.word else "w(e)"


class WeylGroup:
    """The Weyl group of a root system, with memoized order computations."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._elements: dict = {}
        self._coatoms: dict = {}
        self._orbit_labels: dict = {}
        self._minimal_reps: dict = {}
        self._parabolics: dict = {}
        self._by_length: dict = {}
        self._reps_by_length: dict = {}
        self._reflections: dict = {}
        # A positive root goes negative under w iff key[a] > key[b] for its
        # pair of points (a, b): e_a - e_b goes to e_w(a) - e_w(b) in type A,
        # and root a lands below index N iff -root a = root b lands above it.
        npos = self._npos = len(rs.positive_roots)
        if rs.realization == TYPE_A_GL:
            self.n = rs.ambient_dim
            size = self.n
            # the points (a, b) of each root e_a - e_b, and the root index
            # of e_a - e_b at [a][b]
            self._root_points = tuple(
                (r.coords.index(1), r.coords.index(-1)) for r in rs.roots
            )
            self._root_at = [[0] * size for _ in range(size)]
            for i, (a, b) in enumerate(self._root_points):
                self._root_at[a][b] = i
            pairs = self._root_points[:npos]
        else:
            self.n = rs.rank
            size = 2 * npos
            pairs = [(i, i + npos) for i in range(npos)]
        self._positive_pairs = tuple(pairs)
        simple_index = [rs.root_index[r.coords] for r in rs.simple_roots]
        self._simple_pairs = tuple(pairs[i] for i in simple_index)
        self.identity = self._intern(tuple(range(size)), 0)
        self._simples = {k: self._reflection_at(i) for k, i in enumerate(simple_index, 1)}
        # ((a, b), key of s_k) for k = 1..rank: s_k is a right descent of p
        # iff p[a] > p[b]
        self._simple_moves = tuple(
            (pair, self._simples[k].key)
            for k, pair in enumerate(self._simple_pairs, 1)
        )

    # -- element construction -----------------------------------------------

    def _intern(self, key, length=None) -> WeylElement:
        el = self._elements.get(key)
        if el is None:
            el = WeylElement(self, key, length)
            self._elements[key] = el
        return el

    def simple(self, k: int) -> WeylElement:
        """Simple reflection s_k (1-based)."""
        if k not in self._simples:
            raise ValueError(f"no simple reflection s{k}: the indices run 1..{self.rs.rank}")
        return self._simples[k]

    def from_one_line(self, values: Sequence[int]) -> WeylElement:
        if self.rs.realization != TYPE_A_GL:
            raise ValueError("one-line input is only defined for type A")
        if sorted(values) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {list(values)}")
        return self._intern(tuple(v - 1 for v in values))

    def from_word(self, word: Iterable[int]) -> WeylElement:
        w = self.identity
        for k in word:
            w = w * self.simple(k)
        return w

    def reflection(self, root: Root) -> WeylElement:
        """The reflection s_alpha = s_{-alpha} for an arbitrary root alpha."""
        return self._reflection_at(self.rs.root_index[root.coords] % self._npos)

    def _reflection_at(self, i: int) -> WeylElement:
        """s_alpha for the i-th positive root alpha, memoized.  GL_n: the
        transposition of alpha's points.  Generic: s_k is
        `RootSystem.simple_images`[k - 1], and alpha_k is the one positive
        root it negates; any other alpha > 0 has a k with beta = s_k(alpha) a
        positive root of lower height, so of smaller index, and s_alpha =
        s_k s_beta s_k (Humphreys, *Reflection Groups and Coxeter Groups*,
        1990, §1.2)."""
        el = self._reflections.get(i)
        if el is None:
            if self.rs.realization == TYPE_A_GL:
                a, b = self._root_points[i]
                key = tuple(b if v == a else a if v == b else v for v in range(self.n))
            else:
                for s in self.rs.simple_images:
                    j = s[i]
                    if j >= self._npos:  # alpha is alpha_k
                        key = s
                        break
                    if j < i:
                        key = conjugate(s, self._reflection_at(j).key)
                        break
                else:
                    raise InvariantViolation(
                        f"no simple reflection negates or lowers the root {self.rs.roots[i]}"
                    )
            el = self._reflections[i] = self._intern(key)
        return el

    def twist_points(self, sigma) -> tuple:
        """The permutation tau of the key points that the diagram automorphism
        sigma induces: for generic data its table ``sigma.root_perm``."""
        if self.rs.realization != TYPE_A_GL:
            return sigma.root_perm
        # the one non-trivial automorphism of A_{n-1} is conjugation by w_0,
        # which reverses the coordinates
        points = tuple(range(self.n))
        return points if sigma.is_identity else points[::-1]

    # -- primitive operations -----------------------------------------------

    def root_key(self, w: WeylElement) -> tuple:
        """The permutation of the root indices (`RootSystem.roots` order)
        that w induces: w.key itself for generic data; in GL_n, e_a - e_b
        goes to e_w(a) - e_w(b), a permutation built once per element and
        kept on it.

        >>> from zipstrata.rootdata import build_gl
        >>> W = WeylGroup(build_gl(3, 1)[0])
        >>> W.root_key(W.simple(1))
        (3, 2, 1, 0, 5, 4)
        """
        if self.rs.realization != TYPE_A_GL:
            return w.key
        roots = w._roots
        if roots is None:
            p, at = w.key, self._root_at
            roots = w._roots = tuple([at[p[a]][p[b]] for a, b in self._root_points])
        return roots

    def _apply_weight(self, w: WeylElement, lam, lattice):
        if self.rs.realization == TYPE_A_GL:
            if len(lam) != self.n:
                raise ValueError("weight has wrong dimension")
            # (w lam)[k] = lam[w^{-1}(k)]: one gather, as in `compose`
            return compose(lam, w.inverse().key)
        if lattice is None:
            raise ValueError("generic elements need an explicit lattice to act on weights")
        if len(lam) != lattice.dim:
            raise ValueError("weight has wrong dimension")
        # s_k(lam) = lam - <lam, alpha_k^vee> alpha_k: column k - 1 of the
        # coroot pairings, and alpha_k as a lattice vector
        pairing, embedding = lattice.coroot_pairing, lattice.root_embedding
        out = tuple(lam)
        for k in reversed(w.word):
            p = sum(x * row[k - 1] for x, row in zip(out, pairing))
            if p:
                out = tuple(x - p * a for x, a in zip(out, embedding[k - 1]))
        return out

    def _key_length(self, p: tuple) -> int:
        return sum(1 for a, b in self._positive_pairs if p[a] > p[b])

    # -- descents -----------------------------------------------------------

    def first_left_descent(self, w: WeylElement) -> int | None:
        """Smallest k with l(s_k w) < l(w), or None for the identity."""
        q = w.inverse().key
        for k, (a, b) in enumerate(self._simple_pairs, 1):
            if q[a] > q[b]:
                return k
        return None

    def has_left_descent(self, w: WeylElement, k: int) -> bool:
        a, b = self._simple_pairs[k - 1]
        q = w.inverse().key
        return q[a] > q[b]

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, v: WeylElement, w: WeylElement) -> bool:
        """Bruhat order by the lifting property, as one loop on raw keys.

        For a simple s with l(sw) < l(w): v <= w iff sv <= sw when
        l(sv) < l(v), and v <= sw otherwise.  The recursion never branches,
        so it runs as a loop on the inverse keys, where s w is w^{-1} s and a
        left descent of w is a right descent of w^{-1}.  An s that is no
        descent of v is taken first, since it closes the length gap.  The
        loop stops once v = e (below everything) or l(v) >= l(w), where
        v <= w iff v = w.  Nothing is memoized, and no intermediate product
        is interned.
        """
        if v.group is not self or w.group is not self:
            raise ValueError("elements belong to a different Weyl group")
        if v.key == w.key:
            return True
        lv, lw = v.length, w.length
        if lv >= lw:
            return False
        p, q = invert(v.key), invert(w.key)
        while 0 < lv < lw:
            shared = None
            for move in self._simple_moves:
                (a, b), s = move
                if q[a] > q[b]:  # s is a left descent of w
                    if p[a] < p[b]:
                        break
                    shared = shared or move
            else:  # every left descent of w is one of v
                (a, b), s = shared
            q = compose(q, s)
            lw -= 1
            if p[a] > p[b]:
                p = compose(p, s)
                lv -= 1
        return lv < lw or p == q

    def coatoms(self, w: WeylElement) -> tuple[tuple[Root, tuple], ...]:
        """(alpha, key of w s_alpha) for the Bruhat coatoms of w: the w s_alpha,
        alpha > 0, with l(w s_alpha) = l(w) - 1 (Bjorner-Brenti, ch. 2),
        memoized per key.

        Only the roots that w sends negative can shorten w; their products
        are compared by length on raw keys and left uninterned.
        """
        p = w.key
        hit = self._coatoms.get(p)
        if hit is None:
            below = w.length - 1
            out = []
            for i, ((a, b), root) in enumerate(zip(self._positive_pairs, self.rs.positive_roots)):
                if p[a] > p[b]:  # w sends root negative: l(w s_root) < l(w)
                    u = compose(p, self._reflection_at(i).key)
                    if self._key_length(u) == below:
                        out.append((root, u))
            hit = self._coatoms[p] = tuple(out)
        return hit

    # -- parabolic machinery ---------------------------------------------------

    def parabolic_order(self, K) -> int:
        """|W_K|."""
        return self._parabolic(K)[0]

    def _parabolic(self, K) -> tuple[int, tuple]:
        """|W_K| and the point pairs of the positive roots outside Phi_K,
        memoized per K.  |W_K| = prod over alpha in Phi_K+ of
        (ht alpha + 1) / ht alpha (Macdonald, Math. Ann. 199, 1972)."""
        key = frozenset(K)
        hit = self._parabolics.get(key)
        if hit is None:
            outside = [k not in key for k in self.rs.delta_indices()]
            heights, pairs = [], []
            for root, pair in zip(self.rs.positive_roots, self._positive_pairs):
                # a positive root is in Phi_K iff no simple root outside K
                # occurs in it
                if any(itertools.compress(root.simple_coords, outside)):
                    pairs.append(pair)
                else:
                    heights.append(sum(root.simple_coords))
            order = math.prod(h + 1 for h in heights) // math.prod(heights)
            hit = self._parabolics[key] = (order, tuple(pairs))
        return hit

    def orbit_labels(self, K) -> tuple[int, ...]:
        """For each key point, the least point of its W_K-orbit; memoized per K.

        W_K is generated by the s_k, k in K, so its orbits are the classes of
        i ~ s_k[i]: one union pass over the keys of those generators, the
        same for GL_n and generic keys.
        """
        key = frozenset(K)
        labels = self._orbit_labels.get(key)
        if labels is None:
            parent = list(range(len(self.identity.key)))

            def root(i: int) -> int:
                while parent[i] != i:
                    i = parent[i]
                return i

            for k in key:
                for i, j in enumerate(self._simples[k].key):
                    a, b = root(i), root(j)
                    # the least point of a class stays its root
                    parent[max(a, b)] = min(a, b)
            labels = self._orbit_labels[key] = tuple(map(root, range(len(parent))))
        return labels

    def parabolic_elements(self, K) -> Iterator[WeylElement]:
        """All of W_K, lazily, identity first; deterministic order."""
        for key in self.parabolic_keys(K):
            yield self._intern(key)

    def parabolic_keys(self, K) -> Iterator[tuple]:
        """The keys of `parabolic_elements(K)`, in the same order, uninterned:
        W_K level by level up the right weak order from e, using only the
        moves s_k, k in K; within a level, in the order the keys are first
        reached.  Drawing e is free; drawing past it charges |W_K| against
        the budget once (`check_budget`), the scan it starts, unless W_K =
        {e} leaves nothing past e.

        >>> from zipstrata.rootdata import build_gl
        >>> W = WeylGroup(build_gl(3, 1)[0])
        >>> list(W.parabolic_keys({1, 2}))
        [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        """
        level = [self.identity.key]
        yield self.identity.key
        order = self.parabolic_order(K)
        if order > 1:
            check_budget(order, "|W_K| = {}", order)
        moves = [self._simple_moves[k - 1] for k in sorted(K)]
        while level:
            nxt = []
            for u in _level_up(level, moves):
                nxt.append(u)
                yield u
            level = nxt

    def in_parabolic(self, u: WeylElement, K) -> bool:
        """True iff u lies in W_K: no positive root outside Phi_K goes negative."""
        p = u.key
        return all(p[a] < p[b] for a, b in self._parabolic(K)[1])

    def _walk(self, p: tuple, K, up: bool) -> tuple[tuple, int]:
        """Multiply the key p on the right by each s_k, k in K, that
        lengthens it (``up``) or shortens it (not ``up``), until none does;
        returns the last key and the number of steps."""
        moves = [self._simple_moves[k - 1] for k in sorted(K)]
        steps = 0
        moved = True
        while moved:
            moved = False
            for (a, b), s in moves:
                if (p[a] < p[b]) == up:  # p[a] < p[b] iff l(p s) > l(p)
                    p = compose(p, s)
                    steps += 1
                    moved = True
        return p, steps

    def longest_element(self, K) -> WeylElement:
        """The longest element of W_K; identity for K = {}."""
        key, length = self._walk(self.identity.key, K, up=True)
        return self._intern(key, length)

    def min_coset_rep(self, K, w: WeylElement) -> tuple[WeylElement, WeylElement]:
        """Decompose w = u * w_min with u in W_K and w_min minimal in W_K w.

        Strips the left descents of w in K: on q = w^{-1}, s_k w is q s_k.
        """
        q, steps = self._walk(invert(w.key), K, up=False)
        return self._intern(compose(w.key, q), steps), self._intern(invert(q))

    def is_minimal_rep(self, w: WeylElement, K) -> bool:
        """w in ^K W, i.e. w is shortest in W_K w (no left descent inside K)."""
        return all(not self.has_left_descent(w, k) for k in K)

    def minimal_reps(self, K) -> list[WeylElement]:
        """All of ^K W sorted by (length, canonical word); the budget is checked first."""
        key = frozenset(K)
        check_budget(self.order() // self.parabolic_order(key), "|^K W|")
        cached = self._minimal_reps.get(key)
        if cached is not None:
            return cached
        out = []
        for length in itertools.count():
            level = self.minimal_reps_of_length(key, length)
            if not level:
                break
            out.extend(level)
        out.sort(key=lambda w: (w.length, w.word))
        self._minimal_reps[key] = out
        return out

    # -- enumerations ---------------------------------------------------------

    def order(self) -> int:
        return self.parabolic_order(self.rs.delta_indices())

    def elements(self) -> Iterator[WeylElement]:
        """All of W, identity first; the budget is checked at the call."""
        order = self.order()
        check_budget(order, "|W| = {}", order)
        return self.parabolic_elements(self.rs.delta_indices())

    def elements_of_length(self, length: int) -> tuple[WeylElement, ...]:
        """All w with l(w) = length, from one enumeration of W bucketed by
        length.  The library itself does not call this (^K W comes from the
        weak-order search of `minimal_reps_of_length`); the span tracer of
        `perfbench/tracing.py` still wraps it by name.
        """
        everything = self.elements()  # checks the budget before the memo is read
        memo = self._by_length
        if not memo:
            buckets: dict = {}
            for w in everything:
                buckets.setdefault(w.length, []).append(w)
            memo.update((k, tuple(v)) for k, v in buckets.items())
        return memo.get(length, ())

    def minimal_reps_of_length(self, K, length: int) -> tuple[WeylElement, ...]:
        """^K W intersected with length ``length``, memoized per (K, length).

        ^K W is closed under prefixes in the right weak order (Deodhar), so
        level l + 1 is `_level_up` of level l over every simple move, kept to
        ^K W; the search starts from {e} and never interns an element
        outside ^K W.
        """
        K = frozenset(K)
        memo = self._reps_by_length
        hit = memo.get((K, length))
        if hit is not None:
            return hit
        if length < 0:
            return ()
        memo.setdefault((K, 0), (self.identity,))
        top = length
        while (K, top) not in memo:
            top -= 1
        level = memo[(K, top)]
        K_pairs = [self._simple_pairs[k - 1] for k in sorted(K)]
        while top < length:
            top += 1
            keys = _level_up((w.key for w in level), self._simple_moves, K_pairs)
            level = memo[(K, top)] = tuple(self._intern(u, top) for u in keys)
        return level
