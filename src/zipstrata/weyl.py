"""Weyl group arithmetic: composition, length, Bruhat order, parabolic cosets.

Elements are hash-consed per group and keyed by a permutation tuple: the
one-line permutation of the n coordinates for GL_n, and otherwise the
permutation of the 2N root indices (the positive roots in the order of
``RootSystem.positive_roots``, then their negatives in the same order), so
index i >= N is the root -positive_roots[i - N].  Composition and inverse
are the same tuple indexing in both cases, and a positive root goes negative
under w iff w.key[a] > w.key[b] for the pair of points (a, b) recorded for
that root.  Type A keeps its block algorithms on one-line keys.  The Bruhat
order is computed by the lifting recursion and memoized on the group;
reduced words are chosen greedily (smallest simple index first) so that all
enumerations are reproducible.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .rootdata import TYPE_A_GL, CharacterLattice, Root, RootSystem

DEFAULT_BUDGET = math.factorial(10)


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured group-size budget."""


class InvariantViolation(AssertionError):
    """A load-bearing invariant failed; raised explicitly, so ``python -O``
    does not remove the check."""


class WeylElement:
    """Immutable group element; compare/hash by the action key."""

    __slots__ = ("group", "key", "_length", "_word", "_inv")

    def __init__(self, group: "WeylGroup", key, length=None):
        self.group = group
        self.key = key
        self._length = length
        self._word = None
        self._inv = None

    # -- group arithmetic ---------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.group is not self.group:
            raise ValueError("elements belong to different Weyl groups")
        return self.group._mul(self, other)

    def inverse(self) -> "WeylElement":
        if self._inv is None:
            self._inv = self.group._inverse(self)
        return self._inv

    def apply(self, root: Root) -> Root:
        """Image of a root under the action on the root space."""
        return self.group._apply(self, root)

    def apply_weight(self, lam: Sequence[int], lattice: CharacterLattice | None = None):
        """Action on the character lattice (coordinate permutation in type A)."""
        return self.group._apply_weight(self, lam, lattice)

    # -- length / words -----------------------------------------------------

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = self.group._length(self)
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

    def __init__(self, rs: RootSystem, budget: int = DEFAULT_BUDGET):
        self.rs = rs
        self.budget = budget
        self._elements: dict = {}
        self._bruhat: dict = {}
        self._minimal_reps: dict = {}
        self._parabolic_orders: dict = {}
        self._by_length: dict = {}
        self._reps_by_length: dict = {}
        self._twist_points: dict = {}
        # A positive root goes negative under w iff key[a] > key[b] for its
        # pair of points (a, b): e_a - e_b goes to e_w(a) - e_w(b) in type A,
        # and root a lands below index N iff -root a = root b lands above it.
        positives = rs.positive_roots
        if rs.realization == TYPE_A_GL:
            self.n = rs.ambient_dim
            size = self.n
            pairs = [(r.coords.index(1), r.coords.index(-1)) for r in positives]
        else:
            self.n = rs.rank
            npos = len(positives)
            self._roots = tuple(rs.root_from_coords(r.coords) for r in rs.roots)
            self._root_index = {r.coords: i for i, r in enumerate(self._roots)}
            size = 2 * npos
            pairs = [(i, i + npos) for i in range(npos)]
        self._positive_pairs = tuple(pairs)
        self._simple_pairs = tuple(pairs[positives.index(r)] for r in rs.simple_roots)
        self.identity = self._intern(tuple(range(size)), 0)
        self._simples = {k: self.reflection(rs.simple(k)) for k in rs.delta_indices()}

    # -- element construction -----------------------------------------------

    def _intern(self, key, length=None) -> WeylElement:
        el = self._elements.get(key)
        if el is None:
            el = WeylElement(self, key, length)
            self._elements[key] = el
        return el

    def simple(self, k: int) -> WeylElement:
        """Simple reflection s_k (1-based)."""
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
        """The reflection s_alpha for an arbitrary root alpha."""
        if self.rs.realization == TYPE_A_GL:
            i = root.coords.index(1)
            j = root.coords.index(-1)
            p = list(range(self.n))
            p[i], p[j] = p[j], p[i]
            return self._intern(tuple(p))
        # s_alpha(beta) = beta - <beta, alpha^vee> alpha in simple-root coordinates
        C = self.rs.cartan
        alpha = root.simple_coords
        col = [sum(c * C[j][k] for k, c in enumerate(root.coroot_coords)) for j in range(self.n)]
        key = []
        for beta in self._roots:
            p = sum(b * c for b, c in zip(beta.simple_coords, col))
            image = tuple(b - p * a for b, a in zip(beta.simple_coords, alpha))
            key.append(self._root_index[image])
        return self._intern(tuple(key))

    def twist(self, w: WeylElement, delta_perm: Sequence[int]) -> WeylElement:
        """sigma(w) for the diagram automorphism alpha_k -> alpha_{delta_perm[k-1]}.

        sigma permutes the points the keys act on, and sigma(w) is w
        conjugated by that permutation tau: sigma(w)[tau[i]] = tau[w[i]].
        """
        delta_perm = tuple(delta_perm)
        tau = self._twist_points.get(delta_perm)
        if tau is None:
            if self.rs.realization == TYPE_A_GL:
                # the one non-trivial automorphism of A_{n-1} is conjugation
                # by w_0, which reverses the coordinates
                flip = delta_perm != tuple(self.rs.delta_indices())
                tau = tuple(range(self.n))[::-1] if flip else tuple(range(self.n))
            else:
                tau = []
                for root in self._roots:
                    img = [0] * self.n
                    for k, c in enumerate(root.simple_coords):
                        img[delta_perm[k] - 1] = c
                    tau.append(self._root_index[tuple(img)])
            self._twist_points[delta_perm] = tau
        key = w.key
        out = [0] * len(key)
        for i, v in enumerate(key):
            out[tau[i]] = tau[v]
        return self._intern(tuple(out), w._length)

    # -- primitive operations -----------------------------------------------

    def _mul(self, u: WeylElement, v: WeylElement) -> WeylElement:
        uk = u.key
        return self._intern(tuple(uk[x] for x in v.key))

    def _inverse(self, w: WeylElement) -> WeylElement:
        p = w.key
        q = [0] * len(p)
        for i, v in enumerate(p):
            q[v] = i
        el = self._intern(tuple(q), w._length)
        el._inv = w
        return el

    def _apply(self, w: WeylElement, root: Root) -> Root:
        if self.rs.realization == TYPE_A_GL:
            p = w.key
            out = [0] * self.n
            for i, c in enumerate(root.coords):
                if c:
                    out[p[i]] = c
            return self.rs.root_from_coords(tuple(out))
        return self._roots[w.key[self._root_index[root.coords]]]

    def _apply_weight(self, w: WeylElement, lam, lattice):
        if self.rs.realization == TYPE_A_GL:
            if len(lam) != self.n:
                raise ValueError("weight has wrong dimension")
            q = w.inverse().key
            return tuple(lam[q[k]] for k in range(self.n))
        if lattice is None:
            raise ValueError("generic elements need an explicit lattice to act on weights")
        out = tuple(lam)
        for k in reversed(w.word):
            out = lattice.reflect(out, self.rs.simple(k))
        return out

    def _length(self, w: WeylElement) -> int:
        p = w.key
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

    def has_right_descent(self, w: WeylElement, k: int) -> bool:
        a, b = self._simple_pairs[k - 1]
        p = w.key
        return p[a] > p[b]

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, v: WeylElement, w: WeylElement) -> bool:
        """Bruhat order via the lifting recursion, memoized.

        Pick a simple s with l(sw) < l(w); then v <= w iff (sv < v and
        sv <= sw) or (sv > v and v <= sw); the base case w = e forces v = e.
        """
        if v.group is not self or w.group is not self:
            raise ValueError("elements belong to a different Weyl group")
        if v.key == w.key:
            return True
        if v.length >= w.length:
            return False
        memo = self._bruhat
        key = (v.key, w.key)
        hit = memo.get(key)
        if hit is not None:
            return hit
        s = self.first_left_descent(w)
        if s is None:
            res = v.key == self.identity.key
        else:
            sref = self.simple(s)
            sw = sref * w
            sv = sref * v
            if self.has_left_descent(v, s):
                res = self.bruhat_leq(sv, sw)
            else:
                res = self.bruhat_leq(v, sw)
        memo[key] = res
        return res

    # -- parabolic machinery ---------------------------------------------------

    def blocks(self, K: frozenset[int] | set[int]) -> list[tuple[int, int]]:
        """Half-open 0-based value intervals of the standard parabolic W_K.

        Only meaningful for type A, where K subset of {1..n-1} joins value i
        with i+1 whenever alpha_i is in K.
        """
        K = set(K)
        out = []
        start = 0
        for i in range(1, self.n):
            if i not in K:
                out.append((start, i))
                start = i
        out.append((start, self.n))
        return out

    def parabolic_order(self, K) -> int:
        """|W_K|: a product of factorials in type A, else counted once per K."""
        if self.rs.realization == TYPE_A_GL:
            return math.prod(math.factorial(hi - lo) for lo, hi in self.blocks(K))
        key = frozenset(K)
        order = self._parabolic_orders.get(key)
        if order is None:
            order = self._parabolic_orders[key] = sum(1 for _ in self.parabolic_elements(key))
        return order

    def parabolic_elements(self, K) -> Iterator[WeylElement]:
        """All of W_K, lazily, identity first; deterministic order."""
        if self.rs.realization == TYPE_A_GL:
            blocks = self.blocks(K)

            # block by block, the first block slowest, so that taking a few
            # elements never materializes a block's permutations
            def rec(i: int, prefix: tuple[int, ...]) -> Iterator[WeylElement]:
                if i == len(blocks):
                    yield self._intern(prefix)
                    return
                lo, hi = blocks[i]
                for piece in itertools.permutations(range(lo, hi)):
                    yield from rec(i + 1, prefix + piece)

            yield from rec(0, ())
        else:
            gens = [self.simple(k) for k in sorted(K)]
            yield from self._closure(gens)

    def _closure(self, gens) -> Iterator[WeylElement]:
        seen = {self.identity.key}
        frontier = [self.identity]
        yield self.identity
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    u = w * g
                    if u.key not in seen:
                        if len(seen) >= self.budget:
                            raise BudgetExceeded(
                                f"group enumeration exceeds budget {self.budget}"
                            )
                        seen.add(u.key)
                        nxt.append(u)
                        yield u
            frontier = nxt

    def in_parabolic(self, u: WeylElement, K) -> bool:
        """True iff u lies in W_K (every inversion of u is inside Phi_K+)."""
        if self.rs.realization == TYPE_A_GL:
            block_id = [0] * self.n
            for b, (lo, hi) in enumerate(self.blocks(K)):
                for v in range(lo, hi):
                    block_id[v] = b
            p = u.key
            return all(block_id[p[i]] == block_id[i] for i in range(self.n))
        Kset = frozenset(K)
        p = u.key
        return all(
            p[a] < p[b] or root.support() <= Kset
            for root, (a, b) in zip(self.rs.positive_roots, self._positive_pairs)
        )

    def longest_element(self, K) -> WeylElement:
        """The longest element of W_K; identity for K = {}."""
        if self.rs.realization == TYPE_A_GL:
            p = list(range(self.n))
            for lo, hi in self.blocks(K):
                p[lo:hi] = reversed(p[lo:hi])
            return self._intern(tuple(p))
        w = self.identity
        K = sorted(K)
        while True:
            for k in K:
                if not self.has_right_descent(w, k):
                    w = w * self.simple(k)
                    break
            else:
                return w

    def min_coset_rep(self, K, w: WeylElement) -> tuple[WeylElement, WeylElement]:
        """Decompose w = u * w_min with u in W_K and w_min minimal in W_K w."""
        if self.rs.realization == TYPE_A_GL:
            p = w.key
            wmin = [0] * self.n
            for lo, hi in self.blocks(K):
                nxt = lo
                for i in range(self.n):
                    if lo <= p[i] < hi:
                        wmin[i] = nxt
                        nxt += 1
            wmin_el = self._intern(tuple(wmin))
            q = wmin_el.inverse().key
            u = self._intern(tuple(p[q[i]] for i in range(self.n)))
            return u, wmin_el
        wmin = w
        u = self.identity
        K = sorted(K)
        while True:
            for k in K:
                if self.has_left_descent(wmin, k):
                    wmin = self.simple(k) * wmin
                    u = u * self.simple(k)
                    break
            else:
                return u, wmin

    def is_minimal_rep(self, w: WeylElement, K) -> bool:
        """w in ^K W, i.e. w is shortest in W_K w (no left descent inside K)."""
        return all(not self.has_left_descent(w, k) for k in K)

    def minimal_reps(self, K) -> list[WeylElement]:
        """All of ^K W, sorted by (length, canonical word)."""
        key = frozenset(K)
        cached = self._minimal_reps.get(key)
        if cached is not None:
            return cached
        if self.rs.realization == TYPE_A_GL:
            blocks = self.blocks(key)
            count = math.factorial(self.n)
            for lo, hi in blocks:
                count //= math.factorial(hi - lo)
            if count > self.budget:
                raise BudgetExceeded(f"|^K W| = {count} exceeds budget {self.budget}")
            # w is minimal iff each block's values appear in increasing
            # position order, so w is a choice of positions per block
            perms = [[None] * self.n]
            for lo, hi in blocks:
                nxt = []
                for p in perms:
                    free = [i for i, v in enumerate(p) if v is None]
                    for pos in itertools.combinations(free, hi - lo):
                        q = list(p)
                        for v, i in enumerate(pos, lo):
                            q[i] = v
                        nxt.append(q)
                perms = nxt
            out = [self._intern(tuple(p)) for p in perms]
        else:
            # drawn from the length index, so W is enumerated once per group
            out = [
                w
                for k in range(len(self.rs.positive_roots) + 1)
                for w in self.minimal_reps_of_length(key, k)
            ]
        out.sort(key=lambda w: (w.length, w.word))
        self._minimal_reps[key] = out
        return out

    # -- enumerations ---------------------------------------------------------

    def order(self) -> int:
        if self.rs.realization == TYPE_A_GL:
            return math.factorial(self.n)
        return sum(1 for _ in self.elements())

    def elements(self) -> Iterator[WeylElement]:
        if self.rs.realization == TYPE_A_GL:
            if math.factorial(self.n) > self.budget:
                raise BudgetExceeded(f"|W| = {self.n}! exceeds budget {self.budget}")
            for p in itertools.permutations(range(self.n)):
                yield self._intern(p)
        else:
            yield from self._closure([self.simple(k) for k in self.rs.delta_indices()])

    def elements_of_length(self, length: int) -> tuple[WeylElement, ...]:
        """All w with l(w) = length, memoized per length.

        Type A builds only the requested length, from Lehmer codes; generic
        data bucket one enumeration of the whole group by length.
        """
        memo = self._by_length
        out = memo.get(length)
        if out is not None:
            return out
        if self.rs.realization == TYPE_A_GL:
            n = self.n
            code = [0] * n

            def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
                if i == n:
                    if remaining == 0:
                        yield tuple(code)
                    return
                cap = n - 1 - i
                for c in range(min(cap, remaining) + 1):
                    code[i] = c
                    yield from rec(i + 1, remaining - c)
                code[i] = 0

            out = []
            for lehmer in rec(0, length):
                avail = list(range(n))
                out.append(self._intern(tuple(avail.pop(c) for c in lehmer), length))
            out = memo[length] = tuple(out)
            return out
        if not memo:
            buckets: dict = {}
            for w in self.elements():
                buckets.setdefault(w.length, []).append(w)
            memo.update((k, tuple(v)) for k, v in buckets.items())
        return memo.get(length, ())

    def minimal_reps_of_length(self, K, length: int) -> tuple[WeylElement, ...]:
        """^K W intersected with length ``length``, memoized per (K, length)."""
        key = (frozenset(K), length)
        out = self._reps_by_length.get(key)
        if out is None:
            out = self._reps_by_length[key] = tuple(
                w for w in self.elements_of_length(length) if self.is_minimal_rep(w, key[0])
            )
        return out
