"""Lower neighbours from the coatom targets against the `twisted_leq` scan,
and the facts the scan rests on.

`ZipDatum.lower_neighbors` tests each candidate w' against the set {w} and
the Bruhat coatoms of w, conjugating raw keys by W_K; `twisted_oracle`
tests every x w' psi(x)^{-1} against w in the Bruhat order, as
`twisted_leq` does, over ^K W taken from all of W.  The two must give the
same neighbour lists.  The property tests draw random finite-type data and
check the weak-order search for ^K W and the length lemma
l(x w' psi(x)^{-1}) >= l(w').
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_oracle import TwistedScan
from zipstrata.rootdata import build_generic
from zipstrata.weyl import conjugate
from zipstrata.zipdatum import BasedAutomorphism, gl_zip_datum, make_zip_datum

A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
C4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

# the generic data of the golden dumps: (Cartan matrix, I, sigma)
GOLDEN = {
    "G2": ([[2, -1], [-3, 2]], [2], "id"),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [2, 3], "id"),
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 3], "id"),
    "B4": (B4, [2, 3, 4], "id"),
    "C4": (C4, [2, 3, 4], "id"),
    "D4": (D4, [2, 3, 4], "id"),
    "D4_triality": (D4, [1, 3, 4], "3,2,4,1"),
    "A4_flip": (A4, [1, 4], "flip"),
}


def _subsets(S):
    S = sorted(S)
    return [frozenset(c) for size in range(len(S) + 1) for c in itertools.combinations(S, size)]


def _agree_on_every_K(zd, done=None):
    """Compare on every K inside I.  <=_K depends only on K and on psi
    restricted to W_K, so a (K, psi on the simples of K) already in ``done``
    is skipped."""
    done = set() if done is None else done
    for K in _subsets(zd.I):
        restriction = (K, tuple(zd.psi(zd.W.simple(k)).key for k in sorted(K)))
        if restriction in done:
            continue
        done.add(restriction)
        oracle = TwistedScan(zd, K)
        for level in oracle.levels.values():
            for w in level:
                assert zd.lower_neighbors(K, w) == oracle.lower_neighbors(w), (K, w)


@pytest.mark.parametrize("n,r,sigma", [(4, 2, "id"), (4, 1, "flip"), (5, 3, "flip")])
def test_oracle_order_is_twisted_leq(n, r, sigma):
    zd = gl_zip_datum(n, r, sigma=sigma)
    for K in _subsets(zd.I):
        oracle = TwistedScan(zd, K)
        reps = [w for level in oracle.levels.values() for w in level]
        for a, b in itertools.product(reps, repeat=2):
            assert oracle.leq(a, b) == zd.twisted_leq(K, a, b)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lower_neighbors_match_scan_on_gl(n):
    done = set()
    for r in range(1, n):
        for sigma in ("id", "flip"):
            _agree_on_every_K(gl_zip_datum(n, r, sigma=sigma), done)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lower_neighbors_match_scan_on_golden_generic_data(name):
    cartan, I, sigma = GOLDEN[name]
    rs, lat = build_generic(cartan)
    _agree_on_every_K(make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat))


@pytest.mark.parametrize("n,r,sigma", [(5, 2, "id"), (5, 3, "flip"), (6, 3, "flip")])
def test_psi_is_conjugation_by_the_frame(n, r, sigma):
    zd = gl_zip_datum(n, r, sigma=sigma)
    for x in zd.W.parabolic_elements(zd.I):
        assert zd.psi(x).key == conjugate(zd._frame, x.key)


# -- property tests on random finite-type data -----------------------------


def _chain(rank):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
            for i in range(rank)]


def _cartan(family, rank):
    C = _chain(rank)
    if family == "B":
        C[rank - 2][rank - 1] = -2
    elif family == "C":
        C[rank - 1][rank - 2] = -2
    elif family == "D":
        C = [row[:] for row in D4]
    elif family == "F":
        C[1][2] = -2
    elif family == "G":
        C = [[2, -1], [-3, 2]]
    return C


# (family, rank) of every connected finite type of rank <= 4, and the
# non-trivial diagram automorphisms that preserve its Cartan matrix
TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
         ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
AUTOMORPHISMS = {
    ("A", 2): [(2, 1)], ("A", 3): [(3, 2, 1)], ("A", 4): [(4, 3, 2, 1)],
    ("D", 4): [p for p in itertools.permutations((1, 3, 4)) if p != (1, 3, 4)],
}


@st.composite
def data(draw):
    family, rank = draw(st.sampled_from(TYPES))
    rs, lat = build_generic(_cartan(family, rank))
    indices = list(rs.delta_indices())
    I = frozenset(draw(st.sets(st.sampled_from(indices))))
    K = frozenset(draw(st.sets(st.sampled_from(sorted(I))))) if I else frozenset()
    perms = [None] + AUTOMORPHISMS.get((family, rank), [])
    perm = draw(st.sampled_from(perms))
    if perm is None:
        sigma = BasedAutomorphism.identity(rs)
    elif family == "D":  # the legs 1, 3, 4 around the node 2
        image = dict(zip((1, 3, 4), perm))
        sigma = BasedAutomorphism(rs, [image.get(k, k) for k in indices])
    else:
        sigma = BasedAutomorphism(rs, list(perm))
    return make_zip_datum(rs, I, sigma, lat), K


@settings(max_examples=40, deadline=None)
@given(data())
def test_weak_order_search_gives_every_level(datum):
    zd, K = datum
    W = zd.W
    levels = TwistedScan(zd, K).levels
    for length in range(len(zd.rs.positive_roots) + 2):
        level = W.minimal_reps_of_length(K, length)
        assert len(set(level)) == len(level)
        assert set(level) == set(levels.get(length, []))
    assert len(W.minimal_reps(K)) * W.parabolic_order(K) == W.order()


@settings(max_examples=40, deadline=None)
@given(data())
def test_twisted_conjugates_never_drop_below_the_representative(datum):
    zd, K = datum
    W = zd.W
    pairs = [(x, zd.psi(x).inverse()) for x in W.parabolic_elements(K)]
    for w in W.minimal_reps(K):
        for x, psi_inv in pairs:
            assert (x * w * psi_inv).length >= w.length
