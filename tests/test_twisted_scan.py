"""Lower neighbours and the twisted order against the definition, and the
facts the scans rest on.

`ZipDatum.lower_neighbors`, and `ZipDatum.twisted_leq` on a pair with
l(w') = l(w) - 1, share one witness search: x w' psi(x)^{-1} against the
Bruhat coatoms of w, conjugating raw keys by the frame.  On other pairs
`twisted_leq` tests x w' psi(x)^{-1} against w in the Bruhat order.
`twisted_oracle` multiplies out x w' psi(x)^{-1}, with psi from its
definition z^{-1} sigma(x) z, over ^K W taken from all of W.  They must
agree, also with the cycle-shape test on every W_K, and stop agreeing when
the orbit labels are made finer, for either order alone.  Both orders
charge |W_K| once past x = e, and nothing when W_K = {e}.  In type A a
matching shape is a neighbour.  The property tests draw random finite-type data and check the
weak-order search for ^K W, the parabolic operations against W_K
enumerated, the length lemma l(x w' psi(x)^{-1}) >= l(w') with equal
parity, that the orbit labels and the cycle shape are kept by W_K, that the
twisted order is graded by length, and that Xi fixes ^I W and never
increases length; the height product for |W| is checked against the
textbook orders, E6-E8 included.

Canonical types, w-sequences, smallness and phi_w, all read from phi_w as
a permutation of root indices, are compared with `root_oracle`, which
applies w z^{-1} and sigma to one Root at a time: on GL_2..GL_7, the golden
generic data and the random data, and with a root frame built from z in
place of z^{-1}, where the comparison must fail.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import root_oracle
from twisted_oracle import TwistedScan, psi_by_definition
from zipstrata import zipdatum
from zipstrata.rootdata import build_generic, build_gl
from zipstrata.strata import is_small, orbit_codim, w_sequences, xi_of_weyl
from zipstrata.weyl import (
    BUDGET,
    DEFAULT_BUDGET,
    BudgetExceeded,
    InvariantViolation,
    WeylGroup,
    budget_scope,
    compose,
    conjugate,
    cycle_shape,
)
from zipstrata.zipdatum import BasedAutomorphism, gl_zip_datum, make_zip_datum

A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
C4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

# Bourbaki numbering: the chain 1-3-4-5-6, with node 2 attached to 4
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]

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


def _fresh_subsets(zd, done):
    """The K inside I, skipping a (K, psi on the simples of K) already in
    ``done`` and adding the rest: <=_K depends only on K and on psi
    restricted to W_K."""
    for K in _subsets(zd.I):
        restriction = (K, tuple(psi_by_definition(zd, zd.W.simple(k)).key for k in sorted(K)))
        if restriction not in done:
            done.add(restriction)
            yield K


BOTH_ORDERS = ("lower_neighbors", "twisted_leq")


def _agree_on_every_K(zd, done=None, orders=BOTH_ORDERS):
    """Compare on every K inside I (`_fresh_subsets`): lower_neighbors, and
    twisted_leq on every cover candidate, the w' of length l(w) - 1."""
    for K in _fresh_subsets(zd, set() if done is None else done):
        oracle = TwistedScan(zd, K)
        for level in oracle.levels.values():
            for w in level:
                gamma = oracle.lower_neighbors(w)
                if "lower_neighbors" in orders:
                    assert zd.lower_neighbors(K, w) == gamma, (K, w)
                if "twisted_leq" in orders:
                    for v in oracle.levels.get(w.length - 1, ()):
                        assert zd.twisted_leq(K, v, w) == (v in gamma), (K, w, v)


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
    # on GL_6 the cover pairs of twisted_leq would take most of Tier-1's time
    orders = BOTH_ORDERS if n <= 5 else ("lower_neighbors",)
    done = set()
    for r in range(1, n):
        for sigma in ("id", "flip"):
            _agree_on_every_K(gl_zip_datum(n, r, sigma=sigma), done, orders)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lower_neighbors_match_scan_on_golden_generic_data(name):
    cartan, I, sigma = GOLDEN[name]
    rs, lat = build_generic(cartan)
    _agree_on_every_K(make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat))


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["GL_5"])
def test_lower_neighbors_match_scan_with_the_shape_test_on_every_k(monkeypatch, name):
    # by default a W_K of order <= 4 is scanned without the shape test
    monkeypatch.setattr(zipdatum, "_SCAN_ONLY_ORDER", 0)
    if name == "GL_5":
        done = set()
        for r in range(1, 5):
            for sigma in ("id", "flip"):
                _agree_on_every_K(gl_zip_datum(5, r, sigma=sigma), done)
        return
    cartan, I, sigma = GOLDEN[name]
    rs, lat = build_generic(cartan)
    _agree_on_every_K(make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat))


@pytest.mark.parametrize("n,r,scan_only,orders", [
    (4, 2, 0, BOTH_ORDERS),
    (5, 3, zipdatum._SCAN_ONLY_ORDER, BOTH_ORDERS),
    (4, 2, 0, ("twisted_leq",)),
], ids=["4-2-0", f"5-3-{zipdatum._SCAN_ONLY_ORDER}", "4-2-0-twisted_leq"])
def test_finer_orbit_labels_break_the_comparison(monkeypatch, n, r, scan_only, orders):
    # one label per point: a shape then matches only the target it equals,
    # so neighbours with a witness x != e are lost and the oracle notices;
    # twisted_leq alone notices too, as its cover pairs pass the shape test
    monkeypatch.setattr(zipdatum, "_SCAN_ONLY_ORDER", scan_only)
    monkeypatch.setattr(WeylGroup, "orbit_labels",
                        lambda self, K: tuple(range(len(self.identity.key))))
    with pytest.raises(AssertionError):
        _agree_on_every_K(gl_zip_datum(n, r), orders=orders)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_matching_shape_is_a_neighbour_in_type_a(n):
    # W_K is the whole group of block-preserving permutations, so two keys
    # with one shape are conjugate in W_K: the shape decides the neighbours
    done = set()
    for r in range(1, n):
        for sigma in ("id", "flip"):
            zd = gl_zip_datum(n, r, sigma=sigma)
            W = zd.W
            for K in _fresh_subsets(zd, done):
                labels = W.orbit_labels(K)
                shapes = {w.key: cycle_shape(compose(w.key, zd._frame), labels)
                          for w in W.minimal_reps(K)}
                for w in W.minimal_reps(K):
                    targets = {cycle_shape(compose(t, zd._frame), labels)
                               for _, t in W.coatoms(w)}
                    gamma = set(zd.lower_neighbors(K, w))
                    for cand in W.minimal_reps_of_length(K, w.length - 1):
                        assert (shapes[cand.key] in targets) == (cand in gamma), (K, w, cand)


def _psi_agrees_with_its_definition(zd):
    for x in zd.W.parabolic_elements(zd.I):
        assert zd.psi(x) == psi_by_definition(zd, x), x


@pytest.mark.parametrize("n,r,sigma", [(5, 2, "id"), (5, 3, "flip"), (6, 3, "flip")])
def test_psi_is_conjugation_by_the_frame(n, r, sigma):
    # zd.psi conjugates keys by the frame A = z^{-1} tau; the oracle
    # multiplies out z^{-1} sigma(x) z
    _psi_agrees_with_its_definition(gl_zip_datum(n, r, sigma=sigma))


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["E6_sigma"])
def test_psi_is_conjugation_by_the_frame_on_generic_data(name):
    if name == "E6_sigma":  # the diagram flip 1 <-> 6, 3 <-> 5 of E6
        cartan, I, sigma = E6, [2, 3, 4, 5], "6,2,5,4,3,1"
    else:
        cartan, I, sigma = GOLDEN[name]
    rs, lat = build_generic(cartan)
    _psi_agrees_with_its_definition(
        make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_oracle_order_is_twisted_leq_on_golden_generic_data(name):
    # K = I, where the scan of W_K is longest
    cartan, I, sigma = GOLDEN[name]
    rs, lat = build_generic(cartan)
    zd = make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat)
    oracle = TwistedScan(zd, zd.I)
    reps = [w for level in oracle.levels.values() for w in level]
    for a, b in itertools.product(reps, repeat=2):
        assert oracle.leq(a, b) == zd.twisted_leq(zd.I, a, b), (a, b)


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
            length = (x * w * psi_inv).length
            assert length >= w.length
            # psi preserves length, so the sign character fixes the parity
            assert (length - w.length) % 2 == 0


@settings(max_examples=25, deadline=None)
@given(data())
def test_parabolic_operations_agree_with_w_k_enumerated(datum):
    zd, K = datum
    W = zd.W
    drawn = list(W.parabolic_elements(K))
    members = set(drawn)
    # identity first, lengths never decreasing, each element once
    assert drawn[0] == W.identity
    assert all(u.length <= v.length for u, v in zip(drawn, drawn[1:]))
    assert len(members) == len(drawn) == W.parabolic_order(K)
    longest = W.longest_element(K)
    assert longest in members
    assert longest.length == sum(1 for r in zd.rs.positive_roots if r.support() <= K)
    for w in W.elements():
        assert W.in_parabolic(w, K) == (w in members)
        u, wmin = W.min_coset_rep(K, w)
        assert u * wmin == w and u in members and W.is_minimal_rep(wmin, K)
        assert u.length + wmin.length == w.length


@settings(max_examples=40, deadline=None)
@given(data())
def test_cycle_shape_is_invariant_under_w_k(datum):
    zd, K = datum
    W = zd.W
    labels = W.orbit_labels(K)
    members = list(W.parabolic_keys(K))
    # the labels are the W_K-orbits of the key points: constant on each
    # orbit, and different on different orbits
    for i in range(len(labels)):
        assert {x[i] for x in members} == {j for j, lab in enumerate(labels)
                                            if lab == labels[i]}
    for w in W.minimal_reps(K):
        c = compose(w.key, zd._frame)
        shape = cycle_shape(c, labels)
        assert all(cycle_shape(conjugate(x, c), labels) == shape for x in members)


@settings(max_examples=30, deadline=None)
@given(data())
def test_twisted_order_is_graded_by_length(datum):
    # for l(w') <= l(w) - 2: w' <_K w iff w' <=_K v for some v in Gamma_K(w).
    # twisted_leq accepts by the Bruhat order, lower_neighbors by coatom
    # membership; "only if" is the grading, "if" is transitivity
    zd, K = datum
    reps = zd.W.minimal_reps(K)
    for w in reps[::max(1, len(reps) // 10)]:
        gamma = zd.lower_neighbors(K, w)
        below = [u for u in reps if u.length <= w.length - 2]
        for wp in below[::max(1, len(below) // 15)]:
            assert zd.twisted_leq(K, wp, w) == any(zd.twisted_leq(K, wp, v) for v in gamma), (
                K, w, wp)


@settings(max_examples=40, deadline=None)
@given(data())
def test_xi_is_a_length_non_increasing_retraction_onto_iw(datum):
    zd, _ = datum
    W = zd.W
    for v in W.minimal_reps(zd.I):
        assert xi_of_weyl(zd, v) == v
    step = max(1, W.order() // 60)
    for w in itertools.islice(W.elements(), 0, None, step):
        v = xi_of_weyl(zd, w)
        assert zd.in_IW(v) and v.length <= w.length
        assert xi_of_weyl(zd, v) == v


# -- phi_w on root indices against the Root-level definition -----------------


def _agrees_with_root_oracle(zd, step=1):
    """canonical_type, w_sequences, is_small, orbit_codim and phi_w against
    `root_oracle` on every ``step``-th element of ^I W."""
    zinv = zd.z.inverse()
    for w in zd.minimal_reps()[::step]:
        assert zd.canonical_type(w) == root_oracle.canonical_type(zd, w), w
        v = w * zinv
        seqs, n_plus, n_minus = root_oracle.w_sequences(zd, v)
        assert w_sequences(zd, v) == (seqs, n_plus, n_minus), w
        assert is_small(zd, w) == (n_plus == w.length), w
        assert orbit_codim(zd, w) == (n_minus, n_plus), w
        for root in zd.rs.roots:
            assert zd.phi_w(w, root) == v.apply(zd.sigma.apply_root(root)), (w, root)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_phi_w_on_root_indices_matches_the_root_oracle_on_gl(n):
    for r in range(1, n):
        for sigma in ("id", "flip"):
            _agrees_with_root_oracle(gl_zip_datum(n, r, sigma=sigma))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_phi_w_on_root_indices_matches_the_root_oracle_on_golden_generic_data(name):
    cartan, I, sigma = GOLDEN[name]
    rs, lat = build_generic(cartan)
    _agrees_with_root_oracle(make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma),
                                            lat))


@pytest.mark.parametrize("n,r,sigma", [(3, 2, "id"), (5, 3, "flip"), (7, 2, "id"), (7, 4, "flip")])
def test_a_root_frame_from_z_breaks_the_comparison(n, r, sigma):
    zd = gl_zip_datum(n, r, sigma=sigma)
    assert zd.z * zd.z != zd.W.identity  # else z = z^{-1} and the frame is unchanged
    # root_key(z^2) root_key(z^{-1}) sigma = root_key(z) sigma
    zd._root_frame = compose(zd.W.root_key(zd.z * zd.z), zd._root_frame)
    with pytest.raises(AssertionError) as failed:
        _agrees_with_root_oracle(zd)
    assert not isinstance(failed.value, InvariantViolation)


@settings(max_examples=40, deadline=None)
@given(data())
def test_phi_w_on_root_indices_matches_the_root_oracle(datum):
    zd, _ = datum
    _agrees_with_root_oracle(zd, step=max(1, len(zd.minimal_reps()) // 40))


# -- group orders from the height product --------------------------------------

TEXTBOOK_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120, ("B", 2): 8, ("B", 3): 48,
    ("B", 4): 384, ("C", 3): 48, ("C", 4): 384, ("D", 4): 192, ("F", 4): 1152, ("G", 2): 12,
}


@pytest.mark.parametrize("family,rank", TYPES)
def test_order_is_the_textbook_order(family, rank):
    rs, _ = build_generic(_cartan(family, rank))
    W = WeylGroup(rs)
    assert W.order() == TEXTBOOK_ORDERS[family, rank]
    assert len(list(W.elements())) == TEXTBOOK_ORDERS[family, rank]


def _simply_laced(rank, edges):
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        C[i - 1][j - 1] = C[j - 1][i - 1] = -1
    return C


@pytest.mark.parametrize("rank,order", [(6, 51_840), (7, 2_903_040), (8, 696_729_600)])
def test_order_of_e_types_without_enumerating(rank, order):
    # Bourbaki numbering: the chain 1-3-4-...-rank, with node 2 attached to 4
    edges = [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, rank)]
    rs, _ = build_generic(_simply_laced(rank, edges))
    W = WeylGroup(rs)
    assert W.order() == order
    with budget_scope(order - 1), pytest.raises(BudgetExceeded):
        W.elements()  # up front, before any element is built


def test_memos_filled_under_the_default_budget_refuse_a_smaller_one():
    # GL_4: |W| = 24 and, for K = {1, 3}, |^K W| = 6; the memos of
    # elements_of_length and minimal_reps are filled first, and a smaller
    # budget is still checked before either memo is read
    W = WeylGroup(build_gl(4, 2)[0])
    assert len(W.elements_of_length(3)) == 6 and len(W.minimal_reps({1, 3})) == 6
    for budget, call, message in [
        (23, lambda: W.elements_of_length(3), "|W| = 24 exceeds budget 23"),
        (5, lambda: W.minimal_reps({1, 3}), "|^K W| exceeds budget 5"),
    ]:
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            with budget_scope(budget):
                call()
        assert BUDGET.get() == DEFAULT_BUDGET  # restored although the call raised
    assert len(W.elements_of_length(3)) == 6 and len(W.minimal_reps({1, 3})) == 6


@pytest.mark.parametrize("budget", [5, 35, 36])
def test_a_witness_past_e_costs_all_of_w_k_wherever_it_sits(budget):
    # GL_6 (3,3), |W_I| = 36: the witness of 1,4,2,3,5,6 <=_I 1,2,4,5,6,3
    # is the fifth key drawn, yet the scan past x = e is charged |W_I|
    zd = gl_zip_datum(6, 3)
    W = zd.W
    w1, w2 = W.from_one_line([1, 4, 2, 3, 5, 6]), W.from_one_line([1, 2, 4, 5, 6, 3])
    first = next(i for i, x in enumerate(W.parabolic_elements(zd.I))
                 if W.bruhat_leq(x * w1 * zd.psi(x).inverse(), w2))
    assert first == 4
    with budget_scope(budget):
        if budget < 36:
            with pytest.raises(BudgetExceeded, match=re.escape(
                    f"|W_K| = 36 exceeds budget {budget}")):
                zd.twisted_leq(zd.I, w1, w2)
        else:
            assert zd.twisted_leq(zd.I, w1, w2)


@pytest.mark.parametrize("n", [4, 5])
def test_one_charge_rule_for_both_orders(n):
    # a cover pair w' <=_K w is tested like a lower-neighbour candidate: at
    # budget |W_K| - 1 it is refused exactly when w' misses x = e, i.e. is
    # no Bruhat coatom of w, and at |W_K| it gets the oracle's answer
    done = set()
    for r in range(1, n):
        for sigma in ("id", "flip"):
            zd = gl_zip_datum(n, r, sigma=sigma)
            W = zd.W
            for K in _fresh_subsets(zd, done):
                order = W.parabolic_order(K)
                if order == 1:
                    continue
                oracle = TwistedScan(zd, K)
                refused = re.escape(f"|W_K| = {order} exceeds budget {order - 1}")
                for w in W.minimal_reps(K):
                    gamma = oracle.lower_neighbors(w)
                    for v in W.minimal_reps_of_length(K, w.length - 1):
                        with budget_scope(order - 1):
                            if W.bruhat_leq(v, w):
                                assert zd.twisted_leq(K, v, w)
                            else:
                                with pytest.raises(BudgetExceeded, match=refused):
                                    zd.twisted_leq(K, v, w)
                        with budget_scope(order):
                            assert zd.twisted_leq(K, v, w) == (v in gamma), (K, w, v)


def test_a_trivial_w_k_charges_nothing():
    # W_K = {e} leaves no key past e, so drawing all of it is free
    W = WeylGroup(build_gl(3, 1)[0])
    with budget_scope(0):
        assert list(W.parabolic_keys(set())) == [W.identity.key]
        with pytest.raises(BudgetExceeded, match=re.escape("|W_K| = 2 exceeds budget 0")):
            list(W.parabolic_keys({1}))
