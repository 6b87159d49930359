import itertools
import json
import math
import random
import tracemalloc

import pytest

import root_oracle
from test_golden import DATA, GOLDEN
from zipstrata.rootdata import build_generic, build_gl
from zipstrata.weyl import WeylGroup, compose
from zipstrata.zipdatum import gl_zip_datum


def _gl_group(n):
    rs, _, _ = build_gl(n, max(1, n - 1))
    return WeylGroup(rs)


# ---------------------------------------------------------------------------
# an independent Bruhat oracle: v <= w iff some reduced word of w contains a
# reduced word of v as a subword (computed by brute force over all words)


def _all_reduced_words(W, w):
    if w.length == 0:
        return [()]
    out = []
    for k in W.rs.delta_indices():
        if W.has_left_descent(w, k):
            for rest in _all_reduced_words(W, W.simple(k) * w):
                out.append((k,) + rest)
    return out


def _bruhat_oracle(W, v, w):
    # v <= w iff one fixed reduced word of w has a subword multiplying to v
    # with no cancellation
    word = _all_reduced_words(W, w)[0] if w.length else ()
    for mask in range(1 << len(word)):
        if bin(mask).count("1") != v.length:
            continue
        prod = W.identity
        for pos, tok in enumerate(word):
            if mask >> pos & 1:
                prod = prod * W.simple(tok)
        if prod == v:
            return True
    return False


@pytest.mark.parametrize("make", [lambda: _gl_group(3), lambda: _gl_group(4)])
def test_bruhat_agrees_with_subword_oracle_exhaustively(make):
    W = make()
    els = list(W.elements())
    for v in els:
        for w in els:
            assert W.bruhat_leq(v, w) == _bruhat_oracle(W, v, w), (v, w)


def test_bruhat_on_generic_b2_matches_oracle():
    rs, _ = build_generic([[2, -1], [-2, 2]])
    W = WeylGroup(rs)
    els = list(W.elements())
    assert len(els) == 8
    for v in els:
        for w in els:
            assert W.bruhat_leq(v, w) == _bruhat_oracle(W, v, w)


def test_bruhat_reflexive_and_bounded():
    W = _gl_group(4)
    w0 = W.longest_element(frozenset(W.rs.delta_indices()))
    for w in W.elements():
        assert W.bruhat_leq(w, w)
        assert W.bruhat_leq(w, w0)


def test_bruhat_cover_from_closure_diagram():
    # [1324] <= [1342] is a cover in the (2,2) closure diagram
    W = _gl_group(4)
    assert W.bruhat_leq(W.from_one_line([1, 3, 2, 4]), W.from_one_line([1, 3, 4, 2]))


# ---------------------------------------------------------------------------
# arithmetic


def test_multiply_inverse_identity():
    W = _gl_group(4)
    w = W.from_one_line([3, 4, 1, 2])
    assert w * w.inverse() == W.identity
    assert w * w == W.identity  # [3412] has order 2


def test_simple_reflection_negates_its_root():
    W = _gl_group(3)
    s1 = W.simple(1)
    alpha1 = W.rs.simple(1)
    assert s1.apply(alpha1).coords == (-alpha1).coords


def test_lengths():
    W = _gl_group(4)
    assert W.identity.length == 0
    assert all(W.simple(k).length == 1 for k in W.rs.delta_indices())
    assert W.from_one_line([3, 4, 1, 2]).length == 4


def test_length_is_inversion_count_generic_vs_type_a():
    rs, _ = build_generic([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])  # A_3
    Wg = WeylGroup(rs)
    Wa = _gl_group(4)
    # both enumerate S_4: compare length multisets
    lg = sorted(w.length for w in Wg.elements())
    la = sorted(w.length for w in Wa.elements())
    assert lg == la


def test_longest_elements():
    W = _gl_group(4)
    assert W.longest_element(frozenset({1, 2, 3})).one_line() == [4, 3, 2, 1]
    assert W.longest_element(frozenset({1, 3})).one_line() == [2, 1, 4, 3]
    assert W.longest_element(frozenset()) == W.identity


def test_in_parabolic():
    W = _gl_group(4)
    assert W.in_parabolic(W.identity, frozenset({1, 2}))
    assert W.in_parabolic(W.simple(1), frozenset({1}))
    assert not W.in_parabolic(W.simple(1), frozenset({2}))


def test_in_parabolic_canonical_type_case():
    # at (3,2) the longest element of W_{1,4} lies in W_{I_{w_1}} = W_{{1,4}}
    W = _gl_group(5)
    w = W.longest_element(frozenset({1, 4}))
    assert W.in_parabolic(w, frozenset({1, 4}))
    assert not W.in_parabolic(w, frozenset({1}))


def test_min_coset_rep_trivial_cases():
    W = _gl_group(4)
    K = frozenset({1, 3})
    for w in W.minimal_reps(K):
        u, wmin = W.min_coset_rep(K, w)
        assert u == W.identity and wmin == w
        s = W.simple(1)
        u2, wmin2 = W.min_coset_rep(K, s * w)
        assert (u2, wmin2) == (s, w)


def test_min_coset_rep_4312():
    W = _gl_group(4)
    u, wmin = W.min_coset_rep(frozenset({1, 3}), W.from_one_line([4, 3, 1, 2]))
    assert wmin.one_line() == [3, 4, 1, 2]
    assert u.one_line() == [1, 2, 4, 3]
    assert u.length + wmin.length == W.from_one_line([4, 3, 1, 2]).length


def test_min_coset_rep_length_additive_and_idempotent():
    W = _gl_group(5)
    K = frozenset({1, 2, 4})
    for w in itertools.islice(W.elements(), 0, 120, 7):
        u, wmin = W.min_coset_rep(K, w)
        assert u * wmin == w
        assert u.length + wmin.length == w.length
        assert W.in_parabolic(u, K)
        assert W.is_minimal_rep(wmin, K)
        assert W.min_coset_rep(K, wmin) == (W.identity, wmin)


def test_minimal_reps_partition_count():
    # |^K W| * |W_K| = |W| for every K at rank <= 5 (n = 6)
    for n in (3, 4, 5, 6):
        W = _gl_group(n)
        indices = list(W.rs.delta_indices())
        for size in range(len(indices) + 1):
            for K in itertools.combinations(indices, size):
                K = frozenset(K)
                assert len(W.minimal_reps(K)) * W.parabolic_order(K) == math.factorial(n)


def test_type_a_minimal_reps_gl12_without_scanning_all_arrangements():
    from zipstrata.zipdatum import gl_zip_datum

    zd = gl_zip_datum(12, 6)
    reps = zd.minimal_reps()
    assert len(reps) == math.comb(12, 6) == 924
    assert len(set(reps)) == 924
    assert all(zd.in_IW(w) for w in reps)
    assert reps == sorted(reps, key=lambda w: (w.length, w.word))


def test_type_a_parabolic_elements_follow_the_generic_order():
    # GL_n and the generic A_{n-1} datum enumerate every W_K by the same
    # weak-order search, so they give the same canonical words in the same
    # order; in GL_n the keys are the products of the block permutations
    for n in range(2, 7):
        Wa = _gl_group(n)
        Wg = WeylGroup(build_generic(
            [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n - 1)]
             for i in range(n - 1)]
        )[0])
        indices = list(Wa.rs.delta_indices())
        for size in range(len(indices) + 1):
            for K in itertools.combinations(indices, size):
                got = list(Wa.parabolic_elements(K))
                assert [w.word for w in got] == [w.word for w in Wg.parabolic_elements(K)]
                cuts = [0] + [i for i in range(1, n) if i not in K] + [n]
                pools = [itertools.permutations(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
                blocks = {sum(combo, ()) for combo in itertools.product(*pools)}
                assert len(got) == len(blocks) and {w.key for w in got} == blocks


def test_type_a_parabolic_elements_are_lazy():
    # W_K for K = {1..8} in GL_10 has 9! elements; the first ten must not
    # cost a block's worth of permutation tuples
    W = _gl_group(10)
    K = frozenset(range(1, 9))
    tracemalloc.start()
    try:
        first = list(itertools.islice(W.parabolic_elements(K), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == 10 and first[0] == W.identity
    assert peak < 1_000_000


def test_generic_min_coset_and_reps_match_type_a():
    rs, _ = build_generic([[2, -1], [-1, 2]])  # A_2
    Wg = WeylGroup(rs)
    Wa = _gl_group(3)
    K = frozenset({1})
    assert len(Wg.minimal_reps(K)) == len(Wa.minimal_reps(K)) == 3
    assert sorted(w.length for w in Wg.minimal_reps(K)) == sorted(
        w.length for w in Wa.minimal_reps(K)
    )


def test_length_changes_under_any_reflection():
    # l(w s_alpha) != l(w), and a drop implies Bruhat descent
    W = _gl_group(4)
    for w in W.elements():
        for alpha in W.rs.positive_roots:
            ws = w * W.reflection(alpha)
            assert ws.length != w.length
            if ws.length < w.length:
                assert W.bruhat_leq(ws, w)


def test_elements_of_length_matches_filter():
    W = _gl_group(5)
    from collections import Counter

    by_filter = Counter(w.length for w in W.elements())
    for k in range(11):
        got = list(W.elements_of_length(k))
        assert len(got) == by_filter.get(k, 0)
        assert all(w.length == k for w in got)


@pytest.mark.parametrize("W", [
    _gl_group(5),
    WeylGroup(build_generic([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])[0]),
], ids=["GL5", "B3"])
def test_length_index_matches_filter(W):
    els = list(W.elements())
    top = max(w.length for w in els)
    for k in range(top + 2):
        assert set(W.elements_of_length(k)) == {w for w in els if w.length == k}
        assert W.elements_of_length(k) is W.elements_of_length(k)  # memoized
    for size in range(W.rs.rank + 1):
        for K in itertools.combinations(W.rs.delta_indices(), size):
            for k in range(top + 1):
                got = W.minimal_reps_of_length(K, k)
                assert set(got) == {w for w in W.minimal_reps(K) if w.length == k}
                assert W.minimal_reps_of_length(set(K), k) is got


def test_apply_weight_permutes_coordinates():
    W = _gl_group(4)
    w = W.from_one_line([3, 4, 1, 2])
    lam = (10, 20, 30, 40)
    moved = w.apply_weight(lam)
    # (w lam)_k = lam_{w^{-1}(k)}
    q = w.inverse().one_line()
    assert list(moved) == [lam[q[k] - 1] for k in range(4)]


def _root_key_by_definition(rs, w):
    """e_a - e_b |-> e_{w(a)} - e_{w(b)}, read through ``rs.root_index``."""
    out = []
    for root in rs.roots:
        a, b = root.coords.index(1), root.coords.index(-1)
        image = [0] * rs.ambient_dim
        image[w.key[a]], image[w.key[b]] = 1, -1
        out.append(rs.root_index[tuple(image)])
    return tuple(out)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("root_key_first", [True, False],
                         ids=["root_key first", "phi_key first"])
def test_gl_root_key_is_the_root_permutation_in_either_call_order(n, root_key_first):
    # the permutation is kept on the element once built; whether root_key
    # builds it, or phi_key / canonical_type do on the way, every later read
    # must be the permutation the definition gives
    zd = gl_zip_datum(n, n // 2)
    W = zd.W
    for w in W.elements():
        if root_key_first:
            W.root_key(w)
        else:
            zd.phi_key(w)
            if zd.in_IW(w):
                zd.canonical_type(w)
        expected = _root_key_by_definition(zd.rs, w)
        assert W.root_key(w) == expected, w
        assert zd.phi_key(w) == compose(expected, zd._root_frame), w


@pytest.mark.parametrize("n", range(2, 7))
def test_gl_weight_action_is_the_coordinate_permutation(n):
    # (w lam)[w(k)] = lam[k], on seeded weights given as tuples and as lists
    W = _gl_group(n)
    rng = random.Random(n)
    weights = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(3)]
    for w in W.elements():
        for lam in weights:
            expected = [0] * n
            for k, x in enumerate(lam):
                expected[w.key[k]] = x
            assert w.apply_weight(lam) == w.apply_weight(list(lam)) == tuple(expected), (w, lam)
    for size in (n - 1, n + 1):
        with pytest.raises(ValueError, match="weight has wrong dimension"):
            W.identity.apply_weight((0,) * size)


# every golden generic datum of tests/test_golden.py on its root lattice, and
# A2 on the lattice Z^3 of GL_3, whose simple roots are not a basis
_WEIGHT_DATA = {name: (cartan, None) for name, (cartan, _, _) in GOLDEN.items()}
_WEIGHT_DATA["A2 in Z^3"] = ([[2, -1], [-1, 2]], {
    "dim": 3, "pairing": [[1, 0], [-1, 1], [0, -1]],
    "root_embedding": [[1, -1, 0], [0, 1, -1]]})


@pytest.mark.parametrize("name", sorted(_WEIGHT_DATA))
def test_generic_weight_action_matches_reflections_by_root(name):
    rs, lattice = build_generic(*_WEIGHT_DATA[name])
    W = WeylGroup(rs)
    rng = random.Random(name)
    weights = [tuple(rng.randint(-9, 9) for _ in range(lattice.dim)) for _ in range(3)]
    weights.append(tuple(int(d == 0) for d in range(lattice.dim)))
    for w in W.elements():
        for lam in weights:
            assert w.apply_weight(lam, lattice) == root_oracle.apply_weight(w, lam, lattice), (
                name, w, lam)


def test_words_are_reduced_and_greedy():
    W = _gl_group(4)
    for w in W.elements():
        assert len(w.word) == w.length
        assert W.from_word(w.word) == w


def _compose_by_loop(u, v):
    return tuple(u[i] for i in v)


def test_compose_matches_the_loop_definition():
    # seeded random permutations of 2..8 points, then the 240-point keys of
    # E8: its simple reflections and their products
    rng = random.Random(7)
    for size in range(2, 9):
        for _ in range(50):
            u, v = list(range(size)), list(range(size))
            rng.shuffle(u)
            rng.shuffle(v)
            u, v = tuple(u), tuple(v)
            assert compose(u, v) == _compose_by_loop(u, v)
            assert type(compose(u, v)) is tuple
    rs, _ = build_generic(json.loads((DATA / "cartan_E8.json").read_text())["cartan"])
    W = WeylGroup(rs)
    keys = [W.simple(k).key for k in rs.delta_indices()]
    assert {len(key) for key in keys} == {240}
    for _ in range(30):
        keys.append(compose(rng.choice(keys), rng.choice(keys)))
    for u in keys:
        for v in rng.sample(keys, 5):
            assert compose(u, v) == _compose_by_loop(u, v)
