import random
from fractions import Fraction

import pytest

from test_golden import E6, E7, GOLDEN
from zipstrata.glnzip import Signature, x_element
from zipstrata.hasse import (
    e_w_set,
    hasse_any_Lweight,
    hasse_feasible,
    hasse_report,
)
from zipstrata.zipdatum import ZipDatumError, gl_zip_datum, zip_datum_from_json


def test_e_w_identity_empty(zd22):
    assert e_w_set(zd22, zd22.W.identity) == []


def test_e_w_1324(zd22):
    roots = e_w_set(zd22, zd22.W.from_one_line([1, 3, 2, 4]))
    assert [r.coords for r in roots] == [(0, 1, -1, 0)]  # alpha_2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_e_w_catalog_n_minus_1_1(n):
    # E_{x_i} = {e_{i+1} - e_j : j > i+1}
    sig = Signature(n - 1, 1)
    zd = sig.zip_datum()
    for i in range(n):
        got = {r.coords for r in e_w_set(zd, x_element(sig, i))}
        expected = set()
        for j in range(i + 2, n + 1):
            coords = [0] * n
            coords[i], coords[j - 1] = 1, -1
            expected.add(tuple(coords))
        assert got == expected, i


def test_length_drop_implies_bruhat():
    # e_w_set takes every coatom w s_alpha (l(w s_alpha) = l(w) - 1) to lie
    # below w in the Bruhat order without comparing.  bruhat_leq confirms it
    # on all of W for GL_2..6 and the golden generic data of rank <= 4, and
    # on ^I W for every GL_7 datum and the golden E6 and E7 data
    whole = [gl_zip_datum(n, 1) for n in range(2, 7)]
    whole += [zip_datum_from_json({"cartan": cartan, "I": I, "sigma": sigma})
              for cartan, I, sigma in GOLDEN.values()]
    reps = [gl_zip_datum(7, r, sigma=sigma) for r in range(1, 7) for sigma in ("id", "flip")]
    reps += [zip_datum_from_json({"cartan": E6, "I": [1, 2, 3, 4, 5]}),
             zip_datum_from_json({"cartan": E7, "I": [1, 2, 3, 4, 5, 6]})]
    cases = [(zd.W, zd.W.elements()) for zd in whole] + [(zd.W, zd.minimal_reps()) for zd in reps]
    for W, elements in cases:
        for w in elements:
            for alpha, key in W.coatoms(w):
                v = W._intern(key)
                assert v.length == w.length - 1, (w, alpha)
                assert W.bruhat_leq(v, w), (w, alpha)


def test_feasible_trivial_identity(zd22):
    res = hasse_feasible(zd22, zd22.W.identity, [0, 0, 0, 0])
    assert res.feasible
    assert res.witness.scaled_integral == (0, 0, 0, 0)


def test_paper_witness_validates_n_minus_1_1():
    # lambda_i = (0,...,0,1,...,1) with i+1 zeros satisfies both conditions
    for n in range(3, 8):
        sig = Signature(n - 1, 1)
        zd = sig.zip_datum()
        for i in range(n):
            xi = x_element(sig, i)
            lam_i = tuple([0] * (i + 1) + [1] * (n - i - 1))
            moved = tuple(
                a - b
                for a, b in zip(xi.apply_weight(lam_i), zd.z.apply_weight(lam_i))
            )
            assert moved == (0,) * n
            for alpha in e_w_set(zd, xi):
                assert zd.lattice.pairing(lam_i, alpha) < 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_feasible_at_zero_n_minus_1_1(n):
    sig = Signature(n - 1, 1)
    zd = sig.zip_datum()
    for i in range(n):
        res = hasse_feasible(zd, x_element(sig, i), [0] * n)
        assert res.feasible, (n, i)


def test_x0_21_explicit():
    sig = Signature(2, 1)
    zd = sig.zip_datum()
    res = hasse_feasible(zd, x_element(sig, 0), [0, 0, 0])
    assert res.feasible
    w = res.witness
    # the witness need not equal the paper's (0,1,1), but must satisfy the
    # same exact conditions
    for alpha in e_w_set(zd, x_element(sig, 0)):
        assert zd.lattice.pairing(w.scaled_integral, alpha) < 0


def test_infeasible_1324_at_zero(zd22):
    res = hasse_feasible(zd22, zd22.W.from_one_line([1, 3, 2, 4]), [0, 0, 0, 0])
    assert not res.feasible
    assert res.certificate is not None
    assert res.certificate.replay()


def test_any_Lweight_22_catalog(zd22):
    outcomes = {}
    for w in zd22.minimal_reps():
        lam, res = hasse_any_Lweight(zd22, w)
        outcomes[tuple(w.one_line())] = res.feasible
        if res.feasible:
            # lambda is a genuine L-weight hit by (w - z) lambda_0
            for k in sorted(zd22.I):
                assert zd22.lattice.pairing(lam, zd22.rs.simple(k)) == 0
        else:
            assert res.certificate.replay()
    assert outcomes == {
        (1, 2, 3, 4): True,
        (1, 3, 2, 4): False,
        (3, 1, 2, 4): True,
        (1, 3, 4, 2): True,
        (3, 1, 4, 2): True,
        (3, 4, 1, 2): True,
    }


def test_rejects_non_L_weight(zd22):
    with pytest.raises(ZipDatumError, match="L-weight"):
        hasse_feasible(zd22, zd22.z, [1, 0, 0, 0])


def test_rejects_non_minimal_rep(zd22):
    with pytest.raises(ZipDatumError, match="not in"):
        hasse_feasible(zd22, zd22.W.simple(1), [0, 0, 0, 0])


def test_feasibility_invariant_under_weight_scaling(zd22):
    lam = (1, 1, -1, -1)  # an L-weight for I = {1,3}
    w = zd22.z
    base = hasse_feasible(zd22, w, lam).feasible
    for m in (2, 3, 7):
        assert hasse_feasible(zd22, w, [m * x for x in lam]).feasible == base


def test_witness_scaling_consistency(zd32):
    # scaled integral witness satisfies the weight equation exactly
    for w in zd32.minimal_reps():
        lam, res = hasse_any_Lweight(zd32, w)
        if not res.feasible:
            continue
        wit = res.witness
        moved = tuple(
            a - b
            for a, b in zip(
                w.apply_weight(wit.scaled_integral),
                zd32.z.apply_weight(wit.scaled_integral),
            )
        )
        assert moved == tuple(lam)
        assert all(Fraction(x) == wit.multiplier * l for x, l in zip(moved, lam))


def test_certificate_replays_on_perturbed_weights(zd22):
    # random L-weights: whenever infeasible, the certificate must replay
    rng = random.Random(5)
    w = zd22.W.from_one_line([1, 3, 2, 4])
    for _ in range(25):
        a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
        lam = (a, b, b, a)  # pairs to 0 on alpha_1 and alpha_3? only if a=b
        lam = (a, a, b, b)  # orthogonal to I = {1, 3}
        res = hasse_feasible(zd22, w, lam)
        if not res.feasible:
            assert res.certificate.replay()


def test_report_shape(zd22):
    doc = hasse_report(zd22, zd22.W.from_one_line([1, 3, 2, 4]), None)
    assert doc["feasible"] is False and doc["witness"] is None
    doc2 = hasse_report(zd22, zd22.z, [0, 0, 0, 0])
    assert doc2["feasible"] is True
    assert set(doc2) == {"w", "E_w", "lambda", "feasible", "witness", "multiplier"}


def test_report_computes_e_w_once(zd22, monkeypatch):
    from zipstrata import hasse

    calls = []
    monkeypatch.setattr(hasse, "e_w_set", lambda zd, w: calls.append(w) or e_w_set(zd, w))
    w = zd22.W.from_one_line([3, 1, 4, 2])
    for lam in (None, [0, 0, 0, 0]):
        calls.clear()
        doc = hasse_report(zd22, w, lam)
        assert calls == [w]
        assert doc["E_w"] == [list(a.coords) for a in e_w_set(zd22, w)]


def test_feasibility_sweep_53_random_weights():
    # every outcome must carry a valid witness or a replaying certificate,
    # including longer strata where several descent roots stack up
    zd = gl_zip_datum(8, 5)
    rng = random.Random(13)
    reps = zd.minimal_reps()
    for _ in range(40):
        w = rng.choice(reps)
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        lam = tuple([a] * 5 + [b] * 3)  # orthogonal to I for the (5,3) cut
        res = hasse_feasible(zd, w, lam)
        if res.feasible:
            wit = res.witness
            moved = tuple(
                x - y
                for x, y in zip(
                    w.apply_weight(wit.scaled_integral),
                    zd.z.apply_weight(wit.scaled_integral),
                )
            )
            assert moved == tuple(wit.multiplier * v for v in lam)
            for alpha in e_w_set(zd, w):
                assert zd.lattice.pairing(wit.scaled_integral, alpha) < 0
        else:
            assert res.certificate.replay()
