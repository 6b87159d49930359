"""Properties of the Hasse check over random finite-type data (the `data()`
strategy of `test_twisted_scan`): E_w is the set of roots of the Bruhat
coatoms, the weight-0 path of `hasse_feasible` on u-orbit sums agrees with
the general elimination,
every failed query carries a certificate that replays, and a tampered
certificate does not.
"""

from dataclasses import replace

from hypothesis import given, settings

from test_hasse_solver import agrees_at_zero, general_at_zero
from test_twisted_scan import data
from zipstrata.hasse import e_w_set, hasse_any_Lweight, hasse_feasible


@settings(max_examples=30, deadline=None)
@given(data())
def test_e_w_is_the_length_drop_set_on_all_of_w(datum):
    zd, _ = datum
    W = zd.W
    for w in W.elements():
        expected = [a for a in zd.rs.positive_roots
                    if (w * W.reflection(a)).length == w.length - 1]
        assert e_w_set(zd, w) == sorted(expected, key=lambda a: a.coords), w


def _tampered(cert):
    """Copies of ``cert`` that must not replay: one positive strict
    multiplier negated, every multiplier negated (the rows still sum to 0,
    so only the sign check rejects it), or one entry changed in a row that
    carries a nonzero multiplier."""
    strict = list(cert.strict_multipliers)
    yield replace(cert, strict_multipliers=tuple(-mu for mu in strict),
                  equality_multipliers=tuple(-mu for mu in cert.equality_multipliers))
    for j, mu in enumerate(strict):
        if mu > 0:
            yield replace(cert, strict_multipliers=(*strict[:j], -mu, *strict[j + 1:]))
    for field, mults in (("eq_rows", cert.equality_multipliers),
                         ("strict_rows", cert.strict_multipliers)):
        rows = getattr(cert, field)
        for i, mu in enumerate(mults):
            if mu:
                row = (rows[i][0] + 1, *rows[i][1:])
                yield replace(cert, **{field: (*rows[:i], row, *rows[i + 1:])})


def _failures(zd):
    for w in zd.minimal_reps():
        result = general_at_zero(zd, w)
        if not result.feasible:
            yield result.certificate
        result = hasse_feasible(zd, w, [0] * zd.lattice.dim)
        if not result.feasible:
            yield result.certificate
        lam, result = hasse_any_Lweight(zd, w)
        if lam is None:
            yield result.certificate


@settings(max_examples=30, deadline=None)
@given(data())
def test_weight_zero_path_matches_hasse_feasible(datum):
    agrees_at_zero(datum[0])


@settings(max_examples=30, deadline=None)
@given(data())
def test_every_failure_replays_and_tampering_breaks_it(datum):
    zd, _ = datum
    for cert in _failures(zd):
        assert cert.replay()
        assert all(isinstance(x, int) for x in cert.equality_multipliers)
        assert all(isinstance(x, int) and x >= 0 for x in cert.strict_multipliers)
        assert any(cert.strict_multipliers)  # weight 0: the equalities are consistent
        for bad in _tampered(cert):
            assert not bad.replay()
