"""The integer Hasse solver against the seed's Fraction solver.

`hasse_oracle` keeps the Gauss-Jordan / Fourier-Motzkin code on Fractions
that `zipstrata.hasse` replaced.  Both must reach the same verdict and the
same lambda_0 on every system (the integer solver returns its points as
numerators over one denominator, compared here as Fractions or in lowest
terms); certificates may differ by a scale factor, so they are compared by
replaying them.

Chernikov's rule in `hasse._fourier_motzkin` is checked against the
oracle's Fourier-Motzkin, which has no rule: on drawn systems, on every
weight-0 system of the golden data and on a system where the rule drops a
row it needs (and the elimination runs again without it), the verdict and
the point t are the same, every certificate replays, and no stage holds
more rows (counted through each module's `_fm_contradiction`, which sees
every stage).  The integer back-substitution is checked against the
oracle's on Fractions: on drawn systems wider than those, and on one fixed
system per branch (no bound, one bound, both, a growing denominator).

The general elimination at weight 0 (`general_at_zero`, which calls
`hasse._eliminate` directly) is in turn the reference for the path
`hasse_feasible` takes at weight 0, on u-orbit sums, which `strata-list`
runs on every stratum: the same verdict and E_w on every stratum of
GL_2..GL_8 and of the generic data, one Fourier-Motzkin row per distinct
u-orbit sum over E_w, and its checks raise under ``python -O``.  Every
witness of the two weight-0 paths and of `hasse_any_Lweight` is kept as its
least integer scaling, and its re-check refuses it when it is moved off the
weight equation or negated.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hasse_oracle
from test_golden import E6, GOLDEN
from zipstrata import hasse
from zipstrata.rootdata import build_generic
from zipstrata.weyl import InvariantViolation
from zipstrata.zipdatum import BasedAutomorphism, gl_zip_datum, make_zip_datum

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def systems(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(entries, min_size=dim, max_size=dim)
    eq_rows = draw(st.lists(row, max_size=dim))
    eq_rhs = draw(st.lists(entries, min_size=len(eq_rows), max_size=len(eq_rows)))
    strict_rows = draw(st.lists(row, max_size=6))
    return dim, eq_rows, eq_rhs, strict_rows


@st.composite
def strict_systems(draw):
    # more rows than variables, so that combined rows can carry more input
    # rows than Chernikov's rule allows
    nvars = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(entries, min_size=nvars, max_size=nvars), max_size=8))
    rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def _same_outcome(new, old):
    # the integer solver's point (numerators, den) is the oracle's lambda_0
    (point, cert_new), (lam_old, cert_old) = new, old
    assert (point is None) == (lam_old is None)
    if point is not None:
        num, den = point
        assert den > 0 and tuple(Fraction(x, den) for x in num) == lam_old
    assert (cert_new is None) == (cert_old is None)
    if cert_new is not None:
        assert cert_new.replay() and cert_old.replay()
        assert all(m >= 0 for m in cert_new.strict_multipliers)


@settings(max_examples=400, deadline=None)
@given(systems())
def test_integer_solver_matches_fraction_solver(system):
    _same_outcome(hasse._feasible_lambda0(*system), hasse_oracle._feasible_lambda0(*system))


def test_fixed_systems():
    # inconsistent equalities; a free strict system; an infeasible strict
    # pair; x / 2 - 2 y / 3 = 5 / 6 and x / 2 + y = 1 / 3, x + 2 y = 1 with
    # each row scaled to integers, consistent and not
    for system in [
        (2, [[1, 1], [2, 2]], [1, 3], [[1, 0]]),
        (3, [], [], [[1, -1, 0], [0, 1, -1]]),
        (2, [], [], [[1, 0], [-1, 0]]),
        (2, [[1, -1]], [0], [[1, 0], [0, -1]]),
        (2, [[3, -4]], [5], [[1, 1]]),
        (2, [[3, 6], [1, 2]], [2, 1], [[1, 0]]),
    ]:
        _same_outcome(hasse._feasible_lambda0(*system), hasse_oracle._feasible_lambda0(*system))


def _fm_replays(rows, rhs, mults):
    """Nonnegative multipliers, not all zero, combining the rows to 0 < b
    with b <= 0."""
    assert all(y >= 0 for y in mults) and any(mults)
    assert not any(sum(y * row[k] for y, row in zip(mults, rows)) for k in range(len(rows[0])))
    assert sum(y * b for y, b in zip(mults, rhs)) <= 0


def _fm_systems(query, fm=hasse._fourier_motzkin):
    """What ``query()`` returns with ``fm`` deciding its Fourier-Motzkin
    systems, and those systems."""
    systems = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hasse, "_fourier_motzkin",
                   lambda rows, rhs: systems.append((rows, rhs)) or fm(rows, rhs))
        out = query()
    return out, systems


def _counting(module, sizes, monkeypatch):
    # every stage of a Fourier-Motzkin run passes through _fm_contradiction
    real = module._fm_contradiction
    monkeypatch.setattr(module, "_fm_contradiction",
                        lambda rows, *args: sizes.append(len(rows)) or real(rows, *args))


def agrees_with_rule_free(rows, rhs):
    """Returns the stage sizes (with the rule, without it) after checking
    that both reach the same verdict and point and that every certificate
    replays; no stage may hold more rows with the rule."""
    with_rule, without = [], []
    with pytest.MonkeyPatch.context() as mp:
        _counting(hasse, with_rule, mp)
        _counting(hasse_oracle, without, mp)
        new = hasse._fourier_motzkin(rows, rhs)
        old = hasse_oracle.fourier_motzkin_point(rows, rhs)
    assert new[0] == old[0], (rows, rhs)
    if new[0] == "feasible":
        assert new[1] == old[1], (rows, rhs)
    else:
        _fm_replays(rows, rhs, new[1])
        _fm_replays(rows, rhs, old[1])
    # with the rule, a contradiction may show a stage later, or only in the
    # rule-free run that follows an empty interval; the first run's stages
    # are compared with the oracle's, as far as both go
    assert all(a <= b for a, b in zip(with_rule, without)), (rows, rhs)
    return with_rule, without


def test_a_row_the_rule_needed_is_caught_by_back_substitution():
    # t_2 < 0 arrives first from input rows {0, 1}, then from {1, 2} and
    # {0, 3}, and only the first is kept; with -t_2 < 0 (rows {2, 3}) its
    # history has four rows, one more than the rule allows after two
    # eliminations, so the contradiction is dropped.  Back-substitution
    # meets an empty interval at t_1, and the rule-free elimination that
    # follows finds the contradiction.
    rows = [[-3, 6], [3, 3], [-3, 0], [3, -3]]
    with_rule, without = agrees_with_rule_free(rows, [0, 0, 0, 0])
    assert hasse._fourier_motzkin(rows, [0, 0, 0, 0])[0] == "infeasible"
    assert with_rule == [4, 2, 0, 4, 2, 1] and without == [4, 2, 1]


def general_at_zero(zd, w):
    """`hasse._eliminate` on the weight equation (w - z) lambda_0 = 0: the
    general elimination that `hasse_feasible` runs at every nonzero weight,
    kept as the reference for its weight-0 path."""
    zero = [0] * zd.lattice.dim
    return hasse._eliminate(zd, w, *hasse._prologue(zd, w),
                            lambda cols: (list(zip(*cols)), zero), lambda cols, witness: zero)[1]


def test_chernikov_rule_on_f4_at_weight_zero_with_equalities():
    # where the case above was found: the general elimination at weight 0
    # on F4, I = {1, 3}, whose substituted systems repeat rows
    rs, lat = build_generic(GOLDEN["F4"][0])
    zd = make_zip_datum(rs, frozenset({1, 3}), lattice=lat)
    _, systems = _fm_systems(lambda: [general_at_zero(zd, w) for w in zd.minimal_reps()])
    for rows, rhs in systems:
        agrees_with_rule_free(rows, rhs)


@settings(max_examples=200, deadline=None)
@given(strict_systems())
def test_chernikov_rule_matches_rule_free_fourier_motzkin(system):
    agrees_with_rule_free(*system)


@st.composite
def wide_systems(draw):
    # wider than `strict_systems`: up to 6 variables, entries in -9..9 and
    # right-hand sides of any sign, so back-substitution meets bounds with
    # large and coprime denominators, and the shared one grows often; at
    # most 6 rows, since on some drawn systems of 8 the rule-free oracle
    # runs for tens of seconds and passes its row cap
    wide = st.integers(min_value=-9, max_value=9)
    nvars = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(wide, min_size=nvars, max_size=nvars), min_size=1, max_size=6))
    rhs = draw(st.lists(wide, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(wide_systems())
def test_integer_back_substitution_matches_the_fraction_oracle(system):
    # the same verdict and the same point t as the oracle's back-substitution
    # on Fractions; every certificate replays
    agrees_with_rule_free(*system)


@pytest.mark.parametrize("rows,rhs,point", [
    # t_0 meets no row; t_1 < 5 gives hi - 1
    ([[0, 1]], [5], (0, 4)),
    # upper bound only: t < 3/2
    ([[2]], [3], (Fraction(1, 2),)),
    # lower bound only: -3 t < 2, t > -2/3
    ([[-3]], [2], (Fraction(1, 3),)),
    # both bounds: -2/3 < t < 3/2, the midpoint
    ([[2], [-3]], [3, 2], (Fraction(5, 12),)),
    # t_1 = 1/2 is chosen first over the denominator 2; t_0 = 1/3 needs 3,
    # so the numerator of t_1 is rescaled to the shared denominator 6
    ([[0, 2], [-3, 0]], [3, 2], (Fraction(1, 3), Fraction(1, 2))),
    # -12/5 < t_1 < 11/5 (5 t_1 < 11 combines the other two rows) gives
    # t_1 = -1/10; then 5 t_0 + 5 t_1 < 1 reads it: -2 < t_0 < 3/10
    ([[0, -5], [5, 5], [-1, 0]], [12, 1, 2], (Fraction(-17, 20), Fraction(-1, 10))),
], ids=["no bound", "upper only", "lower only", "both", "denominator grows",
        "bound reads a later value"])
def test_each_back_substitution_branch(rows, rhs, point):
    assert hasse._fourier_motzkin(rows, rhs) == ("feasible", hasse_oracle.lowest_terms(point))
    agrees_with_rule_free(rows, rhs)


@settings(max_examples=400, deadline=None)
@given(systems())
def test_chernikov_rule_on_substituted_systems(system):
    # the systems `_feasible_lambda0` hands Fourier-Motzkin after the
    # equalities are substituted
    _, calls = _fm_systems(lambda: hasse._feasible_lambda0(*system))
    for rows, rhs in calls:
        agrees_with_rule_free(rows, rhs)


def _gl_data(n):
    for r in range(1, n):
        for sigma in ("id", "flip"):
            yield f"GL{n}({r},{n - r}) {sigma}", gl_zip_datum(n, r, sigma=sigma)


def _data():
    for n in (4, 5):
        yield from _gl_data(n)
    b3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    for name, cartan in (("G2", [[2, -1], [-3, 2]]), ("B3", b3)):
        rs, lat = build_generic(cartan)
        for size in range(len(cartan) + 1):
            for I in itertools.combinations(range(1, len(cartan) + 1), size):
                yield f"{name} I={list(I)}", make_zip_datum(rs, frozenset(I), lattice=lat)


def _queries(zd):
    out = []
    for w in zd.minimal_reps():
        res = general_at_zero(zd, w)
        lam, any_res = hasse.hasse_any_Lweight(zd, w)
        out.append((w, res, lam, any_res))
    return out


@pytest.mark.parametrize("name,zd", list(_data()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_hasse_matches_fraction_solver_on_every_stratum(name, zd, monkeypatch):
    new = _queries(zd)
    monkeypatch.setattr(hasse, "_feasible_lambda0", hasse_oracle.feasible_point)
    old = _queries(zd)
    for (w, res, lam, any_res), (_, res_o, lam_o, any_res_o) in zip(new, old):
        assert res.witness == res_o.witness, (name, w)
        assert lam == lam_o and any_res.witness == any_res_o.witness, (name, w)
        for r in (res, any_res):
            assert r.feasible or r.certificate.replay()


def _golden_data():
    for name, (cartan, I, sigma) in sorted(GOLDEN.items()):
        rs, lat = build_generic(cartan)
        yield name, make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat)


def _e6_datum():
    rs, lat = build_generic(E6)
    return make_zip_datum(rs, frozenset(range(1, 6)), lattice=lat)


def _weight_zero_systems(zd, fm=hasse._fourier_motzkin):
    zero = [0] * zd.lattice.dim
    return _fm_systems(lambda: [hasse.hasse_feasible(zd, w, zero) for w in zd.minimal_reps()], fm)


@pytest.mark.parametrize("name,zd", [
    *(pair for n in (4, 5, 6) for pair in _gl_data(n)),
    *_golden_data(),
    ("E6", _e6_datum()),
], ids=lambda v: v if isinstance(v, str) else "")
def test_chernikov_rule_keeps_every_weight_zero_answer(name, zd):
    # the golden data's weight-0 systems (E7's take 15 s without the rule
    # and are covered by its golden dump): the witness lambda_0 and the
    # verdict are those of the rule-free solver, and every system passes
    # `agrees_with_rule_free`
    new, systems = _weight_zero_systems(zd)
    old, _ = _weight_zero_systems(zd, hasse_oracle.fourier_motzkin_point)
    for w, a, b in zip(zd.minimal_reps(), new, old):
        assert (a.feasible, a.witness) == (b.feasible, b.witness), (name, w)
        assert a.feasible or a.certificate.replay(), (name, w)
    for rows, rhs in systems:
        agrees_with_rule_free(rows, rhs)


def test_chernikov_rule_drops_rows_on_e6():
    # the rule is live: E6's weight-0 systems hold fewer rows with it
    _, systems = _weight_zero_systems(_e6_datum())
    sizes = [agrees_with_rule_free(rows, rhs) for rows, rhs in systems]
    assert sum(sum(a) for a, _ in sizes) < sum(sum(b) for _, b in sizes)


def agrees_at_zero(zd):
    """`hasse_feasible` at weight 0 gives the verdict and E_w of the
    general elimination (`general_at_zero`) on every stratum, and its
    witness and certificate check out."""
    zero = [0] * zd.lattice.dim
    for w in zd.minimal_reps():
        ref = general_at_zero(zd, w)
        got = hasse.hasse_feasible(zd, w, zero)
        assert (got.feasible, got.e_w) == (ref.feasible, ref.e_w), w
        if got.feasible:
            hasse._verify_witness(zd, w, zero, got.witness, got.e_w)
        else:
            assert got.certificate.replay(), w


def test_only_the_zero_weight_takes_the_orbit_path(monkeypatch):
    # on GL_4 (2,2), where (1, 1, 0, 0) is an L-weight, a nonzero weight
    # goes to the general elimination and the zero weight, a list or a
    # tuple, to the u-orbit path, each once per query
    zd = gl_zip_datum(4, 2)
    paths = []
    for name in ("_eliminate", "_feasible_at_zero"):
        real = getattr(hasse, name)
        monkeypatch.setattr(hasse, name,
                            lambda *args, real=real, name=name: paths.append(name) or real(*args))
    reps = zd.minimal_reps()
    for w in reps:
        for lam in ([1, 1, 0, 0], (0, 0, 0, 0), [0, 0, 0, 0]):
            hasse.hasse_feasible(zd, w, lam)
    assert paths == ["_eliminate", "_feasible_at_zero", "_feasible_at_zero"] * len(reps)


@pytest.mark.parametrize("n", range(2, 9))
def test_weight_zero_matches_hasse_feasible_on_gl(n):
    for _, zd in _gl_data(n):
        agrees_at_zero(zd)


@pytest.mark.parametrize("name,zd", [*_data(), *_golden_data()],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_weight_zero_matches_hasse_feasible_on_generic_data(name, zd):
    agrees_at_zero(zd)


@pytest.mark.parametrize("name,zd", [*_gl_data(5), *_golden_data()],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_weight_zero_rows_are_one_per_u_orbit(name, zd, monkeypatch):
    # Fourier-Motzkin gets one row per distinct u-orbit sum of coroots over
    # E_w, and distinct nonzero columns; the orbits are walked here with
    # WeylElement.apply and summed with CharacterLattice.pairing
    calls = []
    fm = hasse._fourier_motzkin
    monkeypatch.setattr(hasse, "_fourier_motzkin",
                        lambda rows, rhs: calls.append(rows) or fm(rows, rhs))
    zero = [0] * zd.lattice.dim
    units = [tuple(int(i == d) for i in range(zd.lattice.dim)) for d in range(zd.lattice.dim)]
    for w in zd.minimal_reps():
        ew = hasse.hasse_feasible(zd, w, zero).e_w
        rows = calls.pop()
        u = zd.z.inverse() * w
        orbits, sums = set(), set()
        for alpha in ew:
            orbit, beta = [alpha], u.apply(alpha)
            while beta != alpha:
                orbit.append(beta)
                beta = u.apply(beta)
            orbits.add(frozenset(beta.coords for beta in orbit))
            sums.add(tuple(sum(zd.lattice.pairing(e, beta) for beta in orbit) for e in units))
        assert len(rows) == len(set(map(tuple, rows))) == len(sums) <= len(orbits), w
        cols = list(zip(*rows))
        assert all(map(any, cols)) and len(set(cols)) == len(cols), w


def _feasible_answers(zd):
    """(w, image, result) of every witness that the general elimination and
    `hasse_feasible` at weight 0 and `hasse_any_Lweight` return on zd, with
    the (w - z)-image of the scaled witness that its re-check expects."""
    zero = [0] * zd.lattice.dim
    for w in zd.minimal_reps():
        answers = [(zero, general_at_zero(zd, w)), (zero, hasse.hasse_feasible(zd, w, zero))]
        answers.append(hasse.hasse_any_Lweight(zd, w))
        for image, res in answers:
            if res.feasible:
                yield w, image, res


@pytest.mark.parametrize("name,zd", [
    *(pair for n in range(2, 9) for pair in _gl_data(n)),
    *_golden_data(),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_witness_is_its_least_scaling_and_its_re_check_can_fail(name, zd):
    # lambda_0 is scaled_integral / multiplier, the multiplier is the lcm of
    # the reduced denominators of lambda_0, and the re-check refuses the
    # witness moved by a unit vector e that u = z^{-1} w does not fix:
    # (w - z)(lambda_0 + e) = (w - z) lambda_0 + z (u e - e).  It also
    # refuses -lambda_0, which meets the weight equation of -lambda but
    # pairs positively with every coroot of E_w
    units = [tuple(int(i == d) for i in range(zd.lattice.dim)) for d in range(zd.lattice.dim)]
    for w, image, res in _feasible_answers(zd):
        wit = res.witness
        assert wit.lambda0 == tuple(Fraction(s, wit.multiplier) for s in wit.scaled_integral)
        assert wit.multiplier == lcm(*(x.denominator for x in wit.lambda0)), (name, w)
        if res.e_w:
            negated = hasse.HasseWitness(tuple(-s for s in wit.scaled_integral), wit.multiplier)
            with pytest.raises(InvariantViolation, match="strict pairing"):
                hasse._verify_witness(zd, w, [-x for x in image], negated, res.e_w)
        u = zd.z.inverse() * w
        off = next((e for e in units if u.apply_weight(e, zd.lattice) != e), None)
        if off is None:  # u = e fixes every weight
            assert u == zd.W.identity, (name, w)
            continue
        moved = hasse.HasseWitness(tuple(map(add, wit.scaled_integral, off)), wit.multiplier)
        with pytest.raises(InvariantViolation, match="weight equation"):
            hasse._verify_witness(zd, w, image, moved, res.e_w)


def test_certificate_check_survives_python_O():
    # replay forced to fail: the general elimination and the weight-0 path
    # must still raise under -O on an infeasible query; a witness moved off
    # the u-fixed weights must fail its re-check
    script = (
        "from zipstrata import hasse\n"
        "from zipstrata.weyl import InvariantViolation\n"
        "from zipstrata.zipdatum import gl_zip_datum\n"
        "assert False, 'python -O keeps asserts'\n"
        "def expect_violation(query):\n"
        "    try:\n"
        "        query()\n"
        "    except InvariantViolation as exc:\n"
        "        print(exc)\n"
        "hasse.InfeasibilityCertificate.replay = lambda self: False\n"
        "zd = gl_zip_datum(4, 2)\n"
        "w = zd.W.from_one_line([1, 3, 2, 4])\n"
        "zero = [0, 0, 0, 0]\n"
        "expect_violation(lambda: hasse._eliminate(zd, w, *hasse._prologue(zd, w),\n"
        "    lambda cols: (list(zip(*cols)), zero), lambda cols, witness: zero))\n"
        "expect_violation(lambda: hasse.hasse_feasible(zd, w, zero))\n"
        "scale = hasse._scaled_witness\n"
        "hasse._scaled_witness = lambda num, den: scale((num[0] + den, *num[1:]), den)\n"
        "w = zd.W.from_one_line([1, 3, 4, 2])\n"
        "expect_violation(lambda: hasse.hasse_feasible(zd, w, zero))\n"
    )
    assert _run_under_python_O(script) == [
        "infeasibility certificate failed to replay",
        "infeasibility certificate failed to replay",
        "witness fails the weight equation",
    ]


def test_an_empty_interval_raises_under_python_O():
    # with every contradiction row missed, the infeasible t < 0, -t < 0
    # reaches back-substitution with the empty interval 0 < t < 0: the run
    # with Chernikov's rule gives up, and the rule-free run must raise
    script = (
        "from zipstrata import hasse\n"
        "from zipstrata.weyl import InvariantViolation\n"
        "assert False, 'python -O keeps asserts'\n"
        "hasse._fm_contradiction = lambda rows, nvars: None\n"
        "try:\n"
        "    hasse._fourier_motzkin([[1], [-1]], [0, 0])\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    assert _run_under_python_O(script) == ["feasible FM system must leave room at each variable"]


def _run_under_python_O(script):
    """The lines ``script`` prints under ``python -O``; it must exit 0."""
    src = str(Path(hasse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()
