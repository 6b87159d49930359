"""The integer Hasse solver against the seed's Fraction solver.

`hasse_oracle` keeps the Gauss-Jordan / Fourier-Motzkin code on Fractions
that `zipstrata.hasse` replaced.  Both must reach the same verdict and the
same lambda_0 on every system; certificates may differ by a scale factor,
so they are compared by replaying them.

`hasse_feasible` is in turn the reference for `hasse_feasible_at_zero`,
the weight-0 path on u-orbit sums that `strata-list` takes: the same
verdict and E_w on every stratum of GL_2..GL_8 and of the generic data,
one Fourier-Motzkin row per distinct u-orbit sum over E_w, and its checks
raise under ``python -O``.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hasse_oracle
from test_golden import GOLDEN
from zipstrata import hasse
from zipstrata.rootdata import build_generic
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


def _same_outcome(new, old):
    (lam_new, cert_new), (lam_old, cert_old) = new, old
    assert lam_new == lam_old
    assert (cert_new is None) == (cert_old is None)
    if cert_new is not None:
        assert cert_new.replay() and cert_old.replay()
        assert all(m >= 0 for m in cert_new.strict_multipliers)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(systems())
def test_integer_solver_matches_fraction_solver(system):
    _same_outcome(hasse._feasible_lambda0(*system), hasse_oracle._feasible_lambda0(*system))


def test_fixed_systems():
    # inconsistent equalities; a free strict system; an infeasible strict
    # pair; equalities given with Fractions, consistent and not
    for system in [
        (2, [[1, 1], [2, 2]], [1, 3], [[1, 0]]),
        (3, [], [], [[1, -1, 0], [0, 1, -1]]),
        (2, [], [], [[1, 0], [-1, 0]]),
        (2, [[1, -1]], [0], [[1, 0], [0, -1]]),
        (2, [[Fraction(1, 2), Fraction(-2, 3)]], [Fraction(5, 6)], [[1, 1]]),
        (2, [[Fraction(1, 2), 1], [1, 2]], [Fraction(1, 3), 1], [[1, 0]]),
    ]:
        _same_outcome(hasse._feasible_lambda0(*system), hasse_oracle._feasible_lambda0(*system))


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
        res = hasse.hasse_feasible(zd, w, [0] * zd.lattice.dim)
        lam, any_res = hasse.hasse_any_Lweight(zd, w)
        out.append((w, res, lam, any_res))
    return out


@pytest.mark.parametrize("name,zd", list(_data()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_hasse_matches_fraction_solver_on_every_stratum(name, zd, monkeypatch):
    new = _queries(zd)
    monkeypatch.setattr(hasse, "_feasible_lambda0", hasse_oracle._feasible_lambda0)
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


def agrees_at_zero(zd):
    """`hasse_feasible_at_zero` gives the verdict and E_w of
    `hasse_feasible` at weight 0 on every stratum, and its witness and
    certificate check out."""
    zero = [0] * zd.lattice.dim
    for w in zd.minimal_reps():
        ref = hasse.hasse_feasible(zd, w, zero)
        got = hasse.hasse_feasible_at_zero(zd, w)
        assert (got.feasible, got.e_w) == (ref.feasible, ref.e_w), w
        if got.feasible:
            hasse._verify_witness(zd, w, zero, got.witness, got.e_w)
        else:
            assert got.certificate.replay(), w


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
    units = [tuple(int(i == d) for i in range(zd.lattice.dim)) for d in range(zd.lattice.dim)]
    for w in zd.minimal_reps():
        ew = hasse.hasse_feasible_at_zero(zd, w).e_w
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


def test_certificate_check_survives_python_O():
    # replay forced to fail: both infeasible queries must still raise under
    # -O; a witness moved off the u-fixed weights must fail its re-check
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
        "expect_violation(lambda: hasse.hasse_feasible(zd, w, [0, 0, 0, 0]))\n"
        "expect_violation(lambda: hasse.hasse_feasible_at_zero(zd, w))\n"
        "scale = hasse._witness_from_lambda0\n"
        "hasse._witness_from_lambda0 = lambda l0: scale((l0[0] + 1, *l0[1:]))\n"
        "w = zd.W.from_one_line([1, 3, 4, 2])\n"
        "expect_violation(lambda: hasse.hasse_feasible_at_zero(zd, w))\n"
    )
    src = str(Path(hasse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "infeasibility certificate failed to replay",
        "infeasibility certificate failed to replay",
        "witness fails the weight equation",
    ]
