"""The integer Hasse solver against the seed's Fraction solver.

`hasse_oracle` keeps the Gauss-Jordan / Fourier-Motzkin code on Fractions
that `zipstrata.hasse` replaced.  Both must reach the same verdict and the
same lambda_0 on every system; certificates may differ by a scale factor,
so they are compared by replaying them.
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
from zipstrata import hasse
from zipstrata.rootdata import build_generic
from zipstrata.zipdatum import gl_zip_datum, make_zip_datum

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


def _data():
    for n in (4, 5):
        for r in range(1, n):
            for sigma in ("id", "flip"):
                yield f"GL{n}({r},{n - r}) {sigma}", gl_zip_datum(n, r, sigma=sigma)
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


def test_certificate_check_survives_python_O():
    # replay forced to fail: the infeasible query must still raise under -O
    script = (
        "from zipstrata import hasse\n"
        "from zipstrata.weyl import InvariantViolation\n"
        "from zipstrata.zipdatum import gl_zip_datum\n"
        "assert False, 'python -O keeps asserts'\n"
        "hasse.InfeasibilityCertificate.replay = lambda self: False\n"
        "zd = gl_zip_datum(4, 2)\n"
        "try:\n"
        "    hasse.hasse_feasible(zd, zd.W.from_one_line([1, 3, 2, 4]), [0, 0, 0, 0])\n"
        "except InvariantViolation:\n"
        "    print('raised')\n"
    )
    src = str(Path(hasse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"
