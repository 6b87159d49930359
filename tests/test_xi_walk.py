"""Xi by the length-descent walk against the exhaustive W_I scan.

`xi_of_weyl` visits only part of the W_I-orbit of w; `xi_oracle.xi_scan`
tries every element of W_I and requires a unique accepted candidate.  The
two must agree on every element tried here.
"""

import itertools
import random

import pytest

from xi_oracle import xi_scan
from zipstrata.rootdata import build_generic
from zipstrata.strata import xi_of_weyl
from zipstrata.zipdatum import BasedAutomorphism, gl_zip_datum, make_zip_datum

G2 = [[2, -1], [-3, 2]]
B3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
C3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _agree(zd, elements):
    for w in elements:
        assert xi_of_weyl(zd, w) == xi_scan(zd, w), w


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_xi_walk_matches_scan_on_all_of_gl(n):
    for r in range(1, n):
        for sigma in ("id", "flip"):
            zd = gl_zip_datum(n, r, sigma=sigma)
            _agree(zd, zd.W.elements())


def test_xi_walk_matches_scan_on_gl6_stride():
    for r in range(1, 6):
        for sigma in ("id", "flip"):
            zd = gl_zip_datum(6, r, sigma=sigma)
            _agree(zd, itertools.islice(zd.W.elements(), 0, None, 11))


def test_xi_walk_matches_scan_on_seeded_gl8_points():
    for r in range(1, 8):
        for sigma in ("id", "flip"):
            zd = gl_zip_datum(8, r, sigma=sigma)
            rng = random.Random(f"{r}/{sigma}")
            _agree(zd, [zd.W.from_one_line(rng.sample(range(1, 9), 8)) for _ in range(3)])


@pytest.mark.parametrize("cartan", [G2, B3, C3], ids=["G2", "B3", "C3"])
def test_xi_walk_matches_scan_for_every_I(cartan):
    rs, lat = build_generic(cartan)
    indices = list(rs.delta_indices())
    for size in range(len(indices) + 1):
        for I in itertools.combinations(indices, size):
            zd = make_zip_datum(rs, frozenset(I), lattice=lat)
            _agree(zd, zd.W.elements())


@pytest.mark.parametrize(
    "cartan,I,sigma",
    [(D4, {1, 3, 4}, "3,2,4,1"), (A4, {1, 4}, "flip")],
    ids=["D4_triality", "A4_flip"],
)
def test_xi_walk_matches_scan_on_twisted_generic_data(cartan, I, sigma):
    rs, lat = build_generic(cartan)
    zd = make_zip_datum(rs, frozenset(I), BasedAutomorphism.parse(rs, sigma), lat)
    _agree(zd, zd.W.elements())
