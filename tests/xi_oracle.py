"""The exhaustive W_I scan for Xi, kept as the reference for `xi_of_weyl`."""

from twisted_oracle import psi_by_definition
from zipstrata.weyl import WeylElement
from zipstrata.zipdatum import ZipDatum


def xi_scan(zd: ZipDatum, w: WeylElement) -> WeylElement:
    """Xi(w) by scanning all a in W_I.

    Forms a^{-1} w psi(a), with psi from its definition, splits off the
    minimal coset representative and accepts when the W_I-part lies in the
    canonical-type parabolic of the candidate.  Every accepted candidate
    must agree.
    """
    W = zd.W
    accepted = {}
    for a in W.parabolic_elements(zd.I):
        v = a.inverse() * w * psi_by_definition(zd, a)
        u, cand = W.min_coset_rep(zd.I, v)
        if W.in_parabolic(u, zd.canonical_type(cand)):
            accepted[cand.key] = cand
    if len(accepted) != 1:
        raise AssertionError(f"the Xi scan accepted {len(accepted)} candidates: {list(accepted)}")
    return next(iter(accepted.values()))
