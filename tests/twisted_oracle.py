"""The twisted order by its definition, kept as the reference for
`ZipDatum.lower_neighbors` and `ZipDatum.twisted_leq`."""

from zipstrata.weyl import WeylElement
from zipstrata.zipdatum import ZipDatum


def psi_by_definition(zd: ZipDatum, x: WeylElement) -> WeylElement:
    """psi(x) = z^{-1} sigma(x) z, multiplied out from sigma's action on W
    rather than taken from the frame that `ZipDatum.psi` conjugates by."""
    return zd.z.inverse() * zd.sigma.apply_w(zd.W, x) * zd.z


class TwistedScan:
    """Lower neighbours in ^K W for one datum and one K, by the definition
    of the twisted order.

    ^K W is taken by filtering all of W.  A candidate w' is below w iff some
    x w' psi(x)^{-1}, x in W_K in `parabolic_elements` order, is Bruhat-below
    w, with psi from `psi_by_definition`; each candidate's list of those
    products is formed once and kept, so that every w shares it.  The Bruhat order is taken by its definition, the
    transitive closure of u t < u for the reflections t with l(u t) < l(u),
    as one table of lower intervals [e, w] shared by every query.
    """

    def __init__(self, zd: ZipDatum, K):
        self.zd, self.K = zd, frozenset(K)
        W = zd.W
        self.levels: dict[int, list[WeylElement]] = {}
        for w in W.elements():
            if W.is_minimal_rep(w, self.K):
                self.levels.setdefault(w.length, []).append(w)
        self._pairs = [(x, psi_by_definition(zd, x).inverse())
                       for x in W.parabolic_elements(self.K)]
        self._orbits: dict = {}
        self._intervals: dict = {}

    def leq(self, w1: WeylElement, w2: WeylElement) -> bool:
        """w1 <=_K w2: some x in W_K has x w1 psi(x)^{-1} Bruhat-below w2."""
        orbit = self._orbits.get(w1.key)
        if orbit is None:
            orbit = self._orbits[w1.key] = [x * w1 * p for x, p in self._pairs]
        below = self._interval(w2)
        return any(y.key in below for y in orbit)

    def _interval(self, w: WeylElement) -> set:
        """Keys of the Bruhat interval [e, w]."""
        below = self._intervals.get(w.key)
        if below is None:
            W = self.zd.W
            below = {w.key}
            for root in self.zd.rs.positive_roots:
                u = w * W.reflection(root)
                if u.length < w.length:
                    below |= self._interval(u)
            self._intervals[w.key] = below
        return below

    def lower_neighbors(self, w: WeylElement) -> list[WeylElement]:
        """Gamma_K(w): every w' in ^K W of length l(w) - 1 with w' <=_K w."""
        out = [c for c in self.levels.get(w.length - 1, []) if self.leq(c, w)]
        out.sort(key=lambda v: (v.length, v.word))
        return out
