"""The twisted order by its definition, kept as the reference for
`ZipDatum.lower_neighbors`."""

from zipstrata.weyl import WeylElement
from zipstrata.zipdatum import ZipDatum


class TwistedScan:
    """Lower neighbours in ^K W for one datum and one K, the way
    `ZipDatum.twisted_leq` decides them.

    ^K W is taken by filtering all of W.  A candidate w' is below w iff some
    x w' psi(x)^{-1}, x in W_K in `parabolic_elements` order, is Bruhat-below
    w; each candidate's list of those products is formed once and kept, so
    that every w shares it.
    """

    def __init__(self, zd: ZipDatum, K):
        self.zd, self.K = zd, frozenset(K)
        W = zd.W
        self.levels: dict[int, list[WeylElement]] = {}
        for w in W.elements():
            if W.is_minimal_rep(w, self.K):
                self.levels.setdefault(w.length, []).append(w)
        self._pairs = [(x, zd.psi(x).inverse()) for x in W.parabolic_elements(self.K)]
        self._orbits: dict = {}

    def leq(self, w1: WeylElement, w2: WeylElement) -> bool:
        """w1 <=_K w2: some x in W_K has x w1 psi(x)^{-1} Bruhat-below w2."""
        orbit = self._orbits.get(w1.key)
        if orbit is None:
            orbit = self._orbits[w1.key] = [x * w1 * p for x, p in self._pairs]
        return any(y.length <= w2.length and self.zd.W.bruhat_leq(y, w2) for y in orbit)

    def lower_neighbors(self, w: WeylElement) -> list[WeylElement]:
        """Gamma_K(w): every w' in ^K W of length l(w) - 1 with w' <=_K w."""
        out = [c for c in self.levels.get(w.length - 1, []) if self.leq(c, w)]
        out.sort(key=lambda v: (v.length, v.word))
        return out
