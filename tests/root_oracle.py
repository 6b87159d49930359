"""Canonical types and w-sequences on Root objects, kept as the reference
for `ZipDatum.canonical_type` and `strata.w_sequences`, which walk
phi_w as a permutation of root indices (`ZipDatum.phi_key`); the Cartan
formula for a reflection on the root indices, kept as the reference for the
simple images of root generation and for `WeylGroup.reflection`, which
conjugates a simple reflection; and reflections of weights through the
pairing with an arbitrary root, kept as the reference for the generic
`WeylElement.apply_weight`, which reads one column of the lattice per
letter."""

import itertools

from zipstrata.rootdata import CharacterLattice, Root, RootSystem
from zipstrata.strata import WSequence
from zipstrata.weyl import InvariantViolation, WeylElement
from zipstrata.zipdatum import ZipDatum


def canonical_type(zd: ZipDatum, w: WeylElement) -> frozenset[int]:
    """I_w as the stable intersection S <- S intersect phi_w(S) over the
    simple roots of I, each image (w z^{-1}) . sigma(alpha) taken root by
    root."""
    op = w * zd.z.inverse()
    current = {zd.rs.simple(k).coords: k for k in sorted(zd.I)}
    while True:
        images = {op.apply(zd.sigma.apply_root(zd.rs.root_from_coords(c))).coords
                  for c in current}
        kept = {c: k for c, k in current.items() if c in images}
        if len(kept) == len(current):
            return frozenset(current.values())
        current = kept


def w_sequences(zd: ZipDatum, v: WeylElement):
    """``(sequences, n_plus, n_minus)`` of beta |-> v . sigma(beta), each
    root read off `WeylElement.apply` and `BasedAutomorphism.apply_root`,
    compactness off the simple coordinates."""
    outside = [k not in zd.I for k in zd.rs.delta_indices()]

    def noncompact(root) -> bool:
        return any(itertools.compress(root.simple_coords, outside))

    bound = 2 * len(zd.rs.positive_roots) + 1
    seqs = []
    for beta0 in filter(noncompact, zd.rs.positive_roots):
        body = []
        cur = beta0
        for _ in range(bound):
            cur = v.apply(zd.sigma.apply_root(cur))
            if noncompact(cur):
                break
            body.append(cur)
        else:
            raise InvariantViolation("w-sequence failed to terminate")
        seqs.append(WSequence(beta0, tuple(body), cur))
    n_plus = sum(1 for s in seqs if s.sign > 0)
    return seqs, n_plus, len(seqs) - n_plus


def reflection_by_cartan(rs: RootSystem, root: Root) -> tuple:
    """s_alpha as a permutation of the root indices (`RootSystem.roots`
    order): s_alpha(beta) = beta - <beta, alpha^vee> alpha in simple-root
    coordinates, with <beta, alpha^vee> summed over alpha's coroot
    coordinates; the same for GL_n and generic systems."""
    C = rs.cartan
    at = {r.simple_coords: i for i, r in enumerate(rs.roots)}
    alpha = root.simple_coords
    col = [sum(c * C[j][k] for k, c in enumerate(root.coroot_coords)) for j in range(rs.rank)]
    key = []
    for beta in rs.roots:
        p = sum(b * c for b, c in zip(beta.simple_coords, col))
        key.append(at[tuple(b - p * a for b, a in zip(beta.simple_coords, alpha))])
    return tuple(key)


def embed_root(lattice: CharacterLattice, root: Root) -> tuple:
    """The root as a lattice vector: its simple coordinates applied to the
    simple roots' embeddings."""
    vec = [0] * lattice.dim
    for k, c in enumerate(root.simple_coords):
        if c:
            emb = lattice.root_embedding[k]
            for d in range(lattice.dim):
                vec[d] += c * emb[d]
    return tuple(vec)


def reflect(lattice: CharacterLattice, lam, root: Root) -> tuple:
    """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    p = lattice.pairing(lam, root)
    alpha = embed_root(lattice, root)
    return tuple(lam[d] - p * alpha[d] for d in range(lattice.dim))


def apply_weight(w: WeylElement, lam, lattice: CharacterLattice) -> tuple:
    """w lam, one `reflect` per letter of w's word, the rightmost first."""
    out = tuple(lam)
    for k in reversed(w.word):
        out = reflect(lattice, out, w.group.rs.simple(k))
    return out
