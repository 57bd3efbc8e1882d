"""Minimal non-faces: enumeration and reconstruction.

A minimal non-face is a vertex set that is not a face although all of its
proper subsets are.  Both directions of the correspondence between a
complex and its minimal non-faces reduce to minimal-transversal (hitting
set) computations: a set is a non-face exactly when it meets the
complement of every facet, so the minimal non-faces are the minimal
transversals of the facet complements; dually, the facets of the complex
cut out by a family of non-faces are the complements of the family's
minimal transversals.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import (
    SimplicialComplex,
    _bits,
    _check_mask,
    _check_vertex_count,
    _compress_mask,
    _mask_of,
    _MembershipIndex,
    _parse_json,
)
from .errors import GhostVertexError, InputError


class NonfaceFamily:
    """An antichain of vertex sets of size >= 2 inside 1..n.

    Each member is given as a vertex mask or a vertex list and stored as a
    mask; the members are sorted by mask.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable):
        _check_vertex_count(n)
        sets = []
        for m in members:
            mask = _check_mask(m if type(m) is int else _mask_of(m), n, "non-face")
            if mask.bit_count() < 2:
                raise InputError(f"non-face {list(_bits(mask))} has fewer than 2 vertices")
            sets.append(mask)
        uniq = sorted(set(sets))
        index = _MembershipIndex(uniq)
        for i, a in enumerate(uniq):
            if index.containing(a) != 1 << i:  # some other member contains a
                raise InputError("non-face family is not an antichain")
        self.n = n
        self.members = tuple(uniq)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "members": [list(_bits(m)) for m in self.members]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "NonfaceFamily":
        return cls(*_parse_json(data, "non-face", "members"))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        if isinstance(other, NonfaceFamily):
            return self.n == other.n and self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"NonfaceFamily(n={self.n}, members={[list(_bits(m)) for m in self.members]})"


def _minimal_transversals(sets: list[int], universe: int) -> list[int]:
    """Minimal hitting sets of a family of bitmask sets, ascending by mask.

    Berge's method (Eiter & Gottlob, SIAM J. Comput. 24, 1995).  On adding
    set ``s``, the transversals that hit ``s`` stay, and each ``t`` that
    misses it grows to ``t | v`` for every vertex ``v`` of ``s``, kept unless
    it contains a transversal that hit ``s``.  Such a transversal ``h`` meets
    ``s`` inside ``(t | v) & s = v``, so only the hit transversals that meet
    ``s`` in ``v`` alone are tested; they are keyed by ``v`` (the vertex-keyed
    minimality test of Murakami & Uno, Discrete Appl. Math. 170, 2014).
    Grown sets need no test among themselves: ``t | v ⊇ t' | v'`` forces
    ``v' = v``, as ``t`` misses ``s``, so ``t ⊇ t'``, which the antichain of
    old transversals rules out.
    """
    transversals = [0]
    for s in sets:
        s &= universe
        if s == 0:
            return []
        hit = []
        missed = []
        only_at: dict[int, list[int]] = {}  # v -> hit transversals h with h & s == v
        for t in transversals:
            x = t & s
            if not x:
                missed.append(t)
                continue
            hit.append(t)
            if x & (x - 1) == 0:
                only_at.setdefault(x, []).append(t)
        grown = []
        for t in missed:
            rest = s
            while rest:
                v = rest & -rest
                rest ^= v
                c = t | v
                if not any(h & c == h for h in only_at.get(v, ())):
                    grown.append(c)
        transversals = hit + grown
    return sorted(transversals)


def _minimal_nonface_masks(K: SimplicialComplex) -> list[int]:
    """Masks of the minimal non-faces of ``K``, ascending.

    A vertex v in no facet (a ghost) gives the one-element non-face {v}:
    it is a minimal transversal of the facet complements like any other.
    """
    full = (1 << K.n) - 1
    return _minimal_transversals([full & ~f for f in K.facets], full)


def _nonfaces_pairwise_intersect(K: SimplicialComplex) -> bool:
    """Whether every two minimal non-faces of ``K`` share a vertex.

    A ghost vertex v (in no facet) is the one-element non-face {v}, which
    misses every other minimal non-face.
    """
    members = _minimal_nonface_masks(K)
    index = _MembershipIndex(members)
    everyone = (1 << len(members)) - 1
    return all(index.meeting(m) == everyone for m in members)


def minimal_nonfaces(K: SimplicialComplex) -> NonfaceFamily:
    """All inclusion-minimal non-faces of ``K``.

    Every singleton must be a face; a vertex in no facet would be a
    one-element non-face, which the family type excludes.
    """
    missing = ((1 << K.n) - 1) & ~K.covered_vertices()
    if missing:
        raise GhostVertexError((missing & -missing).bit_length())
    return NonfaceFamily(K.n, _minimal_nonface_masks(K))


def reconstruct(M: NonfaceFamily) -> SimplicialComplex:
    """The complex on 1..M.n whose faces are the sets containing no member of ``M``."""
    full = (1 << M.n) - 1
    transversals = _minimal_transversals(M.members, full)
    return SimplicialComplex(M.n, [full ^ t for t in transversals])


def support(M: NonfaceFamily) -> int:
    """Mask of the union of all members of the family."""
    mask = 0
    for m in M.members:
        mask |= m
    return mask


def restrict_family(M: NonfaceFamily, I: int) -> NonfaceFamily:
    """Members of ``M`` contained in the vertex mask ``I`` (labels unchanged)."""
    _check_mask(I, M.n, "subset")
    return NonfaceFamily(M.n, [m for m in M.members if m & ~I == 0])


def relabel_family(M: NonfaceFamily, I: int) -> NonfaceFamily:
    """Rank-relabel a family whose members all lie in the mask ``I`` onto 1..|I|."""
    _check_mask(I, M.n, "subset")
    for m in M.members:
        if m & ~I:
            raise InputError(f"member {list(_bits(m))} is not contained in I")
    return NonfaceFamily(I.bit_count(), [_compress_mask(m, I) for m in M.members])
