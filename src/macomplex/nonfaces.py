"""Minimal non-faces: enumeration and reconstruction.

A minimal non-face is a vertex set that is not a face although all of its
proper subsets are.  Both directions of the correspondence between a
complex and its minimal non-faces reduce to minimal-transversal (hitting
set) computations: a set is a non-face exactly when it meets the
complement of every facet, so the minimal non-faces are the minimal
transversals of the facet complements; dually, the facets of the complex
cut out by a family of non-faces are the complements of the family's
minimal transversals.

Two kinds of complex give their minimal non-faces without that
enumeration, each recogniser reading only what it needs off the facets:

* a join of simplex boundaries and a simplex,
  ∂Δ(B_1) * ... * ∂Δ(B_k) * Δ(C), whose non-faces are the blocks B_i.
  Its shape is tested first, in O(1): every facet misses k vertices, one
  per block, and there are at least 2^k facets.  Then v's block is v and
  the missed vertices that no facet complement holding v also holds, read
  off the union of those complements (sum |facet complement| ORs).  The
  vertices of one complement lie in distinct blocks, so k blocks whose
  sizes multiply to the facet count make every choice of one vertex per
  block a facet complement, and the blocks disjoint;
* a flag complex, whose non-faces are the non-edges, read off the
  1-skeleton (the union of the facets at each vertex, sum |F| ORs) with
  at most |facets| * n face tests.

Every other complex, and every complex with a vertex in no facet, goes
through Berge's enumeration, which ``reconstruct`` also uses.
"""

from __future__ import annotations

import math
from typing import Iterable

from .complexes import (
    SimplicialComplex,
    _bits,
    _check_mask,
    _check_vertex_count,
    _mask_of,
    _maximal_masks,
    _MembershipIndex,
)
from .errors import GhostVertexError, InputError


class NonfaceFamily:
    """An antichain of vertex sets of size >= 2 inside 1..n.

    Each member is given as a vertex mask or a vertex list and stored as a
    mask; the members are sorted by mask.  ``_maximal_masks``, the facet
    filter, checks the antichain and never compares two members of one size.
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
        if len(_maximal_masks(uniq)) < len(uniq):  # some member lies inside another
            raise InputError("non-face family is not an antichain")
        self.n = n
        self.members = tuple(uniq)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "members": [list(_bits(m)) for m in self.members]}

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


def _unions_by_vertex(sets: Iterable[int], n: int) -> list[int]:
    """``out[v - 1]``, the union of the masks in ``sets`` that hold vertex v.

    0 for a vertex in none of them.  Over the facets of K this is the
    1-skeleton: two vertices span an edge exactly when some facet holds
    both, so ``out[v - 1]`` is v and its neighbours.  sum |s| ORs.
    """
    out = [0] * n
    for s in sets:
        for v in _bits(s):
            out[v - 1] |= s
    return out


def _non_edges(near: list[int]) -> list[int]:
    """Masks of the vertex pairs that span no edge, ascending.

    ``near`` is the 1-skeleton, ``_unions_by_vertex(K.facets, K.n)``: bit
    u - 1 of ``near[v - 1]`` is set exactly when {u, v} is a face.
    Ascending masks order the pairs by their higher vertex, then their
    lower.
    """
    pairs = []
    for i, around in enumerate(near):
        high = 1 << i
        lower = (high - 1) & ~around
        while lower:
            low = lower & -lower
            pairs.append(high | low)
            lower ^= low
    return pairs


def _boundary_join_blocks(K: SimplicialComplex) -> list[int] | None:
    """The blocks B_i when K is ∂Δ(B_1) * ... * ∂Δ(B_k) * Δ(C), else None.

    K has no ghost vertex.  In such a join every facet misses one vertex of
    each block, so K is pure with k = n - |smallest facet|, and it has at
    least 2^k facets; K is declined in O(1) unless both hold.  Then
    ``together[v - 1]`` is the union of the facet complements that hold v,
    and each missed vertex v gets the block of v and the missed vertices
    never missed together with it.  The vertices of a complement are
    pairwise missed together, so its k vertices lie in k distinct blocks,
    one in each block; so when there are exactly k blocks, each complement
    is one choice of a vertex per block, and distinct facets make distinct
    choices.  Overlapping blocks would leave fewer choices than the product
    of the block sizes; so a facet count equal to that product makes the
    blocks disjoint and every choice a facet, which is the join.
    sum |facet complement| ORs.
    """
    n, facets = K.n, K.facets
    k = n - facets[0].bit_count()
    if facets[-1].bit_count() != n - k or len(facets) < 1 << k:
        return None
    full = (1 << n) - 1
    together = _unions_by_vertex([full & ~f for f in facets], n)
    rest = 0
    for t in together:
        rest |= t
    blocks = {rest & ~together[v - 1] | 1 << (v - 1) for v in _bits(rest)}
    if len(blocks) != k or math.prod(b.bit_count() for b in blocks) != len(facets):
        return None
    return sorted(blocks)


def _flag_non_edges(K: SimplicialComplex) -> list[int] | None:
    """The non-edges when K is a flag complex, else None.

    K is flag exactly when, for every facet F and vertex v outside it,
    (F & N(v)) | {v} is a face: in a flag complex it is a clique, and a
    minimal non-face s of three or more vertices fails the test at any v
    of s and a facet F holding s - {v}.  A set of at most two vertices
    is a clique of the 1-skeleton, so only larger ones are looked up, each
    once; at most |facets| * n face tests, stopping at the first non-face.
    """
    near = _unions_by_vertex(K.facets, K.n)
    index = _MembershipIndex(K.facets)
    full = (1 << K.n) - 1
    looked_up = set()
    for f in K.facets:
        for v in _bits(full & ~f):
            inner = f & near[v - 1]
            if inner & (inner - 1):
                sigma = inner | 1 << (v - 1)
                if sigma not in looked_up:
                    if not index.containing(sigma):
                        return None
                    looked_up.add(sigma)
    return _non_edges(near)


def _minimal_nonface_masks(K: SimplicialComplex) -> list[int]:
    """Masks of the minimal non-faces of ``K``, ascending.

    A vertex v in no facet (a ghost) gives the one-element non-face {v}:
    it is a minimal transversal of the facet complements like any other.
    Without ghosts, boundary joins and flag complexes are recognised
    first; everything else goes through Berge's enumeration.
    """
    full = (1 << K.n) - 1
    if K.covered_vertices() == full:
        recognised = _boundary_join_blocks(K)
        if recognised is None:
            recognised = _flag_non_edges(K)
        if recognised is not None:
            return recognised
    return _minimal_transversals([full & ~f for f in K.facets], full)


def _nonfaces_pairwise_intersect(members: list[int]) -> bool:
    """Whether every two of the masks ``members`` share a vertex.

    Given the minimal non-faces of a complex (``_minimal_nonface_masks``),
    a ghost vertex v is the one-element non-face {v}, which misses every
    other minimal non-face.
    """
    index = _MembershipIndex(members)
    everyone = (1 << len(members)) - 1
    return all(index.meeting(m) == everyone for m in members)


def _reject_ghosts(K: SimplicialComplex) -> None:
    """Raise ``GhostVertexError`` for the least vertex of ``K`` in no facet."""
    missing = ((1 << K.n) - 1) & ~K.covered_vertices()
    if missing:
        raise GhostVertexError((missing & -missing).bit_length())


def minimal_nonfaces(K: SimplicialComplex) -> NonfaceFamily:
    """All inclusion-minimal non-faces of ``K``.

    Every singleton must be a face; a vertex in no facet would be a
    one-element non-face, which the family type excludes.
    """
    _reject_ghosts(K)
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

