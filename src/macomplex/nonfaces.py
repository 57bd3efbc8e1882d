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
enumeration, read off ``miss[v]``, the bitset of the facets that miss
vertex v (an index over the facet complements, built in
O(sum |facet complement|) steps):

* a join of simplex boundaries and a simplex,
  ∂Δ(B_1) * ... * ∂Δ(B_k) * Δ(C), whose non-faces are the blocks B_i,
  recognised with O(n^2) big-integer operations;
* a flag complex, whose non-faces are the non-edges, recognised with at
  most |facets| * n face tests.

Every other complex, and every complex with a vertex in no facet, goes
through Berge's enumeration, which ``reconstruct`` also uses.
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


def _facet_skeleton(
    K: SimplicialComplex,
) -> tuple[_MembershipIndex, tuple[int, ...], tuple[int, ...]]:
    """The facet complements indexed by vertex, ``miss`` and ``adjacent``.

    ``miss[i]`` is the bitset of the indices of the facets that miss vertex
    i + 1.  A mask is a face exactly when some facet misses none of its
    vertices, that is when ``index.meeting(mask)`` is not every facet.
    ``adjacent[i]`` is the mask of the vertices that span an edge with
    vertex i + 1, some facet missing neither (n^2 / 2 ORs).  ``classify``
    builds it once for the boundary-join recogniser and the 1-skeleton
    witness, and again, through ``minimal_nonfaces``, only when neither
    decides.
    """
    full = (1 << K.n) - 1
    index = _MembershipIndex([full & ~f for f in K.facets])
    miss = [index.meeting(1 << i) for i in range(K.n)]
    every = (1 << len(K.facets)) - 1
    adjacent = [0] * K.n
    for i, mi in enumerate(miss):
        for j in range(i + 1, K.n):
            if mi | miss[j] != every:
                adjacent[i] |= 1 << j
                adjacent[j] |= 1 << i
    return index, tuple(miss), tuple(adjacent)


def _non_edges(adjacent: tuple[int, ...]) -> list[int]:
    """Masks of the vertex pairs that span no edge, ascending.

    Ascending masks order the pairs by their higher vertex, then their lower.
    """
    pairs = []
    for i, near in enumerate(adjacent):
        high = 1 << i
        lower = (high - 1) & ~near
        while lower:
            low = lower & -lower
            pairs.append(high | low)
            lower ^= low
    return pairs


def _boundary_join_blocks(miss: tuple[int, ...], every: int) -> list[int] | None:
    """The blocks B_i when K is ∂Δ(B_1) * ... * ∂Δ(B_k) * Δ(C), else None.

    ``miss`` is ``_facet_skeleton``'s tuple for a complex without ghost
    vertices, and ``every`` the bitset of all its facets.  The cone
    vertices C lie in every facet.  Each other vertex v gets the block of v
    and the vertices whose miss sets are disjoint from v's.  K is such a
    join exactly when within each block the miss sets are pairwise
    disjoint and cover every facet, so that each facet misses exactly one
    vertex of each block, and every choice of one vertex per block is the
    part some facet misses.  A facet is fixed by the choice it misses, so
    the facet count is at most the product of the block sizes; refusing a
    product above it leaves equality, so every choice is taken.  O(n^2)
    big-integer operations.
    """
    facets = every.bit_count()
    rest = 0
    for i, m in enumerate(miss):
        if m:
            rest |= 1 << i
    blocks = []
    product = 1
    while rest:
        low = rest & -rest
        mv = miss[low.bit_length() - 1]
        block, cover, total = low, mv, mv.bit_count()
        for v in _bits(rest ^ low):
            mu = miss[v - 1]
            if not mu & mv:
                block |= 1 << (v - 1)
                cover |= mu
                total += mu.bit_count()
        product *= block.bit_count()
        if cover != every or total != facets or product > facets:
            return None
        blocks.append(block)
        rest ^= block
    blocks.sort()
    return blocks


def _flag_non_edges(
    facets: tuple[int, ...], index: _MembershipIndex, adjacent: tuple[int, ...], every: int
) -> list[int] | None:
    """The non-edges when K is a flag complex, else None.

    K is flag exactly when, for every facet F and vertex v outside it,
    (F & N(v)) | {v} is a face: in a flag complex it is a clique, and a
    minimal non-face s of three or more vertices fails the test at any v
    of s and a facet F holding s - {v}.  A set of at most two vertices
    is a clique of the 1-skeleton, so only larger ones are looked up, each
    once; at most |facets| * n face tests, stopping at the first non-face.
    """
    full = (1 << len(adjacent)) - 1
    looked_up = set()
    for f in facets:
        for v in _bits(full & ~f):
            inner = f & adjacent[v - 1]
            if inner & (inner - 1):
                sigma = inner | 1 << (v - 1)
                if sigma not in looked_up:
                    if index.meeting(sigma) == every:
                        return None
                    looked_up.add(sigma)
    return _non_edges(adjacent)


def _minimal_nonface_masks(K: SimplicialComplex) -> list[int]:
    """Masks of the minimal non-faces of ``K``, ascending.

    A vertex v in no facet (a ghost) gives the one-element non-face {v}:
    it is a minimal transversal of the facet complements like any other.
    Without ghosts, boundary joins and flag complexes are recognised
    first; everything else goes through Berge's enumeration.
    """
    full = (1 << K.n) - 1
    if K.covered_vertices() == full:
        index, miss, adjacent = _facet_skeleton(K)
        every = (1 << len(K.facets)) - 1
        blocks = _boundary_join_blocks(miss, every)
        if blocks is not None:
            return blocks
        non_edges = _flag_non_edges(K.facets, index, adjacent, every)
        if non_edges is not None:
            return non_edges
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


def relabel_family(M: NonfaceFamily, I: int) -> NonfaceFamily:
    """Rank-relabel a family whose members all lie in the mask ``I`` onto 1..|I|."""
    _check_mask(I, M.n, "subset")
    for m in M.members:
        if m & ~I:
            raise InputError(f"member {list(_bits(m))} is not contained in I")
    return NonfaceFamily(I.bit_count(), [_compress_mask(m, I) for m in M.members])
