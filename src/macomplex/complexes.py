"""Finite abstract simplicial complexes stored by their maximal faces.

Vertices are the integers 1..n and every vertex subset is a plain ``int``
bitmask: bit v - 1 stands for vertex v, so cardinality, union,
intersection and containment are single word operations.  Facets,
non-faces, witnesses and the subsets given to ``full_subcomplex`` are all
such masks; vertex lists appear only where JSON is read (``_mask_of``) and
written (``list(_bits(mask))``), and the constructors accept either form
per set.  A complex is determined by its facets; every subset of a facet
is a face, and the empty set is a face of every complex.  The smallest
representable complex is {{}} (the complex whose only face is the empty
set) -- there is no "void" complex without faces.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError

MAX_VERTICES = 63


def _check_vertex_count(n) -> None:
    if type(n) is not int or not 0 <= n <= MAX_VERTICES:
        raise InputError(f"vertex count {n!r} must be an integer in 0..{MAX_VERTICES}")


def _mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a list of plain-int vertices; bools, floats and strings are rejected."""
    try:
        items = iter(vertices)
    except TypeError:
        raise InputError(f"{vertices!r} is neither a vertex mask nor a vertex list") from None
    mask = 0
    for v in items:
        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= MAX_VERTICES:
            raise InputError(f"vertex {v} out of range 1..{MAX_VERTICES}")
        mask |= 1 << (v - 1)
    return mask


def _check_mask(mask, n: int, what: str) -> int:
    """``mask`` itself if it is a vertex mask inside 1..n.

    A mask is a non-negative plain ``int``; a ``bool`` or any other type
    raises ``InputError`` rather than being coerced.
    """
    if type(mask) is not int or mask < 0:
        raise InputError(f"{what} {mask!r} is not a vertex mask")
    if mask >> n:
        raise InputError(f"{what} {list(_bits(mask))} uses a vertex above n={n}")
    return mask


def _bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _compress_mask(mask: int, within: int) -> int:
    """Rank-relabel ``mask`` (a submask of ``within``) into 1..|within|."""
    out = 0
    pos = 0
    rest = within
    while rest:
        low = rest & -rest
        if mask & low:
            out |= 1 << pos
        pos += 1
        rest ^= low
    return out


class _MembershipIndex:
    """For each vertex bit, the bitset of the indices of the sets holding it.

    Sets are numbered in the order they are added.  ``containing(m)`` ANDs
    those bitsets over the vertices of ``m`` and ``meeting(m)`` ORs them, so
    a query costs |m| big-int operations instead of a scan over every set
    (the vertex-keyed tests of Murakami & Uno, Discrete Appl. Math. 170,
    2014).
    """

    __slots__ = ("size", "_holding")

    def __init__(self, masks: Iterable[int] = ()):
        self.size = 0
        self._holding: dict[int, int] = {}
        for m in masks:
            self.add(m)

    def add(self, mask: int) -> None:
        bit = 1 << self.size
        self.size += 1
        holding = self._holding
        while mask:
            low = mask & -mask
            holding[low] = holding.get(low, 0) | bit
            mask ^= low

    def containing(self, mask: int) -> int:
        """Bitset of the indexed sets that contain ``mask``."""
        found = (1 << self.size) - 1
        while mask and found:
            low = mask & -mask
            found &= self._holding.get(low, 0)
            mask ^= low
        return found

    def meeting(self, mask: int) -> int:
        """Bitset of the indexed sets that share a vertex with ``mask``."""
        found = 0
        while mask:
            low = mask & -mask
            found |= self._holding.get(low, 0)
            mask ^= low
        return found


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal sets among ``masks``, ascending by (size, mask).

    Duplicates count once, and no sets at all give ``[0]``, the complex
    {{}}.  Two distinct sets of one size cannot contain each other, so the
    sets are visited from the largest size down and each is tested only
    against the kept sets of strictly larger size.  Those are indexed one
    size group at a time, when the next smaller size begins, so an input
    whose sets all have one size builds no index and makes no test.
    """
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    kept: list[int] = []
    larger = _MembershipIndex()
    size = None
    for m in uniq:
        if m.bit_count() != size:  # a smaller size begins: index the kept sets so far
            size = m.bit_count()
            for k in kept[larger.size :]:
                larger.add(k)
        if not larger.containing(m):
            kept.append(m)
    kept.reverse()
    return kept or [0]


class SimplicialComplex:
    """Simplicial complex on vertices 1..n, stored by facets in canonical order.

    Each facet is given as a vertex mask or a vertex list and stored as a
    mask; the facets are sorted by (cardinality, mask), so structural
    equality is complex equality.  Instances are immutable.
    """

    __slots__ = ("n", "facets")

    def __init__(self, n: int, facets: Iterable):
        _check_vertex_count(n)
        masks = [_check_mask(f if type(f) is int else _mask_of(f), n, "facet") for f in facets]
        self.n = n
        self.facets = tuple(_maximal_masks(masks))

    def covered_vertices(self) -> int:
        """Mask of the vertices that lie in some facet."""
        mask = 0
        for f in self.facets:
            mask |= f
        return mask

    def face_masks(self) -> frozenset:
        """Downward closure of the facets, as masks (2^n worst case)."""
        out = set()
        for f in self.facets:
            out.update(_submasks(f))
        return frozenset(out)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "facets": [list(_bits(f)) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        """The complex of ``{"n": int, "facets": [[int, ...], ...]}``.

        ``_mask_of`` and the constructor reject booleans, floats and numeric
        strings, so a malformed input never silently becomes another complex.
        """
        shape = "complex JSON must be {'n': int, 'facets': [[int,...],...]}"
        if not isinstance(data, dict) or "n" not in data or "facets" not in data:
            raise InputError(shape)
        lists = data["facets"]
        if not isinstance(lists, list) or not all(isinstance(vs, list) for vs in lists):
            raise InputError(f"{shape}: 'facets' must be a list of vertex lists")
        return cls(data["n"], [_mask_of(vs) for vs in lists])

    def __eq__(self, other) -> bool:
        if isinstance(other, SimplicialComplex):
            return self.n == other.n and self.facets == other.facets
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[list(_bits(f)) for f in self.facets]})"


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; the second factor is relabelled by offset K1.n.

    Faces of the join are exactly the unions of a face from each factor, so
    the facets are the pairwise unions of facets.
    """
    n = K1.n + K2.n
    if n > MAX_VERTICES:
        raise InputError(f"join would need {n} > {MAX_VERTICES} vertices")
    shift = K1.n
    return SimplicialComplex(n, [f1 | (f2 << shift) for f1 in K1.facets for f2 in K2.facets])


def full_subcomplex(K: SimplicialComplex, I: int) -> SimplicialComplex:
    """Restriction of ``K`` to the vertex mask ``I``.

    Faces of the result are the intersections of faces of K with I; the
    result is relabelled order-preservingly onto 1..|I|.
    """
    _check_mask(I, K.n, "subset")
    return SimplicialComplex(I.bit_count(), [_compress_mask(f & I, I) for f in K.facets])


def simplex(q: int) -> SimplicialComplex:
    """The full simplex with q+1 vertices."""
    if q < 0:
        raise InputError(f"simplex dimension must be >= 0, got {q}")
    _check_vertex_count(q + 1)
    return SimplicialComplex(q + 1, [(1 << (q + 1)) - 1])


def boundary_simplex(q: int) -> SimplicialComplex:
    """Boundary of the q-simplex: all q-subsets of q+1 vertices are facets.

    q = 0 degenerates to the complex {{}} on one (absent) vertex.
    """
    if q < 0:
        raise InputError(f"boundary simplex dimension must be >= 0, got {q}")
    _check_vertex_count(q + 1)
    full = (1 << (q + 1)) - 1
    return SimplicialComplex(q + 1, [full ^ (1 << i) for i in range(q + 1)])
