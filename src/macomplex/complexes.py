"""Finite abstract simplicial complexes stored by their maximal faces.

Vertices are the integers 1..n and every vertex subset is a bitmask, so
cardinality, union, intersection and containment are single word
operations.  A complex is determined by its facets; every subset of a
facet is a face, and the empty set is a face of every complex.  The
smallest representable complex is {{}} (the complex whose only face is
the empty set) -- there is no "void" complex without faces.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError

MAX_VERTICES = 63


def _check_vertex_count(n) -> None:
    if type(n) is not int or not 0 <= n <= MAX_VERTICES:
        raise InputError(f"vertex count {n!r} must be an integer in 0..{MAX_VERTICES}")


def _mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of plain-int vertices; bools, floats and strings are rejected."""
    mask = 0
    for v in vertices:
        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= MAX_VERTICES:
            raise InputError(f"vertex {v} out of range 1..{MAX_VERTICES}")
        mask |= 1 << (v - 1)
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


class VertexSet:
    """Immutable subset of {1, ..., 63} backed by a bitmask."""

    __slots__ = ("mask",)

    def __init__(self, vertices: Iterable[int] = ()):
        if isinstance(vertices, VertexSet):
            self.mask = vertices.mask
        else:
            self.mask = _mask_of(vertices)

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
        if mask < 0 or mask >> MAX_VERTICES:
            raise InputError(f"bitmask {mask} out of range for {MAX_VERTICES} vertices")
        vs = cls.__new__(cls)
        vs.mask = mask
        return vs

    def vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def intersects(self, other: "VertexSet") -> bool:
        return bool(self.mask & other.mask)

    def isdisjoint(self, other: "VertexSet") -> bool:
        return not self.mask & other.mask

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 1 <= v <= MAX_VERTICES and bool(self.mask >> (v - 1) & 1)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & ~other.mask)

    def __le__(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, VertexSet):
            return self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"VertexSet({list(self.vertices())})"


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


def _parse_json(data, what: str, key: str) -> tuple[int, list[VertexSet]]:
    """``data["n"]`` and the vertex sets listed under ``data[key]``.

    Numbers must be plain JSON integers.  ``VertexSet`` and the constructors
    reject booleans, floats and numeric strings rather than coerce them, so
    a malformed input never silently becomes some other complex.
    """
    shape = f"{what} JSON must be {{'n': int, '{key}': [[int,...],...]}}"
    if not isinstance(data, dict) or "n" not in data or key not in data:
        raise InputError(shape)
    lists = data[key]
    if not isinstance(lists, list) or not all(isinstance(vs, list) for vs in lists):
        raise InputError(f"{shape}: '{key}' must be a list of vertex lists")
    return data["n"], [VertexSet(vs) for vs in lists]


class SimplicialComplex:
    """Simplicial complex on vertices 1..n, stored by facets in canonical order.

    Facets are sorted by (cardinality, bitmask), so structural equality is
    complex equality.  Instances are immutable and safe to share between
    threads.
    """

    __slots__ = ("n", "facets")

    def __init__(self, n: int, facets: Iterable):
        _check_vertex_count(n)
        masks = []
        for f in facets:
            vs = f if isinstance(f, VertexSet) else VertexSet(f)
            if vs.mask >> n:
                raise InputError(
                    f"facet {list(vs.vertices())} uses a vertex above n={n}"
                )
            masks.append(vs.mask)
        self.n = n
        self.facets = tuple(VertexSet.from_mask(m) for m in _maximal_masks(masks))

    def is_face(self, sigma: VertexSet) -> bool:
        m = sigma.mask
        return any(m & ~f.mask == 0 for f in self.facets)

    def covered_vertices(self) -> VertexSet:
        mask = 0
        for f in self.facets:
            mask |= f.mask
        return VertexSet.from_mask(mask)

    def face_masks(self) -> frozenset:
        """Downward closure of the facets, as raw bitmasks (2^n worst case)."""
        out = set()
        for f in self.facets:
            out.update(_submasks(f.mask))
        return frozenset(out)

    def faces(self) -> list[VertexSet]:
        masks = sorted(self.face_masks(), key=lambda m: (m.bit_count(), m))
        return [VertexSet.from_mask(m) for m in masks]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "facets": [list(f.vertices()) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        return cls(*_parse_json(data, "complex", "facets"))

    def __eq__(self, other) -> bool:
        if isinstance(other, SimplicialComplex):
            return self.n == other.n and self.facets == other.facets
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[list(f.vertices()) for f in self.facets]})"


def from_facets(n: int, facets: Iterable) -> SimplicialComplex:
    """Build a complex from a (possibly redundant) facet list."""
    return SimplicialComplex(n, facets)


def is_face(K: SimplicialComplex, sigma: VertexSet) -> bool:
    """True iff ``sigma`` is contained in some facet; the empty set always is."""
    return K.is_face(sigma)


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; the second factor is relabelled by offset K1.n.

    Faces of the join are exactly the unions of a face from each factor, so
    the facets are the pairwise unions of facets.
    """
    n = K1.n + K2.n
    if n > MAX_VERTICES:
        raise InputError(f"join would need {n} > {MAX_VERTICES} vertices")
    shift = K1.n
    facets = [
        VertexSet.from_mask(f1.mask | (f2.mask << shift))
        for f1 in K1.facets
        for f2 in K2.facets
    ]
    return SimplicialComplex(n, facets)


def full_subcomplex(K: SimplicialComplex, I: VertexSet) -> SimplicialComplex:
    """Restriction of ``K`` to the vertex subset ``I``.

    Faces of the result are the intersections of faces of K with I; the
    result is relabelled order-preservingly onto 1..|I|.
    """
    if I.mask >> K.n:
        raise InputError(f"subset {list(I.vertices())} not contained in 1..{K.n}")
    facets = [VertexSet.from_mask(_compress_mask(f.mask & I.mask, I.mask)) for f in K.facets]
    return SimplicialComplex(len(I), facets)


def simplex(q: int) -> SimplicialComplex:
    """The full simplex with q+1 vertices."""
    if q < 0:
        raise InputError(f"simplex dimension must be >= 0, got {q}")
    _check_vertex_count(q + 1)
    full = (1 << (q + 1)) - 1
    return SimplicialComplex(q + 1, [VertexSet.from_mask(full)])


def boundary_simplex(q: int) -> SimplicialComplex:
    """Boundary of the q-simplex: all q-subsets of q+1 vertices are facets.

    q = 0 degenerates to the complex {{}} on one (absent) vertex.
    """
    if q < 0:
        raise InputError(f"boundary simplex dimension must be >= 0, got {q}")
    _check_vertex_count(q + 1)
    full = (1 << (q + 1)) - 1
    facets = [VertexSet.from_mask(full ^ (1 << i)) for i in range(q + 1)]
    return SimplicialComplex(q + 1, facets)


def relabel_complex(K: SimplicialComplex, mapping: dict) -> SimplicialComplex:
    """Apply a vertex bijection {1..n} -> {1..n} to all facets."""
    if sorted(mapping) != list(range(1, K.n + 1)) or sorted(mapping.values()) != list(
        range(1, K.n + 1)
    ):
        raise InputError("mapping must be a bijection of 1..n")
    facets = [VertexSet(mapping[v] for v in f) for f in K.facets]
    return SimplicialComplex(K.n, facets)


def rank_relabel(subset: VertexSet, within: VertexSet) -> VertexSet:
    """Relabel ``subset`` (contained in ``within``) onto 1..|within| by rank."""
    if subset.mask & ~within.mask:
        raise InputError("subset is not contained in the relabelling domain")
    return VertexSet.from_mask(_compress_mask(subset.mask, within.mask))
