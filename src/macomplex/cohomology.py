"""Rational cohomology of full subcomplexes and the Betti table of Z(K).

The cohomology of the moment-angle complex Z(K; (D^2, S^1)) splits
additively over vertex subsets I: the reduced degree-j cohomology of the
full subcomplex K_I contributes in total degree j + |I| + 1.  (This
placement is forced by Z(boundary of a k-simplex) being the sphere
S^{2k+1}: the single class has I of size k+1 and j = k-1.)  The product
vanishes whenever the supports meet.  For disjoint vertex masks J and L it
is induced by K_{J|L} -> K_J * K_L: ``star_product`` takes two
representative cocycles, {face mask: value}, builds their cross cochain on
K_{J|L} with a Koszul sign, and returns its coordinates there.  Classes of
degrees p and q multiply into H~^{p+q+1}(K_{J|L}), so the ring scan skips
every pair whose target has no table entry (the zero-target rule): that
group is zero, or K_{J|L} is a cone.

Most subsets contribute nothing (the cone lemma).  If a vertex v of I lies
in no minimal non-face contained in I, every face of K_I stays a face when
v is added, so K_I is a cone with apex v and its reduced cohomology is
zero.  The table therefore visits only the unions of minimal non-faces,
counting a vertex in no facet as the non-face {v}; the empty set, the
empty union, carries the unit.

The table makes one lean pass.  For each visited I, ``_faces_within``
filters K's per-degree face lists to I once, and ``_reduced_betti`` reads
all reduced Betti numbers of K_I from those lists in one call; no cochain
complex object is built for a subset.  The same filter serves
``CochainComplexQ.restrict``, which the ring scan uses for the few K_I
whose cocycles it needs.  Columns are face masks, so each face's boundary
row is built once for every K_I.  All linear algebra is exact: rank 1 for
d_{-1}, a spanning forest for d_0, integer echelons for the other ranks
and for cocycles, Fractions for representatives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import linalg
from .complexes import SimplicialComplex, _bits
from .errors import InputError, ResourceError
from .nonfaces import _minimal_nonface_masks, _nonfaces_pairwise_intersect

HOCHSTER_MAX_N = 20


def _faces_within(basis: dict[int, list[int]], I: int) -> dict[int, list[int]]:
    """The faces of ``basis`` inside the vertex mask ``I``: those of the full subcomplex.

    ``basis`` maps each degree, ascending from -1, to its face masks in
    ascending order, and so does the result.
    """
    outside = ~I
    within = {}
    for j, masks in basis.items():
        inside = [m for m in masks if not m & outside]
        if not inside:  # degrees ascend; a larger face inside I would have j-faces inside I
            break
        within[j] = inside
    return within


def _reduced_betti(basis: dict[int, list[int]], row) -> list[int]:
    """Reduced Betti numbers b_{-1}, ..., b_top of the complex whose faces are ``basis``.

    ``basis`` is as ``_faces_within`` returns it and ``row(tau)`` is the
    signed boundary row of the face tau.  b_j = dim C^j - rank d_j - rank
    d_{j-1}, and the ranks take shortcuts where they can.  C^j is zero
    below degree -1 and C^{j+1} is zero from degree ``top`` on.  d_{-1}
    sends the empty face to the sum of the vertices, so it has rank 1
    whenever there is a vertex.  d_0 is the incidence matrix of the
    1-skeleton, whose rank is its vertex count minus its component count:
    the edges of a spanning forest.  Higher degrees go to elimination in
    descending face order, which makes far less fill-in than ascending
    order (tenfold less time on the cross polytope of dimension 8).
    """
    dims = [*map(len, basis.values())]
    if len(dims) < 3:  # no edge: b_{-1} = 1 without a vertex, else b_0 = vertices - 1
        return dims if len(dims) == 1 else [0, dims[1] - 1]
    rank = _spanning_forest_edges(basis[1])  # of d_0
    betti = [0, dims[1] - 1 - rank]
    for j in range(1, len(dims) - 2):
        lower, rank = rank, linalg.rank_sparse([*map(row, reversed(basis[j + 1]))])
        betti.append(dims[j + 1] - rank - lower)
    betti.append(dims[-1] - rank)  # d_top is zero
    return betti


def _spanning_forest_edges(edges: list[int]) -> int:
    """Edges of a spanning forest of the graph with the two-vertex masks ``edges``, ascending.

    Union-find keeps a parent only for a vertex that is not a root, so no
    vertex list is needed.
    """
    parent: dict[int, int] = {}
    count = 0
    for edge in edges:
        a = edge & -edge
        b = edge ^ a
        while a in parent:  # path halving: re-point a at its grandparent and step there
            up = parent[a]
            parent[a] = a = parent.get(up, up)
        # b is still a root: edges ascend by top vertex, and only roots below it are re-pointed
        if a != b:
            parent[a] = b
            count += 1
    return count


class CochainComplexQ:
    """Reduced simplicial cochain complex over Q of a downward-closed family.

    Faces are global-label bitmasks; the empty face sits in degree -1 and a
    face of cardinality c in degree c - 1.  Bases are sorted by bitmask, so
    every matrix, kernel vector and representative is deterministic.  Matrix
    columns are face masks, not positions, so a face's signed boundary row
    is the same in every complex holding it; ``restrict`` shares the row
    cache.  Mask order is position order, so echelons pick the same pivots.
    """

    def __init__(self, face_masks):
        faces = set(face_masks)
        faces.add(0)
        basis: dict[int, list[int]] = {}
        for m in sorted(faces):
            basis.setdefault(m.bit_count() - 1, []).append(m)
        self._setup(basis, {})

    def _setup(self, basis: dict[int, list[int]], rows: dict[int, dict[int, int]]) -> None:
        self.basis = basis
        self._rows = rows  # face mask -> its boundary row, shared by restrictions
        self._cohomology: dict[int, tuple[list[dict[int, Fraction]], list[int], dict]] = {}

    def restrict(self, I: int) -> "CochainComplexQ":
        """The full subcomplex on vertex mask ``I``, sharing this complex's row cache."""
        sub = object.__new__(CochainComplexQ)
        sub._setup(_faces_within(self.basis, I), self._rows)
        return sub

    def _row(self, tau: int) -> dict[int, int]:
        """Signed boundary faces of ``tau``, {face mask: +-1}, built on first use."""
        row = self._rows.get(tau)
        if row is None:
            row = self._rows[tau] = {
                tau ^ (1 << (v - 1)): 1 if pos % 2 == 0 else -1
                for pos, v in enumerate(_bits(tau))
            }
        return row

    def coboundary_rows(self, j: int) -> list[dict[int, int]]:
        """Matrix of d_j : C^j -> C^{j+1}, one row per (j+1)-face, columns keyed by j-face mask."""
        return [self._row(tau) for tau in self.basis.get(j + 1, [])]

    def representatives(self, j: int) -> list[dict[int, Fraction]]:
        """Cocycle representatives spanning degree-j cohomology.

        The echelon of d_j leaves free columns F; the kernel basis has one
        vector per free column f (1 at f, 0 at the other free columns), so a
        cocycle's coordinates are its entries on F.  The coboundaries, read
        on F, go through a second echelon keyed by their largest column; the
        free columns it leaves are kept, exactly the kernel vectors that
        enlarge the span of the coboundaries and of the vectors before them.
        Each kept column gives a representative by back-substitution.
        """
        if j in self._cohomology:
            return self._cohomology[j][0]
        cocycle_pivots = linalg.echelon(self.coboundary_rows(j)[::-1])
        free = [m for m in self.basis.get(j, []) if m not in cocycle_pivots]
        # column -f stands for free column f, so the echelon keys each row by its largest
        columns: dict[int, dict[int, int]] = {}
        for f in free:
            for col, v in self._row(f).items():  # f's entries in the columns of d_{j-1}
                columns.setdefault(col, {})[-f] = v
        image = linalg.echelon(columns.values())
        kept = [f for f in free if -f not in image]
        reps: list[dict[int, Fraction]] = []
        descending = sorted(cocycle_pivots, reverse=True)
        for k in kept:
            x = {k: Fraction(1)}
            for p in descending:
                if p < k:  # a pivot row's other columns lie above its pivot
                    row = cocycle_pivots[p]
                    total = sum(v * x[c] for c, v in row.items() if c in x)
                    if total:
                        x[p] = -total / row[p]
            reps.append({c: x[c] for c in sorted(x)})
        self._cohomology[j] = (reps, kept, image)
        return reps

    def reduce_cocycle(self, j: int, cochain: dict[int, Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of a degree-j cocycle in the representative basis.

        One pass against the cached coboundary echelon, from the largest free
        column down, leaves the cocycle's values on the kept columns.  Every
        cocycle lies in the kernel, which its entries on F coordinatise, so
        every cocycle reduces.
        """
        if not cochain.keys() <= set(self.basis.get(j, [])):
            raise InputError("cochain supported outside the subcomplex")
        for row in self.coboundary_rows(j):
            if sum(v * cochain.get(c, 0) for c, v in row.items()) != 0:
                raise InputError("cochain is not a cocycle")
        self.representatives(j)
        _, kept, image = self._cohomology[j]
        residual = {-c: Fraction(v) for c, v in cochain.items()}  # entries off F are never read
        for key in sorted(image):
            v = residual.get(key)
            if v:
                row = image[key]
                q = v / row[key]
                for c, w in row.items():
                    residual[c] = residual.get(c, 0) - q * w
        return tuple(residual.get(-k, Fraction(0)) for k in kept)


class HochsterTable:
    """Additive decomposition of H^*(Z(K); Q) indexed by (I mask, degree).

    ``nonfaces`` keeps the masks of K's minimal non-faces, ghost singletons
    included, that chose the visited subsets.
    """

    def __init__(
        self, whole: CochainComplexQ, entries: dict, betti: list[int], nonfaces: list[int]
    ):
        self.entries = entries
        self.betti = betti
        self.nonfaces = nonfaces
        self._whole = whole
        self._cochains: dict[int, CochainComplexQ] = {}

    def cochain_complex(self, I: int) -> CochainComplexQ:
        """The cochain complex of K_I for the vertex mask ``I``, restricted once and kept."""
        if I not in self._cochains:
            self._cochains[I] = self._whole.restrict(I)
        return self._cochains[I]

    def positive_entries(self) -> list[tuple[int, int, int]]:
        """(I mask, j, dim) of positive total degree, i.e. all with nonempty I."""
        return [(I, j, dim) for (I, j), dim in self.entries.items() if I]

    def to_json_dict(self) -> dict:
        entries = [
            {"I": list(_bits(I)), "j": j, "dim": dim}
            for (I, j), dim in self.entries.items()
        ]
        return {"entries": entries, "betti": list(self.betti)}


def _unions_of_minimal_nonfaces(n: int, nonfaces: list[int]) -> Iterator[int]:
    """Masks of the subsets of 1..n that are unions of the masks ``nonfaces``, ascending.

    ``nonfaces`` are the minimal non-faces of a complex on 1..n, where a
    vertex in no facet counts as the one-element non-face {v}; the empty
    set, the empty union, comes first.  The test runs on truth tables
    over all 2^n subsets at once, bit I of an integer standing for subset I:
    ``inside[v]`` holds where v lies in I and ``covered[v]`` where some
    minimal non-face containing v lies in I.  A subset is a union exactly
    when ``covered[v]`` holds for every vertex v of I, so the work is a few
    big-integer operations per vertex of each non-face rather than a test
    per subset.
    """
    every = (1 << (1 << n)) - 1
    inside = []
    for v in range(n):
        period = 2 << v
        # one period of 2^(v+1) subsets: 2^v without v, then 2^v with it
        table = ((1 << (1 << v)) - 1) << (1 << v)
        while period < 1 << n:
            table |= table << period
            period *= 2
        inside.append(table)
    covered = [0] * n
    for m in nonfaces:
        within = every
        for v in _bits(m):
            within &= inside[v - 1]
        for v in _bits(m):
            covered[v - 1] |= within
    unions = every
    for v in range(n):
        unions &= ~inside[v] | covered[v]
    for I, bit in enumerate(reversed(format(unions, "b"))):
        if bit == "1":
            yield I


def hochster_table(K: SimplicialComplex) -> HochsterTable:
    """Aggregate reduced Betti numbers of the full subcomplexes of ``K``.

    Only subsets I that are unions of minimal non-faces are visited.  If a
    vertex v of I lies in no minimal non-face inside I, then adding v to any
    face of K_I gives a face, so K_I is a cone with apex v and has no reduced
    cohomology (Buchstaber & Panov, Toric Topology, AMS 2015, Ch. 4); such
    an I contributes no entry.  The entries go in ascending (I, j) order,
    which the table's readers keep: ascending unions, each with its degrees
    upwards from -1.
    """
    if K.n > HOCHSTER_MAX_N:
        raise ResourceError(
            "table finds the unions of minimal non-faces on truth tables of "
            f"2^{K.n} bits; limit is n <= {HOCHSTER_MAX_N}"
        )
    nonfaces = _minimal_nonface_masks(K)
    whole = CochainComplexQ(K.face_masks())
    basis, row = whole.basis, whole._row
    entries: dict[tuple[int, int], int] = {}
    betti = [0] * (2 * K.n + 2)  # degree j + |I| + 1 <= 2n
    for I in _unions_of_minimal_nonfaces(K.n, nonfaces):
        shift = I.bit_count() + 1
        j = -1
        for dim in _reduced_betti(_faces_within(basis, I), row):
            if dim:
                entries[(I, j)] = dim
                betti[j + shift] += dim
            j += 1
    while not betti[-1]:
        betti.pop()
    return HochsterTable(whole, entries, betti, nonfaces)


def hochster_betti(K: SimplicialComplex) -> list[int]:
    """Betti numbers of Z(K; (D^2, S^1)) by total degree (trailing zeros trimmed)."""
    return list(hochster_table(K).betti)


def _shuffle_sign(tau: int, part_j: int) -> int:
    """Parity of interleaving the J-part into the L-part along ascending tau."""
    inversions = 0
    seen_l = 0
    rest = tau
    while rest:
        low = rest & -rest
        if part_j & low:
            inversions += seen_l
        else:
            seen_l += 1
        rest ^= low
    return -1 if inversions % 2 else 1


def star_product(
    table: HochsterTable,
    J: int,
    p: int,
    alpha: dict[int, Fraction],
    L: int,
    q: int,
    beta: dict[int, Fraction],
) -> tuple[Fraction, ...]:
    """Product of alpha in H~^p(K_J) and beta in H~^q(K_L), for disjoint J and L.

    ``alpha`` and ``beta`` are cocycles, {face mask: value}.  The product is
    the cross cochain (alpha x beta)(tau) = +-alpha(tau & J) * beta(tau & L)
    on K_{J|L}, in degree p + q + 1, returned as its coordinates on that
    complex's representatives.  The sign at tau is the shuffle sign of its
    J-part into its L-part, times the shuffle sign eps(J, L) of J into J | L
    and (-1)^((p+1)(q+|L|+1)), the Koszul sign of alpha's suspension
    coordinate passing beta.  With it the product is graded commutative and
    associative in the Z(K) degrees j + |I| + 1.  Classes whose supports
    meet multiply to zero; that rule belongs to the caller, and such
    supports raise ``InputError``.
    """
    if J & L:
        raise InputError("supports meet; the product of such classes is zero")
    r = p + q + 1
    cx = table.cochain_complex(J | L)
    sign = _shuffle_sign(J | L, J) * (-1 if (p + 1) * (q + L.bit_count() + 1) % 2 else 1)
    cochain: dict[int, Fraction] = {}
    for tau in cx.basis.get(r, []):
        sj = tau & J
        if sj.bit_count() != p + 1:
            continue
        a = alpha.get(sj)
        b = beta.get(tau & L)
        if a and b:
            cochain[tau] = sign * _shuffle_sign(tau, sj) * a * b
    return cx.reduce_cocycle(r, cochain)


def star_product_scan(table: HochsterTable):
    """Evaluate every product of two positive-degree classes.

    Returns (certificate_of_first_nonzero_or_None, number_of_products).
    Products whose supports intersect are zero by the pairing rule, and so
    are products whose target H~^{p+q+1}(K_{J|L}) has no table entry: that
    group is zero, or J | L is not a union of minimal non-faces and K_{J|L}
    is a cone.  Both kinds are counted without building a cochain.
    """
    positive = table.positive_entries()
    count = 0
    for ai, (J, p, dim1) in enumerate(positive):
        for L, q, dim2 in positive[ai:]:
            if J & L or (J | L, p + q + 1) not in table.entries:
                count += dim1 * dim2
                continue
            for alpha in table.cochain_complex(J).representatives(p):
                for beta in table.cochain_complex(L).representatives(q):
                    count += 1
                    if any(star_product(table, J, p, alpha, L, q, beta)):
                        certificate = {
                            "kind": "nonzero_product",
                            "J": list(_bits(J)),
                            "p": p,
                            "L": list(_bits(L)),
                            "q": q,
                            "degree": p + q + (J | L).bit_count() + 2,
                        }
                        return certificate, count
    return None, count


def is_trivial_ring(K: SimplicialComplex) -> tuple[bool, dict]:
    """Whether all products of positive-degree classes of H^*(Z(K)) vanish.

    Fast path: if every two minimal non-faces meet, so do every two
    supports with nonzero reduced cohomology (each is a union of minimal
    non-faces, and each minimal non-face is one), and every product is
    zero by the pairing rule alone.  Otherwise all products are evaluated
    and the first nonzero one is certified.
    """
    table = hochster_table(K)
    if _nonfaces_pairwise_intersect(table.nonfaces):
        return True, {
            "kind": "disjoint_supports_absent",
            "positive_entries": len(table.positive_entries()),
        }
    certificate, count = star_product_scan(table)
    if certificate is not None:
        return False, certificate
    return True, {"kind": "all_products_vanish", "products_checked": count}
