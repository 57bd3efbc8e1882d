"""Rational cohomology of full subcomplexes and the Betti table of Z(K).

The cohomology of the moment-angle complex Z(K; (D^2, S^1)) splits
additively over vertex subsets I: the reduced degree-j cohomology of the
full subcomplex K_I contributes in total degree j + |I| + 1.  (This
placement is forced by Z(boundary of a k-simplex) being the sphere
S^{2k+1}: the single class has I of size k+1 and j = k-1.)  The product
pairs classes with disjoint supports through a cross cochain on the union
subcomplex and vanishes whenever the supports meet.

Most subsets contribute nothing (the cone lemma).  If a vertex v of I lies
in no minimal non-face contained in I, every face of K_I stays a face when
v is added, so K_I is a cone with apex v and its reduced cohomology is
zero.  The table therefore visits only the unions of minimal non-faces,
counting a vertex in no facet as the non-face {v}; the empty set, the
empty union, carries the unit.

All linear algebra is exact: integer echelons for ranks and cocycles,
Fractions for the entries of representative cocycles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import linalg
from .complexes import SimplicialComplex, VertexSet, _bits
from .errors import InputError, ResourceError
from .nonfaces import _minimal_nonface_masks

HOCHSTER_MAX_N = 20


class CochainComplexQ:
    """Reduced simplicial cochain complex over Q of a downward-closed family.

    Faces are global-label bitmasks; the empty face sits in degree -1 and a
    face of cardinality c in degree c - 1.  Bases are sorted by bitmask, so
    every matrix, kernel vector and representative is deterministic.
    """

    def __init__(self, face_masks):
        faces = set(face_masks)
        faces.add(0)
        self.basis: dict[int, list[int]] = {}
        for m in sorted(faces):
            self.basis.setdefault(m.bit_count() - 1, []).append(m)
        self.top = max(self.basis)
        self._index: dict[int, dict[int, int]] = {}
        self._rank_cache: dict[int, int] = {}
        self._cohomology: dict[int, tuple[list[dict[int, Fraction]], list[int], dict]] = {}

    def degrees(self) -> range:
        return range(-1, self.top + 1)

    def _positions(self, j: int) -> dict[int, int]:
        """Position of each degree-j face in its basis, built on first use."""
        if j not in self._index:
            self._index[j] = {m: i for i, m in enumerate(self.basis.get(j, []))}
        return self._index[j]

    def coboundary_rows(self, j: int) -> list[dict[int, int]]:
        """Matrix of d_j : C^j -> C^{j+1} as sparse rows over the C^j basis."""
        rows = []
        index_j = self._positions(j)
        for tau in self.basis.get(j + 1, []):
            row = {}
            pos = 0
            for v in _bits(tau):
                sigma = tau ^ (1 << (v - 1))
                col = index_j[sigma]
                row[col] = 1 if pos % 2 == 0 else -1
                pos += 1
            rows.append(row)
        return rows

    def _rank(self, j: int) -> int:
        """Rank of d_j, by elimination only where both of its spaces can be non-zero.

        C^j is zero below degree -1 and C^{j+1} is zero from degree ``top``
        on.  d_{-1} sends the empty face to the sum of the vertices, so it
        has rank 1 whenever j = -1 < top, that is, whenever there is a vertex.
        The rows go to elimination in descending face order, which makes far
        less fill-in than ascending order (tenfold less time on the cross
        polytope of dimension 8).
        """
        if j < -1 or j >= self.top:
            return 0
        if j == -1:
            return 1
        if j not in self._rank_cache:
            self._rank_cache[j] = linalg.rank_sparse(self.coboundary_rows(j)[::-1])
        return self._rank_cache[j]

    def betti(self, j: int) -> int:
        dim_j = len(self.basis.get(j, []))
        if dim_j == 0:
            return 0
        return dim_j - self._rank(j) - self._rank(j - 1)

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
        masks = self.basis.get(j, [])
        cocycle_pivots = linalg.echelon(self.coboundary_rows(j)[::-1])
        free = [c for c in range(len(masks)) if c not in cocycle_pivots]
        # column -f stands for free column f, so the echelon keys each row by its largest
        columns: dict[int, dict[int, int]] = {}
        lower = self.coboundary_rows(j - 1)  # one row per j-face
        for f in free:
            for col, v in lower[f].items():
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
            reps.append({masks[c]: x[c] for c in sorted(x)})
        self._cohomology[j] = (reps, kept, image)
        return reps

    def reduce_cocycle(self, j: int, cochain: dict[int, Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of a degree-j cocycle in the representative basis.

        One pass against the cached coboundary echelon, from the largest free
        column down, leaves the cocycle's values on the kept columns.  Every
        cocycle lies in the kernel, which its entries on F coordinatise, so
        every cocycle reduces.
        """
        index = self._positions(j)
        vec = {}
        for m, v in cochain.items():
            if m not in index:
                raise InputError("cochain supported outside the subcomplex")
            vec[index[m]] = Fraction(v)
        for row in self.coboundary_rows(j):
            if sum(v * vec.get(c, 0) for c, v in row.items()) != 0:
                raise InputError("cochain is not a cocycle")
        self.representatives(j)
        _, kept, image = self._cohomology[j]
        residual = {-c: v for c, v in vec.items()}  # entries off F are never read
        for key in sorted(image):
            v = residual.get(key)
            if v:
                row = image[key]
                q = v / row[key]
                for c, w in row.items():
                    residual[c] = residual.get(c, 0) - q * w
        return tuple(residual.get(-k, Fraction(0)) for k in kept)

    def validate(self) -> None:
        """Assert d_j o d_{j-1} = 0 for every degree."""
        d = self.coboundary_rows
        for j in self.degrees():
            assert linalg.product_is_zero(d(j), d(j - 1)), f"d o d != 0 in degree {j - 1}"


class CohomologyClass:
    """A cohomology class of some K_I, carried by a representative cocycle."""

    __slots__ = ("subset", "degree", "cochain", "coords", "table")

    def __init__(self, subset, degree, cochain, coords, table):
        self.subset = subset
        self.degree = degree
        self.cochain = cochain
        self.coords = coords
        self.table = table

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    @property
    def total_degree(self) -> int:
        return self.degree + len(self.subset) + 1

    def __repr__(self) -> str:
        return (
            f"CohomologyClass(I={list(self.subset.vertices())}, j={self.degree}, "
            f"coords={[str(c) for c in self.coords]})"
        )


def _full_subcomplex(facets: list[int], I: int) -> CochainComplexQ:
    """Cochain complex of K_I: the facet masks cut to I, with all their submasks."""
    faces: set[int] = set()
    for top in {f & I for f in facets}:
        sub = top
        while sub:  # inline: a submask generator per cut facet costs a fifth more on cycles
            faces.add(sub)
            sub = (sub - 1) & top
    return CochainComplexQ(faces)


class HochsterTable:
    """Additive decomposition of H^*(Z(K); Q) indexed by (I, degree)."""

    def __init__(self, facets: list[int], entries: dict, betti: list[int]):
        self.entries = entries
        self.betti = betti
        self._facets = facets
        self._cochains: dict[int, CochainComplexQ] = {}

    def cochain_complex(self, I: VertexSet) -> CochainComplexQ:
        mask = I.mask
        if mask not in self._cochains:
            self._cochains[mask] = _full_subcomplex(self._facets, mask)
        return self._cochains[mask]

    def dimension(self, I: VertexSet, j: int) -> int:
        return self.entries.get((I.mask, j), 0)

    def classes(self, I: VertexSet, j: int) -> list[CohomologyClass]:
        cx = self.cochain_complex(I)
        reps = cx.representatives(j)
        k = len(reps)
        out = []
        for i, rep in enumerate(reps):
            coords = tuple(Fraction(1 if t == i else 0) for t in range(k))
            out.append(CohomologyClass(I, j, rep, coords, self))
        return out

    def unit(self) -> CohomologyClass:
        """The ring unit: the empty-subset summand in total degree 0."""
        return CohomologyClass(
            VertexSet(), -1, {0: Fraction(1)}, (Fraction(1),), self
        )

    def positive_entries(self) -> list[tuple[VertexSet, int, int]]:
        """Entries of positive total degree, i.e. all with nonempty I."""
        out = []
        for (mask, j), dim in sorted(self.entries.items()):
            if mask:
                out.append((VertexSet.from_mask(mask), j, dim))
        return out

    def to_json_dict(self) -> dict:
        entries = [
            {"I": list(VertexSet.from_mask(mask).vertices()), "j": j, "dim": dim}
            for (mask, j), dim in sorted(self.entries.items())
        ]
        return {"entries": entries, "betti": list(self.betti)}


def _unions_of_minimal_nonfaces(K: SimplicialComplex) -> Iterator[int]:
    """Masks of the subsets of 1..n that are unions of minimal non-faces, ascending.

    A vertex in no facet counts as the one-element non-face {v}, and the
    empty set, the empty union, comes first.  The test runs on truth tables
    over all 2^n subsets at once, bit I of an integer standing for subset I:
    ``inside[v]`` holds where v lies in I and ``covered[v]`` where some
    minimal non-face containing v lies in I.  A subset is a union exactly
    when ``covered[v]`` holds for every vertex v of I, so the work is a few
    big-integer operations per vertex of each non-face rather than a test
    per subset.
    """
    n = K.n
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
    for m in _minimal_nonface_masks(K):
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
    an I contributes no entry.
    """
    if K.n > HOCHSTER_MAX_N:
        raise ResourceError(
            f"table needs 2^{K.n} subcomplexes; limit is n <= {HOCHSTER_MAX_N}"
        )
    facets = [f.mask for f in K.facets]
    entries: dict[tuple[int, int], int] = {}
    betti_acc: dict[int, int] = {}
    for I in _unions_of_minimal_nonfaces(K):
        cx = _full_subcomplex(facets, I)
        size = I.bit_count()
        for j in cx.degrees():
            dim = cx.betti(j)
            if dim:
                entries[(I, j)] = dim
                deg = j + size + 1
                betti_acc[deg] = betti_acc.get(deg, 0) + dim
    top = max(betti_acc)
    betti = [betti_acc.get(d, 0) for d in range(top + 1)]
    return HochsterTable(facets, entries, betti)


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
    alpha: CohomologyClass, beta: CohomologyClass, table: HochsterTable
) -> CohomologyClass:
    """Product of two classes in the decomposition of H^*(Z(K)).

    Zero whenever the supports intersect.  Otherwise the representative of
    the result is the cross cochain (alpha x beta)(sigma) =
    +-alpha(sigma cap J) * beta(sigma cap L) on the union subcomplex, with
    the shuffle sign of the interleaving and a fixed (-1)^((p+1)q) degree
    shift; the class is then expressed in the chosen representative basis.
    """
    if alpha.table is not table or beta.table is not table:
        raise InputError("classes do not belong to the supplied table")
    J = alpha.subset.mask
    L = beta.subset.mask
    p = alpha.degree
    q = beta.degree
    union = VertexSet.from_mask(J | L)
    r = p + q + 1
    if J & L:
        dim = table.dimension(union, r)
        return CohomologyClass(union, r, {}, (Fraction(0),) * dim, table)
    cx = table.cochain_complex(union)
    global_sign = -1 if ((p + 1) * q) % 2 else 1
    cochain: dict[int, Fraction] = {}
    for tau in cx.basis.get(r, []):
        sj = tau & J
        if sj.bit_count() != p + 1:
            continue
        sl = tau & L
        a = alpha.cochain.get(sj, Fraction(0))
        if a == 0:
            continue
        b = beta.cochain.get(sl, Fraction(0))
        if b == 0:
            continue
        value = global_sign * _shuffle_sign(tau, sj) * a * b
        if value != 0:
            cochain[tau] = value
    coords = cx.reduce_cocycle(r, cochain)
    return CohomologyClass(union, r, cochain, coords, table)


def star_product_scan(table: HochsterTable):
    """Evaluate every product of two positive-degree classes.

    Returns (certificate_of_first_nonzero_or_None, number_of_products).
    Products whose supports intersect are zero by the pairing rule and are
    counted without building a cochain.
    """
    positive = table.positive_entries()
    count = 0
    for ai, (I1, j1, dim1) in enumerate(positive):
        for I2, j2, dim2 in positive[ai:]:
            if I1.mask & I2.mask:
                count += dim1 * dim2
                continue
            for alpha in table.classes(I1, j1):
                for beta in table.classes(I2, j2):
                    count += 1
                    product = star_product(alpha, beta, table)
                    if not product.is_zero:
                        certificate = {
                            "kind": "nonzero_product",
                            "J": list(I1.vertices()),
                            "p": j1,
                            "L": list(I2.vertices()),
                            "q": j2,
                            "degree": product.total_degree,
                        }
                        return certificate, count
    return None, count


def is_trivial_ring(K: SimplicialComplex) -> tuple[bool, dict]:
    """Whether all products of positive-degree classes of H^*(Z(K)) vanish.

    Fast path: if no two subsets with nonzero reduced cohomology are
    disjoint, every product is zero by the pairing rule alone.  Otherwise
    all products are evaluated and the first nonzero one is certified.
    """
    table = hochster_table(K)
    positive = table.positive_entries()
    has_disjoint = any(
        a[0].mask & b[0].mask == 0
        for i, a in enumerate(positive)
        for b in positive[i:]
    )
    if not has_disjoint:
        return True, {
            "kind": "disjoint_supports_absent",
            "positive_entries": len(positive),
        }
    certificate, count = star_product_scan(table)
    if certificate is not None:
        return False, certificate
    return True, {"kind": "all_products_vanish", "products_checked": count}
