"""Independent brute-force oracles used to compute and freeze expected values.

Everything here starts from first definitions (explicit downward closures,
full subset scans, naive polynomial arithmetic over frozensets and lists)
and deliberately avoids the package's optimised representations, so each
test compares two genuinely different routes to the same answer.  The one
exception, the unskipped ring scan, reuses ``star_product`` and drops only
the shortcut it is compared against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from hypothesis import strategies as st

from macomplex import NonfaceFamily, SimplicialComplex, reconstruct, star_product


def vertices_of(mask: int) -> list[int]:
    """The vertices (bit v - 1 stands for vertex v) of a mask, ascending."""
    return [b + 1 for b in range(mask.bit_length()) if mask >> b & 1]


def mask_of(vertices) -> int:
    """The mask of a collection of vertices."""
    return sum(1 << (v - 1) for v in set(vertices))


# ---------------------------------------------------------------------------
# faces and minimal non-faces by direct definition


def brute_faces(K: SimplicialComplex) -> set[frozenset]:
    """Downward closure enumerated subset-by-subset from the facet list."""
    faces = set()
    for facet in K.facets:
        vs = vertices_of(facet)
        for r in range(len(vs) + 1):
            for combo in combinations(vs, r):
                faces.add(frozenset(combo))
    return faces


def brute_minimal_nonfaces(K: SimplicialComplex) -> set[frozenset]:
    """Subsets that are not faces although every proper subset is.

    Includes singletons when the complex has absent vertices; the caller
    decides whether that is an error.
    """
    faces = brute_faces(K)
    out = set()
    for size in range(1, K.n + 1):
        for combo in combinations(range(1, K.n + 1), size):
            s = frozenset(combo)
            if s in faces:
                continue
            if all(s - {v} in faces for v in s):
                out.add(s)
    return out


def brute_reconstruct_facets(members, n: int) -> set[frozenset]:
    """Maximal subsets of 1..n containing no member, via a full subset scan."""
    members = [frozenset(m) for m in members]
    faces = []
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            s = frozenset(combo)
            if not any(m <= s for m in members):
                faces.append(s)
    return {f for f in faces if not any(f < g for g in faces)}


def facet_sets(K: SimplicialComplex) -> set[frozenset]:
    return {frozenset(vertices_of(f)) for f in K.facets}


def relabel_facets(K: SimplicialComplex, mapping: dict) -> set[frozenset]:
    """The facets of ``K`` with each vertex v renamed ``mapping[v]``."""
    return {frozenset(mapping[v] for v in facet) for facet in facet_sets(K)}


def rank_within(mask: int, within: int) -> int:
    """The mask of ``mask``'s vertices renamed by their rank in ``within``."""
    order = vertices_of(within)
    return mask_of(order.index(v) + 1 for v in vertices_of(mask))


# ---------------------------------------------------------------------------
# dense and sparse matrices


def dense_rows(rows, ncols: int) -> list[list[Fraction]]:
    """Sparse {col: coeff} rows as dense Fraction rows of length ``ncols``."""
    out = []
    for row in rows:
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v)
        out.append(dense)
    return out


def product_is_zero(left, right) -> bool:
    """Whether left * right = 0 for sparse {col: coeff} rows; ``right[c]`` is the row of
    column c of ``left``, so a list for position columns, a dict for face-mask columns."""
    for row in left:
        acc: dict[int, int] = {}
        for mid, v in row.items():
            for c, w in right[mid].items():
                acc[c] = acc.get(c, 0) + v * w
        if any(acc.values()):
            return False
    return True


def validate_cells(C) -> None:
    """Assert that the boundary of a ``MomentAngleCellComplex`` squares to zero."""
    b = C.boundaries
    for d in range(2, C.top_dimension + 1):
        assert product_is_zero(b[d], b[d - 1]), f"d o d != 0 in dimension {d}"


# ---------------------------------------------------------------------------
# exhaustive complex enumeration and canonical forms


def enumerate_complexes(n: int):
    """Every simplicial complex on ambient vertex set 1..n.

    These are the antichains of nonempty subsets (one complex per facet
    family) plus the minimal complex whose only face is the empty set.
    """
    yield SimplicialComplex(n, [[]])
    if n == 0:
        return
    subsets = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))

    def extend(chosen):
        start = subsets.index(chosen[-1]) + 1 if chosen else 0
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            # subsets come in cardinality order, so only "earlier inside later"
            # containments can occur
            if any(c & s == c for c in chosen):
                continue
            yield chosen + [s]
            yield from extend(chosen + [s])

    for antichain in extend([]):
        yield SimplicialComplex(n, antichain)


def _permute_mask(mask: int, perm) -> int:
    out = 0
    for b in range(len(perm)):
        if mask >> b & 1:
            out |= 1 << perm[b]
    return out


def canonical_key(K: SimplicialComplex):
    """Minimum facet encoding over all vertex relabelings; an isomorphism invariant."""
    masks = list(K.facets)
    best = None
    for perm in permutations(range(K.n)):
        relabeled = tuple(
            sorted((m.bit_count(), _permute_mask(m, perm)) for m in masks)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (K.n, best)


# ---------------------------------------------------------------------------
# random non-face families


def random_family(rng: random.Random, n: int, max_members: int = 6) -> NonfaceFamily:
    """A random antichain of subsets of size >= 2 inside 1..n."""
    members: list[frozenset] = []
    for _ in range(rng.randint(1, max_members) * 3):
        size = rng.randint(2, n)
        cand = frozenset(rng.sample(range(1, n + 1), size))
        if any(m <= cand or cand <= m for m in members):
            continue
        members.append(cand)
        if len(members) >= max_members:
            break
    if not members:
        members = [frozenset(rng.sample(range(1, n + 1), 2))]
    return NonfaceFamily(n, [sorted(m) for m in members])


# ---------------------------------------------------------------------------
# random complexes that are rarely a full simplex


def flag_complex(rng: random.Random, n: int, p: float) -> SimplicialComplex:
    """Clique complex of a G(n, p) random graph, every clique found by a subset scan."""
    vertices = range(1, n + 1)
    edges = {pair for pair in combinations(vertices, 2) if rng.random() < p}
    cliques = [
        list(c)
        for r in range(1, n + 1)
        for c in combinations(vertices, r)
        if all(pair in edges for pair in combinations(c, 2))
    ]
    return SimplicialComplex(n, cliques)


def bounded_complex(rng: random.Random, n: int, max_size: int) -> SimplicialComplex:
    """Random facets of at most ``max_size`` vertices; every vertex is covered."""
    facets = [rng.sample(range(1, n + 1), rng.randint(1, min(max_size, n))) for _ in range(n)]
    covered = {v for f in facets for v in f}
    facets += [[v] for v in range(1, n + 1) if v not in covered]
    return SimplicialComplex(n, facets)


@st.composite
def nondegenerate_complexes(draw, max_n):
    """G(n, p) flag complexes, bounded facet sizes or reconstructed families,
    with up to two vertices then removed from every facet (ghost vertices)."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["flag", "bounded", "reconstruct"]))
    if kind == "flag":
        K = flag_complex(rng, n, draw(st.sampled_from([0.3, 0.5, 0.7])))
    elif kind == "bounded":
        K = bounded_complex(rng, n, draw(st.integers(1, 4)))
    else:
        K = reconstruct(random_family(rng, max(n, 2)))
    ghosts = mask_of(draw(st.lists(st.integers(1, K.n), max_size=2)))
    return SimplicialComplex(K.n, [f & ~ghosts for f in K.facets])


def random_intersecting_family(rng: random.Random, n: int) -> NonfaceFamily:
    """A random family guaranteed to contain an intersecting pair."""
    while True:
        family = random_family(rng, n)
        members = list(family)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a & b:
                    return family


def random_pairwise_intersecting_family(rng: random.Random, n: int) -> NonfaceFamily:
    """A random family in which every two members intersect."""
    while True:
        first = frozenset(rng.sample(range(1, n + 1), rng.randint(2, n - 1)))
        members = [first]
        for _ in range(rng.randint(1, 4) * 4):
            size = rng.randint(2, n)
            cand = frozenset(rng.sample(range(1, n + 1), size))
            if any(m <= cand or cand <= m for m in members):
                continue
            if all(m & cand for m in members):
                members.append(cand)
        if len(members) >= 2:
            return NonfaceFamily(n, [sorted(m) for m in members])


# ---------------------------------------------------------------------------
# the ring scan without the zero-target rule


def unskipped_star_product_scan(table):
    """``star_product_scan`` multiplying every pair of classes with disjoint supports.

    Pairs whose supports meet are counted without a product, as the pairing
    rule allows; every other pair goes through ``star_product``, whatever its
    target group.  Returns (certificate of the first non-zero product or None,
    number of products).
    """
    positive = table.positive_entries()
    count = 0
    for ai, (J, p, dim1) in enumerate(positive):
        for L, q, dim2 in positive[ai:]:
            if J & L:
                count += dim1 * dim2
                continue
            for alpha in table.cochain_complex(J).representatives(p):
                for beta in table.cochain_complex(L).representatives(q):
                    count += 1
                    if any(star_product(table, J, p, alpha, L, q, beta)):
                        certificate = {
                            "kind": "nonzero_product",
                            "J": vertices_of(J),
                            "p": p,
                            "L": vertices_of(L),
                            "q": q,
                            "degree": p + q + (J | L).bit_count() + 2,
                        }
                        return certificate, count
    return None, count


# ---------------------------------------------------------------------------
# polynomial helpers for Betti vectors and rank series


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a, b, N: int):
    out = [0] * (N + 1)
    for i, x in enumerate(a[: N + 1]):
        if x:
            for j, y in enumerate(b[: N + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def expand_rank_product(ranks, N: int):
    """Expand prod_{k even}(1-t^k)^(-l_k) prod_{k odd}(1+t^k)^(l_k) directly.

    Each factor is written out by the binomial theorem, C(l, j) or
    C(l + j - 1, j) at t^(jk), and multiplied in by a schoolbook product,
    so this shares no code with the solver, which works on the logarithm.
    """
    series = [1] + [0] * N
    for k in range(1, N + 1):
        l_k = ranks[k] if k < len(ranks) else 0
        if l_k:
            factor = [0] * (N + 1)
            for j in range(N // k + 1):
                factor[j * k] = comb(l_k, j) if k % 2 else comb(l_k + j - 1, j)
            series = poly_mul(series, factor, N)
    return series


def loop_space_series(sphere_dims, N: int):
    """Coefficients of 1 / (1 - sum_i t^(d_i - 1)) via power summation."""
    s = [0] * (N + 1)
    for d in sphere_dims:
        if d - 1 <= N:
            s[d - 1] += 1
    series = [0] * (N + 1)
    power = [1] + [0] * N
    for _ in range(N + 1):
        series = [x + y for x, y in zip(series, power)]
        power = poly_mul(power, s, N)
    return series
