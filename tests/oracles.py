"""Independent brute-force oracles used to compute and freeze expected values.

Everything here starts from first definitions (explicit downward closures,
full subset scans, naive polynomial arithmetic over frozensets and lists)
and deliberately avoids the package's optimised representations, so each
test compares two genuinely different routes to the same answer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from macomplex import NonfaceFamily, SimplicialComplex, VertexSet


# ---------------------------------------------------------------------------
# faces and minimal non-faces by direct definition


def brute_faces(K: SimplicialComplex) -> set[frozenset]:
    """Downward closure enumerated subset-by-subset from the facet list."""
    faces = set()
    for facet in K.facets:
        vs = list(facet.vertices())
        for r in range(len(vs) + 1):
            for combo in combinations(vs, r):
                faces.add(frozenset(combo))
    return faces


def brute_is_face(K: SimplicialComplex, vertices) -> bool:
    return frozenset(vertices) in brute_faces(K)


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
    return {frozenset(f.vertices()) for f in K.facets}


# ---------------------------------------------------------------------------
# dense matrices


def dense_rows(rows, ncols: int) -> list[list[Fraction]]:
    """Sparse {col: coeff} rows as dense Fraction rows of length ``ncols``."""
    out = []
    for row in rows:
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v)
        out.append(dense)
    return out


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
        yield SimplicialComplex(n, [VertexSet.from_mask(m) for m in antichain])


def _permute_mask(mask: int, perm) -> int:
    out = 0
    for b in range(len(perm)):
        if mask >> b & 1:
            out |= 1 << perm[b]
    return out


def canonical_key(K: SimplicialComplex):
    """Minimum facet encoding over all vertex relabelings; an isomorphism invariant."""
    masks = [f.mask for f in K.facets]
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


def random_intersecting_family(rng: random.Random, n: int) -> NonfaceFamily:
    """A random family guaranteed to contain an intersecting pair."""
    while True:
        family = random_family(rng, n)
        members = list(family)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a.intersects(b):
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


def geometric_series(k: int, N: int):
    """Coefficients of 1 / (1 - t^k) through degree N."""
    return [1 if i % k == 0 else 0 for i in range(N + 1)]


def expand_rank_product(ranks, N: int):
    """Expand prod_{k even}(1-t^k)^(-l_k) prod_{k odd}(1+t^k)^(l_k) naively.

    Each factor is multiplied in one at a time (geometric series for even
    degrees, (1 + t^k) for odd), so this shares no code with the solver.
    """
    series = [1] + [0] * N
    for k in range(1, N + 1):
        l_k = ranks[k] if k < len(ranks) else 0
        for _ in range(l_k):
            if k % 2 == 0:
                series = poly_mul(series, geometric_series(k, N), N)
            else:
                factor = [0] * (N + 1)
                factor[0] = 1
                factor[k] = 1
                series = poly_mul(series, factor, N)
    return series


def loop_space_series(sphere_dims, N: int):
    """Coefficients of 1 / (1 - sum_i t^(d_i - 1)) via power summation."""
    s = [0] * (N + 1)
    for d in sphere_dims:
        s[d - 1] += 1
    series = [0] * (N + 1)
    power = [1] + [0] * N
    for _ in range(N + 1):
        series = [x + y for x, y in zip(series, power)]
        power = poly_mul(power, s, N)
    return series
