import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macomplex import (
    InputError,
    SimplicialComplex,
    boundary_simplex,
    cross_polytope,
    cycle,
    full_subcomplex,
    hochster_betti,
    hochster_table,
    is_trivial_ring,
    join,
    random_complex,
    reconstruct,
    simplex,
    star_product,
    star_product_scan,
)
from macomplex import cohomology
from macomplex.cohomology import (
    CochainComplexQ,
    _faces_within,
    _one_skeletons,
    _reduced_betti,
    _unions_of_minimal_nonfaces,
)
from macomplex.linalg import (
    RowSpan,
    echelon,
    kernel_basis,
    rank_sparse,
    rref,
    solve_columns,
)
from macomplex.nonfaces import (
    _minimal_nonface_masks,
    _nonfaces_pairwise_intersect,
    _unions_by_vertex,
)
from oracles import (
    bounded_complex,
    brute_minimal_nonfaces,
    convolve,
    dense_rows,
    flag_complex,
    mask_of,
    nondegenerate_complexes,
    product_is_zero,
    random_pairwise_intersecting_family,
    unskipped_star_product_scan,
)


def reduced_betti(cx):
    """{j: reduced Betti number} of ``cx`` for each degree -1 <= j <= top, as the table reads it.

    The 1-skeleton comes from the vertices and edges of ``cx``, and the walk
    runs over every vertex label up to the largest, so the labels below it
    that ``cx`` lacks are ghost vertices the walk must skip.
    """
    vertices = 0
    for v in cx.basis.get(0, []):
        vertices |= v
    n = vertices.bit_length()
    near = _unions_by_vertex(cx.basis.get(0, []) + cx.basis.get(1, []), n)
    above = {j: faces for j, faces in cx.basis.items() if j > 1}
    I = (1 << n) - 1
    [(_, skeleton)] = _one_skeletons(near, [I])
    return dict(enumerate(_reduced_betti(above, cx._row, {}, I, skeleton), -1))


def degrees(cx):
    """-1, ..., top: the degrees in which ``cx`` has a face."""
    return range(-1, max(cx.basis) + 1)


def dims_by_degree(K):
    return reduced_betti(CochainComplexQ(K.face_masks()))


def test_reduced_cohomology_circle():
    assert dims_by_degree(boundary_simplex(2)) == {-1: 0, 0: 0, 1: 1}


def test_reduced_cohomology_two_points():
    assert dims_by_degree(SimplicialComplex(2, [[1], [2]])) == {-1: 0, 0: 1}


def test_reduced_cohomology_c5_witness_subcomplex(c5):
    # edge {3,4} plus the isolated vertex 1, relabelled onto 1..3: a forest, so no b_1
    K = full_subcomplex(c5, 0b1101)
    assert dims_by_degree(K) == {-1: 0, 0: 1}


def test_reduced_cohomology_empty_complex():
    K = SimplicialComplex(0, [])
    assert dims_by_degree(K) == {-1: 1}
    K1 = SimplicialComplex(3, [])  # three absent vertices
    assert dims_by_degree(K1) == {-1: 1}


def test_representative_counts_match_dimensions():
    rng = random.Random(89)
    for i in range(15):
        K = random_complex(rng.randint(1, 6), seed=8700 + i)
        cx = CochainComplexQ(K.face_masks())
        for j, dim in reduced_betti(cx).items():
            reps = cx.representatives(j)
            assert len(reps) == dim
            for rep in reps:
                assert any(v != 0 for v in rep.values())


def test_hochster_betti_examples(c4, c5):
    assert hochster_betti(boundary_simplex(1)) == [1, 0, 0, 1]
    assert hochster_betti(c4) == [1, 0, 0, 2, 0, 0, 1]
    for k in range(1, 5):
        expected = [1] + [0] * (2 * k) + [1]
        assert hochster_betti(boundary_simplex(k)) == expected
    for k in range(0, 5):
        assert hochster_betti(simplex(k)) == [1]
    assert hochster_betti(c5)[0] == 1


def test_cochain_complex_d_squared_zero():
    rng = random.Random(90)
    for i in range(25):
        K = random_complex(rng.randint(1, 7), seed=3300 + i)
        cx = CochainComplexQ(K.face_masks())
        d = cx.coboundary_rows
        for j in degrees(cx):
            lower = dict(zip(cx.basis.get(j, []), d(j - 1)))  # d_{j-1}, one row per j-face mask
            assert product_is_zero(d(j), lower), f"d o d != 0 in degree {j - 1}"


def test_product_is_zero_detects_a_nonzero_product():
    # d o d of the boundary of an edge, and the same with one sign flipped
    d1 = [{0: -1, 1: 1}]  # the edge {1,2} -> {2} - {1}
    d0 = [{0: 1}, {0: 1}]  # each vertex -> the empty face
    assert product_is_zero(d1, d0)
    assert not product_is_zero([{0: 1, 1: 1}], d0)
    assert not product_is_zero([{2: 3}], [{}, {}, {5: 1}])
    # the same edge with the lower matrix keyed by face mask, as the d o d test passes it
    d0_by_mask = {0b01: {0: 1}, 0b10: {0: 1}}
    assert product_is_zero([{0b01: -1, 0b10: 1}], d0_by_mask)
    assert not product_is_zero([{0b01: 1, 0b10: 1}], d0_by_mask)


def test_star_product_c4_top_class(c4):
    table = hochster_table(c4)
    J, L = 0b0101, 0b1010  # {1, 3} and {2, 4}
    [alpha] = table.cochain_complex(J).representatives(0)
    [beta] = table.cochain_complex(L).representatives(0)
    product = star_product(table, J, 0, alpha, L, 0, beta)
    assert len(product) == table.entries[(J | L, 1)] == 1
    assert any(product)


def test_star_product_intersecting_supports_is_rejected(c4):
    table = hochster_table(c4)
    [alpha] = table.cochain_complex(0b0101).representatives(0)
    [top] = table.cochain_complex(0b1111).representatives(1)
    with pytest.raises(InputError, match="supports meet"):
        star_product(table, 0b0101, 0, alpha, 0b1111, 1, top)


def test_star_product_unit_law(c4):
    table = hochster_table(c4)
    unit = {0: Fraction(1)}  # the empty-subset summand in total degree 0
    for I, j, dim in table.positive_entries():
        for i, beta in enumerate(table.cochain_complex(I).representatives(j)):
            coords = tuple(Fraction(1 if t == i else 0) for t in range(dim))
            assert star_product(table, 0, -1, unit, I, j, beta) == coords
            assert star_product(table, I, j, beta, 0, -1, unit) == coords


def test_cross_cochain_of_cocycles_is_cocycle():
    # star_product re-reduces through the cochain complex, which verifies the
    # cocycle condition; sweep it across random complexes
    rng = random.Random(91)
    products = 0
    for i in range(40):
        K = random_complex(rng.randint(3, 6), seed=4400 + i)
        table = hochster_table(K)
        _, count = star_product_scan(table)
        products += count
    assert products > 100


def test_is_trivial_ring_examples(c4):
    trivial, certificate = is_trivial_ring(c4)
    assert not trivial
    assert certificate["kind"] == "nonzero_product"
    assert certificate["degree"] == 6
    assert {tuple(certificate["J"]), tuple(certificate["L"])} == {(1, 3), (2, 4)}

    assert is_trivial_ring(simplex(3))[0]

    rng = random.Random(92)
    for _ in range(10):
        M = random_pairwise_intersecting_family(rng, rng.randint(4, 7))
        K = reconstruct(M)
        trivial, certificate = is_trivial_ring(K)
        assert trivial
        assert certificate["kind"] == "disjoint_supports_absent"


def test_trivial_ring_fast_and_slow_paths_agree():
    rng = random.Random(93)
    for i in range(40):
        K = random_complex(rng.randint(2, 6), seed=5500 + i)
        table = hochster_table(K)
        positive = table.positive_entries()
        disjoint_exists = any(
            a[0] & b[0] == 0
            for idx, a in enumerate(positive)
            for b in positive[idx:]
        )
        found, _ = star_product_scan(table)
        if not disjoint_exists:
            assert found is None  # fast path is sound
        trivial, _ = is_trivial_ring(K)
        assert trivial == (found is None)


def test_trivial_ring_with_disjoint_supports_can_still_vanish():
    # two disjoint segments have disjoint supports with cohomology, yet the
    # target degree of the only candidate product has no cohomology at all
    K = SimplicialComplex(4, [[1, 2], [3, 4]])
    trivial, certificate = is_trivial_ring(K)
    assert trivial
    assert certificate["kind"] == "all_products_vanish"


# ---------------------------------------------------------------------------
# the pruned table against the full 2^n loop


def eliminated_betti(cx, j):
    """dim C^j - rank d_j - rank d_{j-1}, with every rank found by elimination."""
    return (
        len(cx.basis.get(j, []))
        - rank_sparse(cx.coboundary_rows(j))
        - rank_sparse(cx.coboundary_rows(j - 1))
    )


def full_table(K):
    """(entries, betti) of the Hochster table from every one of the 2^n subsets."""
    faces = K.face_masks()
    entries, by_degree = {}, {}
    for I in range(1 << K.n):
        cx = CochainComplexQ([f for f in faces if f & ~I == 0])
        for j in degrees(cx):
            dim = eliminated_betti(cx, j)
            if dim:
                entries[(I, j)] = dim
                degree = j + I.bit_count() + 1
                by_degree[degree] = by_degree.get(degree, 0) + dim
    return entries, [by_degree.get(d, 0) for d in range(max(by_degree) + 1)]


def visited_subsets(K):
    """The subsets the table visits: unions of K's minimal non-faces, ascending."""
    return list(_unions_of_minimal_nonfaces(K.n, _minimal_nonface_masks(K)))


def union_closure(K):
    """Every union of minimal non-faces, ghost singletons included, built up member by member."""
    unions = {0}
    for member in brute_minimal_nonfaces(K):
        mask = mask_of(member)
        unions |= {u | mask for u in unions}
    return sorted(unions)


EDGE_CASES = [
    SimplicialComplex(0, [[]]),  # {{}} without vertices
    SimplicialComplex(3, []),  # {{}} on three ghost vertices: every subset is a union
    simplex(0),  # one vertex
    SimplicialComplex(1, []),  # one ghost vertex
    SimplicialComplex(5, [[1, 2], [2, 3]]),  # a path with ghost vertices 4 and 5
    SimplicialComplex(6, [[1, 2], [1, 3], [1, 4], [4, 5], [4, 6]]),  # a tree: every K_I a forest
    SimplicialComplex(5, [[1, 2, 3], [4, 5]]),  # a triangle beside an edge: d_1 of K_I = K has one row
    SimplicialComplex(4, [[1, 2, 3], [1, 3, 4], [2, 4]]),  # two triangles and an edge round a hole: two rows
    cycle(7),
    simplex(4),
]


@pytest.mark.parametrize("K", EDGE_CASES, ids=repr)
def test_pruned_table_edge_cases(K):
    table = hochster_table(K)
    assert (table.entries, table.betti) == full_table(K)
    assert list(table.entries) == sorted(table.entries)  # the readers rely on it
    assert visited_subsets(K) == union_closure(K)
    for I in visited_subsets(K):
        check_rank_shortcuts(table.cochain_complex(I))


def test_visited_subset_counts():
    assert visited_subsets(SimplicialComplex(4, [])) == list(range(16))
    assert visited_subsets(simplex(5)) == [0]
    assert len(visited_subsets(cross_polytope(6))) == 64
    assert len(visited_subsets(cycle(14))) == 16342


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=10))
def test_pruned_table_matches_full_loop(K):
    table = hochster_table(K)
    assert (table.entries, table.betti) == full_table(K)
    assert list(table.entries) == sorted(table.entries)  # the readers rely on it
    faces = K.face_masks()
    for I, _, _ in table.positive_entries():
        filtered = CochainComplexQ([f for f in faces if f & ~I == 0])
        assert table.cochain_complex(I).basis == filtered.basis


@given(nondegenerate_complexes(max_n=9))
def test_visited_subsets_are_the_unions_of_minimal_nonfaces(K):
    assert visited_subsets(K) == union_closure(K)


@given(nondegenerate_complexes(max_n=8))
def test_ghost_vertices_are_one_element_nonfaces(K):
    oracle = brute_minimal_nonfaces(K)
    assert _minimal_nonface_masks(K) == sorted(mask_of(m) for m in oracle)
    meeting = all(a & b for a, b in combinations(oracle, 2))
    assert _nonfaces_pairwise_intersect(_minimal_nonface_masks(K)) == meeting


@given(nondegenerate_complexes(max_n=8))
@example(SimplicialComplex(6, [[1], [2, 3, 4, 5, 6]]))  # the star {1, v}: 31 supports, all meeting
@example(SimplicialComplex(4, [[1, 2], [3, 4]]))  # two disjoint edges
def test_nonface_test_matches_the_pair_scan_of_the_table(K):
    # every two positive supports of the table meet exactly when every two
    # minimal non-faces do, ghost vertices counting as the non-face {v}
    positive = hochster_table(K).positive_entries()
    pairs_meet = all(a[0] & b[0] for i, a in enumerate(positive) for b in positive[i:])
    assert _nonfaces_pairwise_intersect(_minimal_nonface_masks(K)) == pairs_meet


def test_trivial_ring_lists_the_minimal_nonfaces_once(monkeypatch):
    # the pairwise test reads the masks the table enumerated
    calls = []

    def counted(K):
        calls.append(K)
        return _minimal_nonface_masks(K)

    monkeypatch.setattr(cohomology, "_minimal_nonface_masks", counted)
    for K in (cycle(6), cycle(5), cross_polytope(3), SimplicialComplex(4, [[1, 2], [3, 4]])):
        calls.clear()
        table = hochster_table(K)
        assert table.nonfaces == _minimal_nonface_masks(K)
        calls.clear()
        is_trivial_ring(K)
        assert calls == [K]


def shortcut_ranks(cx):
    """{j: rank of d_j} for -3 <= j < top + 3, as the Betti numbers of ``_reduced_betti``
    imply them: rank d_j = dim C^j - b_j - rank d_{j-1}, from rank d_{-4} = 0."""
    betti = reduced_betti(cx)
    ranks, rank = {}, 0
    for j in range(-3, max(cx.basis) + 3):
        rank = ranks[j] = len(cx.basis.get(j, [])) - betti.get(j, 0) - rank
    return ranks


def check_rank_shortcuts(cx):
    betti = reduced_betti(cx)
    for j, rank in shortcut_ranks(cx).items():
        assert rank == rank_sparse(cx.coboundary_rows(j)), j
        assert betti.get(j, 0) == eliminated_betti(cx, j), j


@pytest.mark.parametrize(
    "faces",
    [
        [],
        [0],
        [0b1],
        [0b1, 0b100],
        [*simplex(2).face_masks()],  # a filled triangle: d_1 has one row, of rank 1
        [*SimplicialComplex(4, [[1, 2, 3], [3, 4]]).face_masks()],  # and next to a free edge
        [*SimplicialComplex(4, [[1, 2, 3], [2, 3, 4]]).face_masks()],  # two triangles: two rows, of rank 2
    ],
)
def test_rank_shortcuts_on_the_smallest_complexes(faces):
    check_rank_shortcuts(CochainComplexQ(faces))


@given(nondegenerate_complexes(max_n=8), st.integers(0, 2**32 - 1))
def test_rank_shortcuts_match_elimination(K, seed):
    check_rank_shortcuts(CochainComplexQ(K.face_masks()))
    table = hochster_table(K)
    visited = visited_subsets(K)
    for I in random.Random(seed).sample(visited, min(6, len(visited))):
        check_rank_shortcuts(table.cochain_complex(I))


def test_vertex_walk_skips_ghost_vertices():
    # the path 1-2-3 with ghost vertices 4 and 5: d_0 has rank 3 - 1, not 5 - 1
    K = SimplicialComplex(5, [[1, 2], [2, 3]])
    path = CochainComplexQ(K.face_masks())
    near = _unions_by_vertex(K.facets, K.n)

    def skeleton(I):
        [(_, found)] = _one_skeletons(near, [I])
        return found

    def step(I):
        # the path has no face above degree 1
        return _reduced_betti({}, path._row, {}, I, skeleton(I))

    assert skeleton(0b11101) == (2, [0b1, 0b100], 0)
    assert skeleton(0b11000) == (0, [], 0)
    # a forest ends at b_0: it has no face of degree 2 or more, and b_1 = 0
    assert step(0b11111) == [0, 0]  # the path is contractible
    assert step(0b11101) == [0, 1]  # vertices 1 and 3 and both ghosts: two points, no edge
    assert step(0b11110) == step(0b00110) == [0, 0]  # the edge {2, 3}, with and without ghosts
    assert step(0b11000) == step(0) == [1]  # ghosts alone span the empty complex
    assert hochster_table(K).entries[(0b11101, 0)] == 1
    assert shortcut_ranks(path)[0] == 2
    assert shortcut_ranks(path.restrict(0b11101))[0] == 0
    assert shortcut_ranks(path.restrict(0b00110))[0] == 1
    assert shortcut_ranks(CochainComplexQ(cycle(6).face_masks()))[0] == 5


@lru_cache(maxsize=1)
def points_and_edges(K):
    """K's faces of sizes 1 and 2, read once per complex."""
    faces = K.face_masks()
    return [f for f in faces if f.bit_count() == 1], [f for f in faces if f.bit_count() == 2]


def skeleton_oracle(K, I):
    """(vertices, components, edges) of the 1-skeleton of K_I from its faces of sizes 1 and 2,
    the components merged edge by edge and listed by their lowest vertex."""
    points, edges = ([f for f in faces if not f & ~I] for faces in points_and_edges(K))
    components = set(points)
    for e in edges:
        touching = {c for c in components if c & e}
        components = components - touching | {reduce(or_, touching)}
    return len(points), sorted(components, key=lambda c: c & -c), len(edges)


def with_ghost_vertex_1(K):
    return SimplicialComplex(K.n, [f & ~1 for f in K.facets])


@settings(max_examples=80)
@given(
    st.one_of(
        nondegenerate_complexes(max_n=10),
        nondegenerate_complexes(max_n=10).map(with_ghost_vertex_1),
        st.lists(st.integers(1, 4), min_size=1, max_size=4).map(lambda qs: boundary_join(*qs)),
    ),
    st.lists(st.integers(0, 2**20 - 1), max_size=30),  # masked to K's vertices
)
@example(SimplicialComplex(5, [[2, 3], [3, 4]]), [])  # ghosts 1 and 5: every I with 1 lowest adds nothing
@example(cycle(7), [0b0010101, 0b1010101, 0b1111110])  # no parent among them
def test_one_skeletons_extend_the_parent(K, drawn):
    # each I gets the 1-skeleton found from K's points and edges, both when the
    # subsets are the visited ones and when they are any ascending list, where
    # the empty set may be the only ancestor of I among them
    near = _unions_by_vertex(K.facets, K.n)
    for subsets in (visited_subsets(K), sorted({I & (1 << K.n) - 1 for I in drawn})):
        extended = list(_one_skeletons(near, subsets))
        assert [I for I, _ in extended] == subsets
        for I, skeleton in extended:
            assert skeleton == skeleton_oracle(K, I), bin(I)


def test_table_eliminates_each_face_set_once(monkeypatch):
    # many K_I of this flag complex share their faces above degree 1
    K = flag_complex(random.Random(0), 10, 0.6)
    above = {j: faces for j, faces in CochainComplexQ(K.face_masks()).basis.items() if j > 1}
    near = _unions_by_vertex(K.facets, K.n)
    asked = []  # the face sets the table must rank: above degree 1, past a forest, over j + 1 rows
    for I, (vertices, components, edges) in _one_skeletons(near, visited_subsets(K)):
        if vertices and edges > vertices - len(components):
            asked += [tuple(f) for j, f in _faces_within(above, I).items() if len(f) > j + 1]
    assert len(asked) > len(set(asked))
    eliminated = []

    def counted(rows):
        eliminated.append(tuple(sorted(reduce(or_, row) for row in rows)))  # a row's faces cover its face
        return rank_sparse(rows)

    monkeypatch.setattr(cohomology.linalg, "rank_sparse", counted)
    table = hochster_table(K)
    assert sorted(eliminated) == sorted(set(asked))
    assert (table.entries, table.betti) == full_table(K)


@settings(max_examples=100)
@given(nondegenerate_complexes(max_n=14))
def test_table_euler_characteristic_by_weight(K):
    # sum over |I| = w of the reduced Euler characteristic of K_I counts each
    # face of size k once for each of the C(n - k, w - k) sets I holding it
    f = [0] * (K.n + 1)  # f[k]: faces of size k, the empty face included
    for face in K.face_masks() | {0}:
        f[face.bit_count()] += 1
    by_weight = [0] * (K.n + 1)
    for (I, j), dim in hochster_table(K).entries.items():
        by_weight[I.bit_count()] += (-1) ** j * dim
    for w in range(K.n + 1):
        expected = sum((-1) ** (k - 1) * f[k] * comb(K.n - k, w - k) for k in range(w + 1))
        assert by_weight[w] == expected, w


@settings(max_examples=60)
@given(nondegenerate_complexes(max_n=8), st.data())
def test_restriction_is_the_full_subcomplex(K, data):
    faces = K.face_masks()
    whole = CochainComplexQ(faces)
    I = data.draw(st.integers(0, (1 << K.n) - 1), label="I")
    J = I & data.draw(st.integers(0, (1 << K.n) - 1), label="J within I")
    outer = whole.restrict(I)
    inner = outer.restrict(J)
    fresh = CochainComplexQ([f for f in faces if f & ~J == 0])
    assert inner.basis == whole.restrict(J).basis == fresh.basis
    for j in range(-2, max(fresh.basis) + 2):
        assert inner.coboundary_rows(j) == fresh.coboundary_rows(j), j


# ---------------------------------------------------------------------------
# the star product is a graded commutative, associative ring product


def representative_classes(table):
    """(I, j, cocycle) for every representative of positive total degree."""
    return [
        (I, j, rep)
        for I, j, _ in table.positive_entries()
        for rep in table.cochain_complex(I).representatives(j)
    ]


def as_cocycle(table, I, j, coords):
    """The cocycle sum_i coords_i * rep_i over the degree-j representatives of K_I."""
    cochain = {}
    for c, rep in zip(coords, table.cochain_complex(I).representatives(j)):
        for m, v in rep.items():
            cochain[m] = cochain.get(m, 0) + c * v
    return {m: v for m, v in cochain.items() if v}


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=7))
@example(cycle(6))
@example(cross_polytope(3))
@example(join(cycle(4), cycle(5)))
def test_star_product_is_graded_commutative(K):
    # alpha * beta = (-1)^(|alpha| |beta|) beta * alpha in the Z(K) degrees j + |I| + 1
    table = hochster_table(K)
    for (J, p, alpha), (L, q, beta) in combinations(representative_classes(table), 2):
        if J & L:
            continue
        sign = (-1) ** ((p + J.bit_count() + 1) * (q + L.bit_count() + 1))
        forward = star_product(table, J, p, alpha, L, q, beta)
        backward = star_product(table, L, q, beta, J, p, alpha)
        assert forward == tuple(sign * x for x in backward), (J, p, L, q)


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=7))
@example(cross_polytope(3))
@example(join(cycle(4), cycle(4)))
def test_star_product_is_associative(K):
    table = hochster_table(K)
    for (J, p, alpha), (L, q, beta), (M, s, gamma) in combinations(representative_classes(table), 3):
        if J & L or J & M or L & M:
            continue
        ab = as_cocycle(table, J | L, p + q + 1, star_product(table, J, p, alpha, L, q, beta))
        bc = as_cocycle(table, L | M, q + s + 1, star_product(table, L, q, beta, M, s, gamma))
        left = star_product(table, J | L, p + q + 1, ab, M, s, gamma)
        right = star_product(table, J, p, alpha, L | M, q + s + 1, bc)
        assert left == right, (J, p, L, q, M, s)


@settings(max_examples=80)
@given(
    st.one_of(
        st.builds(random_complex, st.integers(1, 8), st.integers(0, 2**32 - 1)),
        nondegenerate_complexes(max_n=8),
    )
)
@example(cross_polytope(3))
@example(join(cycle(4), cycle(5)))
def test_zero_target_skip_matches_the_unskipped_scan(K):
    table = hochster_table(K)
    assert star_product_scan(table) == unskipped_star_product_scan(table)


@pytest.mark.parametrize("m", range(4, 11))
def test_zero_target_skip_matches_the_unskipped_scan_on_cycles(m):
    table = hochster_table(cycle(m))
    assert star_product_scan(table) == unskipped_star_product_scan(table)


# ---------------------------------------------------------------------------
# reduce_cocycle against one dense solve over [coboundaries | representatives]


def positional_rows(cx, j):
    """Rows of d_j with each face-mask column replaced by its position in ``cx.basis[j]``."""
    index = {m: i for i, m in enumerate(cx.basis.get(j, []))}
    return [{index[c]: v for c, v in row.items()} for row in cx.coboundary_rows(j)]


def solved_coordinates(cx, j, cochain):
    """Coordinates on the representatives from solve_columns, as reduce_cocycle once found them."""
    masks = cx.basis.get(j, [])
    index = {m: i for i, m in enumerate(masks)}
    columns = [[Fraction(0)] * len(masks) for _ in cx.basis.get(j - 1, [])]
    for r, row in enumerate(positional_rows(cx, j - 1)):  # one row per j-face
        for c, v in row.items():
            columns[c][r] = Fraction(v)
    reps = cx.representatives(j)
    for rep in reps:
        column = [Fraction(0)] * len(masks)
        for m, v in rep.items():
            column[index[m]] = v
        columns.append(column)
    rhs = [Fraction(0)] * len(masks)
    for m, v in cochain.items():
        rhs[index[m]] = v
    solution = solve_columns(columns, rhs)
    return tuple(solution[len(columns) - len(reps):])


def random_cocycle(rng, cx, j):
    """(cochain, coefficients): a rational combination of the representatives plus a coboundary."""
    coefficients = tuple(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in cx.representatives(j)
    )
    cochain = {}
    for a, rep in zip(coefficients, cx.representatives(j)):
        for m, v in rep.items():
            cochain[m] = cochain.get(m, 0) + a * v
    lower = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in cx.basis.get(j - 1, [])]
    for tau, row in zip(cx.basis.get(j, []), positional_rows(cx, j - 1)):
        cochain[tau] = cochain.get(tau, 0) + sum(v * lower[c] for c, v in row.items())
    return {m: v for m, v in cochain.items() if v}, coefficients


def check_reduction(cx, rng):
    for j in degrees(cx):
        for _ in range(3):
            cochain, coefficients = random_cocycle(rng, cx, j)
            coords = cx.reduce_cocycle(j, cochain)
            assert coords == coefficients == solved_coordinates(cx, j, cochain)
            assert all(type(x) is Fraction for x in coords)
        with pytest.raises(InputError, match="supported outside the subcomplex"):
            cx.reduce_cocycle(j, {**cochain, 1 << 50: Fraction(1)})  # vertex 51 is absent
        upper = cx.basis.get(j + 1, [])
        if upper:
            tau = upper[0] & (upper[0] - 1)  # a j-face of upper[0], whose coboundary is ±1 there
            broken = {**cochain, tau: cochain.get(tau, 0) + 1}
            with pytest.raises(InputError, match="is not a cocycle"):
                cx.reduce_cocycle(j, broken)


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=7), st.integers(0, 2**32 - 1))
def test_reduce_cocycle_matches_dense_solve(K, seed):
    rng = random.Random(seed)
    check_reduction(CochainComplexQ(K.face_masks()), rng)
    table = hochster_table(K)
    for I, _, _ in rng.sample(table.positive_entries(), min(4, len(table.positive_entries()))):
        check_reduction(table.cochain_complex(I), rng)


@pytest.mark.parametrize("m", range(4, 9))
def test_reduce_cocycle_matches_dense_solve_on_cycles(m):
    rng = random.Random(m)
    table = hochster_table(cycle(m))
    entries = table.positive_entries()
    for I, _, _ in rng.sample(entries, min(12, len(entries))):
        check_reduction(table.cochain_complex(I), rng)


# ---------------------------------------------------------------------------
# representatives against the dense kernel basis and row span


def dense_representatives(cx, j):
    """Representatives as the dense layer chose them: each kernel vector of
    d_j, in column order, that enlarges the span of the coboundaries."""
    masks = cx.basis.get(j, [])
    if not masks:
        return []
    kernel = kernel_basis(dense_rows(positional_rows(cx, j), len(masks)), len(masks))
    span = RowSpan()
    lower = dense_rows(positional_rows(cx, j - 1), len(cx.basis.get(j - 1, [])))
    for column in zip(*lower):  # the coboundary of each (j-1)-face
        span.add(column)
    return [{m: x for m, x in zip(masks, vec) if x} for vec in kernel if span.add(vec)]


def check_representatives(cx):
    betti = reduced_betti(cx)
    for j in range(-2, max(cx.basis) + 2):
        reps = cx.representatives(j)
        assert reps == dense_representatives(cx, j), j
        assert len(reps) == betti.get(j, 0), j


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=7), st.integers(0, 2**32 - 1))
def test_representatives_match_dense_reference(K, seed):
    rng = random.Random(seed)
    check_representatives(CochainComplexQ(K.face_masks()))
    table = hochster_table(K)
    entries = table.positive_entries()
    for I, _, _ in rng.sample(entries, min(4, len(entries))):
        check_representatives(table.cochain_complex(I))


@pytest.mark.parametrize("m", range(4, 9))
def test_representatives_match_dense_reference_on_cycles(m):
    table = hochster_table(cycle(m))
    for I, _, _ in table.positive_entries():
        check_representatives(table.cochain_complex(I))


# ---------------------------------------------------------------------------
# invariants of Z(K) at sizes past the cross-check


def boundary_join(*qs):
    K = boundary_simplex(qs[0])
    for q in qs[1:]:
        K = join(K, boundary_simplex(q))
    return K


SPHERES = (
    [cross_polytope(k) for k in range(1, 9)]
    + [cycle(m) for m in range(4, 13)]
    + [boundary_join(*qs) for qs in [(2, 2, 2), (3, 4), (2, 3, 4), (1, 2, 3, 4), (1, 1, 1, 1, 2, 2)]]
)


@pytest.mark.parametrize("K", SPHERES, ids=lambda K: f"n{K.n}-{len(K.facets)}facets")
def test_poincare_duality_on_spheres(K):
    # Z(K) of a sphere K of dimension d - 1 is a closed manifold of dimension n + d
    betti = hochster_betti(K)
    d = max(f.bit_count() for f in K.facets)
    assert len(betti) == K.n + d + 1 and betti[-1] == 1
    assert betti == betti[::-1]


def cyclic_polytope_boundary(n, d):
    """Boundary of the cyclic polytope C(n, d), a (d - 1)-sphere: by Gale's evenness, the
    d-sets S of [n] such that an even number of members of S lie between any two vertices
    outside S."""
    facets = []
    for S in combinations(range(1, n + 1), d):
        outside = [v for v in range(1, n + 1) if v not in S]
        if all(sum(a < s < b for s in S) % 2 == 0 for a, b in combinations(outside, 2)):
            facets.append(S)
    return SimplicialComplex(n, facets)


CYCLIC_POLYTOPES = [cyclic_polytope_boundary(n, d) for d in (3, 4, 5) for n in range(d + 2, 12)]


@pytest.mark.parametrize(
    "K", SPHERES + CYCLIC_POLYTOPES, ids=lambda K: f"n{K.n}-{len(K.facets)}facets-d{K.facets[-1].bit_count()}"
)
def test_table_has_alexander_duality_on_spheres(K):
    # for a sphere K of dimension d - 1 on [n], H~^j(K_I) = H~^{d-2-j}(K_{[n] - I}), with
    # I = ∅ (the unit in degree -1) paired with K itself (the top class in degree d - 1)
    d = K.facets[-1].bit_count()
    entries = hochster_table(K).entries
    full = (1 << K.n) - 1
    assert entries[(0, -1)] == entries[(full, d - 1)] == 1
    for (I, j), dim in entries.items():
        assert entries.get((full ^ I, d - 2 - j), 0) == dim, (I, j)


def test_join_law_past_the_cross_check():
    # Z(K1 * K2) = Z(K1) x Z(K2), so by Kuenneth the Betti numbers of a join
    # are the convolution of the factors'; here at n = 10..16
    rng = random.Random(505)
    pairs = [
        (cycle(5), cycle(5)),
        (flag_complex(rng, 6, 0.5), cycle(5)),
        (bounded_complex(rng, 6, 3), cross_polytope(2)),
        (cycle(6), cross_polytope(3)),
        (flag_complex(rng, 7, 0.5), bounded_complex(rng, 6, 3)),
        (flag_complex(rng, 8, 0.4), flag_complex(rng, 6, 0.6)),
        (flag_complex(rng, 7, 0.5), cross_polytope(4)),
        (cycle(6), cross_polytope(4)),
        (cross_polytope(4), cross_polytope(4)),
    ]
    for K1, K2 in pairs:
        b1, b2 = hochster_betti(K1), hochster_betti(K2)
        assert len(b1) > 1 and len(b2) > 1, "a factor is a full simplex"
        assert 10 <= K1.n + K2.n <= 16
        assert hochster_betti(join(K1, K2)) == convolve(b1, b2), (K1, K2)


def euler_characteristic(betti):
    return sum((-1) ** i * b for i, b in enumerate(betti))


def test_euler_characteristic_examples():
    for K in [cycle(9), cross_polytope(5), SimplicialComplex(3, []), SimplicialComplex(0, [[]])]:
        expected = 1 if K.n == 0 else 0
        assert euler_characteristic(hochster_betti(K)) == expected
    for q in range(6):
        assert euler_characteristic(hochster_betti(simplex(q))) == 1


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=12))
def test_euler_characteristic_vanishes_unless_simplex(K):
    # the diagonal circle acts freely on Z(K) unless the whole vertex set is a face
    expected = 1 if K.facets == ((1 << K.n) - 1,) else 0
    assert euler_characteristic(hochster_betti(K)) == expected


# ---------------------------------------------------------------------------
# exact linear algebra


def test_rank_sparse_against_sympy():
    import sympy

    rng = random.Random(94)
    for _ in range(30):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        dense = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        # inject singular structure now and then
        if rng.random() < 0.4 and nrows >= 2:
            dense[-1] = [2 * x for x in dense[0]]
        rows = [
            {c: v for c, v in enumerate(row) if v} for row in dense
        ]
        assert rank_sparse(rows) == sympy.Matrix(dense).rank()


@st.composite
def sparse_integer_matrices(draw):
    """(columns, rows) with at most 12 rows and 12 scattered column indices.

    A row is either fresh, with entries up to 5 in size, or an integer
    combination of two earlier rows, which gives duplicate and proportional
    rows and rows that only cancel to empty after several pivots.
    """
    cols = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    entries = st.integers(-5, 5).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            combo = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0) for c in cols}
            rows.append({c: v for c, v in combo.items() if v})
        else:
            rows.append(draw(st.dictionaries(st.sampled_from(cols), entries, max_size=len(cols))))
    return cols, rows


@settings(max_examples=150)
@given(sparse_integer_matrices())
def test_rank_sparse_hypothesis_against_sympy(matrix):
    import sympy

    cols, rows = matrix
    before = [dict(row) for row in rows]
    rank = rank_sparse(rows)
    assert rows == before  # the input is not modified
    assert rank == sympy.Matrix([[row.get(c, 0) for c in cols] for row in rows]).rank()
    assert rank_sparse(reversed(rows)) == rank
    assert rank_sparse([{c: row.get(c, 0) for c in cols} for row in rows]) == rank  # explicit zeros

    pivots = echelon(rows)
    assert rows == before
    assert len(pivots) == rank
    assert all(col == min(row) for col, row in pivots.items())
    assert set(echelon(reversed(rows))) == set(pivots) == set(echelon(sorted(rows, key=len)))
    stored = [[row.get(c, 0) for c in cols] for row in pivots.values()]
    both = sympy.Matrix(stored + [[row.get(c, 0) for c in cols] for row in rows])
    assert both.rank() == rank  # the stored rows span the row space


def test_kernel_basis_annihilates():
    rng = random.Random(95)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        dense = [
            [Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)
        ]
        basis = kernel_basis(dense, ncols)
        for vec in basis:
            for row in dense:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        sparse = [{c: int(v) for c, v in enumerate(row) if v} for row in dense]
        assert len(basis) == ncols - rank_sparse(sparse)


def test_solve_columns_and_rowspan():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    x = solve_columns(cols, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(2)]
    assert solve_columns([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None
    assert solve_columns([], [1]) is None and solve_columns([], []) == []
    assert rref([]) == ([], [])

    span = RowSpan()
    assert span.add([Fraction(1), Fraction(1)])
    assert not span.add([Fraction(2), Fraction(2)])
    assert span.contains([Fraction(-1), Fraction(-1)])
    assert span.add([Fraction(0), Fraction(1)])
    assert span.contains([Fraction(5), Fraction(7)])


@st.composite
def dense_systems(draw):
    """(rows, ncols, rhs): at most 5 integer rows over at most 5 columns, and a right side.

    A row is fresh or an integer combination of two earlier rows, so ranks
    fall short; the right side is a combination of the columns (a consistent
    system) or drawn freely (mostly inconsistent once the rank is short).
    """
    ncols = draw(st.integers(0, 5))
    entries = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            rows.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    if draw(st.booleans()):
        coef = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(c * x for c, x in zip(coef, row)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


@settings(max_examples=150)
@given(dense_systems())
@example(([], 0, []))  # rref([]) and solve_columns([], [])
@example(([[]], 0, [1]))  # solve_columns([], [1]): no columns, nonzero right side
@example(([], 3, []))  # kernel_basis([], 3): the unit basis
def test_dense_reference_against_sympy(system):
    import sympy

    rows, ncols, rhs = system

    def matrix(rs):
        return sympy.Matrix(len(rs), ncols, [x for r in rs for x in r])

    def fraction(x):
        return Fraction(int(x.p), int(x.q))

    M = matrix(rows)
    reduced, pivots = M.rref()
    assert rref(rows) == ([[fraction(x) for x in reduced.row(i)] for i in range(len(pivots))],
                          list(pivots))

    basis = kernel_basis(rows, ncols)
    assert len(basis) == len(M.nullspace())
    assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows for vec in basis)
    assert sympy.Matrix(len(basis), ncols, [x for vec in basis for x in vec]).rank() == len(basis)

    x = solve_columns([[row[j] for row in rows] for j in range(ncols)], rhs)
    consistent = M.row_join(sympy.Matrix(len(rows), 1, rhs)).rank() == M.rank()
    assert (x is not None) == consistent
    if x is not None:
        assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs

    span = RowSpan()
    ranks = [matrix(rows[:k]).rank() for k in range(len(rows) + 1)]
    for k, row in enumerate(rows):
        grows = ranks[k + 1] > ranks[k]
        assert span.contains(row) is not grows
        assert span.add(row) is grows
    assert len(span.rows) == ranks[-1]
