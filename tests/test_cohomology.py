import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macomplex import (
    InputError,
    SimplicialComplex,
    VertexSet,
    boundary_simplex,
    cross_polytope,
    cycle,
    from_facets,
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
from macomplex.cohomology import CochainComplexQ, _unions_of_minimal_nonfaces
from macomplex.linalg import (
    RowSpan,
    echelon,
    kernel_basis,
    product_is_zero,
    rank_sparse,
    solve_columns,
)
from macomplex.loops import _nonfaces_pairwise_intersect
from macomplex.nonfaces import _minimal_nonface_masks
from oracles import (
    bounded_complex,
    brute_minimal_nonfaces,
    convolve,
    dense_rows,
    flag_complex,
    random_family,
    random_pairwise_intersecting_family,
)


def dims_by_degree(K):
    cx = CochainComplexQ(K.face_masks())
    return {j: cx.betti(j) for j in cx.degrees()}


def test_reduced_cohomology_circle():
    assert dims_by_degree(boundary_simplex(2)) == {-1: 0, 0: 0, 1: 1}


def test_reduced_cohomology_two_points():
    assert dims_by_degree(from_facets(2, [[1], [2]])) == {-1: 0, 0: 1}


def test_reduced_cohomology_c5_witness_subcomplex(c5):
    # edge {3,4} plus the isolated vertex 1, relabelled onto 1..3
    K = full_subcomplex(c5, VertexSet([1, 3, 4]))
    assert dims_by_degree(K) == {-1: 0, 0: 1, 1: 0}


def test_reduced_cohomology_empty_complex():
    K = from_facets(0, [])
    assert dims_by_degree(K) == {-1: 1}
    K1 = from_facets(3, [])  # three absent vertices
    assert dims_by_degree(K1) == {-1: 1}


def test_representative_counts_match_dimensions():
    rng = random.Random(89)
    for i in range(15):
        K = random_complex(rng.randint(1, 6), seed=8700 + i)
        cx = CochainComplexQ(K.face_masks())
        for j in cx.degrees():
            reps = cx.representatives(j)
            assert len(reps) == cx.betti(j)
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
        CochainComplexQ(K.face_masks()).validate()


def test_product_is_zero_detects_a_nonzero_product():
    # d o d of the boundary of an edge, and the same with one sign flipped
    d1 = [{0: -1, 1: 1}]  # the edge {1,2} -> {2} - {1}
    d0 = [{0: 1}, {0: 1}]  # each vertex -> the empty face
    assert product_is_zero(d1, d0)
    assert not product_is_zero([{0: 1, 1: 1}], d0)
    assert not product_is_zero([{2: 3}], [{}, {}, {5: 1}])


def test_star_product_c4_top_class(c4):
    table = hochster_table(c4)
    J = VertexSet([1, 3])
    L = VertexSet([2, 4])
    [alpha] = table.classes(J, 0)
    [beta] = table.classes(L, 0)
    product = star_product(alpha, beta, table)
    assert not product.is_zero
    assert product.subset == VertexSet([1, 2, 3, 4])
    assert product.degree == 1
    assert product.total_degree == 6


def test_star_product_intersecting_supports_is_zero(c4):
    table = hochster_table(c4)
    [alpha] = table.classes(VertexSet([1, 3]), 0)
    full = VertexSet([1, 2, 3, 4])
    [top] = table.classes(full, 1)
    product = star_product(alpha, top, table)
    assert product.is_zero


def test_star_product_unit_law(c4):
    table = hochster_table(c4)
    unit = table.unit()
    for I, j, dim in table.positive_entries():
        for beta in table.classes(I, j):
            product = star_product(unit, beta, table)
            assert product.subset == beta.subset
            assert product.degree == beta.degree
            assert product.coords == beta.coords


def test_star_product_rejects_foreign_classes(c4, c5):
    table4 = hochster_table(c4)
    table5 = hochster_table(c5)
    [alpha] = table4.classes(VertexSet([1, 3]), 0)
    [beta5] = table5.classes(VertexSet([1, 3]), 0)
    with pytest.raises(InputError):
        star_product(alpha, beta5, table4)


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
            a[0].mask & b[0].mask == 0
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
    K = from_facets(4, [[1, 2], [3, 4]])
    trivial, certificate = is_trivial_ring(K)
    assert trivial
    assert certificate["kind"] == "all_products_vanish"


def test_hochster_table_serialisation(c4):
    data = hochster_table(c4).to_json_dict()
    assert data["betti"] == [1, 0, 0, 2, 0, 0, 1]
    assert {"I": [], "j": -1, "dim": 1} in data["entries"]
    assert {"I": [1, 3], "j": 0, "dim": 1} in data["entries"]
    assert {"I": [1, 2, 3, 4], "j": 1, "dim": 1} in data["entries"]


# ---------------------------------------------------------------------------
# the pruned table against the full 2^n loop


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
    ghosts = VertexSet(draw(st.lists(st.integers(1, K.n), max_size=2)))
    return from_facets(K.n, [f - ghosts for f in K.facets])


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
        for j in cx.degrees():
            dim = eliminated_betti(cx, j)
            if dim:
                entries[(I, j)] = dim
                degree = j + I.bit_count() + 1
                by_degree[degree] = by_degree.get(degree, 0) + dim
    return entries, [by_degree.get(d, 0) for d in range(max(by_degree) + 1)]


def union_closure(K):
    """Every union of minimal non-faces, ghost singletons included, built up member by member."""
    unions = {0}
    for member in brute_minimal_nonfaces(K):
        mask = VertexSet(member).mask
        unions |= {u | mask for u in unions}
    return sorted(unions)


EDGE_CASES = [
    SimplicialComplex(0, [[]]),  # {{}} without vertices
    from_facets(3, []),  # {{}} on three ghost vertices: every subset is a union
    simplex(0),  # one vertex
    from_facets(1, []),  # one ghost vertex
    from_facets(5, [[1, 2], [2, 3]]),  # a path with ghost vertices 4 and 5
    cycle(7),
    simplex(4),
]


@pytest.mark.parametrize("K", EDGE_CASES, ids=repr)
def test_pruned_table_edge_cases(K):
    table = hochster_table(K)
    assert (table.entries, table.betti) == full_table(K)
    assert list(_unions_of_minimal_nonfaces(K)) == union_closure(K)


def test_visited_subset_counts():
    assert list(_unions_of_minimal_nonfaces(from_facets(4, []))) == list(range(16))
    assert list(_unions_of_minimal_nonfaces(simplex(5))) == [0]
    assert len(list(_unions_of_minimal_nonfaces(cross_polytope(6)))) == 64
    assert len(list(_unions_of_minimal_nonfaces(cycle(14)))) == 16342


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=10))
def test_pruned_table_matches_full_loop(K):
    table = hochster_table(K)
    assert (table.entries, table.betti) == full_table(K)
    faces = K.face_masks()
    for I, _, _ in table.positive_entries():
        filtered = CochainComplexQ([f for f in faces if f & ~I.mask == 0])
        assert table.cochain_complex(I).basis == filtered.basis


@given(nondegenerate_complexes(max_n=9))
def test_visited_subsets_are_the_unions_of_minimal_nonfaces(K):
    assert list(_unions_of_minimal_nonfaces(K)) == union_closure(K)


@given(nondegenerate_complexes(max_n=8))
def test_ghost_vertices_are_one_element_nonfaces(K):
    oracle = brute_minimal_nonfaces(K)
    assert _minimal_nonface_masks(K) == sorted(VertexSet(m).mask for m in oracle)
    meeting = all(a & b for a, b in combinations(oracle, 2))
    assert _nonfaces_pairwise_intersect(K) == meeting


def check_rank_shortcuts(cx):
    for j in range(-3, cx.top + 3):
        assert cx._rank(j) == rank_sparse(cx.coboundary_rows(j)), j
        assert cx.betti(j) == eliminated_betti(cx, j), j


@pytest.mark.parametrize("faces", [[], [0], [0b1], [0b1, 0b100]])
def test_rank_shortcuts_on_the_smallest_complexes(faces):
    check_rank_shortcuts(CochainComplexQ(faces))


@given(nondegenerate_complexes(max_n=8))
def test_rank_shortcuts_match_elimination(K):
    check_rank_shortcuts(CochainComplexQ(K.face_masks()))


# ---------------------------------------------------------------------------
# reduce_cocycle against one dense solve over [coboundaries | representatives]


def solved_coordinates(cx, j, cochain):
    """Coordinates on the representatives from solve_columns, as reduce_cocycle once found them."""
    masks = cx.basis.get(j, [])
    index = {m: i for i, m in enumerate(masks)}
    columns = [[Fraction(0)] * len(masks) for _ in cx.basis.get(j - 1, [])]
    for r, row in enumerate(cx.coboundary_rows(j - 1)):  # one row per j-face
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
    for tau, row in zip(cx.basis.get(j, []), cx.coboundary_rows(j - 1)):
        cochain[tau] = cochain.get(tau, 0) + sum(v * lower[c] for c, v in row.items())
    return {m: v for m, v in cochain.items() if v}, coefficients


def check_reduction(cx, rng):
    for j in cx.degrees():
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
    kernel = kernel_basis(dense_rows(cx.coboundary_rows(j), len(masks)), len(masks))
    span = RowSpan()
    lower = dense_rows(cx.coboundary_rows(j - 1), len(cx.basis.get(j - 1, [])))
    for column in zip(*lower):  # the coboundary of each (j-1)-face
        span.add(column)
    return [{m: x for m, x in zip(masks, vec) if x} for vec in kernel if span.add(vec)]


def check_representatives(cx):
    for j in range(-2, cx.top + 2):
        reps = cx.representatives(j)
        assert reps == dense_representatives(cx, j), j
        assert len(reps) == cx.betti(j), j


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
    d = max(len(f) for f in K.facets)
    assert len(betti) == K.n + d + 1 and betti[-1] == 1
    assert betti == betti[::-1]


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
    for K in [cycle(9), cross_polytope(5), from_facets(3, []), SimplicialComplex(0, [[]])]:
        expected = 1 if K.n == 0 else 0
        assert euler_characteristic(hochster_betti(K)) == expected
    for q in range(6):
        assert euler_characteristic(hochster_betti(simplex(q))) == 1


@settings(max_examples=40)
@given(nondegenerate_complexes(max_n=12))
def test_euler_characteristic_vanishes_unless_simplex(K):
    # the diagonal circle acts freely on Z(K) unless the whole vertex set is a face
    full = VertexSet(range(1, K.n + 1))
    expected = 1 if K.is_face(full) else 0
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

    span = RowSpan()
    assert span.add([Fraction(1), Fraction(1)])
    assert not span.add([Fraction(2), Fraction(2)])
    assert span.contains([Fraction(-1), Fraction(-1)])
    assert span.add([Fraction(0), Fraction(1)])
    assert span.contains([Fraction(5), Fraction(7)])
