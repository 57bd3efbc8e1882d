import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macomplex import (
    ResourceError,
    SimplicialComplex,
    boundary_simplex,
    build,
    cells,
    cross_polytope,
    cycle,
    full_subcomplex,
    hochster_betti,
    join,
    random_complex,
    simplex,
)
from oracles import (
    convolve,
    flag_complex,
    nondegenerate_complexes,
    relabel_facets,
    validate_cells,
)


def test_build_circle():
    K = SimplicialComplex(1, [[]])
    C = build(K)
    assert C.cell_count == 2
    assert [cell for dim in C.cells for cell in dim] == [(0, 0), (0, 1)]
    assert C.betti_numbers() == [1, 1]


def test_build_disk():
    C = build(simplex(0))
    assert C.cell_count == 3
    assert C.betti_numbers() == [1]


def test_build_three_sphere():
    C = build(boundary_simplex(1))
    assert C.cell_count == 8
    assert C.betti_numbers() == [1, 0, 0, 1]


def test_cell_count_formula():
    rng = random.Random(60)
    for i in range(20):
        K = random_complex(rng.randint(1, 6), seed=6600 + i)
        C = build(K)
        expected = sum(1 << (K.n - f.bit_count()) for f in K.face_masks())
        assert C.cell_count == expected


def test_boundary_squares_to_zero():
    rng = random.Random(61)
    for i in range(20):
        K = random_complex(rng.randint(1, 6), seed=7700 + i)
        validate_cells(build(K))


def test_validate_catches_a_flipped_sign(c4):
    # d o d has a non-zero term only on a cell whose sigma has two vertices,
    # so dimension 4 is the first where a flipped sign can show
    C = build(c4)
    validate_cells(C)
    i = next(i for i, (sigma, _) in enumerate(C.cells[4]) if sigma.bit_count() == 2)
    row = C.boundaries[4][i]
    first = min(row)
    row[first] = -row[first]
    with pytest.raises(AssertionError, match="d o d != 0 in dimension"):
        validate_cells(C)


def test_oracle_betti_examples(c4):
    assert build(c4).betti_numbers() == [1, 0, 0, 2, 0, 0, 1]
    for k in range(0, 5):
        assert build(simplex(k)).betti_numbers() == [1]
    assert build(boundary_simplex(2)).betti_numbers() == [1, 0, 0, 0, 0, 1]


def test_cross_polytope_five_is_product_of_three_spheres():
    # the boundary of the 5-dimensional cross polytope is the join of five
    # copies of S^0, so Z(K) is (S^3)^5 with C(5, k) classes in degree 3k
    C = build(cross_polytope(5))
    assert C.cell_count == 8**5
    expected = [0] * 16
    for k in range(6):
        expected[3 * k] = comb(5, k)
    assert C.betti_numbers() == expected


def test_engine_agreement_random():
    rng = random.Random(62)
    for i in range(25):
        K = random_complex(rng.randint(1, 6), seed=8800 + i)
        assert build(K).betti_numbers() == hochster_betti(K)


def test_product_law_sample():
    rng = random.Random(63)
    for i in range(10):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 3)
        K1 = random_complex(n1, seed=9900 + 2 * i)
        K2 = random_complex(n2, seed=9901 + 2 * i)
        b1 = build(K1).betti_numbers()
        b2 = build(K2).betti_numbers()
        assert build(join(K1, K2)).betti_numbers() == convolve(b1, b2)


def test_retract_inequality_over_full_subcomplexes():
    # Betti numbers of Z over a full subcomplex never exceed those of Z(K)
    rng = random.Random(64)
    for i in range(6):
        n = rng.randint(2, 5)
        K = random_complex(n, seed=1100 + i)
        big = build(K).betti_numbers()
        for I_mask in range(1 << n):
            sub = full_subcomplex(K, I_mask)
            small = build(sub).betti_numbers()
            for degree, value in enumerate(small):
                assert value <= (big[degree] if degree < len(big) else 0), (
                    K,
                    I_mask,
                    small,
                    big,
                )


def test_two_connectivity_with_all_singletons():
    rng = random.Random(65)
    for i in range(25):
        K = random_complex(rng.randint(1, 7), seed=1200 + i)
        betti = build(K).betti_numbers()
        padded = betti + [0, 0]
        assert padded[1] == 0 and padded[2] == 0


def test_cell_limit_guard():
    with pytest.raises(ResourceError):
        build(simplex(5), cell_limit=100)


def test_chain_dump_shape(c4):
    data = build(c4).to_json_dict()
    assert len(data["cells"]) == sum(1 << (4 - f.bit_count()) for f in c4.face_masks())
    dims = [entry["dim"] for entry in data["boundary"]]
    assert dims == sorted(dims)
    for entry in data["boundary"]:
        for row, col, sign in entry["entries"]:
            assert sign in (1, -1)


def test_ghost_vertices_contribute_circles():
    # one absent vertex turns Z into (a space) x S^1: degree-1 Betti appears
    K = SimplicialComplex(2, [[1]])
    assert build(K).betti_numbers() == [1, 1]
    assert hochster_betti(K) == [1, 1]


# ---------------------------------------------------------------------------
# the join split: factors from the facets, Betti numbers by convolution

GHOST = SimplicialComplex(1, [[]])  # one vertex in no facet: Z = S^1
# facets {x1, x2, x3} with one vertex from each pair {1, 2}, {3, 4}, {5, 6} and an even
# number of upper ones: every two vertices of different pairs are independent, yet no
# pair splits off, so the three components merge into one block
PARITY = SimplicialComplex(6, [[1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]])


def relabelled(K, labels):
    """``K`` with vertex v renamed ``labels[v - 1]``."""
    return SimplicialComplex(K.n, [list(f) for f in relabel_facets(K, dict(enumerate(labels, 1)))])


def joined(*parts):
    K = SimplicialComplex(0, [[]])
    for part in parts:
        K = join(K, part)
    return K


def assert_blocks_are_join_factors(K, blocks):
    # the blocks partition the vertices, and the facets are exactly the unions
    # of one trace from each block
    assert sum(blocks) == (1 << K.n) - 1
    assert sum(B.bit_count() for B in blocks) == K.n
    unions = {0}
    for B in blocks:
        unions = {u | (f & B) for u in unions for f in K.facets}
    assert unions == set(K.facets)


@pytest.mark.parametrize("k", range(1, 6))
def test_cross_polytope_splits_into_pairs(k):
    blocks = cells._join_blocks(cross_polytope(k))
    assert sorted(B.bit_count() for B in blocks) == [2] * k
    assert_blocks_are_join_factors(cross_polytope(k), blocks)


@pytest.mark.parametrize("cones", [0, 1, 2])
def test_boundary_join_splits_into_its_blocks_and_cone_vertices(cones):
    K = joined(boundary_simplex(2), boundary_simplex(1), boundary_simplex(3))
    if cones:
        K = join(K, simplex(cones - 1))
    K = relabelled(K, random.Random(cones).sample(range(1, K.n + 1), K.n))
    blocks = cells._join_blocks(K)
    assert sorted(B.bit_count() for B in blocks) == [1] * cones + [2, 3, 4]
    assert_blocks_are_join_factors(K, blocks)


def test_ghost_vertex_is_a_block_of_its_own():
    K = relabelled(joined(cycle(5), GHOST), [1, 2, 4, 5, 6, 3])
    blocks = cells._join_blocks(K)
    assert sorted(blocks) == [1 << 2, 0b111011]
    assert_blocks_are_join_factors(K, blocks)


@pytest.mark.parametrize(
    "K",
    [cycle(5), cycle(6), cycle(9), flag_complex(random.Random(3), 8, 0.5), PARITY],
    ids=["C5", "C6", "C9", "flag8", "parity"],
)
def test_complexes_that_are_no_join_give_one_block(K):
    assert cells._join_blocks(K) == [(1 << K.n) - 1]


def test_blocks_that_fail_alone_merge_into_one_factor():
    K = joined(PARITY, boundary_simplex(1))
    assert sorted(cells._join_blocks(K)) == [0b111111, 0b11000000]
    assert cells.betti(K) == (build(K).betti_numbers(), build(K).cell_count)


@st.composite
def relabelled_joins(draw):
    """Joins of two or three complexes on at most 3 vertices, on shuffled labels,
    sometimes with a cone vertex or a ghost vertex joined on."""
    K = joined(*draw(st.lists(nondegenerate_complexes(3), min_size=2, max_size=3)))
    if K.n < 9:
        K = join(K, draw(st.sampled_from([SimplicialComplex(0, [[]]), simplex(0), GHOST])))
    return relabelled(K, draw(st.permutations(range(1, K.n + 1))))


@settings(max_examples=100)
@given(st.one_of(relabelled_joins(), nondegenerate_complexes(9)))
@example(cross_polytope(3))
@example(joined(PARITY, GHOST))
@example(SimplicialComplex(0, [[]]))
@example(SimplicialComplex(3, [[]]))
def test_split_betti_matches_the_unsplit_engine(K):
    C = build(K)
    assert cells.betti(K) == (C.betti_numbers(), C.cell_count)
