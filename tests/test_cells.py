import random
from math import comb

import pytest

from macomplex import (
    ResourceError,
    SimplicialComplex,
    boundary_simplex,
    build,
    cross_polytope,
    full_subcomplex,
    hochster_betti,
    join,
    random_complex,
    simplex,
)
from oracles import convolve, validate_cells


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
