import pytest
from hypothesis import given
from hypothesis import strategies as st

from macomplex import (
    InputError,
    NonfaceFamily,
    SimplicialComplex,
    SphereModel,
    boundary_simplex,
    cross_polytope,
    cycle,
    free_lie_ranks,
    full_subcomplex,
    generate,
    join,
    product_ranks,
    random_complex,
    restrict_family,
    simplex,
)
from macomplex.complexes import _mask_of, _maximal_masks
from oracles import brute_faces, facet_sets, mask_of, vertices_of


def test_vertexset_range_validation():
    with pytest.raises(InputError):
        _mask_of([0])
    with pytest.raises(InputError):
        _mask_of([64])
    with pytest.raises(InputError):
        SimplicialComplex(3, [[0]])
    with pytest.raises(InputError):
        SimplicialComplex(63, [[64]])


# int() would coerce each to valid vertices: {2}, {1}, {1}, {1, 3}.
@pytest.mark.parametrize("vertices", [[2.7], ["1"], [True], [1.9, "3"]])
def test_vertex_lists_reject_non_integers(vertices):
    with pytest.raises(InputError):
        _mask_of(vertices)
    with pytest.raises(InputError):
        SimplicialComplex(3, [vertices])


def test_facets_and_non_faces_are_masks_or_vertex_lists():
    K = SimplicialComplex(4, [0b0011, [2, 3], 0b1100, [1, 4]])
    assert K.facets == (0b0011, 0b0110, 0b1001, 0b1100)
    assert K == SimplicialComplex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    M = NonfaceFamily(4, [0b0101, [2, 4]])
    assert M.members == (0b0101, 0b1010)
    assert M == NonfaceFamily(4, [[1, 3], [2, 4]])


N = 4
C4 = SimplicialComplex(N, [[1, 2], [2, 3], [3, 4], [1, 4]])
M4 = NonfaceFamily(N, [[1, 3], [2, 4]])
# every public function that takes a vertex mask, fed one bad mask
MASK_TAKERS = {
    "SimplicialComplex": lambda m: SimplicialComplex(N, [m]),
    "NonfaceFamily": lambda m: NonfaceFamily(N, [m]),
    "full_subcomplex": lambda m: full_subcomplex(C4, m),
    "restrict_family": lambda m: restrict_family(M4, m),
}


@pytest.mark.parametrize("mask", [True, -1, 1 << N, "3"], ids=repr)
@pytest.mark.parametrize("call", MASK_TAKERS.values(), ids=MASK_TAKERS)
def test_bad_masks_raise_input_error(call, mask):
    with pytest.raises(InputError):
        call(mask)


@pytest.mark.parametrize("n", [True, 3.0, "3", -1, 64, 99])
def test_vertex_count_is_an_integer_in_range(n):
    with pytest.raises(InputError):
        SimplicialComplex(n, [[1]])


# argument checks of the library that no CLI path reaches, with their messages
ARGUMENT_CHECKS = {
    "join": (lambda: join(simplex(31), simplex(31)), "join would need 64 > 63 vertices"),
    "boundary_simplex": (lambda: boundary_simplex(-1), "dimension must be >= 0, got -1"),
    "cycle": (lambda: cycle(2), "a cycle needs at least 3 vertices, got 2"),
    "cross_polytope": (lambda: cross_polytope(0), "needs k >= 1, got 0"),
    "random_complex": (lambda: random_complex(0), "need n >= 1, got 0"),
    "generate": (lambda: generate("nope", 3), "unknown family 'nope'"),
    "free_lie_ranks": (
        lambda: free_lie_ranks(SphereModel("wedge", (3, 3)), 0),
        "truncation must be at least 1",
    ),
    "product_ranks_of_a_wedge": (
        lambda: product_ranks(SphereModel("wedge", (3, 3)), 24),
        "only apply to product models",
    ),
    "product_ranks_truncation": (
        lambda: product_ranks(SphereModel("product", (5,)), 3),
        "truncation too small to hold every sphere's class",
    ),
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS)
def test_unreached_argument_checks_raise_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_from_facets_removes_duplicates():
    K = SimplicialComplex(3, [[1, 2], [2, 3], [1, 2]])
    assert facet_sets(K) == {frozenset({1, 2}), frozenset({2, 3})}


def test_from_facets_reduces_containments():
    K = SimplicialComplex(2, [[1], [1, 2]])
    assert facet_sets(K) == {frozenset({1, 2})}


def test_from_facets_c4_faces_match_definition(c4):
    # downward closure of the 4-cycle: empty set, 4 vertices, 4 edges
    expected = {frozenset()}
    expected |= {frozenset({v}) for v in range(1, 5)}
    expected |= {frozenset(e) for e in ({1, 2}, {2, 3}, {3, 4}, {1, 4})}
    assert brute_faces(c4) == expected
    assert {frozenset(vertices_of(f)) for f in c4.face_masks()} == expected


def test_from_facets_vertex_out_of_range():
    with pytest.raises(InputError):
        SimplicialComplex(3, [[1, 4]])


def test_canonical_order_and_equality():
    K1 = SimplicialComplex(4, [[3, 4], [1, 2], [2, 3], [1, 4]])
    K2 = SimplicialComplex(4, [[1, 4], [2, 3], [1, 2], [3, 4]])
    assert K1 == K2
    assert hash(K1) == hash(K2)
    assert (K1 == "x") is False  # __eq__ answers NotImplemented
    masks = list(K1.facets)
    assert masks == sorted(masks)


def test_empty_complex_has_empty_face():
    K = SimplicialComplex(2, [])
    assert facet_sets(K) == {frozenset()}
    assert K.face_masks() == {0}


def test_join_of_point_pairs_is_four_cycle():
    K = join(boundary_simplex(1), boundary_simplex(1))
    assert K == SimplicialComplex(4, [[1, 3], [1, 4], [2, 3], [2, 4]])


def test_join_identity_and_simplices(c4):
    empty = SimplicialComplex(0, [])
    assert join(c4, empty) == c4
    assert join(simplex(0), simplex(0)) == simplex(1)


def test_join_facet_count_is_product(c4):
    K = join(c4, boundary_simplex(2))
    assert len(K.facets) == len(c4.facets) * 3
    assert K.n == 7


def test_join_associative_up_to_nothing():
    a, b, c = simplex(0), boundary_simplex(1), SimplicialComplex(2, [[1], [2]])
    assert join(join(a, b), c) == join(a, join(b, c))


def test_full_subcomplex_examples(c4):
    K = full_subcomplex(c4, 0b101)
    assert K == SimplicialComplex(2, [[1], [2]])
    assert full_subcomplex(c4, 0) == SimplicialComplex(0, [])
    assert full_subcomplex(c4, 0b1111) == c4


def test_full_subcomplex_nesting(c4):
    # restricting twice equals restricting to the traced-back subset
    I = 0b111
    inner = 0b101  # ranks within I -> original vertices 1 and 3
    lhs = full_subcomplex(full_subcomplex(c4, I), inner)
    original = mask_of(vertices_of(I)[r - 1] for r in vertices_of(inner))
    assert lhs == full_subcomplex(c4, original)


@given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1), st.integers(0, 10**6))
def test_full_subcomplex_nesting_property(I_mask, inner_bits, seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 6)
    facets = [
        sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        for _ in range(rng.randint(1, 5))
    ]
    K = SimplicialComplex(n, facets)
    I = I_mask & ((1 << n) - 1)
    inner = inner_bits & ((1 << I.bit_count()) - 1)
    lhs = full_subcomplex(full_subcomplex(K, I), inner)
    ordered = vertices_of(I)
    original = mask_of(ordered[r - 1] for r in vertices_of(inner))
    assert lhs == full_subcomplex(K, original)


def test_simplex_and_boundary():
    assert facet_sets(simplex(2)) == {frozenset({1, 2, 3})}
    assert facet_sets(boundary_simplex(1)) == {frozenset({1}), frozenset({2})}
    assert facet_sets(boundary_simplex(2)) == {
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({1, 3}),
    }
    degenerate = boundary_simplex(0)
    assert degenerate.n == 1 and facet_sets(degenerate) == {frozenset()}
    with pytest.raises(InputError):
        simplex(-1)


def test_json_round_trip(c4):
    data = c4.to_json_dict()
    assert data == {"n": 4, "facets": [[1, 2], [2, 3], [1, 4], [3, 4]]}
    assert SimplicialComplex.from_json_dict(data) == c4
    with pytest.raises(InputError):
        SimplicialComplex.from_json_dict({"n": 2})


@pytest.mark.parametrize(
    "data",
    [
        # each would be a valid complex if coerced to 1, 3, 2 or 1
        {"n": True, "facets": [[1]]},
        {"n": 3.9, "facets": [[1, 2], [3]]},
        {"n": 3, "facets": [[1, 2.7], [3]]},
        {"n": 3, "facets": [["1", 2], [3]]},
        # not a list of vertex lists
        {"n": 3, "facets": [5]},
        {"n": 3, "facets": "12"},
        [4],
        # n out of range
        {"n": -1, "facets": [[1]]},
        {"n": 99, "facets": [[1]]},
    ],
)
def test_from_json_dict_rejects_malformed(data):
    with pytest.raises(InputError):
        SimplicialComplex.from_json_dict(data)


json_scalars = st.one_of(
    st.integers(-1, 7), st.booleans(), st.floats(-2, 8), st.text(max_size=2), st.none()
)


@given(json_scalars, st.lists(st.lists(json_scalars, max_size=3), max_size=3))
def test_from_json_dict_never_coerces(n, facets):
    data = {"n": n, "facets": facets}
    if type(n) is not int or any(type(v) is not int for f in facets for v in f):
        with pytest.raises(InputError):
            SimplicialComplex.from_json_dict(data)
        return
    try:
        K = SimplicialComplex.from_json_dict(data)
    except InputError:  # a vertex or n out of range
        return
    assert K.n == n
    assert facet_sets(K) == facet_sets(SimplicialComplex(n, facets))


def brute_maximal_masks(masks):
    uniq = set(masks)
    kept = [m for m in uniq if not any(m != k and m & ~k == 0 for k in uniq)]
    return sorted(kept, key=lambda m: (m.bit_count(), m)) or [0]


THREE_SETS = [m for m in range(256) if m.bit_count() == 3]


@given(
    st.lists(st.integers(0, 255), max_size=12),
    st.lists(st.sampled_from(THREE_SETS), max_size=8),
    st.integers(0, 255),
    st.integers(0, 8),
    st.booleans(),
)
def test_maximal_masks_match_bruteforce(masks, same_size, top, chain_length, empty):
    # a group of equal size, a nested chain below ``top``, duplicates of
    # everything and possibly the empty set ride along
    chain = [top >> i << i for i in range(chain_length)]
    masks = masks + same_size + chain + masks[:3] + same_size[:2] + ([0] if empty else [])
    assert _maximal_masks(masks) == brute_maximal_masks(masks)


def test_maximal_masks_edge_cases():
    assert _maximal_masks([]) == [0]
    assert _maximal_masks([0, 0]) == [0]
    assert _maximal_masks([0b11, 0b101, 0b110]) == [0b11, 0b101, 0b110]
    assert _maximal_masks([0b1, 0b11, 0b111, 0b11]) == [0b111]
