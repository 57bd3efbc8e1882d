import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from macomplex import (
    GhostVertexError,
    InputError,
    NonfaceFamily,
    SimplicialComplex,
    boundary_simplex,
    cycle,
    full_subcomplex,
    join,
    minimal_nonfaces,
    reconstruct,
    relabel_family,
    restrict_family,
    simplex,
    support,
)
from macomplex import nonfaces
from macomplex.nonfaces import _minimal_nonface_masks, _minimal_transversals, _neighbours
from oracles import (
    brute_faces,
    brute_minimal_nonfaces,
    brute_reconstruct_facets,
    enumerate_complexes,
    facet_sets,
    flag_complex,
    random_family,
    relabel_facets,
    vertices_of,
)


def members_as_sets(M: NonfaceFamily) -> set[frozenset]:
    return {frozenset(vertices_of(m)) for m in M}


def test_family_validation():
    with pytest.raises(InputError):
        NonfaceFamily(3, [[1]])
    with pytest.raises(InputError):
        NonfaceFamily(3, [[1, 2], [1, 2, 3]])
    with pytest.raises(InputError):
        NonfaceFamily(2, [[1, 3]])
    M = NonfaceFamily(4, [[2, 4], [1, 3]])
    assert list(M) == sorted(M)
    # the 1,890 non-edges of C63 are one size group; a triangle over {1, 3} is not
    non_edges = [[i, j] for i in range(1, 64) for j in range(i + 2, 64) if (i, j) != (1, 63)]
    M = NonfaceFamily(63, non_edges)
    assert len(M) == 1890 and M == minimal_nonfaces(cycle(63))
    with pytest.raises(InputError, match="antichain"):
        NonfaceFamily(63, non_edges + [[1, 2, 3]])


@given(
    st.lists(st.integers(0, 255).filter(lambda m: m.bit_count() >= 2), max_size=10),
    st.integers(0, 10),
    st.integers(0, 255),
)
def test_family_rejects_exactly_the_nested_pairs(masks, repeat, extra):
    # duplicates and supersets of earlier members are appended
    masks = masks + masks[:repeat] + [m | extra for m in masks[:repeat]]
    nested = any(a != b and a & ~b == 0 for a in masks for b in masks)
    if nested:
        with pytest.raises(InputError, match="antichain"):
            NonfaceFamily(8, masks)
    else:
        assert list(NonfaceFamily(8, masks)) == sorted(set(masks))


@pytest.mark.parametrize("n", [True, 3.0, -1, 64, 99])
def test_family_vertex_count_is_an_integer_in_range(n):
    with pytest.raises(InputError):
        NonfaceFamily(n, [[1, 2]])


def test_family_json_round_trip():
    M = NonfaceFamily(4, [[2, 4], [1, 3]])
    data = M.to_json_dict()
    assert NonfaceFamily(data["n"], data["members"]) == M


# Each would be a valid family if n = True, n = 3.9, the vertex 2.7 or the
# vertex "1" were coerced to 1, 3, 2 or 1; the last two have n out of range.
@pytest.mark.parametrize(
    "data",
    [
        {"n": True, "members": []},
        {"n": 3.9, "members": [[1, 2]]},
        {"n": 3, "members": [[1, 2.7]]},
        {"n": 3, "members": [["1", 2]]},
        {"n": -1, "members": [[1, 2]]},
        {"n": 99, "members": [[1, 2]]},
    ],
)
def test_family_json_rejects_non_integers(data):
    with pytest.raises(InputError):
        NonfaceFamily(data["n"], data["members"])


def test_minimal_nonfaces_examples(c4):
    for n in (3, 4, 5):
        assert members_as_sets(minimal_nonfaces(boundary_simplex(n - 1))) == {
            frozenset(range(1, n + 1))
        }
        assert len(minimal_nonfaces(simplex(n - 1))) == 0
    assert members_as_sets(minimal_nonfaces(c4)) == {
        frozenset({1, 3}),
        frozenset({2, 4}),
    }


def test_minimal_nonfaces_matches_bruteforce():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 7)
        facets = [
            sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 6))
        ] + [[v] for v in range(1, n + 1)]
        K = SimplicialComplex(n, facets)
        assert members_as_sets(minimal_nonfaces(K)) == brute_minimal_nonfaces(K)


def brute_minimal_transversals(sets: list[int], universe: int) -> list[int]:
    hitting = {t for t in range(universe + 1) if t & ~universe == 0 and all(t & s for s in sets)}
    return sorted(
        t for t in hitting if all(t ^ (1 << i) not in hitting for i in range(10) if t >> i & 1)
    )


@given(
    st.integers(0, 511),
    st.lists(st.integers(0, 1023), max_size=7),
    st.integers(0, 7),
    st.integers(0, 1023),
)
def test_minimal_transversals_match_bruteforce(universe, sets, repeat, extra):
    # bit 9 lies outside every universe; duplicates and supersets of earlier
    # sets are appended, and a set missing the universe leaves no transversal
    sets = sets + sets[:repeat] + [s | extra for s in sets[:repeat]]
    assert _minimal_transversals(sets, universe) == brute_minimal_transversals(sets, universe)


def test_minimal_transversals_edge_cases():
    assert _minimal_transversals([], 0b111) == [0]
    assert _minimal_transversals([0b011, 0], 0b111) == []
    assert _minimal_transversals([0b1000], 0b111) == []
    assert _minimal_transversals([0b011, 0b011, 0b111], 0b111) == [0b001, 0b010]


@pytest.mark.parametrize("m", [40, 63])
def test_long_cycle_nonfaces_are_the_non_edges(m):
    K = cycle(m)
    M = minimal_nonfaces(K)
    assert len(M) == m * (m - 3) // 2
    assert all(x.bit_count() == 2 and not K.is_face(x) for x in M)
    assert reconstruct(M) == K


def test_ghost_vertex_error():
    with pytest.raises(GhostVertexError) as excinfo:
        minimal_nonfaces(SimplicialComplex(3, [[1, 2]]))
    assert excinfo.value.vertex == 3
    with pytest.raises(GhostVertexError):
        minimal_nonfaces(SimplicialComplex(2, [[]]))


def test_reconstruct_examples(c4):
    assert facet_sets(reconstruct(NonfaceFamily(2, [[1, 2]]))) == {
        frozenset({1}),
        frozenset({2}),
    }
    assert reconstruct(NonfaceFamily(3, [])) == simplex(2)
    assert reconstruct(NonfaceFamily(4, [[1, 3], [2, 4]])) == c4


def test_reconstruct_matches_bruteforce():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 7)
        M = random_family(rng, n)
        got = facet_sets(reconstruct(M))
        want = brute_reconstruct_facets([vertices_of(m) for m in M], n)
        assert got == want, M


def test_round_trip_exhaustive_small():
    for n in range(0, 5):
        for K in enumerate_complexes(n):
            if K.covered_vertices().bit_count() == K.n:
                assert reconstruct(minimal_nonfaces(K)) == K
            else:
                with pytest.raises(GhostVertexError):
                    minimal_nonfaces(K)


def test_dual_round_trip_random():
    rng = random.Random(44)
    for _ in range(120):
        n = rng.randint(2, 8)
        M = random_family(rng, n)
        assert minimal_nonfaces(reconstruct(M)) == M


@given(
    st.integers(1, 7),
    st.lists(
        st.lists(st.integers(1, 7), min_size=1, max_size=7),
        min_size=1,
        max_size=6,
    ),
)
def test_round_trip_property(n, raw_facets):
    facets = [[v for v in f if v <= n] for f in raw_facets]
    facets = [f for f in facets if f]
    facets += [[v] for v in range(1, n + 1)]  # keep every singleton a face
    K = SimplicialComplex(n, facets)
    assert reconstruct(minimal_nonfaces(K)) == K


def test_support():
    assert support(NonfaceFamily(4, [[1, 3], [2, 4]])) == 0b1111
    assert support(NonfaceFamily(3, [])) == 0
    assert support(NonfaceFamily(3, [[1, 2], [2, 3]])) == 0b111


def test_disjoint_members_give_join_of_boundaries():
    # pairwise disjoint non-faces: the complex is a join of simplex boundaries
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(4, 9)
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        members, idx = [], 0
        while idx + 2 <= len(pool):
            take = rng.randint(2, min(3, len(pool) - idx))
            members.append(sorted(pool[idx : idx + take]))
            idx += take
        M = NonfaceFamily(n, members)
        assert not any(
            a & b for i, a in enumerate(M.members) for b in M.members[i + 1 :]
        )
        joined = None
        for m in sorted(members):
            piece = boundary_simplex(len(m) - 1)
            joined = piece if joined is None else join(joined, piece)
        order = [v for m in sorted(members) for v in m]
        nu = vertices_of(support(M))
        mapping = {i + 1: nu.index(v) + 1 for i, v in enumerate(order)}
        expected = reconstruct(relabel_family(M, support(M)))
        assert relabel_facets(joined, mapping) == facet_sets(expected)


def test_restrict_family_examples(c5):
    M = minimal_nonfaces(c5)
    restricted = restrict_family(M, 0b1101)
    assert members_as_sets(restricted) == {frozenset({1, 3}), frozenset({1, 4})}
    assert restrict_family(M, 0b11111) == M
    M = NonfaceFamily(4, [[1, 3], [2, 4]])
    assert members_as_sets(restrict_family(M, 0b111)) == {
        frozenset({1, 3})
    }


def test_restriction_equality_all_subsets():
    rng = random.Random(48)
    for _ in range(25):
        n = rng.randint(2, 7)
        M = random_family(rng, n)
        K = reconstruct(M)
        for I in range(1 << n):
            lhs = full_subcomplex(K, I)
            rhs = reconstruct(relabel_family(restrict_family(M, I), I))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# the boundary-join and flag recognisers against Berge's enumeration


def berge_nonfaces(K: SimplicialComplex) -> list[int]:
    """Minimal non-faces as the minimal transversals of the facet complements."""
    full = (1 << K.n) - 1
    return _minimal_transversals([full & ~f for f in K.facets], full)


def recognised_nonfaces(K: SimplicialComplex) -> list[int]:
    """``_minimal_nonface_masks(K)`` with Berge's enumeration unreachable."""

    def unreachable(sets, universe):
        raise AssertionError("the complex should have been recognised")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nonfaces, "_minimal_transversals", unreachable)
        return _minimal_nonface_masks(K)


@given(
    st.integers(0, 10),
    st.lists(st.integers(0, 1023), max_size=8),
    st.integers(0, 1023),
)
@example(0, [], 0)
def test_nonface_masks_match_berge_with_ghost_vertices(n, masks, ghosts):
    full = (1 << n) - 1
    K = SimplicialComplex(n, [m & full & ~ghosts for m in masks])
    assert _minimal_nonface_masks(K) == berge_nonfaces(K)
    # the 1-skeleton: bit u - 1 of near[v - 1] is set exactly when {u, v} is a face,
    # u = v included, so a ghost vertex gets 0
    faces = brute_faces(K)
    near = [sum(1 << (u - 1) for u in range(1, n + 1) if frozenset({u, v}) in faces)
            for v in range(1, n + 1)]
    assert _neighbours(K) == near


@given(st.integers(1, 10), st.sampled_from([0.3, 0.5, 0.7, 1.0]), st.integers(0, 2**32 - 1))
def test_flag_complexes_are_recognised(n, p, seed):
    K = flag_complex(random.Random(seed), n, p)
    expected = berge_nonfaces(K)
    assert all(m.bit_count() == 2 for m in expected)
    assert recognised_nonfaces(K) == expected


def relabelled_boundary_join(sizes, cone, seed):
    """d(B_1) * ... * d(B_k) * D(cone) on shuffled labels, with its blocks."""
    parts = [boundary_simplex(size - 1) for size in sizes]
    if cone:
        parts.append(simplex(cone - 1))
    joined = SimplicialComplex(0, [[]])
    for part in parts:
        joined = join(joined, part)
    labels = list(range(1, joined.n + 1))
    random.Random(seed).shuffle(labels)
    mapping = dict(zip(range(1, joined.n + 1), labels))
    K = SimplicialComplex(joined.n, [sorted(f) for f in relabel_facets(joined, mapping)])
    blocks, start = [], 1
    for size in sizes:
        blocks.append(sum(1 << (mapping[v] - 1) for v in range(start, start + size)))
        start += size
    return K, sorted(blocks)


@given(
    st.lists(st.integers(2, 4), max_size=4),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_boundary_joins_are_recognised(sizes, cone, seed):
    K, blocks = relabelled_boundary_join(sizes, cone, seed)
    assert berge_nonfaces(K) == blocks
    assert recognised_nonfaces(K) == blocks


@given(
    st.lists(st.integers(2, 4), min_size=1, max_size=4),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_boundary_join_without_a_facet_matches_berge(sizes, cone, seed):
    K, _ = relabelled_boundary_join(sizes, cone, seed)
    facets = list(K.facets)
    del facets[random.Random(seed).randrange(len(facets))]
    if not facets:
        return
    near = SimplicialComplex(K.n, facets)
    assert _minimal_nonface_masks(near) == berge_nonfaces(near)


@given(st.integers(3, 10), st.sampled_from([0.5, 0.7, 0.9]), st.integers(0, 2**32 - 1))
def test_flag_complex_with_a_hollow_triangle_matches_berge(n, p, seed):
    K = flag_complex(random.Random(seed), n, p)
    triangles = [f for f in K.facets if f.bit_count() == 3]
    if not triangles:
        return
    t = triangles[random.Random(seed).randrange(len(triangles))]
    edges = [t ^ 1 << (v - 1) for v in vertices_of(t)]
    near = SimplicialComplex(K.n, [f for f in K.facets if f != t] + edges)
    assert t in berge_nonfaces(near)
    assert _minimal_nonface_masks(near) == berge_nonfaces(near)


@pytest.mark.parametrize("K", [SimplicialComplex(0, [[]]), simplex(0), simplex(5)], ids=repr)
def test_no_nonfaces_without_berge(K):
    assert berge_nonfaces(K) == []
    assert recognised_nonfaces(K) == []
