import itertools
import math
import random

import pytest
from hypothesis import assume, example, given
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
    restrict_family,
    simplex,
    support,
)
from macomplex import nonfaces
from macomplex.nonfaces import (
    _boundary_join_blocks,
    _flag_non_edges,
    _minimal_nonface_masks,
    _minimal_transversals,
    _unions_by_vertex,
)
from oracles import (
    brute_faces,
    brute_minimal_nonfaces,
    brute_reconstruct_facets,
    enumerate_complexes,
    facet_sets,
    flag_complex,
    mask_of,
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
    faces = K.face_masks()
    assert all(x.bit_count() == 2 and x not in faces for x in M)
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
        expected = full_subcomplex(reconstruct(M), support(M))
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
            rhs = full_subcomplex(reconstruct(restrict_family(M, I)), I)
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
    assert _unions_by_vertex(K.facets, n) == near


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
@example([2, 2, 2, 2], 0, 0)  # the cross polytope: exactly 2^k facets
@example([2, 2, 2, 2], 3, 1)
def test_boundary_joins_are_recognised(sizes, cone, seed):
    K, blocks = relabelled_boundary_join(sizes, cone, seed)
    assert berge_nonfaces(K) == blocks
    assert recognised_nonfaces(K) == blocks


@given(
    st.lists(st.integers(2, 4), min_size=1, max_size=4),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
@example([2, 2, 2], 0, 0)  # 2^k - 1 facets: the gate declines
def test_boundary_join_without_a_facet_matches_berge(sizes, cone, seed):
    K, _ = relabelled_boundary_join(sizes, cone, seed)
    facets = list(K.facets)
    del facets[random.Random(seed).randrange(len(facets))]
    if not facets:
        return
    near = SimplicialComplex(K.n, facets)
    assert _minimal_nonface_masks(near) == berge_nonfaces(near)


@st.composite
def pure_complexes_past_the_join_gate(draw):
    """Facets drawn from the (n - k)-subsets of 1..n, at least 2^k of them,
    sometimes with one random extra facet, which may break purity."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, n - 1).filter(lambda k: math.comb(n, k) >= 1 << k))
    subsets = [mask_of(c) for c in itertools.combinations(range(1, n + 1), n - k)]
    facets = draw(st.lists(st.sampled_from(subsets), min_size=1 << k, unique=True))
    extra = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=1))
    return SimplicialComplex(n, facets + extra)


@st.composite
def boundary_joins_with_grown_facets(draw):
    """A boundary join with three pair blocks, in which the facets around one
    cycle of the cube that those pairs span each gain a vertex.

    A corner of the cube is the facet whose complement holds one vertex of
    each pair block and the least vertex of every other block.  For each
    cube edge on the cycle, the union of its two corner facets (either one
    plus the vertex it misses in the edge's direction) becomes a facet and
    swallows both; the cycle has as many edges as corners, so the facet
    count stays the product of the block sizes and the blocks stay the sets
    never missed together, but K is no longer pure.
    """
    extra = draw(st.lists(st.integers(2, 3), max_size=2))
    cone = draw(st.integers(0, 2))
    K, blocks = relabelled_boundary_join([2, 2, 2] + extra, cone, draw(st.integers(0, 2**32 - 1)))
    pairs = [b for b in blocks if b.bit_count() == 2][:3]
    held = sum(b & -b for b in blocks if b not in pairs)
    full = (1 << K.n) - 1

    def corner(c):  # bit d of c picks the upper vertex of pairs[d]
        missed = held | sum(p & (p - 1) if c >> d & 1 else p & -p for d, p in enumerate(pairs))
        return full & ~missed

    if draw(st.booleans()):  # the four corners of a face
        d, side = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        corners = [c for c in range(8) if c >> d & 1 == side]
    else:  # the six corners off a long diagonal
        a = draw(st.integers(0, 7))
        corners = [c for c in range(8) if c not in (a, a ^ 7)]
    grown = [
        corner(c) | corner(c ^ 1 << d) for c in corners for d in range(3) if c ^ 1 << d in corners
    ]
    return SimplicialComplex(K.n, list(K.facets) + grown)


@st.composite
def pure_complexes_with_surplus_classes(draw):
    """Pure complexes whose facet complements each take one vertex from k of
    more than k classes, with as many facets as the product of the class sizes.

    The complements are taken in a drawn order: first each that misses a new
    pair of vertices of distinct classes together, until every such pair is
    missed together, then the next ones up to the product.  So the vertices
    never missed together with v are v's class.
    """
    sizes, k = draw(st.sampled_from(
        [((2, 2, 2, 2), 3), ((2, 2, 2, 3), 3), ((1, 2, 2, 2, 2), 4), ((3, 3, 3), 2)]
    ))
    n = sum(sizes) + draw(st.integers(0, 1))
    labels = iter(draw(st.permutations(range(n))))
    classes = [[1 << next(labels) for _ in range(size)] for size in sizes]
    choices = [
        choice
        for chosen in itertools.combinations(classes, k)
        for choice in itertools.product(*chosen)
    ]
    unmet = {u | w for a, b in itertools.combinations(classes, 2) for u in a for w in b}
    order = draw(st.permutations(choices))
    complements = []
    for choice in order:
        pairs = {u | w for u, w in itertools.combinations(choice, 2)}
        if pairs & unmet:
            complements.append(sum(choice))
            unmet -= pairs
    spare = [sum(choice) for choice in order if sum(choice) not in complements]
    complements += spare[: math.prod(sizes) - len(complements)]
    assume(len(complements) == math.prod(sizes))
    full = (1 << n) - 1
    return SimplicialComplex(n, [full & ~c for c in complements])


@given(st.one_of(
    pure_complexes_past_the_join_gate(),
    boundary_joins_with_grown_facets(),  # caught without the purity test
    pure_complexes_with_surplus_classes(),  # caught without the block-count test
))
# not pure: without the purity test this reads as blocks {1, 2}, {3, 4}, {5, 6}, but Berge
# gives nine 4-sets
@example(SimplicialComplex(6, [[1, 3, 5], [2, 4, 6], [1, 2, 4, 5], [2, 3, 4, 5], [1, 2, 3, 6],
                               [1, 3, 4, 6], [2, 3, 5, 6], [1, 4, 5, 6]]))
# pure with k = 3, but seven blocks, whose sizes multiply to the 12 facets
@example(SimplicialComplex(7, [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [2, 3, 5, 6], [1, 4, 5, 6],
                               [2, 4, 5, 6], [1, 2, 3, 7], [1, 3, 4, 7], [1, 4, 5, 7], [3, 4, 5, 7],
                               [2, 3, 6, 7], [1, 4, 6, 7]]))
def test_boundary_join_gate_matches_berge(K):
    expected = berge_nonfaces(K)
    assert _minimal_nonface_masks(K) == expected
    if K.covered_vertices() == (1 << K.n) - 1:
        disjoint = all(a & b == 0 for a, b in itertools.combinations(expected, 2))
        assert (_boundary_join_blocks(K) is not None) == disjoint


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


# every facet is a maximal clique of the 1-skeleton, but the clique {1, 2, 3} is no face;
# no F & N(v) is a whole facet, so the facet filter must find it
THREE_TRIANGLES = SimplicialComplex(6, [[1, 2, 4], [2, 3, 5], [1, 3, 6]])


@pytest.mark.parametrize("K", [THREE_TRIANGLES, join(THREE_TRIANGLES, simplex(0))], ids=repr)
def test_flag_test_finds_a_clique_in_no_facet(K):
    assert _flag_non_edges(K) is None
    assert mask_of([1, 2, 3]) in berge_nonfaces(K)
    assert _minimal_nonface_masks(K) == berge_nonfaces(K)


# each has a facet F and a vertex v outside it adjacent to all of F, so F | {v} is a
# clique larger than a facet: the flag test declines before its facet filter
@pytest.mark.parametrize("K", [boundary_simplex(2), join(cycle(5), boundary_simplex(2))], ids=repr)
def test_flag_test_declines_a_facet_inside_a_larger_clique(K, monkeypatch):
    def refuse(masks):
        raise AssertionError("the facet filter ran")

    monkeypatch.setattr(nonfaces, "_maximal_masks", refuse)
    assert _flag_non_edges(K) is None


@pytest.mark.parametrize("K", [SimplicialComplex(0, [[]]), simplex(0), simplex(5)], ids=repr)
def test_no_nonfaces_without_berge(K):
    assert berge_nonfaces(K) == []
    assert recognised_nonfaces(K) == []
