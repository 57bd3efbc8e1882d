import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macomplex import (
    NonfaceFamily,
    NotApplicableError,
    SimplicialComplex,
    boundary_simplex,
    classify,
    cycle,
    elliptic_model,
    find_witness,
    full_subcomplex,
    hochster_betti,
    hochster_table,
    minimal_nonfaces,
    random_complex,
    reconstruct,
    restrict_family,
    simplex,
)
from oracles import (
    convolve,
    mask_of,
    random_family,
    random_intersecting_family,
    rank_within,
    vertices_of,
)


def has_meeting_pair(M: NonfaceFamily) -> bool:
    """Whether two members of ``M`` share a vertex, by testing every pair."""
    members = list(M)
    return any(a & b for i, a in enumerate(members) for b in members[i + 1 :])


def test_classify_boundary_simplices():
    for k in range(1, 5):
        verdict = classify(boundary_simplex(k))
        assert verdict.is_elliptic
        assert verdict.sphere_dims == (2 * k + 1,)
        assert verdict.disk_dim == 0


def test_classify_simplices():
    for k in range(0, 5):
        verdict = classify(simplex(k))
        assert verdict.is_elliptic
        assert verdict.sphere_dims == ()
        assert verdict.disk_dim == 2 * k + 2


def test_classify_c5(c5):
    verdict = classify(c5)
    assert not verdict.is_elliptic
    assert verdict.witness_mask == 0b1101
    assert {frozenset(vertices_of(m)) for m in verdict.witness_family} == {
        frozenset({1, 3}),
        frozenset({1, 4}),
    }


def test_find_witness_examples():
    I, MI = find_witness(NonfaceFamily(3, [[1, 2], [2, 3]]))
    assert I == 0b111 and len(MI) == 2

    # all five intersecting pairs of the C5 family have unions of size 3;
    # the first pair in canonical order wins
    M = NonfaceFamily(5, [[1, 3], [1, 4], [2, 4], [2, 5], [3, 5]])
    I, MI = find_witness(M)
    assert I == 0b1101
    assert {frozenset(vertices_of(m)) for m in MI} == {
        frozenset({1, 3}),
        frozenset({1, 4}),
    }

    M = NonfaceFamily(6, [[1, 2, 3], [3, 4], [4, 5, 6]])
    I, MI = find_witness(M)
    assert I == 0b1111
    assert {frozenset(vertices_of(m)) for m in MI} == {
        frozenset({1, 2, 3}),
        frozenset({3, 4}),
    }


def test_find_witness_requires_intersections():
    with pytest.raises(NotApplicableError):
        find_witness(NonfaceFamily(4, [[1, 3], [2, 4]]))


def all_pairs_witness(M):
    """The witness key as the all-pairs ``min`` over intersecting pairs."""
    members = M.members
    return min(
        (
            ((a | b).bit_count(), a, b)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if a & b
        ),
        default=None,
    )


@given(st.lists(st.integers(0, 1023).filter(lambda m: m.bit_count() >= 2), max_size=12))
def test_find_witness_matches_all_pairs_min(masks):
    antichain = [m for m in set(masks) if not any(m != k and k & ~m == 0 for k in masks)]
    M = NonfaceFamily(10, antichain)
    best = all_pairs_witness(M)
    if best is None:
        with pytest.raises(NotApplicableError):
            find_witness(M)
        return
    I, MI = find_witness(M)
    assert I == best[1] | best[2]
    assert MI == restrict_family(M, I)


@pytest.mark.parametrize("seed", range(5))
def test_witness_ignores_input_order(seed):
    rng = random.Random(seed)
    M = random_intersecting_family(rng, 9)
    expected = find_witness(M)
    K = reconstruct(M)
    verdict = classify(K)
    for _ in range(5):
        members = list(M.members)
        rng.shuffle(members)
        assert find_witness(NonfaceFamily(M.n, members)) == expected
        facets = list(K.facets)
        rng.shuffle(facets)
        assert classify(SimplicialComplex(K.n, facets)) == verdict
    assert verdict.witness_mask == expected[0]


def test_long_cycle_witness():
    verdict = classify(cycle(63))
    assert verdict.witness_mask == 0b1101
    assert [vertices_of(m) for m in verdict.witness_family] == [[1, 3], [1, 4]]


def test_elliptic_model_examples():
    dims, disk = elliptic_model(NonfaceFamily(4, [[1, 3], [2, 4]]))
    assert dims == (3, 3) and disk == 0
    dims, disk = elliptic_model(NonfaceFamily(3, [[1, 2]]))
    assert dims == (3,) and disk == 2
    dims, disk = elliptic_model(NonfaceFamily(5, []))
    assert dims == () and disk == 10
    with pytest.raises(NotApplicableError):
        elliptic_model(NonfaceFamily(3, [[1, 2], [2, 3]]))


def test_dichotomy_totality():
    rng = random.Random(77)
    for i in range(60):
        K = random_complex(rng.randint(2, 7), seed=900 + i)
        M = minimal_nonfaces(K)
        verdict = classify(K)
        assert verdict.is_elliptic == (not has_meeting_pair(M))
        if verdict.is_elliptic:
            assert sorted(verdict.sphere_dims) == sorted(2 * m.bit_count() - 1 for m in M)
        else:
            members = list(verdict.witness_family)
            assert len(members) >= 2
            for a_idx, a in enumerate(members):
                for b in members[a_idx + 1 :]:
                    assert a & b
                    assert (a | b) == verdict.witness_mask


def test_witness_union_law_random():
    rng = random.Random(78)
    for _ in range(80):
        M = random_intersecting_family(rng, rng.randint(3, 10))
        I, MI = find_witness(M)
        members = list(MI)
        assert len(members) >= 2
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert a & b
                assert (a | b) == I


def test_elliptic_poincare_polynomial():
    rng = random.Random(79)
    checked = 0
    for i in range(60):
        K = random_complex(rng.randint(2, 6), seed=1700 + i)
        verdict = classify(K)
        if not verdict.is_elliptic:
            continue
        poly = [1]
        for d in verdict.sphere_dims:
            factor = [0] * (d + 1)
            factor[0] = factor[d] = 1
            poly = convolve(poly, factor)
        assert hochster_betti(K) == poly
        checked += 1
    assert checked >= 20


def test_witness_summands_appear_verbatim():
    # every (I', j) entry of a full subcomplex's table matches the ambient
    # complex's entry at the traced-back subset
    rng = random.Random(80)
    for i in range(12):
        n = rng.randint(3, 6)
        K = random_complex(n, seed=2600 + i)
        table = hochster_table(K)
        I_mask = rng.randint(1, (1 << n) - 1)
        I = I_mask
        sub_table = hochster_table(full_subcomplex(K, I))
        vertices = vertices_of(I)
        for (sub_mask, j), dim in sub_table.entries.items():
            original = mask_of(vertices[r - 1] for r in vertices_of(sub_mask))
            assert table.entries.get((original, j), 0) == dim
        # and conversely for subsets inside I
        for (mask, j), dim in table.entries.items():
            if mask & ~I:
                continue
            relabeled = rank_within(mask, I)
            assert sub_table.entries.get((relabeled, j), 0) == dim


def test_classify_matches_reconstruction():
    rng = random.Random(81)
    for _ in range(40):
        n = rng.randint(2, 8)
        M = random_family(rng, n)
        K = reconstruct(M)
        assert minimal_nonfaces(K) == M
        verdict = classify(K)
        assert verdict.is_elliptic == (not has_meeting_pair(M))
