import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from macomplex import (
    GhostVertexError,
    NonfaceFamily,
    NotApplicableError,
    RationalTypeVerdict,
    SimplicialComplex,
    boundary_simplex,
    classify,
    cross_polytope,
    cycle,
    elliptic_model,
    find_witness,
    full_subcomplex,
    hochster_betti,
    hochster_table,
    join,
    minimal_nonfaces,
    random_complex,
    reconstruct,
    restrict_family,
    simplex,
)
from macomplex import nonfaces
from macomplex.nonfaces import _minimal_transversals
from oracles import (
    bounded_complex,
    brute_minimal_nonfaces,
    convolve,
    flag_complex,
    mask_of,
    random_family,
    random_intersecting_family,
    rank_within,
    vertices_of,
)

classify_module = sys.modules["macomplex.classify"]  # the package exports the function under that name


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
@example([15, 60, 225])  # three 4-sets whose least union has 6 vertices: no member is skipped
@example([3, 12, 48])  # three disjoint pairs: no pair meets
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


# ---------------------------------------------------------------------------
# the witness from the 1-skeleton against enumerating first


def enumerated_verdict(K: SimplicialComplex) -> RationalTypeVerdict:
    """The verdict from all minimal non-faces, listed by Berge's enumeration."""
    full = (1 << K.n) - 1
    M = NonfaceFamily(K.n, _minimal_transversals([full & ~f for f in K.facets], full))
    try:
        dims, disk = elliptic_model(M)
    except NotApplicableError:
        witness, family = find_witness(M)
        return RationalTypeVerdict("hyperbolic", witness_mask=witness, witness_family=family)
    return RationalTypeVerdict("elliptic", sphere_dims=dims, disk_dim=disk)


@given(
    st.integers(1, 10),
    st.sampled_from(["flag", "bounded", "reconstruct", "join", "boundary"]),
    st.integers(0, 2**32 - 1),
)
def test_classify_matches_enumerating_first(n, kind, seed):
    rng = random.Random(seed)
    if kind == "flag":
        K = flag_complex(rng, n, rng.choice([0.3, 0.5, 0.7]))
    elif kind == "bounded":
        K = bounded_complex(rng, n, rng.randint(1, 4))
    elif kind == "reconstruct":
        K = reconstruct(random_family(rng, max(n, 2)))
    elif kind == "boundary":  # elliptic: the boundary-join recogniser decides it
        K = boundary_simplex(rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            K = join(K, boundary_simplex(rng.randint(1, 3)))
        if rng.random() < 0.5:
            K = join(K, simplex(rng.randint(0, 2)))
    else:  # a flag complex joined with simplex boundaries: the witness, if any, is in the flag part
        K = flag_complex(rng, rng.randint(1, 4), 0.5)
        for _ in range(rng.randint(1, 2)):
            K = join(K, boundary_simplex(rng.randint(1, 3)))
    verdict = classify(K)
    assert verdict == enumerated_verdict(K)
    if not verdict.is_elliptic:
        assert verdict.witness_family == restrict_family(minimal_nonfaces(K), verdict.witness_mask)


@pytest.mark.parametrize(
    "K", [SimplicialComplex(3, [[1, 2]]), SimplicialComplex(2, [[]]), SimplicialComplex(4, [])],
    ids=repr,
)
def test_classify_rejects_ghost_vertices_first(K):
    with pytest.raises(GhostVertexError) as from_classify:
        classify(K)
    with pytest.raises(GhostVertexError) as from_nonfaces:
        minimal_nonfaces(K)
    assert from_classify.value.vertex == from_nonfaces.value.vertex


def test_verdicts_without_berge(monkeypatch):
    # a cycle, a flag complex and a boundary join all answer with the
    # enumeration unreachable
    flag = flag_complex(random.Random(5), 12, 0.5)
    flag_members = sorted(mask_of(m) for m in brute_minimal_nonfaces(flag))
    flag_verdict = enumerated_verdict(flag)

    def unreachable(sets, universe):
        raise AssertionError("Berge's enumeration ran")

    monkeypatch.setattr(nonfaces, "_minimal_transversals", unreachable)
    C40 = cycle(40)
    assert classify(C40).witness_mask == 0b1101
    assert len(minimal_nonfaces(C40)) == 40 * 37 // 2
    assert classify(flag) == flag_verdict
    assert list(minimal_nonfaces(flag)) == flag_members
    K = join(boundary_simplex(10), boundary_simplex(12))
    verdict = classify(K)
    assert verdict.sphere_dims == (21, 25) and verdict.disk_dim == 0
    assert list(minimal_nonfaces(K)) == [(1 << 11) - 1, ((1 << 13) - 1) << 11]


@pytest.mark.parametrize(
    "K",
    [
        join(boundary_simplex(3), boundary_simplex(4)),
        join(join(boundary_simplex(2), boundary_simplex(1)), simplex(2)),
        cross_polytope(4),
    ],
    ids=["boundary join", "boundary join with cone vertices", "cross polytope"],
)
def test_classify_reads_boundary_joins_off_the_facets(monkeypatch, K):
    # no two non-edges meet in any of these, so only the recogniser keeps
    # classify from listing the minimal non-faces
    expected = enumerated_verdict(K)
    assert expected.is_elliptic

    def unreachable(K):
        raise AssertionError("classify listed the minimal non-faces")

    monkeypatch.setattr(classify_module, "minimal_nonfaces", unreachable)
    assert classify(K) == expected


def test_classify_lists_the_nonfaces_when_no_non_edges_meet(monkeypatch):
    K = reconstruct(NonfaceFamily(6, [[1, 2, 3], [3, 4, 5]]))
    calls = []

    def counted(K):
        calls.append(K)
        return minimal_nonfaces(K)

    monkeypatch.setattr(classify_module, "minimal_nonfaces", counted)
    assert classify(K) == enumerated_verdict(K)
    assert calls == [K]
