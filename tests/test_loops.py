import random
import sys
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macomplex import (
    InputError,
    NonfaceFamily,
    NotApplicableError,
    ResourceError,
    SimplicialComplex,
    SphereModel,
    boundary_simplex,
    classify,
    free_lie_ranks,
    full_subcomplex,
    growth_certificate,
    is_trivial_ring,
    product_ranks,
    reconstruct,
    wedge_model,
)
from macomplex import nonfaces
from macomplex.loops import MAX_TRUNCATION, _product_series
from oracles import expand_rank_product, loop_space_series


def nonzero_ranks(ranks):
    return {k: v for k, v in enumerate(ranks) if v}


def test_single_odd_sphere_wedge():
    ranks = free_lie_ranks(SphereModel("wedge", (3,)), 12)
    assert nonzero_ranks(ranks) == {2: 1}


def test_single_even_sphere_wedge():
    # one even sphere: the generator and its self-bracket, nothing else
    ranks = free_lie_ranks(SphereModel("wedge", (4,)), 12)
    assert nonzero_ranks(ranks) == {3: 1, 6: 1}


def test_two_three_spheres():
    ranks = free_lie_ranks(SphereModel("wedge", (3, 3)), 8)
    assert ranks[2] == 2 and ranks[4] == 1 and ranks[6] == 2


def test_mixed_wedge_recursion():
    ranks = free_lie_ranks(SphereModel("wedge", (3, 4)), 10)
    assert ranks[2] == 1 and ranks[3] == 1
    assert ranks[4] == 0  # degree 4 is only reachable as a square
    expanded = expand_rank_product(ranks, 10)
    assert expanded == loop_space_series((3, 4), 10)


@given(st.lists(st.integers(3, 9), min_size=1, max_size=5), st.integers(1, 40))
def test_recursion_consistency_random_wedges(dims, N):
    dims = tuple(sorted(dims))
    ranks = free_lie_ranks(SphereModel("wedge", dims), N)
    assert expand_rank_product(ranks, N) == loop_space_series(dims, N)
    assert all(r >= 0 for r in ranks)


def unsigned_sieve_ranks(dims, N):
    """``free_lie_ranks``' solve with the sign e(k, n) dropped from the sieve."""
    gens = [d - 1 for d in dims]
    target = loop_space_series(dims, N)
    ranks, L = [0] * (N + 1), [0] * (N + 1)
    for n in range(1, N + 1):
        l_n, rest = divmod(sum(g * target[n - g] for g in gens if g <= n) - L[n], n)
        assert rest == 0 and l_n >= 0
        ranks[n] = l_n
        for m in range(n, N + 1, n):
            L[m] += n * l_n
    return ranks


def test_product_check_sees_a_wrong_sign():
    # without the sign the solve still divides exactly, and the rebuild of A
    # from the sieve sums still matches, but l_6 of S3 v S3 v S4 comes out 2
    N = 30
    right = free_lie_ranks(SphereModel("wedge", (3, 3, 4)), N)
    wrong = unsigned_sieve_ranks((3, 3, 4), N)
    assert right[6] == 3 and wrong[6] == 2
    target = loop_space_series((3, 3, 4), N)
    assert _product_series(right, N) == target
    assert _product_series(wrong, N) != target


@given(st.lists(st.integers(0, 60), min_size=1, max_size=14), st.integers(0, 16))
def test_product_series_matches_the_schoolbook_expansion(ranks, M):
    ranks = [0] + ranks + [0] * M
    assert _product_series(ranks, M) == expand_rank_product(ranks, M)


def test_monotone_under_added_spheres():
    rng = random.Random(31)
    for _ in range(15):
        dims = sorted(rng.randint(3, 6) for _ in range(rng.randint(1, 3)))
        extra = rng.randint(3, 6)
        small = free_lie_ranks(SphereModel("wedge", tuple(dims)), 14)
        large = free_lie_ranks(SphereModel("wedge", tuple(sorted(dims + [extra]))), 14)
        assert all(a <= b for a, b in zip(small, large))


def test_product_ranks_examples():
    ranks = product_ranks(SphereModel("product", (3, 3)), 20)
    assert nonzero_ranks(ranks) == {2: 2}
    assert sum(ranks) == 2
    ranks = product_ranks(SphereModel("product", (5,)), 20)
    assert nonzero_ranks(ranks) == {4: 1}
    ranks = product_ranks(SphereModel("product", ()), 20)
    assert nonzero_ranks(ranks) == {}


def test_product_ranks_rejects_even_spheres():
    with pytest.raises(InputError):
        product_ranks(SphereModel("product", (4,)), 20)


def test_growth_certificate_examples():
    def certificate(solve, model, N):
        return growth_certificate(model, solve(model, N))

    finite = certificate(product_ranks, SphereModel("product", (3, 3)), 20)
    assert finite.kind == "finite" and finite.ratio is None

    single = certificate(free_lie_ranks, SphereModel("wedge", (3,)), 20)
    assert single.kind == "finite"

    double = certificate(free_lie_ranks, SphereModel("wedge", (3, 3)), 20)
    assert double.kind == "exponential"
    assert double.ratio is not None and double.ratio > 1.05

    with pytest.raises(InputError):
        certificate(free_lie_ranks, SphereModel("wedge", (3, 3)), 8)


def test_growth_ratio_matches_closed_form():
    # loop homology of a two-sphere wedge doubles every second degree
    model = SphereModel("wedge", (3, 3))
    ranks = free_lie_ranks(model, 24)
    sums = list(accumulate(ranks))
    assert sums[24] > 2 * sums[12] > 2
    cert = growth_certificate(model, ranks)
    assert 1.2 < cert.ratio < 1.5


def test_growth_ratio_past_float_range():
    # S_N / S_{N/2} is about 4^(N/2); at N = 1200 that quotient is 2^1200,
    # beyond float range, while its (N/2)-th root is 4
    N = 1200
    model = SphereModel("wedge", (3, 3))
    ranks = (0,) + tuple(4**k for k in range(1, N + 1))
    sums = list(accumulate(ranks))
    assert sums[N] // sums[N // 2] > 10**308
    cert = growth_certificate(model, ranks)
    assert cert.kind == "exponential" and cert.ratio == 4.0
    # inside float range the estimate is the plain quotient's root, as before
    short = ranks[:201]
    sums = list(accumulate(short))
    assert growth_certificate(model, short).ratio == round((sums[200] / sums[100]) ** (2.0 / 200), 6)
    # and so on wedges of 2-4 spheres of dimension 3-6
    for k in (2, 3, 4):
        for dims in combinations_with_replacement(range(3, 7), k):
            for N in (12, 24, 100, 200):
                model = SphereModel("wedge", dims)
                ranks = free_lie_ranks(model, N)
                sums = list(accumulate(ranks))
                quotient = (sums[N] / sums[N // 2]) ** (2.0 / N)
                expected = round(quotient, 6) if quotient > 1.05 else None
                assert growth_certificate(model, ranks).ratio == expected, (dims, N)


def test_two_equal_generators_match_necklace_counts():
    # two generators of the same even degree: the rank in degree 2j is the
    # number of binary necklaces of length j, (1/j) sum_{d|j} mu(d) 2^(j/d)
    from sympy import divisors
    from sympy.functions.combinatorial.numbers import mobius

    ranks = free_lie_ranks(SphereModel("wedge", (3, 3)), MAX_TRUNCATION)
    for j in range(1, MAX_TRUNCATION // 2 + 1):
        necklaces = sum(mobius(d) * 2 ** (j // d) for d in divisors(j)) // j
        assert ranks[2 * j] == necklaces
        assert ranks[2 * j - 1] == 0


def test_wedge_model_of_c5_witness(c5):
    verdict = classify(c5)
    witness = full_subcomplex(c5, verdict.witness_mask)
    model = wedge_model(witness)
    assert model.kind == "wedge"
    assert model.dims == (3, 3, 4)


def test_wedge_model_enumerates_the_nonfaces_once_per_table(monkeypatch, c5):
    # is_trivial_ring's table answers the hypothesis; hochster_betti builds the second
    witness = full_subcomplex(c5, classify(c5).witness_mask)
    original = nonfaces._minimal_nonface_masks
    calls = []

    def counted(K):
        calls.append(K)
        return original(K)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "macomplex" or name.startswith("macomplex."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                    patched.add(f"{name}.{attr}")
    assert "macomplex.cohomology._minimal_nonface_masks" in patched
    wedge_model(witness)
    assert calls == [witness, witness]


def test_wedge_model_two_points():
    model = wedge_model(boundary_simplex(1))
    assert model.dims == (3,)


def test_wedge_model_path_complex():
    K = reconstruct(NonfaceFamily(3, [[1, 2], [2, 3]]))
    model = wedge_model(K)
    assert len(model.dims) >= 2
    assert model.dims == (3, 3, 4)


def test_wedge_model_requires_trivial_ring(c4):
    with pytest.raises(NotApplicableError):
        wedge_model(c4)


def test_wedge_model_checks_its_hypothesis():
    # two disjoint edges: the ring is trivial, but the non-faces {1,3} and
    # {2,4} are disjoint, so the wedge model's hypothesis fails
    K = SimplicialComplex(4, [[1, 2], [3, 4]])
    assert is_trivial_ring(K)[0]
    with pytest.raises(NotApplicableError, match="pairwise intersect"):
        wedge_model(K)
    # two ghost vertices are the disjoint non-faces {1} and {2}
    with pytest.raises(NotApplicableError, match="pairwise intersect"):
        wedge_model(SimplicialComplex(2, []))
    # a lone ghost beside one facet is the only non-face, so it passes the check
    with pytest.raises(InputError, match="2-connectivity"):
        wedge_model(SimplicialComplex(2, [[1]]))


def test_free_lie_ranks_input_validation():
    with pytest.raises(InputError):
        free_lie_ranks(SphereModel("wedge", ()), 10)
    with pytest.raises(InputError):
        free_lie_ranks(SphereModel("product", (3,)), 10)
    with pytest.raises(InputError):
        free_lie_ranks(SphereModel("wedge", (2,)), 10)


# 10**18 series entries could never be allocated: were the bound checked
# after the series lists, the test would fail at once with MemoryError.
@pytest.mark.parametrize("N", [MAX_TRUNCATION + 1, 10**18])
@pytest.mark.parametrize(
    "solve, model",
    [(free_lie_ranks, SphereModel("wedge", (3, 3))), (product_ranks, SphereModel("product", (3,)))],
    ids=["wedge", "product"],
)
def test_truncation_above_the_limit_is_refused_before_allocating(solve, model, N):
    with pytest.raises(ResourceError) as excinfo:
        solve(model, N)
    assert str(excinfo.value) == f"truncation N={N} exceeds the limit of {MAX_TRUNCATION}"


def test_truncation_at_the_limit_runs():
    ranks = product_ranks(SphereModel("product", (3, 5)), MAX_TRUNCATION)
    assert len(ranks) == MAX_TRUNCATION + 1 and sum(ranks) == 2
