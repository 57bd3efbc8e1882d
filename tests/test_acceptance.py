"""Acceptance suite: one test per criterion, exact values, stated budgets.

The terminal summary hook in conftest prints one PASS/FAIL line per
criterion at the end of the run.
"""

import random
import time
from itertools import accumulate

import pytest

from macomplex import (
    GhostVertexError,
    SimplicialComplex,
    SphereModel,
    boundary_simplex,
    build,
    classify,
    cross_polytope,
    cycle,
    free_lie_ranks,
    full_subcomplex,
    growth_certificate,
    hochster_betti,
    hochster_table,
    is_trivial_ring,
    join,
    minimal_nonfaces,
    product_ranks,
    random_complex,
    reconstruct,
    restrict_family,
    simplex,
    star_product_scan,
    wedge_model,
)
from oracles import (
    canonical_key,
    convolve,
    enumerate_complexes,
    expand_rank_product,
    loop_space_series,
    random_family,
    random_intersecting_family,
    random_pairwise_intersecting_family,
    vertices_of,
)


def test_criterion_01_sphere_law():
    """Boundary simplices give single odd spheres, confirmed by both engines."""
    for k in range(1, 5):
        start = time.monotonic()
        K = boundary_simplex(k)
        verdict = classify(K)
        assert verdict.is_elliptic
        assert verdict.sphere_dims == (2 * k + 1,)
        assert verdict.disk_dim == 0
        expected = [1] + [0] * (2 * k) + [1]
        assert hochster_betti(K) == expected
        assert build(K).betti_numbers() == expected
        assert time.monotonic() - start < 1.0


def test_criterion_02_disk_law():
    """Simplices give even disks: contractible, Betti (1, 0, ...)."""
    for k in range(0, 5):
        start = time.monotonic()
        K = simplex(k)
        verdict = classify(K)
        assert verdict.is_elliptic
        assert verdict.sphere_dims == ()
        assert verdict.disk_dim == 2 * k + 2
        assert hochster_betti(K) == [1]
        assert build(K).betti_numbers() == [1]
        assert time.monotonic() - start < 1.0


def test_criterion_03_product_law():
    """Betti numbers of a join are the convolution of the factors' (oracle)."""
    start = time.monotonic()
    pairs = 0
    rng = random.Random(303)
    for i in range(55):
        n1 = rng.randint(1, 6)
        n2 = rng.randint(1, 7 - n1)
        if i % 10 == 0:
            K1 = SimplicialComplex(n1, [[]])  # absent vertices: circle factors
        else:
            K1 = random_complex(n1, seed=2 * i)
        K2 = random_complex(n2, seed=2 * i + 1)
        b1 = build(K1).betti_numbers()
        b2 = build(K2).betti_numbers()
        assert build(join(K1, K2)).betti_numbers() == convolve(b1, b2), (K1, K2)
        pairs += 1
    assert pairs >= 50
    assert time.monotonic() - start < 300.0


def test_criterion_04_round_trip():
    """Non-face enumeration and reconstruction invert each other."""
    for n in range(0, 6):
        for K in enumerate_complexes(n):
            if K.covered_vertices().bit_count() == K.n:
                assert reconstruct(minimal_nonfaces(K)) == K
            else:
                with pytest.raises(GhostVertexError):
                    minimal_nonfaces(K)
    rng = random.Random(404)
    for i in range(500):
        K = random_complex(rng.randint(1, 8), seed=10_000 + i)
        assert reconstruct(minimal_nonfaces(K)) == K


def test_criterion_05_restriction_equality():
    """Full subcomplex of a reconstruction equals reconstruction of restriction."""
    rng = random.Random(505)
    for sample in range(200):
        n = rng.randint(2, 8)
        M = random_family(rng, n)
        K = reconstruct(M)
        for I in range(1 << n):
            lhs = full_subcomplex(K, I)
            rhs = full_subcomplex(reconstruct(restrict_family(M, I)), I)
            assert lhs == rhs, (M, vertices_of(I))


def test_criterion_06_witness_soundness():
    """Witnesses are pairwise-intersecting with every pair union equal to I."""
    rng = random.Random(606)
    from macomplex import find_witness

    for sample in range(500):
        M = random_intersecting_family(rng, rng.randint(3, 10))
        I, MI = find_witness(M)
        assert restrict_family(M, I) == MI
        members = list(MI)
        assert len(members) >= 2
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert a & b, (M, I)
                assert (a | b) == I, (M, I)


def test_criterion_07_trivial_ring(c4):
    """Pairwise-intersecting non-faces force all products to vanish; C4 does not."""
    rng = random.Random(707)
    for sample in range(100):
        M = random_pairwise_intersecting_family(rng, rng.randint(4, 7))
        K = reconstruct(M)
        trivial, certificate = is_trivial_ring(K)
        assert trivial, (M, certificate)
        assert certificate["kind"] == "disjoint_supports_absent", certificate
        found, _ = star_product_scan(hochster_table(K))
        assert found is None, (M, found)
    trivial, certificate = is_trivial_ring(c4)
    assert not trivial
    assert certificate["kind"] == "nonzero_product"
    assert certificate["degree"] == 6


def test_criterion_08_engine_agreement():
    """Hochster-style table equals the cellular oracle; Z(K) is 2-connected.

    All complexes with n <= 5 are enumerated; Betti numbers are invariant
    under vertex relabelling (spot-checked below), so each isomorphism
    class is computed once.
    """
    start = time.monotonic()
    rng = random.Random(808)
    betti_of_class: dict = {}
    labeled = 0
    for n in range(0, 6):
        for K in enumerate_complexes(n):
            labeled += 1
            key = canonical_key(K)
            if key not in betti_of_class:
                h = hochster_betti(K)
                o = build(K).betti_numbers()
                assert h == o, (K, h, o)
                if K.covered_vertices().bit_count() == K.n:
                    padded = h + [0, 0]
                    assert padded[1] == 0 and padded[2] == 0, (K, h)
                betti_of_class[key] = h
            if labeled % 50 == 0:  # tether the dedup to direct computation
                assert hochster_betti(K) == betti_of_class[key], K
                assert build(K).betti_numbers() == betti_of_class[key], K
    assert labeled == 1 + 2 + 5 + 19 + 167 + 7580
    for i in range(200):
        K = random_complex(rng.randint(1, 7), seed=20_000 + i)
        h = hochster_betti(K)
        assert h == build(K).betti_numbers(), K
        padded = h + [0, 0]
        assert padded[1] == 0 and padded[2] == 0, (K, h)
    assert time.monotonic() - start < 600.0


def _dichotomy_corpus():
    corpus = [simplex(k) for k in range(0, 7)]
    corpus += [boundary_simplex(k) for k in range(1, 7)]
    corpus += [cycle(m) for m in range(3, 8)]
    corpus += [cross_polytope(k) for k in (1, 2, 3)]
    corpus += [SimplicialComplex(4, [[1, 2], [3, 4]])]
    rng = random.Random(909)
    corpus += [random_complex(rng.randint(4, 7), seed=30_000 + i) for i in range(30)]
    return corpus


def test_criterion_09_dichotomy_end_to_end(c5):
    """Elliptic: sphere-product Betti polynomial and finite homotopy.

    Hyperbolic: the witness wedge has exponentially growing free-Lie ranks
    (partial sums strictly increase along multiples of the smallest
    generator degree, ratio estimate > 1.05 by N = 24).
    """
    N = 24
    elliptic = hyperbolic = 0
    for K in _dichotomy_corpus():
        verdict = classify(K)
        if verdict.is_elliptic:
            elliptic += 1
            poly = [1]
            for d in verdict.sphere_dims:
                factor = [0] * (d + 1)
                factor[0] = factor[d] = 1
                poly = convolve(poly, factor)
            assert hochster_betti(K) == poly, K
            model = SphereModel("product", verdict.sphere_dims)
            assert growth_certificate(model, product_ranks(model, N)).kind == "finite"
        else:
            hyperbolic += 1
            witness = full_subcomplex(K, verdict.witness_mask)
            model = wedge_model(witness)
            assert len(model.dims) >= 2, (K, model)
            ranks = free_lie_ranks(model, N)
            certificate = growth_certificate(model, ranks)
            assert certificate.kind == "exponential"
            assert certificate.ratio is not None and certificate.ratio > 1.05, (
                K,
                model,
                certificate,
            )
            sums = list(accumulate(ranks))
            step = min(d - 1 for d in model.dims)
            samples = [sums[m] for m in range(step, N + 1, step)]
            assert all(a < b for a, b in zip(samples, samples[1:])), (K, model)
    assert elliptic >= 10 and hyperbolic >= 5

    verdict = classify(c5)
    assert not verdict.is_elliptic
    assert verdict.witness_mask.bit_count() == 3


def test_criterion_10_free_lie_recursion():
    """Two 3-spheres: ranks 2, 1, 2 and the identity reproduces 1/(1-2t^2)."""
    ranks = free_lie_ranks(SphereModel("wedge", (3, 3)), 6)
    assert ranks[2] == 2
    assert ranks[4] == 1
    assert ranks[6] == 2
    target = loop_space_series((3, 3), 6)
    assert target == [1, 0, 2, 0, 4, 0, 8]
    assert expand_rank_product(ranks, 6) == target
