"""Named families and seeded random complexes for tests and the CLI."""

from __future__ import annotations

import random

from .complexes import (
    SimplicialComplex,
    _check_vertex_count,
    boundary_simplex,
    from_facets,
    join,
    simplex,
)
from .errors import InputError, ResourceError

FAMILIES = ("simplex", "boundary", "cycle", "cross_polytope", "random")
CROSS_POLYTOPE_MAX_FACETS = 1 << 16  # k <= 16: about half a second of joins


def cycle(m: int) -> SimplicialComplex:
    """The m-cycle C_m (m >= 3): facets {i, i+1} and {m, 1}."""
    if m < 3:
        raise InputError(f"a cycle needs at least 3 vertices, got {m}")
    _check_vertex_count(m)
    facets = [[i, i + 1] for i in range(1, m)] + [[m, 1]]
    return from_facets(m, facets)


def cross_polytope(k: int) -> SimplicialComplex:
    """Boundary of the k-dimensional cross polytope: join of k point pairs."""
    if k < 1:
        raise InputError(f"cross polytope needs k >= 1, got {k}")
    _check_vertex_count(2 * k)
    if 1 << k > CROSS_POLYTOPE_MAX_FACETS:
        raise ResourceError(
            f"cross polytope needs 2^{k} = {1 << k} facets; "
            f"limit is {CROSS_POLYTOPE_MAX_FACETS} facets"
        )
    out = boundary_simplex(1)
    for _ in range(k - 1):
        out = join(out, boundary_simplex(1))
    return out


def random_complex(n: int, seed: int = 0) -> SimplicialComplex:
    """Seeded random complex on n vertices with every singleton forced present."""
    if n < 1:
        raise InputError(f"random complexes need n >= 1, got {n}")
    _check_vertex_count(n)
    rng = random.Random(seed)
    count = rng.randint(1, max(2, 2 * n))
    facets = []
    for _ in range(count):
        size = rng.randint(1, n)
        facets.append(sorted(rng.sample(range(1, n + 1), size)))
    covered = {v for f in facets for v in f}
    for v in range(1, n + 1):
        if v not in covered:
            facets.append([v])
    return from_facets(n, facets)


def generate(family: str, size: int, seed: int = 0) -> SimplicialComplex:
    """Dispatch on the family name; ``size`` is q, q, m, k or n respectively."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}")
    if family == "simplex":
        return simplex(size)
    if family == "boundary":
        return boundary_simplex(size)
    if family == "cycle":
        return cycle(size)
    if family == "cross_polytope":
        return cross_polytope(size)
    return random_complex(size, seed)
