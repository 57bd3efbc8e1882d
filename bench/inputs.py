"""Seeded benchmark inputs, each carrying how it was built.

Every input except the bounded random family is a join of three parts: a
flag (clique) complex of a graph G, boundaries of simplices on vertex
blocks B_1, ..., B_k, and a simplex on the cone vertices C.  Its minimal
non-faces are then known without any computation from the package: the
non-edges of G together with the blocks.  Cycles (the flag complex of a
cycle graph of length >= 4) and cross polytopes (blocks of size 2) are
special cases.  The checker in ``checker.py`` derives every expected
report from this description.

Vertices are shuffled by a seeded permutation, so no input is laid out
in the package's canonical order.  Nothing here imports ``macomplex``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class Case:
    """One generated complex and the recipe it came from.

    ``edges`` and ``graph_vertices`` describe the flag part (empty when
    there is none), ``blocks`` the simplex boundaries and ``cone`` the
    simplex factor.  ``structured`` is False for the bounded random family,
    whose minimal non-faces the checker finds by brute force.
    """

    name: str
    n: int
    facets: tuple[tuple[int, ...], ...]
    graph_vertices: tuple[int, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    blocks: tuple[tuple[int, ...], ...] = ()
    cone: tuple[int, ...] = ()
    is_cycle: bool = False
    structured: bool = True

    def to_json(self) -> str:
        """The complex exactly as the program receives it."""
        return json.dumps({"n": self.n, "facets": [list(f) for f in self.facets]})


def maximal_cliques(vertices, adjacency) -> list[int]:
    """Bron-Kerbosch with pivoting; cliques as bitmasks over vertex labels."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        pivot = max(_bits(pool), key=lambda u: (adjacency[u] & p).bit_count())
        candidates = p & ~adjacency[pivot]
        for v in _bits(candidates):
            bit = 1 << (v - 1)
            expand(r | bit, p & adjacency[v], x & adjacency[v])
            p &= ~bit
            x |= bit

    all_mask = 0
    for v in vertices:
        all_mask |= 1 << (v - 1)
    if all_mask:
        expand(0, all_mask, 0)
    return sorted(out)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


MAX_FACETS = 1000  # a join's facet count is the product of its factors'


def join_case(name, rng, graph_edges_local=None, graph_size=0,
              block_sizes=(), cone_size=0, is_cycle=False) -> Case:
    """Lay the parts of a join out on shuffled labels 1..n and list its facets.

    ``graph_edges_local`` uses local vertices 0..graph_size-1; the parts are
    placed on consecutive local ranges, then every label is permuted.
    """
    n = graph_size + sum(block_sizes) + cone_size
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pos = 0
    graph_vertices = tuple(sorted(labels[pos:pos + graph_size]))
    local_graph = labels[pos:pos + graph_size]
    pos += graph_size
    blocks = []
    for size in block_sizes:
        blocks.append(tuple(sorted(labels[pos:pos + size])))
        pos += size
    cone = tuple(sorted(labels[pos:pos + cone_size]))
    edges = tuple(sorted(
        tuple(sorted((local_graph[a], local_graph[b])))
        for a, b in (graph_edges_local or ())
    ))
    factors = []
    if graph_size:
        adjacency = {v: 0 for v in graph_vertices}
        for a, b in edges:
            adjacency[a] |= 1 << (b - 1)
            adjacency[b] |= 1 << (a - 1)
        factors.append(maximal_cliques(graph_vertices, adjacency))
    for block in blocks:
        full = _mask(block)
        factors.append([full & ~(1 << (v - 1)) for v in block])
    count = 1
    for f in factors:
        count *= len(f)
    if count > MAX_FACETS:
        raise ValueError(f"{name}: {count} facets exceed the cap of {MAX_FACETS}")
    cone_mask = _mask(cone)
    facets = sorted(
        tuple(_bits(cone_mask | _or_all(parts))) for parts in product(*factors)
    )
    return Case(name, n, tuple(facets), graph_vertices, edges, tuple(blocks), cone, is_cycle)


def _or_all(parts) -> int:
    m = 0
    for p in parts:
        m |= p
    return m


def cycle(rng, m: int) -> Case:
    return join_case(f"cycle{m}", rng,
                     [(i, (i + 1) % m) for i in range(m)], m, is_cycle=True)


def gnp_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


def flag(rng, n: int, p: float = 0.5) -> Case:
    return join_case(f"flag{n}", rng, gnp_edges(rng, n, p), n)


def cross_polytope(rng, k: int) -> Case:
    return join_case(f"cross{k}", rng, block_sizes=(2,) * k)


def boundary_join(rng, block_sizes, cone_size=0) -> Case:
    name = "join" + "-".join(map(str, block_sizes)) + (f"+{cone_size}" if cone_size else "")
    return join_case(name, rng, block_sizes=tuple(block_sizes), cone_size=cone_size)


def flag_join(rng, n: int, block_sizes, p: float = 0.5) -> Case:
    name = f"flag{n}*" + "-".join(map(str, block_sizes))
    return join_case(name, rng, gnp_edges(rng, n, p), n,
                     block_sizes=tuple(block_sizes))


def bounded_random(rng, n: int, max_size: int, count: int) -> Case:
    """``count`` random facets of size 2..max_size; uncovered vertices added alone.

    Independent of the package's ``random_complex``, most of whose outputs
    are the full simplex.
    """
    facets = set()
    while len(facets) < count:
        size = rng.randint(2, max_size)
        facets.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    covered = {v for f in facets for v in f}
    facets |= {(v,) for v in range(1, n + 1) if v not in covered}
    masks = sorted({_mask(f) for f in facets}, key=lambda m: (-m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return Case(f"random{n}", n,
                tuple(sorted(tuple(_bits(m)) for m in kept)), structured=False)


def is_full_simplex(case: Case) -> bool:
    return len(case.facets) == 1 and len(case.facets[0]) == case.n
