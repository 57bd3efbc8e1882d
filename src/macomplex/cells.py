"""Brute-force cellular chain model of the moment-angle complex.

Each disk coordinate carries the CW structure with one cell in dimensions
0, 1 and 2 (point on the circle, rest of the circle, interior).  A product
cell of the n-fold disk power lies in the moment-angle complex exactly
when the set of coordinates using the 2-cell is a face of K; the circle
coordinates are free.  Cells are therefore pairs (sigma, omega) of
disjoint vertex sets with sigma a face, in dimension 2|sigma| + |omega|,
and the boundary moves one coordinate at a time from sigma to omega:

    d(sigma, omega) = sum over i in sigma of
        (-1)^{number of omega coordinates below i} (sigma - i, omega + i)

since only the 2-cell has a nonzero differential (its boundary is the
1-cell) and passing the boundary operator across an odd-degree factor
flips the sign.  Z(K_A * K_B) = Z(K_A) x Z(K_B), so ``betti`` convolves
the Betti numbers of the join factors it finds from the facets alone
(Künneth over Q).  The engine restricts K only to those factors, each
through ``complexes.full_subcomplex``, so it stays an independent check of
the subset-decomposition route.  It takes only ``rank_sparse`` from
``linalg``; its d∘d check is a test oracle.
"""

from __future__ import annotations

from math import prod

from .complexes import SimplicialComplex, _bits, _submasks, full_subcomplex
from .errors import ResourceError
from .linalg import rank_sparse

DEFAULT_CELL_LIMIT = 3**12  # the most cells of any complex on at most 12 vertices


class MomentAngleCellComplex:
    """Cellular chain complex of Z(K; (D^2, S^1)) over the rationals."""

    __slots__ = ("cells", "boundaries")

    def __init__(self, cells, boundaries):
        self.cells = cells  # per dimension: list of (sigma_mask, omega_mask)
        self.boundaries = boundaries  # per dimension: list of {row: sign} per cell

    @property
    def cell_count(self) -> int:
        return sum(len(c) for c in self.cells)

    @property
    def top_dimension(self) -> int:
        return len(self.cells) - 1

    def betti_numbers(self) -> list[int]:
        """Rational Betti numbers by degree, trailing zeros trimmed; degree 0 is always 1."""
        top = self.top_dimension
        ranks = [0] * (top + 2)
        for d in range(top + 1):
            ranks[d] = rank_sparse(self.boundaries[d])
        betti = [len(self.cells[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
        while len(betti) > 1 and betti[-1] == 0:
            betti.pop()
        assert betti[0] == 1, "moment-angle complexes are connected"
        return betti

    def to_json_dict(self) -> dict:
        cells = [
            {"sigma": list(_bits(s)), "omega": list(_bits(w))}
            for dim_cells in self.cells
            for s, w in dim_cells
        ]
        boundary = []
        for d in range(1, self.top_dimension + 1):
            entries = [
                [row_idx, col_idx, sign]
                for col_idx, row in enumerate(self.boundaries[d])
                for row_idx, sign in sorted(row.items())
            ]
            boundary.append({"dim": d, "entries": entries})
        return {"cells": cells, "boundary": boundary}


def _check_limit(cells: int, cell_limit: int, shown: str = "") -> None:
    if cells > cell_limit:
        raise ResourceError(f"{shown or cells} cells exceed the configured limit of {cell_limit}")


def build(K: SimplicialComplex, cell_limit: int = DEFAULT_CELL_LIMIT) -> MomentAngleCellComplex:
    """Enumerate the cells of Z(K) and assemble the boundary matrices.

    The cell count sum over faces sigma of 2^(n - |sigma|) is checked
    against ``cell_limit`` before any enumeration starts.  The default 3^12
    admits every complex on at most 12 vertices; only n >= 13 can exceed it.
    """
    n = K.n
    _check_limit(1 << n, cell_limit, f"at least 2^{n}")  # the empty face alone gives 2^n cells
    faces = K.face_masks()
    _check_limit(sum(1 << (n - f.bit_count()) for f in faces), cell_limit)
    full = (1 << n) - 1
    by_dim: dict[int, list[tuple[int, int]]] = {}
    for sigma in faces:
        base = 2 * sigma.bit_count()
        rest = full & ~sigma
        for omega in _submasks(rest):
            by_dim.setdefault(base + omega.bit_count(), []).append((sigma, omega))
    top = max(by_dim)
    cells = [sorted(by_dim.get(d, [])) for d in range(top + 1)]
    index = [{cell: i for i, cell in enumerate(dim_cells)} for dim_cells in cells]
    boundaries: list[list[dict[int, int]]] = [[] for _ in range(top + 1)]
    for d in range(top + 1):
        lower = index[d - 1] if d else {}
        for sigma, omega in cells[d]:
            row: dict[int, int] = {}
            rest = sigma
            while rest:
                low = rest & -rest
                rest ^= low
                sign = -1 if (omega & (low - 1)).bit_count() % 2 else 1
                row[lower[(sigma ^ low, omega | low)]] = sign
            boundaries[d].append(row)
    return MomentAngleCellComplex(cells, boundaries)


def _join_blocks(K: SimplicialComplex) -> list[int]:
    """Vertex masks B_1, ..., B_k with K = K_{B_1} * ... * K_{B_k}, read off the facets.

    With H_v the facets holding v, u and v share a factor unless
    |H_u & H_v| * m = |H_u| * |H_v| over the m facets.  A component of those
    pairs splits off when the facets are every pair of one of its traces
    F & B and a complement trace; the others merge into one block, which
    splits off too, as the sets A with K = K_A * K_{V - A} are closed under
    complement and union.
    """
    facets, n, m = K.facets, K.n, len(K.facets)
    holds = [sum(1 << i for i, f in enumerate(facets) if f >> v & 1) for v in range(n)]
    block = [1 << v for v in range(n)]  # the component of v found so far
    for u in range(n):
        for v in range(u + 1, n):
            if (holds[u] & holds[v]).bit_count() * m != holds[u].bit_count() * holds[v].bit_count():
                merged = block[u] | block[v]
                for w in _bits(merged):
                    block[w - 1] = merged

    def traces(B: int) -> int:
        return len({f & B for f in facets})

    parts = sorted(set(block))
    blocks = [B for B in parts if traces(B) * traces(~B) == m]
    rest = sum(B for B in parts if B not in blocks)
    blocks += [rest] if rest else []
    return blocks if prod(map(traces, blocks)) == m else [(1 << n) - 1]


def betti(K: SimplicialComplex, cell_limit: int = DEFAULT_CELL_LIMIT) -> tuple[list[int], int]:
    """``build(K, cell_limit)``'s Betti numbers and cell count, one join factor at a time.

    ``build``'s two limit checks apply to all of K's cells, in ``build``'s order.
    """
    _check_limit(1 << K.n, cell_limit, f"at least 2^{K.n}")
    factors = [full_subcomplex(K, B) for B in _join_blocks(K)]
    total = prod(sum(1 << (L.n - f.bit_count()) for f in L.face_masks()) for L in factors)
    _check_limit(total, cell_limit)
    out = [1]
    for L in factors:
        factor = build(L, cell_limit).betti_numbers()
        product = [0] * (len(out) + len(factor) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(factor):
                product[i + j] += x * y
        out = product
    return out, total
