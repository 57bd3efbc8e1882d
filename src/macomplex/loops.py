"""Rational homotopy rank series for sphere products and wedges.

For a product of odd spheres the rational homotopy is one class per
sphere.  For a simply-connected wedge of spheres S^{d_1} v ... v S^{d_k}
the homotopy of the loop space is a free graded Lie algebra on generators
of degrees d_i - 1, and its ranks l_k (the rank of pi_{k+1} of the wedge)
are determined degree by degree from the graded product identity

    prod_{k even} (1 - t^k)^(-l_k) * prod_{k odd} (1 + t^k)^(l_k)
        = 1 / (1 - sum_i t^(d_i - 1)),

the right side being the Poincare series of the loop-space homology
(a tensor algebra).  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from math import comb, exp, log
from typing import NamedTuple

from .cohomology import hochster_betti, is_trivial_ring
from .complexes import SimplicialComplex, _MembershipIndex
from .errors import InputError, NotApplicableError, ResourceError
from .nonfaces import _minimal_nonface_masks

GROWTH_DELTA = 0.05  # a growth ratio is reported only above 1 + GROWTH_DELTA
MAX_TRUNCATION = 1000  # the wedge solver's time grows faster than N^2


class SphereModel(NamedTuple):
    """A product or wedge of spheres, recorded by the multiset of dimensions."""

    kind: str  # "product" | "wedge"
    dims: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "dims": list(self.dims)}


class HomotopyRankSeries(NamedTuple):
    """Ranks l_k of pi_{k+1} (x) Q of a sphere model, truncated at N.

    ``ranks[k]`` is l_k for 0 <= k <= N (index 0 unused and zero).
    """

    ranks: tuple[int, ...]
    truncation: int
    model: SphereModel

    def partial_sums(self) -> list[int]:
        out = [0] * (self.truncation + 1)
        acc = 0
        for k in range(self.truncation + 1):
            acc += self.ranks[k]
            out[k] = acc
        return out


class GrowthCertificate(NamedTuple):
    kind: str  # "finite" | "exponential"
    ratio: float | None = None

    def to_json_dict(self) -> dict:
        return {"verdict": self.kind, "ratio": self.ratio}


def _nonfaces_pairwise_intersect(K: SimplicialComplex) -> bool:
    """Whether every two minimal non-faces of ``K`` share a vertex.

    A ghost vertex v (in no facet) is the one-element non-face {v}, which
    misses every other minimal non-face.
    """
    members = _minimal_nonface_masks(K)
    index = _MembershipIndex(members)
    everyone = (1 << len(members)) - 1
    return all(index.meeting(m) == everyone for m in members)


def wedge_model(K_I: SimplicialComplex) -> SphereModel:
    """Wedge of spheres carrying the rational type of Z(K_I).

    Requires the reduced cohomology ring of Z(K_I) to be trivial; the
    wedge then has one sphere of dimension d per unit of Betti number in
    each degree d >= 3.  Also requires the minimal non-faces of K_I to
    pairwise intersect, as on the witnesses of ``classify``, and checks it:
    a trivial product alone does not give a wedge in general (Katthän,
    J. Algebra 479, 2017).  The condition is sufficient, not necessary;
    two disjoint edges, say, are declined although their Z(K) is a wedge.
    """
    if not _nonfaces_pairwise_intersect(K_I):
        raise NotApplicableError(
            "two minimal non-faces are disjoint; the wedge model needs them "
            "to pairwise intersect"
        )
    trivial, _ = is_trivial_ring(K_I)
    if not trivial:
        raise NotApplicableError(
            "cohomology ring has a nonzero product; not a wedge of spheres"
        )
    betti = hochster_betti(K_I)
    if len(betti) > 1 and any(betti[1:3]):
        raise InputError("Betti numbers in degrees 1..2 are nonzero; model needs 2-connectivity")
    dims = []
    for d in range(3, len(betti)):
        dims.extend([d] * betti[d])
    return SphereModel(kind="wedge", dims=tuple(dims))


def _check_truncation(N: int) -> None:
    """Refuse a truncation above MAX_TRUNCATION before any series is allocated."""
    if N > MAX_TRUNCATION:
        raise ResourceError(f"truncation N={N} exceeds the limit of {MAX_TRUNCATION}")


def _tensor_series(gen_degrees, N: int) -> list[int]:
    """Coefficients of 1 / (1 - sum_i t^g_i) through degree N."""
    a = [0] * (N + 1)
    a[0] = 1
    for m in range(1, N + 1):
        a[m] = sum(a[m - g] for g in gen_degrees if g <= m)
    return a


def _multiply_factor(series: list[int], k: int, l_k: int, N: int) -> list[int]:
    """Multiply by (1 + t^k)^l_k (k odd) or (1 - t^k)^(-l_k) (k even)."""
    factor = [0] * (N + 1)
    j = 0
    while j * k <= N:
        factor[j * k] = comb(l_k, j) if k % 2 else comb(l_k + j - 1, j)
        j += 1
    out = [0] * (N + 1)
    for i, x in enumerate(series):
        if x:
            for j in range(0, N + 1 - i, k):
                if factor[j]:
                    out[i + j] += x * factor[j]
    return out


def free_lie_ranks(model: SphereModel, N: int = 24) -> HomotopyRankSeries:
    """Solve the product identity for the ranks of a wedge of spheres."""
    if model.kind != "wedge":
        raise InputError("free Lie ranks only apply to wedge models")
    if N < 1:
        raise InputError("truncation must be at least 1")
    _check_truncation(N)
    if not model.dims:
        raise InputError("wedge must contain at least one sphere")
    if any(d < 3 for d in model.dims):
        raise InputError("wedge spheres must be simply connected (dimension >= 3)")
    target = _tensor_series([d - 1 for d in model.dims], N)
    series = [0] * (N + 1)
    series[0] = 1
    ranks = [0] * (N + 1)
    for k in range(1, N + 1):
        l_k = target[k] - series[k]
        assert l_k >= 0, "product identity produced a negative rank"
        ranks[k] = l_k
        if l_k:
            series = _multiply_factor(series, k, l_k, N)
    assert series == target, "solved ranks do not reproduce the loop-space series"
    return HomotopyRankSeries(ranks=tuple(ranks), truncation=N, model=model)


def product_ranks(model: SphereModel, N: int = 24) -> HomotopyRankSeries:
    """Ranks of a product of odd spheres: one class of degree d - 1 per sphere."""
    if model.kind != "product":
        raise InputError("product ranks only apply to product models")
    if any(d % 2 == 0 for d in model.dims):
        raise InputError("product models must consist of odd spheres")
    _check_truncation(N)
    if model.dims and N < max(model.dims) - 1:
        raise InputError("truncation too small to hold every sphere's class")
    ranks = [0] * (N + 1)
    for d in model.dims:
        ranks[d - 1] += 1
    return HomotopyRankSeries(ranks=tuple(ranks), truncation=N, model=model)


def growth_certificate(series: HomotopyRankSeries) -> GrowthCertificate:
    """Finite versus exponential growth of the total rational homotopy.

    The split is structural: a product, or a wedge on at most one sphere,
    has finitely many classes; a wedge on two or more spheres is a free
    graded Lie algebra on >= 2 generators and grows exponentially.  The
    ratio estimate (S_N / S_{N/2})^(2/N) over cumulative ranks is reported
    when it exceeds 1 + GROWTH_DELTA.  It is taken through logarithms,
    because the quotient can leave float range where its root does not.
    """
    N = series.truncation
    if N < 12:
        raise InputError("growth detection needs truncation >= 12")
    if series.model.kind == "product" or len(series.model.dims) <= 1:
        return GrowthCertificate(kind="finite", ratio=None)
    sums = series.partial_sums()
    half = sums[N // 2]
    ratio = None
    if half > 0:
        estimate = exp((log(sums[N]) - log(half)) * 2.0 / N)
        if estimate > 1.0 + GROWTH_DELTA:
            ratio = round(estimate, 6)
    return GrowthCertificate(kind="exponential", ratio=ratio)
