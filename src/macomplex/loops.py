"""Rational homotopy ranks of sphere products and wedges, as plain tuples.

For a product of odd spheres the rational homotopy is one class per
sphere.  For a simply-connected wedge of spheres S^{d_1} v ... v S^{d_k}
the homotopy of the loop space is a free graded Lie algebra on generators
of degrees g_i = d_i - 1, and its ranks l_k (the rank of pi_{k+1} of the
wedge) are determined by the graded product identity

    prod_{k even} (1 - t^k)^(-l_k) * prod_{k odd} (1 + t^k)^(l_k)
        = A(t) = 1 / (1 - sum_i t^(g_i)),

the right side being the Poincare series of the loop-space homology
(a tensor algebra).  The ranks are read off the identity's logarithmic
derivative t d/dt log, which turns the product into a sum: at t^n the
left side gives sum_{k | n} k l_k e(k, n), with e = -1 when k is odd and
n/k even and e = 1 otherwise, and the right side gives
c_n = sum_i g_i A_{n - g_i}.  The divisor k = n enters as n l_n, so each
rank is one exact division.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from math import exp, log
from typing import NamedTuple

from .cohomology import hochster_betti, is_trivial_ring
from .complexes import SimplicialComplex
from .errors import InputError, NotApplicableError, ResourceError

GROWTH_DELTA = 0.05  # a growth ratio is reported only above 1 + GROWTH_DELTA
MAX_TRUNCATION = 1000  # time is the series == target self-check, ~N^3: 0.15 s at N = 1000; the solve: ms
PRODUCT_CHECK_DEGREE = 32  # free_lie_ranks multiplies its product identity out this far


class SphereModel(NamedTuple):
    """A product or wedge of spheres, recorded by the multiset of dimensions."""

    kind: str  # "product" | "wedge"
    dims: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "dims": list(self.dims)}


class GrowthCertificate(NamedTuple):
    kind: str  # "finite" | "exponential"
    ratio: float | None = None

    def to_json_dict(self) -> dict:
        return {"verdict": self.kind, "ratio": self.ratio}


def wedge_model(K_I: SimplicialComplex) -> SphereModel:
    """Wedge of spheres carrying the rational type of Z(K_I).

    Requires the minimal non-faces of K_I to pairwise intersect, as on the
    witnesses of ``classify``, and reads that check off ``is_trivial_ring``,
    whose certificate has kind ``disjoint_supports_absent`` exactly in that
    case.  The cohomology ring is then trivial, and the wedge has one
    sphere of dimension d per unit of Betti number in each degree d >= 3.
    A trivial product alone does not give a wedge in general (Katthän,
    J. Algebra 479, 2017).  The condition is sufficient, not necessary;
    two disjoint edges, say, are declined although their Z(K) is a wedge.
    """
    _, certificate = is_trivial_ring(K_I)
    if certificate["kind"] != "disjoint_supports_absent":
        raise NotApplicableError(
            "two minimal non-faces are disjoint; the wedge model needs them "
            "to pairwise intersect"
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


def _product_series(ranks, M: int) -> list[int]:
    """prod_{k even} (1 - t^k)^(-l_k) * prod_{k odd} (1 + t^k)^(l_k) through degree M.

    Each factor is a binomial series in t^k: (1 + t^k)^l has C(l, i) at
    t^(ik) and (1 - t^k)^(-l) has C(l + i - 1, i), each coefficient an exact
    multiple of the one before.
    """
    series = [1] + [0] * M
    for k in range(1, M + 1):
        l = ranks[k]
        if not l:
            continue
        product = series[:]
        c = 1
        for i in range(1, M // k + 1):
            c = c * (l - i + 1 if k % 2 else l + i - 1) // i
            if not c:  # (1 + t^k)^l ends at i = l
                break
            shift = i * k
            product[shift:] = [p + c * s for p, s in zip(product[shift:], series)]
        series = product
    return series


def free_lie_ranks(model: SphereModel, N: int) -> tuple[int, ...]:
    """Ranks of a wedge of spheres: ``ranks[k]`` = l_k for 0 <= k <= N, l_0 = 0.

    One pass over the degrees: ``L[n]`` collects sum k l_k e(k, n) over the
    divisors k < n solved so far (a sieve over multiples), so
    l_n = (c_n - L[n]) / n.  Solving l_n leaves ``L[n]`` equal to c_n
    whatever the sieve added to it, so A rebuilt from ``L`` by
    n A_n = sum_{i=1..n} L[i] A_{n-i} checks only that the c_n agree with
    A; it never sees a sieve error.  Those show as a fractional or negative
    l_n, or in the product identity, which is multiplied out from the
    ranks through degree min(N, PRODUCT_CHECK_DEGREE) and compared with A.
    """
    if model.kind != "wedge":
        raise InputError("free Lie ranks only apply to wedge models")
    if N < 1:
        raise InputError("truncation must be at least 1")
    _check_truncation(N)
    if not model.dims:
        raise InputError("wedge must contain at least one sphere")
    if any(d < 3 for d in model.dims):
        raise InputError("wedge spheres must be simply connected (dimension >= 3)")
    gens = [d - 1 for d in model.dims]
    target = _tensor_series(gens, N)
    ranks = [0] * (N + 1)
    L = [0] * (N + 1)
    for n in range(1, N + 1):
        c_n = sum(g * target[n - g] for g in gens if g <= n)
        l_n, rest = divmod(c_n - L[n], n)
        assert rest == 0 and l_n >= 0, "product identity produced a fractional or negative rank"
        ranks[n] = l_n
        if l_n:
            step = n * l_n
            for j, m in enumerate(range(n, N + 1, n), 1):
                L[m] += -step if n % 2 and j % 2 == 0 else step
    series = [1] + [0] * N
    for n in range(1, N + 1):
        series[n] = sum(L[i] * series[n - i] for i in range(1, n + 1)) // n
    assert series == target, "the sums c_n do not rebuild the loop-space series"
    M = min(N, PRODUCT_CHECK_DEGREE)
    assert _product_series(ranks, M) == target[: M + 1], "ranks do not satisfy the product identity"
    return tuple(ranks)


def product_ranks(model: SphereModel, N: int) -> tuple[int, ...]:
    """Ranks of a product of odd spheres: ``ranks[k]`` = l_k for 0 <= k <= N.

    Each sphere S^d gives one class, l_{d-1} += 1; l_0 = 0.
    """
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
    return tuple(ranks)


def growth_certificate(model: SphereModel, ranks: tuple[int, ...]) -> GrowthCertificate:
    """Finite versus exponential growth of the total rational homotopy.

    ``ranks`` are the model's l_0..l_N.  The split is structural: a product,
    or a wedge on at most one sphere, has finitely many classes; a wedge on
    two or more spheres is a free graded Lie algebra on >= 2 generators and
    grows exponentially.  The ratio estimate (S_N / S_{N/2})^(2/N) over
    cumulative ranks is reported when it exceeds 1 + GROWTH_DELTA.  It is
    taken through logarithms, because the quotient can leave float range
    where its root does not.
    """
    N = len(ranks) - 1
    if N < 12:
        raise InputError("growth detection needs truncation >= 12")
    if model.kind == "product" or len(model.dims) <= 1:
        return GrowthCertificate(kind="finite", ratio=None)
    half = sum(ranks[: N // 2 + 1])
    ratio = None
    if half > 0:
        estimate = exp((log(sum(ranks)) - log(half)) * 2.0 / N)
        if estimate > 1.0 + GROWTH_DELTA:
            ratio = round(estimate, 6)
    return GrowthCertificate(kind="exponential", ratio=ratio)
