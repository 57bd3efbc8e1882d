"""Rational type of moment-angle complexes over finite simplicial complexes.

Decides whether Z(K; (D^2, S^1)) is rationally elliptic (a product of odd
spheres and a disk, read off from pairwise-disjoint minimal non-faces) or
rationally hyperbolic (witnessed by a full subcomplex whose non-faces all
intersect), and verifies the verdict with two independent cohomology
engines plus a rational homotopy rank calculator.
"""

from .cells import MomentAngleCellComplex, build, oracle_betti
from .classify import RationalTypeVerdict, classify, elliptic_model, find_witness
from .cohomology import (
    CochainComplexQ,
    HochsterTable,
    hochster_betti,
    hochster_table,
    is_trivial_ring,
    star_product,
    star_product_scan,
)
from .complexes import (
    SimplicialComplex,
    boundary_simplex,
    from_facets,
    full_subcomplex,
    join,
    simplex,
)
from .errors import (
    GhostVertexError,
    InputError,
    MacError,
    NotApplicableError,
    ResourceError,
)
from .generate import cross_polytope, cycle, generate, random_complex
from .loops import (
    GrowthCertificate,
    HomotopyRankSeries,
    SphereModel,
    free_lie_ranks,
    growth_certificate,
    product_ranks,
    wedge_model,
)
from .nonfaces import (
    NonfaceFamily,
    minimal_nonfaces,
    reconstruct,
    relabel_family,
    restrict_family,
    support,
)

__version__ = "0.1.0"

__all__ = [
    "CochainComplexQ",
    "GhostVertexError",
    "GrowthCertificate",
    "HochsterTable",
    "HomotopyRankSeries",
    "InputError",
    "MacError",
    "MomentAngleCellComplex",
    "NonfaceFamily",
    "NotApplicableError",
    "RationalTypeVerdict",
    "ResourceError",
    "SimplicialComplex",
    "SphereModel",
    "boundary_simplex",
    "build",
    "classify",
    "cross_polytope",
    "cycle",
    "elliptic_model",
    "find_witness",
    "free_lie_ranks",
    "from_facets",
    "full_subcomplex",
    "generate",
    "growth_certificate",
    "hochster_betti",
    "hochster_table",
    "is_trivial_ring",
    "join",
    "minimal_nonfaces",
    "oracle_betti",
    "product_ranks",
    "random_complex",
    "reconstruct",
    "relabel_family",
    "restrict_family",
    "simplex",
    "star_product",
    "star_product_scan",
    "support",
    "wedge_model",
]
