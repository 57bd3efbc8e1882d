"""The elliptic/hyperbolic dichotomy for moment-angle complexes.

Z(K; (D^2, S^1)) is rationally elliptic exactly when the minimal
non-faces of K are pairwise disjoint, that is when K is a join of simplex
boundaries and a simplex; Z is then a product of one odd sphere
S^{2|m|-1} per non-face m and an even disk collecting the cone vertices.
Any intersecting pair of non-faces produces a full subcomplex on which all
non-faces pairwise intersect, and that subcomplex witnesses hyperbolicity.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import SimplicialComplex, _bits, _MembershipIndex
from .errors import NotApplicableError
from .nonfaces import (
    NonfaceFamily,
    _boundary_join_blocks,
    _neighbours,
    _non_edges,
    _reject_ghosts,
    minimal_nonfaces,
    restrict_family,
    support,
)


class RationalTypeVerdict(NamedTuple):
    """Outcome of the classification.

    Elliptic verdicts carry the sphere dimensions (ascending, all odd) and
    the even disk dimension; hyperbolic ones carry the witness vertex mask
    and the non-faces living inside it.
    """

    kind: str  # "elliptic" | "hyperbolic"
    sphere_dims: tuple[int, ...] | None = None
    disk_dim: int | None = None
    witness_mask: int | None = None
    witness_family: NonfaceFamily | None = None

    @property
    def is_elliptic(self) -> bool:
        return self.kind == "elliptic"

    def to_json_dict(self) -> dict:
        if self.is_elliptic:
            return {
                "kind": "elliptic",
                "spheres": list(self.sphere_dims),
                "disk": self.disk_dim,
            }
        return {
            "kind": "hyperbolic",
            "witness_I": list(_bits(self.witness_mask)),
            "witness_nonfaces": [list(_bits(m)) for m in self.witness_family.members],
        }


def elliptic_model(M: NonfaceFamily) -> tuple[tuple[int, ...], int]:
    """Sphere dimensions {2|m|-1} and disk dimension 2(M.n - |support|).

    Only valid when the members are pairwise disjoint, i.e. when the
    complex of ``M`` is a join of simplex boundaries and a simplex; they
    are disjoint exactly when their sizes add up to |support|.
    """
    covered = support(M).bit_count()
    if sum(m.bit_count() for m in M.members) != covered:
        raise NotApplicableError("non-faces intersect; there is no product-of-spheres model")
    dims = tuple(sorted(2 * m.bit_count() - 1 for m in M.members))
    return dims, 2 * (M.n - covered)


def find_witness(M: NonfaceFamily) -> tuple[int, NonfaceFamily]:
    """A vertex mask on which all restricted non-faces pairwise intersect.

    Taken as the union of an intersecting pair with minimal union size;
    minimality forces every further non-face inside the union to meet all
    the others.  Ties are broken by the lexicographically first pair in
    the family's canonical (ascending bitmask) order, which keeps the
    output deterministic: the pair is the ``min`` of the key
    ``(union size, a, b)`` over the intersecting pairs ``a < b``.

    The pairs are visited in ascending order of ``(a, b)``, each ``a`` only
    with the later members that meet it (an OR of the membership index), so
    the first pair of the smallest union size is that minimum.  A member ``a``
    is skipped once that size is at most ``|a| + 1``, the least union of
    ``a`` with a member that neither contains nor equals it.
    """
    members = M.members
    index = _MembershipIndex(members)
    best = None
    for i, a in enumerate(members):
        if best is not None and best[0] <= a.bit_count() + 1:
            continue
        later = index.meeting(a) >> (i + 1)
        while later:
            low = later & -later
            later ^= low
            b = members[i + low.bit_length()]
            size = (a | b).bit_count()
            if best is None or size < best[0]:
                best = (size, a, b)
    if best is None:
        raise NotApplicableError("no intersecting pair of non-faces")
    witness = best[1] | best[2]
    return witness, restrict_family(M, witness)


def classify(K: SimplicialComplex) -> RationalTypeVerdict:
    """Decide rational ellipticity of Z(K; (D^2, S^1)).

    Purely combinatorial: elliptic iff ``_boundary_join_blocks`` reads K
    off its facets as a join of simplex boundaries and a simplex.  Else two
    minimal non-faces with a union of three vertices are two non-edges
    sharing a vertex, since an antichain holds no non-edge inside a
    three-element non-face, and no union is smaller.  So when two non-edges
    meet, ``find_witness`` over the non-edges gives the least pair and the
    family of the enumeration; otherwise all minimal non-faces are listed.
    """
    _reject_ghosts(K)
    blocks = _boundary_join_blocks(K)
    if blocks is not None:
        dims, disk = elliptic_model(NonfaceFamily(K.n, blocks))
        return RationalTypeVerdict("elliptic", sphere_dims=dims, disk_dim=disk)
    try:
        witness, family = find_witness(NonfaceFamily(K.n, _non_edges(_neighbours(K))))
    except NotApplicableError:
        witness, family = find_witness(minimal_nonfaces(K))
    return RationalTypeVerdict("hyperbolic", witness_mask=witness, witness_family=family)
