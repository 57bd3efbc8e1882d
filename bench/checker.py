"""Independent checker: expected reports from how each input was generated.

Nothing here imports ``macomplex``.  For the structured families the
minimal non-faces are read off the recipe (non-edges of the graph plus the
boundary blocks); for the bounded random family they are enumerated by
brute force over the face set.  Every other expectation follows from
those, from closed forms, or from counting arcs of a cycle.

``check(command, case, report, truncation)`` returns None when the report
is accepted and a one-line reason when it is rejected.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from inputs import Case, _bits, _mask


def minimal_nonfaces(case: Case) -> list[int]:
    """Ascending bitmasks of the minimal non-faces."""
    if case.structured:
        adjacent = {_mask(e) for e in case.edges}
        members = {
            _mask(pair)
            for pair in combinations(case.graph_vertices, 2)
            if _mask(pair) not in adjacent
        }
        members |= {_mask(b) for b in case.blocks}
        return sorted(members)
    faces = set()
    for f in case.facets:
        full = _mask(f)
        sub = full
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & full
    members = set()
    for face in faces:
        for v in range(1, case.n + 1):
            bit = 1 << (v - 1)
            cand = face | bit
            if face & bit or cand in faces:
                continue
            if all(cand ^ (1 << (u - 1)) in faces for u in _bits(cand)):
                members.add(cand)
    return sorted(members)


def _lists(masks) -> list[list[int]]:
    return [list(_bits(m)) for m in masks]


def expected_nonfaces(case: Case) -> dict:
    return {"n": case.n, "members": _lists(minimal_nonfaces(case))}


def expected_classify(case: Case) -> dict:
    """Elliptic iff the minimal non-faces are pairwise disjoint.

    The hyperbolic witness is the union of the intersecting pair with the
    smallest union, ties broken by the first pair in ascending mask order.
    """
    members = minimal_nonfaces(case)
    best = None
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a & b:
                key = ((a | b).bit_count(), a, b)
                if best is None or key < best:
                    best = key
    if best is None:
        support = 0
        for m in members:
            support |= m
        return {
            "kind": "elliptic",
            "spheres": sorted(2 * m.bit_count() - 1 for m in members),
            "disk": 2 * (case.n - support.bit_count()),
        }
    union = best[1] | best[2]
    return {
        "kind": "hyperbolic",
        "witness_I": list(_bits(union)),
        "witness_nonfaces": _lists(m for m in members if m & ~union == 0),
    }


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _cycle_betti(m: int) -> list[int]:
    """Betti numbers of Z(C_m) from arc components of every vertex subset.

    A proper non-empty subset I of the cycle restricts to a union of arcs;
    its reduced H^0 has rank (#arcs - 1) and lands in total degree |I| + 1.
    The whole cycle adds one class in degree m + 2, the empty set the unit.
    """
    betti = [0] * (m + 3)
    betti[0] = 1
    betti[m + 2] = 1
    full = (1 << m) - 1
    for subset in range(1, full):
        # an arc starts at each present vertex whose predecessor is absent
        rotated = ((subset << 1) | (subset >> (m - 1))) & full
        arcs = (subset & ~rotated).bit_count()
        betti[subset.bit_count() + 1] += arcs - 1
    return betti


def expected_betti(case: Case) -> list[int] | None:
    """Closed-form Betti numbers of Z(K), or None when the recipe has none.

    Z of a join is the product of the factors' Z, a block B contributes
    the sphere S^(2|B|-1), a cycle its arc count and the cone a disk.
    """
    if not case.structured or (case.graph_vertices and not case.is_cycle):
        return None
    poly = _cycle_betti(len(case.graph_vertices)) if case.is_cycle else [1]
    for block in case.blocks:
        sphere = [0] * (2 * len(block))
        sphere[0] = sphere[-1] = 1
        poly = _poly_mul(poly, sphere)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _betti_invariants(betti) -> str | None:
    if not isinstance(betti, list) or not betti or not all(isinstance(b, int) for b in betti):
        return "betti is not a list of integers"
    if betti[0] != 1:
        return f"b0 = {betti[0]}, expected 1"
    euler = sum(b if d % 2 == 0 else -b for d, b in enumerate(betti))
    if euler != 0:
        return f"Euler characteristic {euler}, expected 0 (input is not a simplex)"
    return None


def _check_betti_list(case: Case, betti) -> str | None:
    problem = _betti_invariants(betti)
    if problem:
        return problem
    expected = expected_betti(case)
    if expected is not None and betti != expected:
        return f"betti {betti} differs from closed form {expected}"
    return None


def check_betti(case: Case, report: dict) -> str | None:
    problem = _check_betti_list(case, report.get("betti"))
    if problem:
        return problem
    totals: dict[int, int] = {}
    for entry in report.get("entries", []):
        degree = entry["j"] + len(entry["I"]) + 1
        totals[degree] = totals.get(degree, 0) + entry["dim"]
    summed = [totals.get(d, 0) for d in range(len(report["betti"]))]
    if summed != report["betti"] or max(totals, default=0) >= len(report["betti"]):
        return "table entries do not sum to the reported betti numbers"
    return None


def check_crosscheck(case: Case, report: dict) -> str | None:
    if report.get("equal") is not True or report.get("hochster") != report.get("oracle"):
        return "engines disagree"
    return _check_betti_list(case, report["hochster"])


def ring_must_be_nontrivial(case: Case) -> bool:
    """Cycles of length >= 6 and joins of >= 2 simplex boundaries.

    Both are sphere triangulations with non-trivial products: Poincare
    duality for the cycle, the product of spheres for the join.
    """
    if not case.structured:
        return False
    if case.is_cycle:
        return len(case.graph_vertices) >= 6 and not case.blocks
    return not case.graph_vertices and len(case.blocks) >= 2


def check_ring(case: Case, report: dict) -> str | None:
    trivial = report.get("trivial")
    cert = report.get("certificate") or {}
    if trivial is False:
        J, L = set(cert.get("J", ())), set(cert.get("L", ()))
        if not J or not L or J & L:
            return f"certificate supports J={sorted(J)} and L={sorted(L)} are not disjoint and non-empty"
        if not J | L <= set(range(1, case.n + 1)):
            return "certificate supports leave the vertex set"
        if cert.get("degree") != cert.get("p") + len(J) + 1 + cert.get("q") + len(L) + 1:
            return "certificate degree is not the sum of the class degrees"
        return None
    if trivial is not True:
        return "ring verdict missing"
    if ring_must_be_nontrivial(case):
        return "ring reported trivial for an input with known non-trivial products"
    if cert.get("kind") not in ("disjoint_supports_absent", "all_products_vanish"):
        return f"unknown trivial-ring certificate {cert.get('kind')!r}"
    return None


def tensor_series(dims, N: int) -> list[int]:
    """Coefficients of 1 / (1 - sum_i t^(d_i - 1)) through t^N."""
    out = [1] + [0] * N
    for m in range(1, N + 1):
        out[m] = sum(out[m - d + 1] for d in dims if d - 1 <= m)
    return out


def rank_series(ranks, N: int) -> list[int]:
    """prod_k (1 + t^k)^l_k for odd k and (1 - t^k)^(-l_k) for even k, through t^N."""
    series = [1] + [0] * N
    for k, l_k in enumerate(ranks, start=1):
        if not l_k:
            continue
        coeffs = [
            comb(l_k, j) if k % 2 else comb(l_k + j - 1, j) for j in range(N // k + 1)
        ]
        nxt = [0] * (N + 1)
        for i, x in enumerate(series):
            if x:
                for j in range(0, (N - i) // k + 1):
                    nxt[i + j * k] += x * coeffs[j]
        series = nxt
    return series


def check_loop_ranks(case: Case, report: dict, truncation: int) -> str | None:
    ranks = report.get("ranks")
    model = report.get("model") or {}
    dims = model.get("dims") or []
    if not isinstance(ranks, list) or len(ranks) != truncation:
        return f"expected {truncation} ranks"
    verdict = expected_classify(case)
    if verdict["kind"] == "elliptic":
        expected = [0] * truncation
        for d in verdict["spheres"]:
            expected[d - 2] += 1
        if model.get("kind") != "product" or dims != verdict["spheres"]:
            return f"model {model} is not the product of spheres {verdict['spheres']}"
        if ranks != expected:
            return "ranks of the sphere product are wrong"
        return None if report.get("verdict") == "finite" else "elliptic input reported with infinite growth"
    if model.get("kind") != "wedge" or not dims or min(dims) < 3:
        return f"hyperbolic input needs a wedge of simply connected spheres, got {model}"
    if rank_series(ranks, truncation) != tensor_series(dims, truncation):
        return "ranks do not reproduce 1/(1 - sum t^(d-1))"
    if report.get("verdict") != "exponential":
        return "hyperbolic input reported with finite growth"
    return None


def check(command: str, case: Case, report, truncation: int = 0) -> str | None:
    """None if ``report`` is the right answer for ``case``, else the reason."""
    if not isinstance(report, dict) or "error" in report:
        return f"error report: {report}"
    try:
        if command == "nonfaces":
            expected = expected_nonfaces(case)
            return None if report == expected else "minimal non-faces differ from the recipe"
        if command == "classify":
            expected = expected_classify(case)
            return None if report == expected else f"verdict differs: expected {expected}"
        if command == "betti":
            return check_betti(case, report)
        if command == "crosscheck":
            return check_crosscheck(case, report)
        if command == "ring":
            return check_ring(case, report)
        if command == "loop-ranks":
            return check_loop_ranks(case, report, truncation)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    return f"no check for command {command!r}"
