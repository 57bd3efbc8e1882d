"""Exact linear algebra over the integers and rationals.

Ranks are computed by incremental, fraction-free row reduction.  Each
input row is reduced against a table of pivot rows indexed by their
smallest column: while the row is non-empty, its smallest column either
has no pivot yet, and the row becomes that column's pivot, or it is
eliminated with the stored pivot row.  A row therefore meets only the
pivots of the columns it actually reaches, instead of every remaining
row being rescanned for every pivot.  Elimination stays in the integers:
an exact quotient when the pivot divides the coefficient, otherwise
cross-multiplication followed by gcd normalisation.

The dense routines over Fraction serve the cocycle layer of the ring scan.
For each degree of a full subcomplex K_I, ``kernel_basis`` finds the
cocycles and one ``RowSpan`` holds the coboundaries and the chosen
representatives; every product landing in that degree is then reduced
against the same span, in one pass.  The ring scan of the 12-cycle builds
1,955 spans and reduces 2,049 products against 977 of them, so these
routines carry a large share of `mac ring`'s time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rank_sparse(rows) -> int:
    """Rank of an integer matrix given as sparse rows ({col: coeff} dicts).

    The pivot of a reduced row is its smallest column.  Every other column
    of a stored pivot row is larger, so eliminating the smallest column of
    a row only adds columns above it: a row is finished after at most one
    step per column, and the stored pivot rows stay in echelon form, so
    their number is the rank.  The rank does not depend on the order of
    the rows; the order only decides which rows become pivots.  Empty rows
    and zero entries are skipped, and the input is not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            coef = row[col]
            pval = pivot[col]
            scaled = coef % pval != 0
            if scaled:
                for c in row:
                    row[c] *= pval
                q = coef
            else:
                q = coef // pval
            for c, v in pivot.items():  # clears col itself
                nv = row.get(c, 0) - q * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if scaled and row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    for c in row:
                        row[c] //= g
    return len(pivots)


def dense_from_sparse(rows, ncols) -> list[list[Fraction]]:
    out = []
    for row in rows:
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v)
        out.append(dense)
    return out


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(matrix, ncols) -> list[list[Fraction]]:
    """Basis of the right kernel of ``matrix`` (rows over ``ncols`` columns).

    Deterministic: one basis vector per free column, in ascending column
    order, with unit entry at the free column.
    """
    if not matrix:
        basis = []
        for c in range(ncols):
            vec = [Fraction(0)] * ncols
            vec[c] = Fraction(1)
            basis.append(vec)
        return basis
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[c]
        basis.append(vec)
    return basis


def solve_columns(columns, rhs) -> list[Fraction] | None:
    """A particular solution x of  sum_j x_j * columns[j] = rhs, or None.

    Nothing in the package calls it any more: ``RowSpan.coordinates``
    reduces cocycles now.  It stays as the tests' oracle for that reduction,
    and because the benchmark's tracer wraps it by name.
    """
    nrows = len(rhs)
    ncols = len(columns)
    aug = []
    for i in range(nrows):
        aug.append([Fraction(col[i]) for col in columns] + [Fraction(rhs[i])])
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return x


class RowSpan:
    """Incrementally built row space over the rationals.

    A vector added with a ``tag`` counts as a basis vector named by the tag.
    Every stored row records its coefficients on those tagged vectors, so
    ``coordinates`` can express a vector of the span in the tagged basis,
    modulo the untagged vectors.
    """

    def __init__(self):
        self.rows = []  # (pivot column, reduced vector with unit pivot, {tag: coefficient})

    def _reduce(self, vec):
        """(residual, {tag: coefficient} of the stored rows subtracted from vec)."""
        vec = [Fraction(x) for x in vec]
        combo = {}
        for p, row, tags in self.rows:
            f = vec[p]
            if f != 0:
                vec = [a - f * b for a, b in zip(vec, row)]
                for key, t in tags.items():
                    combo[key] = combo.get(key, 0) + f * t
        return vec, combo

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec)[0])

    def add(self, vec, tag=None) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        res, combo = self._reduce(vec)
        p = next((i for i, x in enumerate(res) if x != 0), None)
        if p is None:
            return False
        pv = res[p]
        res = [x / pv for x in res]
        tags = {key: -x / pv for key, x in combo.items() if x}
        if tag is not None:
            tags[tag] = 1 / pv
        self.rows.append((p, res, tags))
        self.rows.sort(key=lambda t: t[0])
        return True

    def coordinates(self, vec) -> dict | None:
        """{tag: coefficient} of vec on the tagged vectors, or None if vec is not in the span.

        Zero coefficients are left out.  The coefficients are unique when the
        tagged vectors are independent modulo the span of the untagged ones.
        """
        res, combo = self._reduce(vec)
        if any(res):
            return None
        return {key: x for key, x in combo.items() if x}
