"""Exact linear algebra over the integers and rationals.

One routine, ``echelon``, does all the package's elimination.  Each input
row is reduced against a table of pivot rows indexed by their smallest
column: while the row is non-empty, its smallest column either has no
pivot yet, and the row becomes that column's pivot, or it is eliminated
with the stored pivot row.  A row therefore meets only the pivots of the
columns it actually reaches, instead of every remaining row being
rescanned for every pivot.  Elimination stays in the integers (Bareiss,
Math. Comp. 22, 1968): an exact quotient when the pivot divides the
coefficient, otherwise cross-multiplication followed by gcd normalisation.
``rank_sparse`` counts the pivots; the cocycle layer of the ring scan
reads kernels, images and representatives off the pivot tables.

The dense routines over Fraction (``rref``, ``kernel_basis``,
``solve_columns`` and ``RowSpan``) have no caller in the package.  They
stay as the tests' reference for the cocycle layer, and because the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def echelon(rows) -> dict[int, dict[int, int]]:
    """Integer echelon form of sparse rows ({col: coeff} dicts): {pivot column: row}.

    The pivot of a reduced row is its smallest column.  Every other column
    of a stored pivot row is larger, so eliminating the smallest column of
    a row only adds columns above it: a row is finished after at most one
    step per column, and the stored pivot rows stay in echelon form.  The
    set of pivot columns does not depend on the order of the rows (column c
    is a pivot exactly when it is not a combination of the columns below
    it); the order only decides which rows become pivots.  Empty rows and
    zero entries are skipped, and the input is not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        # a plain copy is much cheaper than the filter, and boundary rows hold no zero
        row = {c: v for c, v in row.items() if v} if 0 in row.values() else dict(row)
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
    return pivots


def rank_sparse(rows) -> int:
    """Rank of an integer matrix given as sparse rows: the pivots of its echelon."""
    return len(echelon(rows))


def product_is_zero(left, right) -> bool:
    """Whether left * right = 0 for sparse {col: coeff} rows; ``right[c]`` is the row of
    column c of ``left``, so a list for position columns, a dict for face-mask columns."""
    for row in left:
        acc: dict[int, int] = {}
        for mid, v in row.items():
            for c, w in right[mid].items():
                acc[c] = acc.get(c, 0) + v * w
        if any(acc.values()):
            return False
    return True


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

    The tests' oracle for ``CochainComplexQ.reduce_cocycle``; nothing in
    the package calls it.
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
    """Incrementally built row space over the rationals."""

    def __init__(self):
        self.rows = []  # (pivot column, reduced vector with unit pivot)

    def _reduce(self, vec):
        vec = [Fraction(x) for x in vec]
        for p, row in self.rows:
            f = vec[p]
            if f != 0:
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        res = self._reduce(vec)
        p = next((i for i, x in enumerate(res) if x != 0), None)
        if p is None:
            return False
        pv = res[p]
        self.rows.append((p, [x / pv for x in res]))
        self.rows.sort(key=lambda t: t[0])
        return True
