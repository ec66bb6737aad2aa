"""Exact linear algebra over Fractions and over the polynomial ring.

Rational matrices are lists of lists of Fraction.  Symbolic ranks use
fraction-free (Bareiss) elimination so every intermediate entry stays a
polynomial and zero tests stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polyring import Polynomial, poly_div_exact


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def identity_matrix(m):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]


def zero_matrix(m, k=None):
    k = m if k is None else k
    return [[Fraction(0)] * k for _ in range(m)]


def flatten(a):
    return [x for row in a for x in row]


def solve_exact(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]):
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent."""
    m = len(target)
    n = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(n)] + [Fraction(target[i])]
           for i in range(m)]
    piv_rows = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if aug[r][col]:
                sel = r
                break
        if sel is None:
            piv_rows.append(None)
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        piv_rows.append(row)
        row += 1
    for r in range(row, m):
        if aug[r][n]:
            return None
    sol = [Fraction(0)] * n
    for col, r in enumerate(piv_rows):
        if r is not None:
            sol[col] = aug[r][n]
    return sol


def rational_rank(matrix) -> int:
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rational_det(matrix) -> Fraction:
    m = len(matrix)
    rows = [list(map(Fraction, r)) for r in matrix]
    det = Fraction(1)
    for col in range(m):
        sel = None
        for r in range(col, m):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            return Fraction(0)
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, m):
            if rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def rational_inverse(matrix):
    m = len(matrix)
    aug = [list(map(Fraction, matrix[i])) + [Fraction(1) if j == i else Fraction(0)
                                             for j in range(m)] for i in range(m)]
    for col in range(m):
        sel = None
        for r in range(col, m):
            if aug[r][col]:
                sel = r
                break
        if sel is None:
            raise ValueError("matrix is singular")
        aug[col], aug[sel] = aug[sel], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def poly_det_cofactor(matrix) -> Polynomial:
    """Determinant of a small Polynomial matrix by first-row expansion."""
    m = len(matrix)
    if m == 0:
        raise ValueError("empty matrix")
    n = matrix[0][0].n
    if m == 1:
        return matrix[0][0]

    def rec(rows, cols):
        if len(cols) == 1:
            return matrix[rows[0]][cols[0]]
        r0 = rows[0]
        rest = rows[1:]
        total = Polynomial.zero(n)
        for pos, c in enumerate(cols):
            entry = matrix[r0][c]
            if entry.is_zero:
                continue
            sub = rec(rest, cols[:pos] + cols[pos + 1:])
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    idx = tuple(range(m))
    return rec(idx, idx)


def poly_matrix_rank(matrix) -> int:
    """Symbolic rank via fraction-free elimination with sparsest-pivot selection."""
    if not matrix:
        return 0
    work = [row[:] for row in matrix]
    nrows, ncols = len(work), len(work[0])
    live_rows = list(range(nrows))
    live_cols = list(range(ncols))
    prev = None
    rank = 0
    while live_rows and live_cols:
        best = None
        for i in live_rows:
            wi = work[i]
            for j in live_cols:
                e = wi[j]
                if not e.is_zero:
                    size = len(e.terms)
                    if best is None or size < best[0]:
                        best = (size, i, j)
                        if size == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pr, pc = best
        pivot = work[pr][pc]
        rank += 1
        live_rows.remove(pr)
        live_cols.remove(pc)
        for i in live_rows:
            row_i = work[i]
            lead = row_i[pc]
            if lead.is_zero:
                if prev is not None:
                    for j in live_cols:
                        if not row_i[j].is_zero:
                            row_i[j] = poly_div_exact(pivot * row_i[j], prev)
                else:
                    for j in live_cols:
                        row_i[j] = pivot * row_i[j]
                continue
            prow = work[pr]
            for j in live_cols:
                val = pivot * row_i[j] - lead * prow[j]
                if prev is not None and not val.is_zero:
                    val = poly_div_exact(val, prev)
                row_i[j] = val
        prev = pivot
    return rank
