"""Exact linear algebra over Q, and small polynomial determinants.

Rational matrices are lists of lists of int where integral and Fraction
otherwise.  One Gauss-Jordan routine, row_reduce, works over Fraction and is
behind the solves, ranks and inverses; column_solver clears its inverse's
denominator, so it solves integral systems in int.  Polynomial matrices
only need determinants of small minors, taken by cofactor expansion; the
symbolic rank of a Jacobian is read off the wedge of differentials instead
(analysis.algebraic_independence).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polyring import Polynomial, _div


def mat_mul(a, b):
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def identity_matrix(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def zero_matrix(m):
    return [[0] * m for _ in range(m)]


def flatten(a):
    return [x for row in a for x in row]


def row_reduce(matrix):
    """Reduced row echelon form over Q: (rows, pivot columns).

    Pivots are chosen column by column, so a block of columns appended on
    the right (a right-hand side, an identity) is carried along and only
    takes a pivot where the columns before it leave a row free.
    """
    rows = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in matrix]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pv = rows[rank][col]
        prow = rows[rank] = [x / pv if x else x for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [x - f * y if y else x for x, y in zip(row, prow)]
        pivots.append(col)
    return rows, pivots


def solve_exact(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]):
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent."""
    n = len(columns)
    rows, pivots = row_reduce([[c[i] for c in columns] + [t] for i, t in enumerate(target)])
    if pivots and pivots[-1] == n:
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = rows[r][n]
    return sol


def column_solver(columns: Sequence[Sequence]):
    """Reduce linearly independent columns once, for many right-hand sides.

    Returns solve(target), which gives the x with sum_k x_k columns[k] equal
    to target in every entry, or None when there is no such x; each x_k is
    an int when integral.  Returns None itself when the columns are linearly
    dependent.
    """
    n = len(columns)
    size = len(columns[0])
    # [C^T | I] reduces to [R | E], where R has unit columns at n pivot
    # entries P; then E = (C_P^T)^-1 and x = E^T b_P is the only candidate.
    rows, pivots = row_reduce([list(col) + [int(j == k) for j in range(n)]
                               for k, col in enumerate(columns)])
    if pivots[-1] >= size:
        return None
    # D * E is integral, so D * x and its check run in int for integral data
    d = math.lcm(*(x.denominator for row in rows for x in row[size:]))
    inverse = [[x.numerator * (d // x.denominator) for x in row[size:]] for row in rows]
    nonzero = [[(i, v) for i, v in enumerate(col) if v] for col in columns]

    def solve(target):
        picked = [(target[p], inverse[r]) for r, p in enumerate(pivots) if target[p]]
        dsol = [sum(b * e[k] for b, e in picked) for k in range(n)]
        combo = [0] * size
        for c, col in zip(dsol, nonzero):
            if c:
                for i, v in col:
                    combo[i] += c * v
        if combo != [d * t for t in target]:
            return None
        return [_div(c, d) for c in dsol]

    return solve


def rational_rank(matrix) -> int:
    return len(row_reduce(matrix)[1])


def rational_inverse(matrix):
    m = len(matrix)
    rows, pivots = row_reduce([list(matrix[i]) + [int(j == i) for j in range(m)]
                               for i in range(m)])
    if pivots != list(range(m)):
        raise ValueError("matrix is singular")
    return [row[m:] for row in rows]


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

