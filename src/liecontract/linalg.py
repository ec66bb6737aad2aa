"""Exact linear algebra over Q, and polynomial minors.

Rational matrices are lists of lists of int where integral and Fraction
otherwise.  One forward elimination, _echelon, is behind the solves, ranks
and inverses: it scales each row to int once and clears the rows below each
pivot fraction-free, and a rank reads its pivots straight off it.  An upward
pass with the same row step reduces it (_reduced) for the rest:
solve_exact and lie.centralizer_in_span divide only the entries they
return, and _int_inverse reads d A^-1 off the int rows of [A | I], for
column_solver's sparse int solves and the trace dual's Gram inverse.  Every
polynomial minor, Pfaffian or determinant, comes from one engine,
_Pfaffians: a first-row Pfaffian expansion memoised per row tuple and run in
int, with a determinant read as the Pfaffian of [[0, M], [-M^T, 0]]; an
int matrix's own is _int_pfaffian's.  The symbolic rank of a Jacobian is
read off the wedge of differentials instead
(analysis._form_of_differentials, KostantReport.independent's last resort).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from .polyring import Polynomial, _accumulate, _div, _integral_terms


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


def _reduced(matrix):
    """_echelon and an upward pass: row r is its pivot times the reduced row r.

    Pivots are chosen column by column, so a block of columns appended on
    the right (a right-hand side, an identity) is carried along and only
    takes a pivot where the columns before it leave a row free.
    """
    rows, pivots = _echelon(matrix)
    for r in range(len(pivots) - 1, 0, -1):
        _clear(rows, range(r), rows[r], pivots[r])
    return rows, pivots


def _echelon(matrix):
    """(int rows, pivot columns) of a fraction-free forward elimination: row
    r starts at pivots[r] with zeros below it, and the rows below the rank are
    zero.  Gauss-Jordan picks the same pivots, as its upward steps never touch
    the rows the next pivot is picked from.  The given matrix is not changed."""
    width = len(matrix[0]) if matrix else 0
    rows = []
    for r in matrix:
        if len(r) != width:
            raise ValueError("matrix rows must have equal length")
        dens = [x.denominator for x in r if type(x) is not int]
        if dens:
            d = math.lcm(*dens)
            r = [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in r]
        rows.append(r)
    pivots = []
    for col in range(width):
        rank = len(pivots)
        if rank == len(rows):
            break
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        _clear(rows, range(rank + 1, len(rows)), rows[rank], col)
        pivots.append(col)
    return rows, pivots


def _clear(rows, targets, prow, col):
    """Clear column col of each target row by the int row prow, fraction-free,
    dividing out the content of each row it changes."""
    pv = prow[col]
    for r in targets:
        f = rows[r][col]
        if f:
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            row = [a * x - b * y if y else a * x for x, y in zip(rows[r], prow)]
            c = math.gcd(*row)
            rows[r] = [x // c for x in row] if c > 1 else row


def solve_exact(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]):
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent."""
    n = len(columns)
    rows, pivots = _reduced([[c[i] for c in columns] + [t] for i, t in enumerate(target)])
    if pivots and pivots[-1] == n:
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = Fraction(rows[r][n], rows[r][col])
    return sol


def _int_inverse(matrix):
    """(pivots P, d, d E as int rows) for the rows A: [A | I] reduces to v_r
    [R | E] in row r, R with unit columns at P, so E = (A_P)^-1 and d > 0 is
    its least denominator.  The rows are dependent when P[-1] >= A's width."""
    k, width = len(matrix), len(matrix[0])
    rows, pivots = _reduced([list(row) + [int(j == i) for j in range(k)]
                             for i, row in enumerate(matrix)])
    d = math.lcm(*(row[p] // math.gcd(row[p], *row[width:]) for row, p in zip(rows, pivots)))
    return pivots, d, [[x * d // row[p] for x in row[width:]] for row, p in zip(rows, pivots)]


def column_solver(columns: Sequence[Sequence]):
    """Reduce linearly independent columns once, for many right-hand sides.

    Returns solve(target) for a sparse target {position: entry}: the sparse
    x = {k: x_k}, k ascending, no x_k zero and each an int when integral,
    with sum_k x_k columns[k] equal to target; None when there is no such x.
    Returns None itself when the columns are linearly dependent.  x = E^T b_P
    for _int_inverse's E, checked at every position that the target or a used
    column touches: everywhere else both sides are zero.
    """
    pivots, d, inverse = _int_inverse(columns)
    if pivots[-1] >= len(columns[0]):
        return None
    inverse = {p: [(k, x) for k, x in enumerate(row) if x] for p, row in zip(pivots, inverse)}
    nonzero = [[(i, v) for i, v in enumerate(col) if v] for col in columns]

    def solve(target):
        dsol: dict = {}
        for p, b in target.items():
            if b and (erow := inverse.get(p)):
                for k, e in erow:
                    dsol[k] = dsol.get(k, 0) + b * e
        combo = {i: -d * t for i, t in target.items()}
        for k, c in dsol.items():
            for i, v in nonzero[k]:
                combo[i] = combo.get(i, 0) + c * v
        if any(combo.values()):
            return None
        return {k: _div(c, d) for k, c in sorted(dsol.items()) if c}

    return solve


def rational_rank(matrix) -> int:
    return len(_echelon(matrix)[1])


class _Pfaffians:
    """Sub-Pfaffians of one skew matrix of int, Fraction or Polynomial
    entries, memoised per row tuple.  The matrix is given by its nonzero
    entries above the diagonal, {(i, j): e} for i < j, and the ring
    dimension n of its Polynomials (None when every entry is a number).
    They are scaled once by their common denominator d, so the expansion runs
    in int, and a Pfaffian on 2k rows is divided by d^k at the end.  It is a
    number when n is None.  top, the entries' largest total degree, bounds a
    Pfaffian on 2k rows by degree k * top."""

    def __init__(self, entries: dict, n=None):
        self.n = n
        ring = self.ring = n or 0
        polys = [e if isinstance(e, Polynomial) else Polynomial.const(ring, e)
                 for e in entries.values()]
        self.d, maps = _integral_terms(polys)
        self.top = max((p.degree() for p in polys), default=0)
        self.a = dict(zip(entries, maps))
        # the Pfaffian on no rows is 1, and on rows (i, j) the entry itself
        self.memo = {(): Polynomial.const(ring, 1).terms, **self.a}

    @classmethod
    def of_matrix(cls, matrix):
        """The engine on a square matrix; only its entries above the diagonal are read."""
        n = next((e.n for row in matrix for e in row if isinstance(e, Polynomial)), None)
        return cls({(i, j): e for i, row in enumerate(matrix)
                    for j in range(i + 1, len(row)) if (e := row[j])}, n)

    def __call__(self, row_sets):
        """The sum of the Pfaffians on sorted row tuples of one length 2k."""
        acc, k = {}, 0
        for rows in row_sets:
            k = len(rows) // 2
            for key, c in self.terms(rows).items():
                acc[key] = acc.get(key, 0) + c
        total = Polynomial._collect(self.ring, acc, self.d ** k)
        # a polynomial in no variables has one coefficient at most: the number
        return total if self.n is not None else sum(total.terms.values())

    def terms(self, rows) -> dict:
        """d^k times the Pfaffian on one sorted row tuple of length 2k, as a
        term map of int coefficients; empty when the Pfaffian is zero."""
        terms = self.memo.get(rows)
        return self._expand(rows) if terms is None else terms

    def _expand(self, rows):
        """d^k times the Pfaffian on rows, by the first row; kept in the memo."""
        acc: dict = {}
        for t in range(1, len(rows)):
            entry = self.a.get((rows[0], rows[t]))
            if entry:
                rest = rows[1:t] + rows[t + 1:]
                sub = self.memo.get(rest)
                _accumulate(acc, entry, self._expand(rest) if sub is None else sub,
                            not t % 2, self.ring, self.top * (len(rows) // 2))
        out = self.memo[rows] = {k: c for k, c in acc.items() if c}
        return out


def _int_pfaffian(a) -> int:
    """Pf of a skew int matrix, fraction-free: after the step on rows 2s, 2s + 1
    each entry (i, j) below is Pf on rows 0..2s + 1, i, j, so the division by
    the last pivot is exact.  A pivot swap negates it; a zero row gives 0."""
    m, a, sign, prev = len(a), [list(row) for row in a], 1, 1
    for s in range(0, m, 2):
        j = next((j for j in range(s + 1, m) if a[s][j]), None)
        if j is None:
            return 0
        if j != s + 1:          # swap rows and columns j and s + 1
            perm = [*range(s + 1), j, *range(s + 2, j), s + 1, *range(j + 1, m)]
            sign, a = -sign, [[a[r][c] for c in perm] for r in perm]
        p, u, v = a[s][s + 1], a[s], a[s + 1]
        for i in range(s + 2, m):
            for t in range(i + 1, m):
                a[i][t] = (p * a[i][t] - u[i] * v[t] + u[t] * v[i]) // prev
                a[t][i] = -a[i][t]
        prev = p
    return sign * prev


def _principal_minor_sums(matrix):
    """e(k): the sum of the principal k-minors of a square matrix; e(m) is
    its determinant.

    det M_SS = (-1)^(k(k-1)/2) Pf(B on S + (S + m)) for B = [[0, M], [-M^T, 0]]
    and |S| = k, so one memoised engine on B serves every minor of every k.
    The engine reads B above its diagonal only, so -M^T is left out.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square")
    pf = _Pfaffians.of_matrix([[0] * m + list(row) for row in matrix])

    def e(k):
        total = pf(rows + tuple(r + m for r in rows)
                   for rows in itertools.combinations(range(m), k))
        return -total if k // 2 % 2 else total

    return e


def poly_det_cofactor(matrix):
    """Determinant of a square matrix, as the Pfaffian of its block."""
    if not matrix:
        raise ValueError("empty matrix")
    return _principal_minor_sums(matrix)(len(matrix))
