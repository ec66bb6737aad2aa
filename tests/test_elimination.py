"""The forward-only int elimination and the sparse int column solver against
the paths they replaced.

linalg._echelon clears only the rows below each pivot.  An upward pass with
the same fraction-free row step reduces those rows (_reduced, read as
Fraction rows by conftest.row_reduce) for solve_exact and _int_inverse,
which returns d A^-1 as int rows; column_solver reads its inverse there and
solves sparse targets in int, touching only nonzero entries.
The in-test copy below is the replaced elimination: a Gauss-Jordan pass that
also clears the entries above each pivot.  Pivots, reduced rows, solutions
and inverses (d A^-1 over d) must be identical to it (and to sympy's rref
when sympy is installed), column_solver's sparse solutions identical to
solve_exact's nonzero entries, and every
algebra built through the solver must print the bytes recorded before the
change.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from conftest import cached_builtin, row_reduce
from liecontract import builders
from liecontract.builders import BUILTIN_ALGEBRAS, _PAIRS, symmetric_pair
from liecontract.lie import algebra_to_text
from liecontract.linalg import _echelon, _int_inverse, column_solver, rational_rank, solve_exact
from test_contraction_pass import deficient_matrices

# ---------------------------------------------------------------------------
# the replaced Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def reference_echelon(matrix):
    """(int rows, pivot columns) of a fraction-free Gauss-Jordan elimination:
    each pivot row is a multiple of the reduced row, and the rows below the
    rank are zero."""
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
        prow = rows[rank]
        pv = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y if y else a * x for x, y in zip(row, prow)]
                c = math.gcd(*row)
                rows[r] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
    return rows, pivots


def reference_row_reduce(matrix):
    """The replaced row_reduce: each Gauss-Jordan pivot row divided by its pivot."""
    rows, pivots = reference_echelon(matrix)
    out = [[Fraction(x, row[col]) if x else Fraction(0) for x in row]
           for row, col in zip(rows, pivots)]
    return out + [[Fraction(0)] * len(row) for row in rows[len(pivots):]], pivots


# ---------------------------------------------------------------------------
# seeded matrices
# ---------------------------------------------------------------------------

def random_rational_matrices():
    """Seeded rational matrices with Fraction entries: square, wide and tall,
    with zero rows and zero columns inserted, integral entries kept as int in
    every other matrix."""
    rng = random.Random(2411)
    out = []
    for t in range(60):
        m, c = rng.randint(1, 8), rng.randint(1, 8)
        if t % 3 == 1:
            c = m + rng.randint(1, 5)
        elif t % 3 == 2:
            m = c + rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.8 else
                Fraction(0) for _ in range(c)] for _ in range(m)]
        for _ in range(rng.randint(0, 2)):
            mat.insert(rng.randint(0, len(mat)), [Fraction(0)] * c)
        for _ in range(rng.randint(0, 2)):
            j = rng.randint(0, c)
            mat = [row[:j] + [Fraction(0)] + row[j:] for row in mat]
            c += 1
        if t % 2:
            mat = [[int(x) if x.denominator == 1 else x for x in row] for row in mat]
        out.append(mat)
    return out


MATRICES = deficient_matrices() + random_rational_matrices()


def first_nonzero(row):
    return next((j for j, x in enumerate(row) if x), None)


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("matrix", MATRICES)
def test_forward_pivots_match_gauss_jordan(matrix):
    rows, pivots = _echelon(matrix)
    _, want_pivots = reference_echelon(matrix)
    assert pivots == want_pivots
    assert rational_rank(matrix) == len(pivots)
    assert all(type(x) is int for row in rows for x in row)
    assert [first_nonzero(row) for row in rows[:len(pivots)]] == pivots
    assert not any(x for row in rows[len(pivots):] for x in row)


@pytest.mark.parametrize("matrix", MATRICES)
def test_row_reduce_matches_gauss_jordan(matrix):
    rows, pivots = row_reduce(matrix)
    want_rows, want_pivots = reference_row_reduce(matrix)
    assert pivots == want_pivots
    assert rows == want_rows
    assert all(type(x) is Fraction for row in rows for x in row)


@pytest.mark.parametrize("matrix", MATRICES)
def test_solve_exact_and_the_inverse_match_gauss_jordan(matrix):
    # the last column as the target of the others
    n = len(matrix[0]) - 1
    if n >= 1:
        rows, pivots = reference_row_reduce(matrix)
        want = None
        if not (pivots and pivots[-1] == n):
            want = [Fraction(0)] * n
            for r, col in enumerate(pivots):
                want[col] = rows[r][n]
        columns = [[row[j] for row in matrix] for j in range(n)]
        got = solve_exact(columns, [row[n] for row in matrix])
        assert got == want
        assert got is None or all(type(x) is Fraction for x in got)
    m = len(matrix)
    square = [row[:m] for row in matrix]
    if len(matrix[0]) >= m:
        rows, pivots = reference_row_reduce([row + [int(i == j) for j in range(m)]
                                             for i, row in enumerate(square)])
        got_pivots, d, got = _int_inverse(square)
        if pivots[:m] == list(range(m)):
            assert got_pivots == pivots[:m]
            assert [[Fraction(x, d) for x in row] for row in got] == [row[m:] for row in rows]
            assert all(type(x) is int for row in got for x in row)
        else:
            # singular: a pivot falls in the identity block
            assert got_pivots[-1] >= m


def test_row_reduce_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    for matrix in MATRICES:
        rows, pivots = row_reduce(matrix)
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) if type(x) is Fraction else x
              for x in row] for row in matrix]).rref()
        assert pivots == list(want_pivots)
        assert [[Fraction(int(x.p), int(x.q)) for x in want.row(r)]
                for r in range(want.rows)] == rows


def test_reference_gauss_jordan_is_reduced():
    """The reference really clears above each pivot, so the forward-only
    rows differ from it on some matrix and the equivalence above is no
    identity."""
    differ = 0
    for matrix in MATRICES:
        rows, pivots = reference_echelon(matrix)
        for r, col in enumerate(pivots):
            assert all(not rows[s][col] for s in range(len(rows)) if s != r)
        differ += _echelon(matrix)[0] != rows
    assert differ


# ---------------------------------------------------------------------------
# the column solver
# ---------------------------------------------------------------------------

def independent_columns(rng):
    """k linearly independent columns of length m >= k with Fraction entries."""
    while True:
        m = rng.randint(1, 8)
        k = rng.randint(1, m)
        cols = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0
                 for _ in range(m)] for _ in range(k)]
        if rational_rank(cols) == k:
            return cols


def sparse(vector):
    """{position: entry} of a vector's nonzero entries, positions ascending."""
    return {k: x for k, x in enumerate(vector) if x}


def combine(cols, x):
    return [sum((c[i] * xk for c, xk in zip(cols, x)), Fraction(0)) for i in range(len(cols[0]))]


def test_column_solver_matches_solve_exact():
    rng = random.Random(2412)
    outside = 0
    for _ in range(120):
        cols = independent_columns(rng)
        solve = column_solver(cols)
        assert solve is not None
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in cols]
        target = combine(cols, x)
        assert solve(sparse(target)) == sparse(x) == sparse(solve_exact(cols, target))
        assert list(solve(sparse(target))) == sorted(sparse(x))
        assert all(type(v) is int or v.denominator > 1 for v in solve(sparse(target)).values())
        # a target outside the span: the last entry moved off every combination
        if len(cols) < len(cols[0]):
            moved = target[:-1] + [target[-1] + 1]
            if solve_exact(cols, moved) is None:
                outside += 1
                assert solve(sparse(moved)) is None
        assert solve({}) == {}
        assert solve(dict.fromkeys(range(len(cols[0])), Fraction(0))) == {}
    assert outside


def test_column_solver_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2413)
    for _ in range(40):
        cols = independent_columns(rng)
        solve = column_solver(cols)
        target = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in cols[0]]
        A = sympy.Matrix([[sympy.Rational(Fraction(c[i]).numerator, Fraction(c[i]).denominator)
                           for c in cols] for i in range(len(target))])
        b = sympy.Matrix([sympy.Rational(t.numerator, t.denominator) for t in target])
        got = solve(sparse(target))
        if A.rank() == A.row_join(b).rank():
            want = A.gauss_jordan_solve(b)[0]
            assert got == sparse(Fraction(int(v.p), int(v.q)) for v in want)
        else:
            assert got is None


def test_dependent_columns_give_no_solver():
    rng = random.Random(2414)
    for _ in range(40):
        cols = independent_columns(rng)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in cols]
        extra = combine(cols, coeffs)
        at = rng.randint(0, len(cols))
        assert column_solver(cols[:at] + [extra] + cols[at:]) is None
    assert column_solver([[1, 2], [0, 0]]) is None
    assert column_solver([[Fraction(1, 2), 1], [1, 2]]) is None


# ---------------------------------------------------------------------------
# the algebras built through the solver
# ---------------------------------------------------------------------------

# sha256 of algebra_to_text, recorded with the Gauss-Jordan elimination and
# the Fraction-row solver
TEXT_SHA256 = {
    "sl2": "232be919677520abd8cff35289dbe61398d11652f40e7ec6b64e59ad1679ff9e",
    "sl3": "b6d9bd0db89ba4420ae9f33ab2dadbe666259bb9d9f2b80f2b7fd90edd053304",
    "sl4": "49abbbaf5f9fe18925efc86f628e0addd590aaf82af837564c50b536a1a1c019",
    "sp4": "dfdb9e4546088a795be292f6cf86e2397a47f27d210995b4d09f6323f98fd52a",
    "so4": "c34d631251363d2d17520f6b640e643842734bd9102bc7310f19afac7a1b7d2d",
    "so5": "c108e235acd1edadb00214ed266391eaaa89cf082af84e91296af381d4f9d320",
    "so6": "bf5142ec5fb296901206546a42cb123c41f76061116ec8dd9a85f1d5fb526b4e",
    "sl2_so2 parent": "232be919677520abd8cff35289dbe61398d11652f40e7ec6b64e59ad1679ff9e",
    "sl2_so2 centralizer": "b75b5ab06a3674e5ca6d2aad63402354a2025f638a2f0379811eff0aec46ea69",
    "sp4_sp2sp2 parent": "dfdb9e4546088a795be292f6cf86e2397a47f27d210995b4d09f6323f98fd52a",
    "sp4_sp2sp2 centralizer": "0e87aa16adfdd99fc7bd948e180c506df38bb26194a60b8f6fc9ac0b11cbafd6",
    "so4_gl2 parent": "c34d631251363d2d17520f6b640e643842734bd9102bc7310f19afac7a1b7d2d",
    "so4_gl2 centralizer": "59e3cf6a1e1c550836f5e07e784207d02202ad2825a4e27ced6f1be298a821a7",
    "sl4_sp4 parent": "fc7ae8b614d52f7fe289da45fd1de64d0c3098d3e7ac557ee2ff81e3d7aa8def",
    "sl4_sp4 centralizer": "f3f2c87cdfcedcb0138e2a380049cb677d825434cd61302a5f6ced7add510933",
    "sp6": "7a693a1735442c9e93c0e418884eb6ee1f279c00d2788423dd04afb5b15d887c",
    "so7": "9787ed076d48d31f848a07a736918d3d1b7374ceaca805d2d2fe58740ba6cf0f",
    "sl5": "f9c3c6dcc7523760a170b47175d819396e168f35a42aa6fcb7ded15815c21dd1",
    "so8": "3c899ba8b5d1ae7761738813cfdba800c246b0bff5ce9e8a62ddfd27533892b3",
}

_BEYOND = {"sp6": (builders._build_sp, 6), "so7": (builders._build_so, 7),
           "sl5": (builders._build_sl, 5), "so8": (builders._build_so, 8)}


def built(key):
    if key in BUILTIN_ALGEBRAS:
        return cached_builtin(key)
    if key in _BEYOND:
        build, size = _BEYOND[key]
        return build(size)
    pair, part = key.split()
    return _PAIRS[pair][0]() if part == "parent" else symmetric_pair(pair).centralizer_alg


def test_hash_table_covers_every_build():
    assert set(TEXT_SHA256) == (set(BUILTIN_ALGEBRAS) | set(_BEYOND)
                                | {f"{p} {part}" for p in _PAIRS
                                   for part in ("parent", "centralizer")})


@pytest.mark.parametrize("key", sorted(TEXT_SHA256))
def test_algebra_text_is_unchanged(key):
    text = algebra_to_text(built(key))
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_SHA256[key]
