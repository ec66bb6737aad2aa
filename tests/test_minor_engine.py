"""The memoised int Pfaffian engine against the two recursions it replaced.

Every polynomial minor comes from linalg._Pfaffians: exterior.pfaffian calls
it on the matrix, and linalg.poly_det_cofactor on the block
[[0, M], [-M^T, 0]], whose Pfaffian is (-1)^(m(m-1)/2) det M.  The in-test
copies below are the replaced code: two unmemoised first-row expansions in
the entries' own arithmetic.  On seeded random, singular and zero-row
matrices with int, Fraction and Polynomial entries, and on the principal
minors of the trace-dual generic matrix of every builtin (its int form
Y = D X), the results must be equal.  Standard library only, so these run
without sympy.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import bivector_matrix, cached_builtin, random_polynomial
from liecontract import linalg
from liecontract.builders import BUILTIN_ALGEBRAS
from liecontract.exterior import MultiVector, pfaffian, point_ranks
from liecontract.invariants import (_regularity_minor, _trace_dual_generic_matrix,
                                    char_invariants)
from liecontract.lie import lie_poisson_bivector
from liecontract.linalg import _principal_minor_sums, poly_det_cofactor
from liecontract.polyring import Polynomial

N = 3


# ---------------------------------------------------------------------------
# the replaced recursions
# ---------------------------------------------------------------------------

def reference_pfaffian(matrix):
    m = len(matrix)
    if m % 2:
        raise ValueError("Pfaffian needs even size")
    for i in range(m):
        if len(matrix[i]) != m:
            raise ValueError("matrix must be square")
        if matrix[i][i]:
            raise ValueError("matrix is not antisymmetric (nonzero diagonal)")
        for j in range(i + 1, m):
            if matrix[i][j] != -matrix[j][i]:
                raise ValueError(f"matrix is not antisymmetric at ({i},{j})")
    if m == 0:
        return Fraction(1)
    sample = matrix[0][0]
    poly_mode = isinstance(sample, Polynomial)
    one = Polynomial.const(sample.n, 1) if poly_mode else Fraction(1)

    def rec(rows):
        if not rows:
            return one
        r0 = rows[0]
        total = None
        for t in range(1, len(rows)):
            entry = matrix[r0][rows[t]]
            if not entry:
                continue
            rest = rows[1:t] + rows[t + 1:]
            term = entry * rec(rest)
            if t % 2 == 0:
                term = -term
            total = term if total is None else total + term
        if total is None:
            return (Polynomial.zero(sample.n) if poly_mode else Fraction(0))
        return total

    return rec(tuple(range(m)))


def reference_det(matrix) -> Polynomial:
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


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def entry_maker(kind, rng):
    """A random entry of one kind; zero about a third of the time."""
    def make():
        if rng.random() < 0.35:
            return Polynomial.zero(N) if kind.startswith("poly") else 0
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "fraction":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        if kind == "poly":
            return Polynomial(N, {((rng.randrange(N), 1),): rng.randint(-3, 3),
                                  (): rng.randint(-2, 2)})
        # Fraction coefficients with the denominators of the invariant generators
        p = random_polynomial(rng, N, max_degree=1, max_terms=2)
        return p * Fraction(rng.choice((1, 3, 5)), rng.choice((1, 8, 64, 256)))
    return make


def square(m, make):
    return [[make() for _ in range(m)] for _ in range(m)]


def skew(m, make, zero):
    mat = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            mat[i][j] = make()
            mat[j][i] = -mat[i][j]
    return mat


def as_poly(x):
    return x if isinstance(x, Polynomial) else Polynomial.const(N, x)


KINDS = ("int", "fraction", "poly", "poly_fraction")
SIZES = range(9)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", SIZES)
def test_pfaffian_equals_the_replaced_recursion(kind, m):
    rng = random.Random(f"pf-{kind}-{m}")
    zero = Polynomial.zero(N) if kind.startswith("poly") else Fraction(0)
    for _ in range(3):
        mat = skew(m, entry_maker(kind, rng), zero)
        assert outcome(pfaffian, mat) == outcome(reference_pfaffian, mat)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", SIZES)
def test_det_equals_the_replaced_recursion(kind, m):
    rng = random.Random(f"det-{kind}-{m}")
    for _ in range(2 if m < 8 else 1):
        mat = square(m, entry_maker(kind, rng))
        want = outcome(reference_det, [[as_poly(x) for x in row] for row in mat])
        got = outcome(poly_det_cofactor, mat)
        assert (as_poly(got) if m else got) == want


@pytest.mark.parametrize("kind", KINDS)
def test_singular_and_zero_row_matrices(kind):
    rng = random.Random(f"singular-{kind}")
    make = entry_maker(kind, rng)
    zero = Polynomial.zero(N) if kind.startswith("poly") else Fraction(0)
    for m in (2, 3, 4, 6):
        mat = square(m, make)
        zero_row = [list(row) for row in mat]
        zero_row[rng.randrange(m)] = [zero] * m
        repeated = [list(row) for row in mat]
        repeated[-1] = list(repeated[0])
        for bad in (zero_row, repeated):
            got = poly_det_cofactor(bad)
            assert not got
            assert as_poly(got) == reference_det([[as_poly(x) for x in row] for row in bad])
    for m in (2, 4, 6, 8):
        mat = skew(m, make, zero)
        k = rng.randrange(m)
        for i in range(m):
            mat[k][i] = mat[i][k] = zero
        assert not pfaffian(mat)
        assert pfaffian(mat) == reference_pfaffian(mat)
    # u v^T - v u^T has rank 2, so every Pfaffian of size 4 or more vanishes
    u = [make() for _ in range(6)]
    v = [make() for _ in range(6)]
    low = [[u[i] * v[j] - v[i] * u[j] if i != j else zero for j in range(6)]
           for i in range(6)]
    assert not pfaffian(low)
    assert pfaffian(low) == reference_pfaffian(low)


def test_mixed_entries_choose_polynomial_mode():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    half = Fraction(1, 2)
    assert poly_det_cofactor([[x, 1], [half, y]]) == x * y - Polynomial.const(2, half)


def test_a_number_is_an_int_when_integral():
    half = Fraction(1, 2)
    for mat, want in (([[0, 3], [-3, 0]], 3), ([[0, Fraction(4, 2)], [-2, 0]], 2),
                      ([[0, half], [-half, 0]], half), ([[0, 0], [0, 0]], 0)):
        got = pfaffian(mat)
        assert got == want and type(got) is type(want)
    for mat, want in (([[2, 1], [1, 1]], 1), ([[half, 0], [0, 1]], half),
                      ([[half, 1], [half, 1]], 0)):
        got = poly_det_cofactor(mat)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("bad", ([["x", "y"]], [["x"], ["y"]]))
def test_det_rejects_a_non_square_matrix(bad):
    x, y = (Polynomial.variable(2, i) for i in range(2))
    names = {"x": x, "y": y}
    with pytest.raises(ValueError, match="^matrix must be square$"):
        poly_det_cofactor([[names[e] for e in row] for row in bad])


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_principal_minor_sums_equal_per_subset_dets(name):
    _, X = _trace_dual_generic_matrix(cached_builtin(name))
    m = len(X)
    e = _principal_minor_sums(X)
    for d in range(1, m + 1):
        want = Polynomial.zero(X[0][0].n)
        for rows in itertools.combinations(range(m), d):
            want = want + reference_det([[X[r][c] for c in rows] for r in rows])
        assert e(d) == want, d


# ---------------------------------------------------------------------------
# memo
# ---------------------------------------------------------------------------

def test_each_row_tuple_is_expanded_once_in_the_regularity_minor(monkeypatch):
    L = cached_builtin("so6")
    gens = char_invariants(L).gens
    # B_I comes from pi's kept engine, so a copy with nothing memoised
    pi = MultiVector(L.n, 2, lie_poisson_bivector(L).terms)
    index_set = next(piv for r, piv, _ in point_ranks(pi) if r == L.n - len(gens))
    assert len(index_set) == 12
    seen = {}      # engine -> the row tuples it expanded; keeps each engine alive
    expand = linalg._Pfaffians._expand

    def spy(self, rows):
        seen.setdefault(self, []).append(rows)
        return expand(self, rows)

    monkeypatch.setattr(linalg._Pfaffians, "_expand", spy)
    _, B = _regularity_minor(pi, gens, index_set)
    monkeypatch.undo()
    assert all(len(rows) == len(set(rows)) for rows in seen.values())

    # the replaced recursion, counting its calls: it reaches a row tuple
    # once per path to it
    mat = bivector_matrix(pi)
    sub = [[mat[i][j] for j in index_set] for i in index_set]
    calls = 0

    def rec(rows):
        nonlocal calls
        calls += 1
        total = Polynomial.zero(L.n) if rows else Polynomial.const(L.n, 1)
        for t in range(1, len(rows)):
            if sub[rows[0]][rows[t]]:
                term = sub[rows[0]][rows[t]] * rec(rows[1:t] + rows[t + 1:])
                total = total - term if t % 2 == 0 else total + term
        return total

    assert B == Polynomial.const(L.n, 720) * rec(tuple(range(12)))
    (b_rows,) = [rows for rows in seen.values() if len(rows[0]) == 12]
    assert len(b_rows) < calls / 4
