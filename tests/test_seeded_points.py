"""The int seeded-point layer against the Fraction paths it replaced.

Every index and regularity proof runs at seeded rational points: the rank of
pi there (linalg._echelon on exterior._scaled_matrix_at), the rank of the
Casimirs' Jacobian there (polyring._scaled_values) and the exact Casimir test
(invariants.semi_invariant_weight).  The in-test copies below are the
replaced code: a Gauss-Jordan elimination in Fraction, a term-by-term
Fraction evaluation, a per-coordinate bracket that re-derives h for every
entry of pi, and the seeded points drawn afresh on every call.  On seeded
matrices, random polynomials, the builtins, their Borel limits and the
symmetric-pair limits, the results must be identical, types included; only
a matrix at a point is now int, times one positive scale.
Standard library only, so these run without sympy.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import cached_builtin, cached_pair, random_point, random_polynomial, row_reduce
from liecontract.analysis import fundamental_semiinvariant
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition
from liecontract.contract import contract_algebra, t_degree
from liecontract.exterior import MultiVector, _scaled_matrix_at, point_ranks
from liecontract.invariants import char_invariants, semi_invariant_weight, t_degree_reduction
from liecontract.lie import lie_poisson_bivector
from liecontract.linalg import _int_inverse, rational_rank, solve_exact
from liecontract.polyring import Polynomial, _scaled_values

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# the replaced Fraction paths
# ---------------------------------------------------------------------------

def reference_row_reduce(matrix):
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


def reference_evaluate(p, point):
    vals = [v if type(v) is Fraction else Fraction(v) for v in point]
    total = Fraction(0)
    for mono, c in p.as_dict().items():
        term = c
        for v, e in mono:
            term *= vals[v] ** e
        total += term
    return total


def reference_matrix_at(pi, point):
    n = pi.n
    mat = [[_ZERO] * n for _ in range(n)]
    for (i, j), p in pi.terms.items():
        v = reference_evaluate(p, point)
        mat[i][j] = v
        mat[j][i] = -v
    return mat


def reference_bracket(pi, j, h):
    total = Polynomial.zero(pi.n)
    for (a, b), p in pi.terms.items():
        if a == j:
            d = h.diff(b)
            if not d.is_zero:
                total = total + p * d
        elif b == j:
            d = h.diff(a)
            if not d.is_zero:
                total = total - p * d
    return total


def reference_weight(h, pi):
    if h.is_zero:
        raise ValueError("the zero polynomial is not a semi-invariant")
    # h times its common denominator has the same weights
    h = h * math.lcm(*(Fraction(c).denominator for c in h.as_dict().values()))
    hm, hc = h.leading()
    out = []
    for j in range(pi.n):
        br = reference_bracket(pi, j, h)
        if br.is_zero:
            out.append(_ZERO)
            continue
        lam = br.coefficient(hm)
        if not lam:
            return None
        lam = lam / hc
        if br != h * lam:
            return None
        out.append(lam)
    return out


def same_typed(a, b):
    """Equal nested lists whose numbers also have equal types."""
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_typed, a, b))
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# the reduced rows (linalg._reduced, read by conftest.row_reduce)
# ---------------------------------------------------------------------------

def seeded_matrices():
    """(label, matrix) for every shape the elimination meets."""
    rng = random.Random(41)

    def entry(frac):
        x = rng.randint(-5, 5)
        return Fraction(x, rng.randint(1, 6)) if frac and rng.random() < 0.6 else x

    def dense(m, k, frac=True):
        return [[entry(frac) for _ in range(k)] for _ in range(m)]

    out = [("0x0", []), ("2x0", [[], []]), ("1x1 zero", [[0]]), ("1x1", [[Fraction(-3, 4)]])]
    for t in range(12):
        m, k = rng.randint(1, 7), rng.randint(1, 7)
        out.append((f"dense {m}x{k}", dense(m, k, frac=t % 3 != 0)))
        out.append((f"wide {m}x{m + 3}", dense(m, m + 3)))
        out.append((f"tall {k + 3}x{k}", dense(k + 3, k)))
        # combinations of a few base rows lower the rank
        base = dense(rng.randint(1, 3), k)
        out.append((f"deficient {m + 2}x{k}",
                    [[sum((rng.randint(-2, 2) * r[j] for r in base), Fraction(0))
                      for j in range(k)] for _ in range(m + 2)]))
        rows = dense(m, k)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * k)
        out.append((f"zero rows {len(rows)}x{k}", rows))
        square = dense(m, m)
        out.append((f"[A | I] {m}x{2 * m}",
                    [row + [int(i == j) for j in range(m)] for i, row in enumerate(square)]))
        # sparse int matrices like the structure-constant constraints
        out.append((f"sparse {m}x{k}", [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(k)]
                                        for _ in range(m)]))
    return out


@pytest.mark.parametrize("label, matrix", seeded_matrices(),
                         ids=[label for label, _ in seeded_matrices()])
def test_row_reduce_matches_the_fraction_path(label, matrix):
    rows, pivots = row_reduce(matrix)
    want_rows, want_pivots = reference_row_reduce(matrix)
    assert pivots == want_pivots
    assert same_typed(rows, want_rows)
    assert all(type(x) is Fraction for row in rows for x in row)


def test_the_derived_solvers_match_the_fraction_path():
    rng = random.Random(42)
    for _ in range(30):
        m = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
             for _ in range(m)]
        ref_rows, ref_pivots = reference_row_reduce(
            [row + [int(i == j) for j in range(m)] for i, row in enumerate(A)])
        assert rational_rank(A) == sum(p < m for p in ref_pivots)
        if ref_pivots[:m] == list(range(m)):
            pivots, d, inverse = _int_inverse(A)
            assert pivots == ref_pivots[:m]
            assert all(type(x) is int for row in inverse for x in row)
            assert same_typed([[Fraction(x, d) for x in row] for row in inverse],
                              [row[m:] for row in ref_rows])
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        columns = [[A[i][j] for i in range(m)] for j in range(m)]
        x = solve_exact(columns, b)
        rows, pivots = reference_row_reduce([row + [t] for row, t in zip(A, b)])
        if pivots and pivots[-1] == m:
            assert x is None
        else:
            assert all(sum(columns[j][i] * x[j] for j in range(m)) == b[i] for i in range(m))


@pytest.mark.parametrize("matrix", [[[1], [2, 3]], [[1, 2], [3]], [[1, 2], [3, 4], []]])
def test_ragged_rows_are_rejected(matrix):
    with pytest.raises(ValueError, match="matrix rows must have equal length"):
        row_reduce(matrix)
    with pytest.raises(ValueError, match="matrix rows must have equal length"):
        rational_rank(matrix)
    with pytest.raises(ValueError, match="matrix rows must have equal length"):
        _int_inverse(matrix)


@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [[1, 0], [0, 1, 0]]])
def test_non_square_inverse_is_rejected(matrix):
    """_int_inverse inverts A at its pivot columns only: no non-square A
    passes for inverted, as a ragged one raises, a tall one's rows show as
    dependent (a pivot past A's width) and a wide one's pivots miss a column."""
    if len({len(row) for row in matrix}) > 1:
        with pytest.raises(ValueError, match="matrix rows must have equal length"):
            _int_inverse(matrix)
        return
    pivots, _, _ = _int_inverse(matrix)
    width = len(matrix[0])
    assert pivots[-1] >= width or pivots != list(range(width))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_matches_the_fraction_path(n):
    rng = random.Random(43 + n)
    polys = [Polynomial.zero(n)] + [random_polynomial(rng, n, max_degree=4, max_terms=6)
                                    for _ in range(40)]
    points = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(5)]
    points += [random_point(rng, n) for _ in range(10)]
    points.append([0] * n)
    for point in points:
        want = [reference_evaluate(p, point) for p in polys]
        got = [p.evaluate(point) for p in polys]
        assert same_typed(got, want)
        values, scale = _scaled_values(polys, point)
        assert type(scale) is int and scale > 0
        assert all(type(v) is int for v in values)
        assert [Fraction(v, scale) for v in values] == want


def test_scaled_values_reject_another_ring():
    with pytest.raises(ValueError):
        _scaled_values([Polynomial.variable(3, 1)], [1, 2])


# ---------------------------------------------------------------------------
# point ranks of the builtins and their limits
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def case(key):
    """(bivector, Casimirs) of a builtin, of its Borel limit with the tops of
    its generators, or of a pair's limit with the tops of its reduced
    generators."""
    name, _, kind = key.partition("/")
    if kind == "z2":
        pair = cached_pair(name)
        L, w = pair.parent, pair.weights
        gens = t_degree_reduction(char_invariants(L), w)
    else:
        L = cached_builtin(name)
        gens = char_invariants(L)
        if not kind:
            return lie_poisson_bivector(L), tuple(gens.gens)
        w = borel_decomposition(L)
    return contract_algebra(L, w).pi_tilde, tuple(t_degree(g, w)[1] for g in gens.gens)


CASES = (list(BUILTIN_ALGEBRAS) + [f"{name}/borel" for name in BUILTIN_ALGEBRAS]
         + [f"{pid}/z2" for pid in Z2_PAIRS])


def reference_points(n):
    """The seeded points as point_ranks drew them on every call."""
    rng = random.Random(20240917)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(3)]


@pytest.mark.parametrize("key", CASES)
def test_point_ranks_match_the_fraction_path(key):
    pi, _ = case(key)
    fresh = MultiVector(pi.n, 2, pi.terms)
    triples = list(point_ranks(fresh))
    assert [list(point) for _, _, point in triples] == reference_points(pi.n)
    for rank, pivots, point in triples:
        want = reference_matrix_at(pi, point)
        got, scale = _scaled_matrix_at(pi, point)
        # the same values times one positive scale, every entry an int
        assert type(scale) is int and scale > 0
        assert all(type(x) is int for row in got for x in row)
        assert [[Fraction(x, scale) for x in row] for row in got] == want
        _, want_pivots = reference_row_reduce(want)
        assert (rank, pivots) == (len(want_pivots), tuple(want_pivots))


# ---------------------------------------------------------------------------
# semi-invariant weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", CASES)
def test_weights_match_the_per_coordinate_path(key):
    pi, casimirs = case(key)
    n = pi.n
    rng = random.Random(44)
    offered = list(casimirs)
    offered += [f * g for f, g in itertools.combinations(casimirs[:3], 2)]
    offered += [Polynomial.variable(n, k) for k in range(n)]
    offered += [Polynomial.variable(n, k) + Polynomial.variable(n, (k + 1) % n)
                for k in range(0, n, 3)]
    offered += [random_polynomial(rng, n, max_degree=2, max_terms=3, allow_zero=False)
                for _ in range(4)]
    verdicts = set()
    for h in offered:
        if h.is_zero:
            continue
        got = semi_invariant_weight(h, pi)
        assert same_typed(got, reference_weight(h, pi))
        verdicts.add(None if got is None else any(got))
    for F in casimirs:
        assert semi_invariant_weight(F, pi) == [0] * n
    # Casimirs (all-zero weights) and non-semi-invariants are both met
    assert {False, None} <= verdicts


# the Borel limits whose fundamental semi-invariant is not constant
@pytest.mark.parametrize("name", ["sp4", "so5"])
def test_fundamental_semiinvariant_weights_match(name):
    pi, casimirs = case(f"{name}/borel")
    p = fundamental_semiinvariant(pi, len(casimirs)).p
    got = semi_invariant_weight(p, pi)
    assert got is not None and any(got)
    assert same_typed(got, reference_weight(p, pi))
    # the weight of a product is the sum of the weights
    square = semi_invariant_weight(p * p, pi)
    assert square == [2 * x for x in got]


def test_a_bracket_on_other_monomials_is_no_multiple():
    """{x2, x0 + x1} = x0 + x2 has h's leading term and as many terms as h,
    but it is no multiple of h."""
    x = [Polynomial.variable(3, i) for i in range(3)]
    pi = MultiVector(3, 2, {(0, 2): -x[0], (1, 2): -x[2]})
    h = x[0] + x[1]
    assert reference_weight(h, pi) is None
    assert semi_invariant_weight(h, pi) is None


def test_weight_needs_the_bivector_ring():
    pi = lie_poisson_bivector(cached_builtin("sl2"))
    with pytest.raises(ValueError, match="ring dimension"):
        semi_invariant_weight(Polynomial.variable(5, 4), pi)
    with pytest.raises(ValueError, match="ring dimension"):
        semi_invariant_weight(Polynomial.variable(2, 1), pi)
