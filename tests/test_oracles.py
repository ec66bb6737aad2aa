"""Differential tests against sympy as an oracle, and parse/render round trips.

Random small inputs only: each case is checked by an independent computer
algebra system, so an error shared by the kernel and its own tests shows.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
hypothesis = pytest.importorskip("hypothesis")

from conftest import (case, cached_builtin, planted_gcd_cases, random_polynomial,  # noqa: E402
                      row_reduce)
from liecontract.analysis import (_form_of_differentials,  # noqa: E402
                                  fundamental_semiinvariant)
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition  # noqa: E402
from liecontract.contract import ContractionWeights, contract_algebra  # noqa: E402
from liecontract.exterior import (MultiVector, _scaled_matrix_at, pfaffian,  # noqa: E402
                                  point_ranks)
from liecontract.lie import (LieAlgebra, RootData, algebra_from_text,  # noqa: E402
                             algebra_to_text, lie_poisson_bivector)
from liecontract.linalg import poly_det_cofactor, rational_rank  # noqa: E402
from liecontract.polyring import (Polynomial, multivariate_gcd, parse_polynomial,  # noqa: E402
                                  poly_div_exact, poly_to_str)

N = 3
XS = sympy.symbols("x0:3")


def to_sympy(p):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[XS[v] ** e for v, e in m])
                       for m, c in p.as_dict().items()])


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


def polys(seed, count, **kw):
    rng = random.Random(seed)
    return [random_polynomial(rng, N, **kw) for _ in range(count)], rng


def test_product_power_diff():
    ps, rng = polys(21, 30, max_degree=3, max_terms=4)
    for a, b in zip(ps, ps[1:]):
        A, B = to_sympy(a), to_sympy(b)
        assert same(a * b, A * B)
        k = rng.randint(0, 3)
        assert same(a ** k, A ** k)
        for i in range(N):
            assert same(a.diff(i), sympy.diff(A, XS[i]))


def test_gcd_equals_sympy_up_to_a_unit():
    ps, _ = polys(22, 45, max_degree=2, max_terms=3)
    for a, b, g in zip(ps[0::3], ps[1::3], ps[2::3]):
        if a.is_zero and b.is_zero or g.is_zero:
            continue
        ours = to_sympy(multivariate_gcd(a * g, b * g))
        theirs = sympy.gcd(to_sympy(a * g), to_sympy(b * g))
        q, r = sympy.div(ours, theirs, *XS)
        assert r == 0 and q.is_number and q != 0
    # planted common factors in 4 to 15 variables; both sides made monic
    for a, b in planted_gcd_cases():
        assert sympy_poly(multivariate_gcd(a, b)).monic() == sympy_poly(a).gcd(sympy_poly(b))


def test_exact_division():
    ps, _ = polys(23, 30, max_degree=2, max_terms=3)
    for a, b in zip(ps, ps[1:]):
        if b.is_zero:
            continue
        q = poly_div_exact(a * b, b)
        assert same(q, sympy.div(to_sympy(a * b), to_sympy(b), *XS)[0])
        _, r = sympy.div(to_sympy(a), to_sympy(b), *XS)
        if r != 0:
            with pytest.raises(ValueError):
                poly_div_exact(a, b)


def test_det_cofactor():
    rng = random.Random(24)
    for m in (1, 2, 3):
        for _ in range(4):
            mat = [[random_polynomial(rng, N, max_degree=1, max_terms=2) for _ in range(m)]
                   for _ in range(m)]
            expected = sympy.Matrix([[to_sympy(e) for e in row] for row in mat]).det()
            assert same(poly_det_cofactor(mat), expected)


def random_skew(rng, m, entry):
    mat = [[None] * m for _ in range(m)]
    for i in range(m):
        mat[i][i] = entry(zero=True)
        for j in range(i + 1, m):
            mat[i][j] = entry(zero=False)
            mat[j][i] = -mat[i][j]
    return mat


def test_pfaffian_squares_to_det():
    rng = random.Random(25)

    def rational(zero):
        return Fraction(0) if zero else Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    def poly(zero):
        return Polynomial.zero(N) if zero else random_polynomial(rng, N, max_degree=1,
                                                                  max_terms=2)
    for m in (2, 4, 6):
        mat = random_skew(rng, m, rational)
        det = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in mat]).det()
        assert pfaffian(mat) ** 2 == det
    for m in (2, 4):
        mat = random_skew(rng, m, poly)
        det = sympy.Matrix([[to_sympy(e) for e in row] for row in mat]).det()
        assert same(pfaffian(mat) ** 2, det)

    # Fraction coefficients with the denominators of the invariant generators,
    # which the Pfaffian engine clears before it expands in int
    def poly_fraction(zero):
        if zero:
            return Polynomial.zero(N)
        p = random_polynomial(rng, N, max_degree=1, max_terms=2, allow_zero=False)
        return p * Fraction(rng.choice((1, 3, 5)), rng.choice((8, 64, 256)))
    for m in (2, 4, 6):
        mat = random_skew(rng, m, poly_fraction)
        assert any(type(c) is Fraction for row in mat for e in row
                   for c in e.as_dict().values())
        dm = DomainMatrix.from_Matrix(sympy.Matrix([[to_sympy(e) for e in row]
                                                    for row in mat]))
        assert same(pfaffian(mat) ** 2, dm.domain.to_sympy(dm.det()))


def test_rational_rank():
    rng = random.Random(26)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        base = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
                for _ in range(rng.randint(1, rows))]
        # rows that are combinations of the base rows lower the rank
        mat = [[sum((rng.randint(-2, 2) * r[j] for r in base), Fraction(0))
                for j in range(cols)] for _ in range(rows)]
        assert rational_rank(mat) == sympy.Matrix(mat).rank()
        reduced, pivots = row_reduce(mat)
        expected, expected_pivots = sympy.Matrix(mat).rref()
        assert pivots == list(expected_pivots)
        assert sympy.Matrix(reduced) == expected


@pytest.mark.parametrize("key", list(BUILTIN_ALGEBRAS)
                         + [f"{name}/borel" for name in BUILTIN_ALGEBRAS])
def test_point_ranks_equal_sympy_rank(key):
    """The rank point_ranks reports at each seeded point is sympy's rank of
    pi's matrix there."""
    name, _, kind = key.partition("/")
    L = cached_builtin(name)
    pi = contract_algebra(L, borel_decomposition(L)).pi_tilde if kind else lie_poisson_bivector(L)
    for rank, _, point in point_ranks(MultiVector(pi.n, 2, pi.terms)):
        assert rank == sympy.Matrix(_scaled_matrix_at(pi, point)[0]).rank()


def sympy_poly(p):
    """p as a sympy Poly over QQ in x0..x{n-1}."""
    dense = {}
    for m, c in p.as_dict().items():
        exps = [0] * p.n
        for v, e in m:
            exps[v] = e
        dense[tuple(exps)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(dense, *sympy.symbols(f"x0:{p.n}"), domain="QQ")


def sympy_gcd(polys):
    """sympy's monic gcd of nonzero Polys, taken in order; it stops at 1."""
    g = None
    for f in polys:
        g = f if g is None else g.gcd(f)
        if g.is_ground:
            return g.one
    return g.monic()


def seeded_limits(name, count):
    """The limits of name at the first count valid nonzero weights in
    {0,1,2}^n drawn from a seeded generator."""
    L = cached_builtin(name)
    rng = random.Random(sum(map(ord, name)))
    limits = []
    while len(limits) < count:
        res = contract_algebra(L, ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n))))
        if res.valid and any(res.weights):
            limits.append(res.pi_tilde)
    return limits


# sl4_sp4's limit is the largest gcd of the cases: 335 coefficients in 15
# variables
FSI_CASES = ([key for name in BUILTIN_ALGEBRAS for key in (name, f"{name}/borel")]
             + [f"{pid}/z2" for pid in Z2_PAIRS]
             + [f"{name}/seeded" for name in ("sl3", "sp4", "so5")])


@pytest.mark.parametrize("key", FSI_CASES)
def test_fundamental_semiinvariant_is_sympys_gcd(key):
    """p is sympy's gcd of the coefficients of wedge^k pi, up to a unit; it
    divides each of them, and the quotients R have gcd 1: content(R) = 1."""
    name, _, kind = key.partition("/")
    pis = seeded_limits(name, 3) if kind == "seeded" else [case(key)[0]]
    for pi in pis:
        p = fundamental_semiinvariant(pi, pi.n - pi.generic_rank[0]).p
        coefficients = pi.top_power[1].terms.values()
        want = sympy_gcd(map(sympy_poly, coefficients))
        assert sympy_poly(p).monic() == want
        if not want.is_one:     # else the quotients are the coefficients
            assert sympy_gcd([sympy_poly(c).exquo(want) for c in coefficients]).is_one


def jacobian_rank(gens):
    """Rank of (d g / d x_i) over the field of rational functions."""
    jac = sympy.Matrix([[sympy.diff(to_sympy(g), x) for x in XS] for g in gens])
    return DomainMatrix.from_Matrix(jac).to_field().rank()


def test_algebraic_independence_is_full_jacobian_rank():
    rng = random.Random(27)
    verdicts = set()
    for _ in range(40):
        gens = [random_polynomial(rng, N, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, N + 1))]
        # a function of the others, or a constant, makes the set dependent
        pick = rng.randrange(3)
        if pick == 0 and len(gens) > 1:
            gens[-1] = gens[0] * gens[0] + gens[0] * Fraction(rng.randint(-2, 2))
        elif pick == 1:
            gens[-1] = Polynomial.const(N, rng.randint(0, 3))
        expected = len(gens) <= N and jacobian_rank(gens) == len(gens)
        # more polynomials than variables are dependent; their wedge is not built
        assert (len(gens) <= N and not _form_of_differentials(gens, N).is_zero) == expected
        verdicts.add((expected, len(gens) > N))
    assert verdicts == {(True, False), (False, False), (False, True)}


st = hypothesis.strategies
NAMES = ["x", "y", "z"]

monomials = st.dictionaries(st.integers(0, N - 1), st.integers(1, 6), max_size=N)
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.lists(st.tuples(monomials, coefficients), max_size=6))
def test_parse_render_round_trip(terms):
    p = Polynomial(N, [(tuple(sorted(m.items())), c) for m, c in terms])
    assert parse_polynomial(poly_to_str(p, NAMES), NAMES) == p


words = st.text(alphabet="abefhxyz019_", min_size=1, max_size=4)
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def algebra_files(draw):
    """A bracket table with in-range targets (not necessarily Jacobi), with
    the optional name, matrices, root data and weights of the file format.
    The format has no family line: char_invariants reads the kind off the
    matrices."""
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(words, min_size=n, max_size=n, unique=True))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])):
        row = draw(st.dictionaries(st.integers(0, n - 1),
                                   small_fractions.filter(bool), min_size=1, max_size=3))
        brackets[pair] = row
    matrices = None
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        entry_rows = st.lists(small_fractions, min_size=m, max_size=m)
        matrices = [draw(st.lists(entry_rows, min_size=m, max_size=m)) for _ in range(n)]
    root_data = None
    if draw(st.booleans()):
        # the tuple lengths agree with the rank, as LieAlgebra requires
        rank, roots = draw(st.integers(0, 3)), draw(st.integers(0, 3))

        def index_tuples(size):
            return draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size).map(tuple))

        root_data = RootData(rank=rank, simple_e=index_tuples(rank),
                             simple_f=index_tuples(rank), cartan=index_tuples(rank),
                             positive=index_tuples(roots), negative=index_tuples(roots),
                             highest=draw(st.none() | st.integers(0, n - 1)),
                             marks=draw(st.none() | st.lists(st.integers(1, 4), min_size=rank,
                                                             max_size=rank).map(tuple)))
    name = draw(st.none() | words)
    weights = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return LieAlgebra(labels, brackets, matrices=matrices, root_data=root_data,
                      name=name), weights


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(algebra_files())
def test_algebra_text_round_trip(case):
    L, weights = case
    text = algebra_to_text(L, weights=weights)
    loaded, loaded_weights = algebra_from_text(text)
    assert loaded == L
    assert loaded.name == (L.name or "anon")
    assert loaded_weights == weights
    assert algebra_to_text(loaded, weights=loaded_weights) == text
