"""The one Poisson check: the Jacobi gate reads the sparse Schouten square.

In-test copies of the routines it replaced are the references: the
triple loop over the bracket table that was `jacobi_check`, the dense
loop over support triples that was `schouten_square`, and the sparse
square that built a Polynomial per partial and scanned both maps for the
exponent bound in each product.  The gate must give the same (ok, first
bad triple) on every algebra the package builds, on seeded perturbed
bracket tables and on the smallest dimensions; the kernel must give the
same trivector on seeded polynomial bivectors, term order included against
the sparse square.  A sympy oracle, skipped without sympy, computes
[pi, pi] from the coordinate formula.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (bivector_matrix, cached_builtin, cached_pair, random_polynomial,
                      subalgebra_on_indices)
from liecontract.builders import (BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS,
                                  borel_decomposition)
from liecontract.contract import contract_algebra
from liecontract.exterior import MultiVector, schouten_square
from liecontract.lie import (JacobiError, LieAlgebra, algebra_index, jacobi_check,
                             lie_poisson_bivector)
from liecontract.polyring import _EMAX, Polynomial, _accumulate, _integral_terms, _partials


# ---------------------------------------------------------------------------
# the replaced routines
# ---------------------------------------------------------------------------

def loop_jacobi_check(L):
    """(True, None) when the Jacobi identity holds, else (False, first bad triple)."""
    for i in range(L.n):
        for j in range(i + 1, L.n):
            for k in range(j + 1, L.n):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, ct in L.bracket_pair(a, b).items():
                        for u, cu in L.bracket_pair(t, c).items():
                            val = acc.get(u, 0) + ct * cu
                            if val:
                                acc[u] = val
                            else:
                                acc.pop(u, None)
                if acc:
                    return False, (i, j, k)
    return True, None


def sparse_schouten_square(pi):
    """The sparse square with one Polynomial per partial and the exponent
    bound read off both maps in every product."""
    n = pi.n
    d, maps = _integral_terms(pi.terms.values())
    row = [[] for _ in range(n)]
    grad = [[] for _ in range(n)]
    for (b, c), p, t in zip(pi.terms, pi.terms.values(), maps):
        row[b].append((c, t, False))
        row[c].append((b, t, True))
        for l in p.variables():
            grad[l].append((b, c, Polynomial._raw(n, t).diff(l).terms))
    acc = {}
    for l in range(n):
        for a, ta, negative in row[l]:
            for b, c, tb in grad[l]:
                if a == b or a == c:
                    continue
                middle = b < a < c
                idx = (b, a, c) if middle else (a, b, c) if a < b else (b, c, a)
                _accumulate(acc.setdefault(idx, {}), ta, tb, negative != middle, n)
    out = {idx: Polynomial._collect(n, acc[idx], d * d) for idx in sorted(acc)}
    return MultiVector._raw(n, 3, {idx: p for idx, p in out.items() if p})


def dense_schouten_square(pi):
    """Coefficient at i<j<k:
    sum_l  pi_{li} d_l pi_{jk} - pi_{lj} d_l pi_{ik} + pi_{lk} d_l pi_{ij}"""
    n = pi.n
    mat = bivector_matrix(pi)
    dmat = {}
    for (i, j), p in pi.terms.items():
        for l in p.variables():
            d = p.diff(l)
            dmat[(l, i, j)] = d
            dmat[(l, j, i)] = -d
    support = sorted({i for idx in pi.terms for i in idx})
    out = {}
    for i, j, k in itertools.combinations(support, 3):
        total = Polynomial.zero(n)
        for l in range(n):
            for positive, a, bc in ((True, i, (j, k)), (False, j, (i, k)), (True, k, (i, j))):
                d = dmat.get((l,) + bc)
                if d is None:
                    continue
                pla = mat[l][a]
                if pla.is_zero:
                    continue
                term = pla * d
                total = total + term if positive else total - term
        if not total.is_zero:
            out[(i, j, k)] = total
    return MultiVector._raw(n, 3, out)


def canonical_coefficients(mv):
    """Every coefficient is an int or a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for p in mv.terms.values() for c in p.terms.values())


# ---------------------------------------------------------------------------
# the algebras the package builds
# ---------------------------------------------------------------------------

GATE_KEYS = (list(BUILTIN_ALGEBRAS)
             + [f"{name}/borel" for name in BUILTIN_ALGEBRAS]
             + [f"{name}/gprime" for name in FEIGIN_ALGEBRAS]
             + [f"{pid}/{part}" for pid in Z2_PAIRS for part in ("parent", "z2", "centralizer")])


@functools.lru_cache(maxsize=None)
def gate_algebra(key):
    """A builtin, its Borel limit or feigin's Cartan-free g' of that limit;
    or a z2 pair's parent, limit or centraliser."""
    name, _, part = key.partition("/")
    if name in BUILTIN_ALGEBRAS:
        L = cached_builtin(name)
        if not part:
            return L
        limit = contract_algebra(L, borel_decomposition(L)).contracted
        if part == "borel":
            return limit
        rd = L.root_data
        return subalgebra_on_indices(limit, sorted(rd.positive + rd.negative))
    pair = cached_pair(name)
    if part == "parent":
        return pair.parent
    if part == "z2":
        return contract_algebra(pair.parent, pair.weights).contracted
    return pair.centralizer_alg


@pytest.mark.parametrize("key", GATE_KEYS)
def test_gate_equals_the_loop_on_the_package_algebras(key):
    L = gate_algebra(key)
    assert jacobi_check(L) == loop_jacobi_check(L) == (True, None)
    if L.n >= 3:
        square = schouten_square(L.bivector)
        assert square == dense_schouten_square(L.bivector) and square.is_zero


# ---------------------------------------------------------------------------
# perturbed and random bracket tables
# ---------------------------------------------------------------------------

def perturbed_table(rng, L, fractional):
    """L's bracket table with one to three seeded edits: a changed, added or
    removed coefficient, or a row scaled by a constant."""
    brackets = {ij: dict(row) for ij, row in L.brackets.items()}
    pairs = [(i, j) for i in range(L.n) for j in range(i + 1, L.n)]

    def number():
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        return Fraction(c, rng.choice([2, 3, 5])) if fractional else c

    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        filled = sorted(ij for ij, row in brackets.items() if row)
        if kind == 1 or not filled:
            row = brackets.setdefault(rng.choice(pairs), {})
            k = rng.randrange(L.n)
            row[k] = row.get(k, 0) + number()
            continue
        ij = rng.choice(filled)
        k = rng.choice(sorted(brackets[ij]))
        if kind == 0:
            brackets[ij][k] += number()
        elif kind == 2:
            del brackets[ij][k]
        else:
            c = number()
            brackets[ij] = {k: c * x for k, x in brackets[ij].items()}
    return LieAlgebra(L.labels, brackets)


def random_table(rng, n, fractional):
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                brackets[(i, j)] = {rng.randrange(n): Fraction(rng.randint(-3, 3),
                                                              rng.choice([1, 2, 3]))
                                    if fractional else rng.randint(-3, 3)}
    return LieAlgebra([f"x{i}" for i in range(n)], brackets)


def seeded_tables():
    """(seed, algebra): 240 perturbed builtin and limit tables and 60 random
    ones, int for even seeds and with Fraction edits for odd seeds."""
    bases = ["sl2", "sl3", "sp4", "so4", "so5", "sl2/borel", "sl3/borel", "so4_gl2/centralizer"]
    out = []
    for seed in range(300):
        rng = random.Random(seed)
        fractional = seed % 2 == 1
        if seed < 240:
            out.append((seed, perturbed_table(rng, gate_algebra(bases[seed % len(bases)]),
                                              fractional)))
        else:
            out.append((seed, random_table(rng, rng.randint(3, 7), fractional)))
    return out


def jacobiator(L, i, j, k):
    """[[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j] as a linear form."""
    total = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for u, cu in L.bracket_vectors(L.bracket_pair(a, b), {c: 1}).items():
            total[u] = total.get(u, 0) + cu
    return Polynomial.linear(L.n, total)


def test_gate_equals_the_loop_on_seeded_tables():
    verdicts = []
    for seed, L in seeded_tables():
        got = jacobi_check(L)
        assert got == loop_jacobi_check(L), seed
        verdicts.append(got)
        square = schouten_square(L.bivector)
        assert square == dense_schouten_square(L.bivector), seed
        assert canonical_coefficients(square), seed
    # the tables exercise both verdicts and many different first triples
    bad = [triple for ok, triple in verdicts if not ok]
    assert 150 <= len(bad) < len(verdicts)
    assert len(set(bad)) >= 15


def test_square_coefficient_is_the_jacobiator():
    """For a linear bivector the coefficient at i<j<k is the Jacobiator of
    x_i, x_j, x_k, which makes the least triple of the support the first
    bad triple of the loop."""
    for seed, L in seeded_tables()[::5]:
        square = schouten_square(L.bivector)
        for idx in itertools.combinations(range(L.n), 3):
            assert square.coefficient(idx) == jacobiator(L, *idx), (seed, idx)


def test_gate_message_names_the_first_triple():
    for seed, L in seeded_tables()[:40]:
        ok, triple = loop_jacobi_check(L)
        if ok:
            assert lie_poisson_bivector(L) is L.bivector
        else:
            with pytest.raises(JacobiError, match=rf"at triple \({triple[0]}, "
                                                  rf"{triple[1]}, {triple[2]}\)$"):
                lie_poisson_bivector(L)


# ---------------------------------------------------------------------------
# polynomial bivectors
# ---------------------------------------------------------------------------

def random_bivector(rng, n):
    terms = {}
    for ij in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            p = random_polynomial(rng, n, max_degree=rng.randint(0, 3), max_terms=4)
            if not p.is_zero:
                terms[ij] = p
    return MultiVector._raw(n, 2, terms)


def test_kernel_equals_the_dense_loop_on_polynomial_bivectors():
    nonzero = 0
    for seed in range(120):
        rng = random.Random(1000 + seed)
        pi = random_bivector(rng, rng.randint(3, 6))
        square = schouten_square(pi)
        assert square == dense_schouten_square(pi), seed
        assert canonical_coefficients(square), seed
        assert list(square.terms) == sorted(square.terms), seed
        nonzero += not square.is_zero
    assert nonzero >= 80


def test_kernel_on_poisson_bivectors_with_fraction_coefficients():
    """Scaled linear Poisson structures and a quadratic one stay Poisson."""
    for name in ("sl2", "sl3", "so5"):
        pi = cached_builtin(name).bivector
        assert schouten_square(pi.scale(Fraction(3, 7))).is_zero
    # pi = x0 x1 d0^d1 + x1 x2 d1^d2 + x0 x2 d0^d2 is Poisson (a quadratic
    # diagonal bracket {x_i, x_j} = c_ij x_i x_j)
    n = 3
    x = [Polynomial.variable(n, i) for i in range(n)]
    pi = MultiVector(n, 2, {(0, 1): x[0] * x[1] * Fraction(1, 2), (0, 2): x[0] * x[2] * 5,
                            (1, 2): x[1] * x[2] * Fraction(-2, 3)})
    assert schouten_square(pi).is_zero
    assert dense_schouten_square(pi).is_zero


def same_trivector(got, want):
    """Equal trivectors, in the same index, term and coefficient-type order."""
    return (list(got.terms) == list(want.terms)
            and all([(m, type(c), c) for m, c in got.terms[idx].terms.items()]
                    == [(m, type(c), c) for m, c in want.terms[idx].terms.items()]
                    for idx in want.terms))


def test_one_pass_square_equals_the_sparse_square():
    """On every bivector the package builds, and on seeded non-linear
    bivectors (most of them not Poisson), some with Fraction coefficients."""
    pis = [cached_builtin(name).bivector for name in BUILTIN_ALGEBRAS]
    pis += [cached_pair(pid).parent.bivector for pid in Z2_PAIRS]
    nonzero = 0
    for seed in range(80):
        rng = random.Random(7100 + seed)
        pi = random_bivector(rng, rng.randint(3, 7))
        pis.append(pi.scale(Fraction(rng.randint(1, 5), rng.randint(1, 4))) if seed % 3 else pi)
        nonzero += not pis[-1].is_zero and not schouten_square(pis[-1]).is_zero
    assert nonzero >= 50
    for pi in pis:
        assert same_trivector(schouten_square(pi), sparse_schouten_square(pi))


def test_one_pass_partials_equal_diff():
    rng = random.Random(7300)
    for _ in range(60):
        n = rng.randint(1, 6)
        p = random_polynomial(rng, n, max_degree=4, max_terms=6)
        got = _partials(p.terms, n)
        want = {l: p.diff(l).terms for l in range(n) if not p.diff(l).is_zero}
        assert sorted(got) == sorted(want)
        assert all([(m, type(c), c) for m, c in got[l].items()]
                   == [(m, type(c), c) for m, c in want[l].items()] for l in want)


def test_square_beyond_the_exponent_bound_raises_as_before():
    """2 deg pi - 1 above the 16-bit field: each product is checked, and one
    whose exponent overflows raises as the sparse square did; one that does
    not overflow a field goes through."""
    n = 4
    x = [Polynomial.variable(n, i) for i in range(n)]
    # pi_23 d_2 pi_01 is x2^30000 x2^39999
    overflow = MultiVector(n, 2, {(0, 1): x[2] ** 40000, (2, 3): x[2] ** 30000})
    for square in (schouten_square, sparse_schouten_square):
        with pytest.raises(ValueError, match=f"exponent of the product exceeds {_EMAX}"):
            square(overflow)
    fits = MultiVector(n, 2, {(0, 1): x[2] ** 40000, (2, 3): x[0] ** 30000})
    assert not schouten_square(fits).is_zero
    assert same_trivector(schouten_square(fits), sparse_schouten_square(fits))


# ---------------------------------------------------------------------------
# the smallest dimensions
# ---------------------------------------------------------------------------

SMALL_TABLES = [
    ([], {}),
    (["a"], {}),
    (["a", "b"], {}),
    (["a", "b"], {(0, 1): {0: 1}}),
    (["a", "b"], {(0, 1): {0: Fraction(1, 2), 1: 3}}),
    (["a", "b", "c"], {}),
    (["e", "h", "f"], {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}),
    (["a", "b", "c"], {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}}),
    (["a", "b", "c"], {(0, 1): {1: Fraction(1, 2)}, (0, 2): {2: Fraction(1, 3)}}),
    (["a", "b", "c"], {(0, 1): {0: 1}, (0, 2): {1: 1}}),
]


@pytest.mark.parametrize("labels, brackets", SMALL_TABLES)
def test_smallest_dimensions(labels, brackets):
    L = LieAlgebra(labels, brackets)
    assert jacobi_check(L) == loop_jacobi_check(L)
    # no pair below dimension 2 and no triple below 3: the zero multivector
    if L.n < 2:
        assert L.bivector == MultiVector._raw(L.n, 2, {})
    square = schouten_square(L.bivector)
    for reference in (dense_schouten_square, sparse_schouten_square):
        assert square == reference(L.bivector)
    if L.n < 3:
        assert square == MultiVector._raw(L.n, 3, {})
    if not brackets:
        assert algebra_index(L) == L.n


# ---------------------------------------------------------------------------
# sympy oracle
# ---------------------------------------------------------------------------

def test_square_against_sympy_coordinate_formula():
    sympy = pytest.importorskip("sympy")
    for seed in range(25):
        rng = random.Random(5000 + seed)
        n = rng.randint(3, 5)
        xs = sympy.symbols(f"x0:{n}")
        pi = random_bivector(rng, n)

        def to_sympy(p):
            return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                               * sympy.Mul(*[xs[v] ** e for v, e in m])
                               for m, c in p.as_dict().items()])

        P = [[sympy.Integer(0)] * n for _ in range(n)]
        for (i, j), p in pi.terms.items():
            P[i][j] = to_sympy(p)
            P[j][i] = -P[i][j]
        square = schouten_square(pi)
        for i, j, k in itertools.combinations(range(n), 3):
            want = sum(P[l][i] * sympy.diff(P[j][k], xs[l])
                       - P[l][j] * sympy.diff(P[i][k], xs[l])
                       + P[l][k] * sympy.diff(P[i][j], xs[l]) for l in range(n))
            got = to_sympy(square.coefficient((i, j, k)))
            assert sympy.expand(got - want) == 0, (seed, (i, j, k))
