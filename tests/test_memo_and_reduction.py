"""A bivector's derived data on functools.cached_property, and t-degree
reduction's two kernels in plain Python, each against the code it replaced:

* generic_rank, top_power, the Pfaffian engine and the kept point ranks are
  computed once per bivector, whatever is read and how often;
* membership_linear's candidate exponent tuples, from a recursion bounded by
  the degree still left, against the recursive enumeration, in the same
  order, with no tuple built outside the kept ones;
* poly_compose with plain powers against the per-call power memo, and its
  int scaling against that memo copy and against sympy on Fraction input;
* the reduction's one composition of y_j - P(y_others) against the
  difference F_j - P(F_others) it replaced.
"""

import random
from fractions import Fraction

import pytest
from conftest import cached_builtin, case, random_polynomial

from liecontract import exterior, invariants, linalg
from liecontract.builders import BUILTIN_ALGEBRAS
from liecontract.exterior import MultiVector, point_ranks, wedge_power_coefficient
from liecontract.invariants import membership_linear
from liecontract.lie import lie_poisson_bivector
from liecontract.polyring import Polynomial, _unpack, poly_compose, poly_rename

# ---------------------------------------------------------------------------
# one memo idiom
# ---------------------------------------------------------------------------


def spy_memo(monkeypatch):
    """{"engines": Pfaffian engines built, "reduced": matrices point_ranks reduced}."""
    seen = {"engines": 0, "reduced": []}
    real_echelon = linalg._echelon

    class Counted(linalg._Pfaffians):
        def __init__(self, *args):
            seen["engines"] += 1
            super().__init__(*args)

    def echelon(matrix):
        seen["reduced"].append(matrix)
        return real_echelon(matrix)

    monkeypatch.setattr(exterior, "_Pfaffians", Counted)
    monkeypatch.setattr(exterior, "_echelon", echelon)
    return seen


@pytest.mark.parametrize("key", [*BUILTIN_ALGEBRAS, "sl3/borel", "so4/borel", "sp4_sp2sp2/z2"])
def test_derived_data_is_computed_once(key, monkeypatch):
    pi = MultiVector._raw(case(key)[0].n, 2, case(key)[0].terms)
    assert pi.__dict__ == {}
    seen = spy_memo(monkeypatch)
    idx = sorted(pi.terms)[0]
    reads = []
    for _ in range(2):
        reads.append((pi.generic_rank, pi.top_power, wedge_power_coefficient(pi, idx)))
    assert reads[0] == reads[1]
    assert reads[0][0] is reads[1][0] and reads[0][1] is reads[1][1]
    assert seen["engines"] == 1
    assert 1 <= len(seen["reduced"]) <= 3
    points = [point for _, _, point in point_ranks(pi)]
    mats = [exterior._scaled_matrix_at(pi, point)[0] for point in points]
    assert all(sum(m == mat for m in seen["reduced"]) <= 1 for mat in mats)
    assert set(pi.__dict__) == {"generic_rank", "top_power", "_engine", "_ranks"}


def test_a_fresh_bivector_keeps_nothing():
    L = cached_builtin("sl3")
    terms = lie_poisson_bivector(L).terms
    assert MultiVector(L.n, 2, terms).__dict__ == {}
    assert MultiVector._raw(L.n, 2, dict(terms)).__dict__ == {}
    # point_ranks keeps its triples in the bivector's own dict, and only there
    pi = MultiVector(L.n, 2, terms)
    first = next(point_ranks(pi))
    assert set(pi.__dict__) == {"_ranks"} and pi._ranks == {0: first}


def test_a_trivector_raises_on_every_read():
    tri = MultiVector(4, 3, {(0, 1, 2): Polynomial.variable(4, 3)})
    for _ in range(3):
        with pytest.raises(ValueError, match="wedge powers need a bivector"):
            tri.generic_rank
        with pytest.raises(ValueError, match="wedge powers need a bivector"):
            tri.top_power
    assert "_engine" not in tri.__dict__ and "generic_rank" not in tri.__dict__


# ---------------------------------------------------------------------------
# membership_linear's candidate exponents
# ---------------------------------------------------------------------------

def recursive_exponents(degs, target, profile=None):
    """The replaced enumerate_exps, then the replaced profile filter."""
    exposants = []

    def enumerate_exps(i, remaining, current):
        if i == len(degs):
            if remaining == 0:
                exposants.append(tuple(current))
            return
        step = degs[i]
        for e in range(remaining // step + 1):
            enumerate_exps(i + 1, remaining - e * step, current + [e])

    enumerate_exps(0, target, [])
    if profile is not None:
        aux, aux_target = profile
        exposants = [e for e in exposants
                     if sum(a * x for a, x in zip(aux, e)) == aux_target]
    return exposants


def candidate_exponents(degs, target, profile, monkeypatch):
    """The exponent tuples membership_linear hands to its solve, in order.

    The generators are powers of distinct variables and the stubbed solve
    returns 1, 2, ..., so each coefficient of the result is the position
    of its exponent tuple.  None when membership_linear solves nothing."""
    n = max(len(degs), 1)
    gens = [Polynomial.variable(n, i) ** d for i, d in enumerate(degs)]
    h = Polynomial.variable(n, 0) ** target
    calls = []

    def solve(columns, target_vector):
        calls.append(len(columns))
        return list(range(1, len(columns) + 1))

    monkeypatch.setattr(invariants, "solve_exact", solve)
    got = membership_linear(h, gens, profile=profile)
    if got is None:
        assert not calls
        return None
    order = sorted(got.terms.items(), key=lambda mc: mc[1])
    assert [c for _, c in order] == list(range(1, calls[0] + 1))
    exps = []
    for m, _ in order:
        e = [0] * len(degs)
        for v, x in _unpack(m, got.n):
            e[v] = x
        exps.append(tuple(e))
    return exps


def test_candidate_exponents_are_the_recursive_ones(monkeypatch):
    rng = random.Random(3030)
    cases = [([], 0), ([], 3), ([1], 0), ([2], 5), ([1, 1, 1, 1, 1], 12), ([4, 3, 2, 1], 12)]
    cases += [([rng.randint(1, 4) for _ in range(rng.randint(0, 5))], rng.randint(0, 12))
              for _ in range(80)]
    filtered = 0
    for degs, target in cases:
        want = recursive_exponents(degs, target)
        profiles = [None, (tuple(rng.randint(0, 3) for _ in degs), rng.randint(0, 9))]
        if want:
            e = rng.choice(want)
            aux = tuple(rng.randint(0, 3) for _ in degs)
            profiles.append((aux, sum(a * x for a, x in zip(aux, e))))
        for profile in profiles:
            want = recursive_exponents(degs, target, profile)
            got = candidate_exponents(degs, target, profile, monkeypatch)
            assert (got or []) == want, (degs, target, profile)
            filtered += profile is not None and 0 < len(want) < len(
                recursive_exponents(degs, target))
    assert filtered >= 20


def test_five_linear_generators_at_twelve_build_only_the_kept_tuples(monkeypatch):
    """Every tuple the enumeration builds, at every depth, is the tail of one
    of the 1,820 kept tuples; the box it replaced has 13^5 = 371,293."""
    real, calls = invariants._exponents, []

    def spy(degs, target):
        out = real(degs, target)
        calls.append((len(degs), out))
        return out

    monkeypatch.setattr(invariants, "_exponents", spy)
    kept = invariants._exponents([1] * 5, 12)
    assert kept == recursive_exponents([1] * 5, 12) and len(kept) == 1820
    tails = {e[5 - k:] for e in kept for k in range(6)}
    assert all(set(out) <= tails for _, out in calls)
    assert {k for k, _ in calls} == set(range(6))


# ---------------------------------------------------------------------------
# poly_compose
# ---------------------------------------------------------------------------

def memo_compose(p, args):
    """The replaced poly_compose: each power args[i] ** e memoised per call."""
    powers = {}
    total = Polynomial.zero(args[0].n)
    for m, c in p.terms.items():
        term = Polynomial.const(args[0].n, c)
        for v, e in _unpack(m, p.n):
            if (v, e) not in powers:
                powers[v, e] = args[v] ** e
            term = term * powers[v, e]
        total = total + term
    return total


def typed_terms(p):
    return [(m, type(c), c) for m, c in p.terms.items()]


def test_compose_matches_the_memo_copy():
    rng = random.Random(3131)
    composed = 0
    for _ in range(120):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        p = random_polynomial(rng, k, max_degree=3, max_terms=5)
        args = [random_polynomial(rng, n, max_degree=2, max_terms=3) for _ in range(k)]
        got, want = poly_compose(p, args), memo_compose(p, args)
        assert typed_terms(got) == typed_terms(want)
        composed += not got.is_zero
    assert composed >= 60


def test_reduction_composes_the_same_replacement(monkeypatch):
    # t_degree_reduction is poly_compose's one package caller
    seen = []

    def spy(p, args):
        got = poly_compose(p, args)
        seen.append(typed_terms(got) == typed_terms(memo_compose(p, args)))
        return got

    monkeypatch.setattr(invariants, "poly_compose", spy)
    for name, w in (("sp4", (0, 0, 1, 0, 1, 1, 2, 0, 2, 1)),
                    ("sp4", (1, 1, 2, 0, 1, 0, 2, 0, 1, 1)),
                    ("so5", (1, 2, 0, 2, 0, 1, 0, 0, 0, 2))):
        gens = invariants.char_invariants(cached_builtin(name))
        invariants.t_degree_reduction(gens, invariants.ContractionWeights(w))
    assert seen == [True] * 3


def test_compose_in_int_keeps_the_memo_copy_order_on_fraction_input():
    """poly_compose scales p and the args to int and divides once; on
    Fraction coefficients, zero args and constants its terms come in the
    memo copy's order, each with the memo copy's type."""
    rng = random.Random(3232)
    fractional = 0
    for _ in range(600):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        p = random_polynomial(rng, k, max_degree=4, max_terms=6)
        args = [random_polynomial(rng, n, max_degree=2, max_terms=4) for _ in range(k)]
        got, want = poly_compose(p, args), memo_compose(p, args)
        assert typed_terms(got) == typed_terms(want)
        fractional += any(type(c) is Fraction for c in got.terms.values())
    assert fractional >= 200


def test_compose_matches_sympy_on_a_sample():
    sympy = pytest.importorskip("sympy")

    def expr(p, names):
        return sum((sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                    * sympy.Mul(*(names[v] ** e for v, e in mono))
                    for mono, c in p.as_dict().items()), sympy.Integer(0))

    rng = random.Random(3333)
    xs, ys = sympy.symbols("x0:5"), sympy.symbols("y0:4")
    for _ in range(25):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        p = random_polynomial(rng, k, max_degree=3, max_terms=5)
        args = [random_polynomial(rng, n, max_degree=2, max_terms=3) for _ in range(k)]
        want = expr(p, ys).subs({ys[v]: expr(a, xs) for v, a in enumerate(args)},
                                simultaneous=True)
        assert sympy.expand(expr(poly_compose(p, args), xs) - want) == 0


def test_one_composition_is_the_replacement_it_replaced():
    """F_j - P(F_others), a difference of two polynomials, against the one
    composition of y_j - P(y_others), P renamed into all the generators'
    variables: equal terms, each of one type."""
    rng = random.Random(3434)
    for _ in range(200):
        k, n = rng.randint(2, 4), rng.randint(1, 5)
        gens = [random_polynomial(rng, n, max_degree=3, max_terms=4) for _ in range(k)]
        j = rng.randrange(k)
        others = [i for i in range(k) if i != j]
        P = random_polynomial(rng, k - 1, max_degree=2, max_terms=3)
        want = gens[j] - poly_compose(P, [gens[i] for i in others])
        Q = Polynomial.variable(k, j) - poly_rename(P, dict(enumerate(others)), k)
        got = poly_compose(Q, gens)
        assert sorted(typed_terms(got)) == sorted(typed_terms(want))
