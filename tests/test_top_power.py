"""The generic rank and the top wedge power read off principal Pfaffians,
against the wedge chain they replaced.

MultiVector.generic_rank starts at the pivots I of the first seeded point
and adds a pair {j, m} to I while some Pf(pi_{I+{j,m}}) is nonzero; its
rank 2k must equal twice the k of the chain below, and Pf(pi_I) must be
nonzero.  MultiVector.top_power is k! Pf(pi_I) at every I of size 2k.
chain_powers below is a copy of the loop before both: repeated
wedge(., pi) until the power vanishes.  (k, top) and wedge_power(pi, j) for
every j must equal its powers on the builtins and their Borel limits, the
symmetric pairs' parents, limits and centralisers, seeded valid-weight
limits of the small algebras, zero and tiny bivectors, and seeded sparse
bivectors with Fraction coefficients, which need not be Poisson.  On the
15-dimensional bivectors only (k, top) is compared, since wedge_power is
the reference's own chain and costs seconds there.  Misreported point
ranks test the bounds: a climb started from rank 0 still reaches the true
k, and a pivot set whose length is not its rank, or whose Pfaffian
vanishes, raises.
"""

import itertools
import random

import pytest

from conftest import cached_builtin, cached_pair, random_polynomial
from liecontract import exterior
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition
from liecontract.contract import ContractionWeights, contract_algebra
from liecontract.exterior import MultiVector, wedge, wedge_power
from liecontract.lie import lie_poisson_bivector
from liecontract.polyring import Polynomial

SMALL = ("sl2", "sl3", "sp4", "so4", "so5")


def chain_powers(pi):
    """The replaced loop: [wedge^0 pi, ..., wedge^k pi], the last nonzero."""
    k, top = 0, MultiVector.unit(pi.n)
    powers = [top]
    while 2 * (k + 1) <= pi.n:
        nxt = pi if k == 0 else wedge(top, pi)
        if nxt.is_zero:
            break
        k, top = k + 1, nxt
        powers.append(top)
    return powers


def fresh(pi):
    """A copy of pi with nothing memoised."""
    return MultiVector(pi.n, 2, pi.terms)


def assert_same_as_chain(pi):
    powers = chain_powers(fresh(pi))
    k = len(powers) - 1
    rank, rows = fresh(pi).generic_rank
    assert rank == len(rows) == 2 * k
    assert not powers[k].coefficient(rows).is_zero
    assert fresh(pi).top_power == (k, powers[k])
    if pi.n <= 10:
        for j in range(pi.n // 2 + 1):
            want = powers[j] if j <= k else MultiVector(pi.n, 2 * j)
            assert wedge_power(fresh(pi), j) == want


def bivector(name):
    return lie_poisson_bivector(cached_builtin(name))


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_builtin_parents_match_the_chain(name):
    assert_same_as_chain(bivector(name))


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_borel_limits_match_the_chain(name):
    L = cached_builtin(name)
    assert_same_as_chain(contract_algebra(L, borel_decomposition(L)).pi_tilde)


@pytest.mark.parametrize("pair", Z2_PAIRS)
def test_symmetric_pairs_match_the_chain(pair):
    sp = cached_pair(pair)
    assert_same_as_chain(lie_poisson_bivector(sp.parent))
    assert_same_as_chain(contract_algebra(sp.parent, sp.weights).pi_tilde)
    if sp.centralizer_alg.n >= 2:
        assert_same_as_chain(lie_poisson_bivector(sp.centralizer_alg))


@pytest.mark.parametrize("name", SMALL)
def test_seeded_valid_weight_limits_match_the_chain(name):
    L = cached_builtin(name)
    rng = random.Random(sum(map(ord, name)))
    seen = 0
    while seen < 8:
        res = contract_algebra(L, ContractionWeights(tuple(rng.randint(0, 2)
                                                           for _ in range(L.n))))
        if res.valid:
            seen += 1
            assert_same_as_chain(res.pi_tilde)


def test_zero_and_tiny_bivectors_match_the_chain():
    for n in range(2, 7):
        assert MultiVector(n, 2).top_power == (0, MultiVector.unit(n))
        assert_same_as_chain(MultiVector(n, 2))
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice((2, 3))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pi = MultiVector(n, 2, {ij: random_polynomial(rng, n, max_degree=2, max_terms=2)
                                for ij in pairs if rng.random() < 0.7})
        assert_same_as_chain(pi)


def random_bivector(rng, n):
    """A sparse bivector with polynomial Fraction coefficients, not Poisson
    in general."""
    density = rng.choice((0.2, 0.4, 0.7))
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                terms[(i, j)] = random_polynomial(rng, n, max_degree=2, max_terms=3,
                                                  allow_zero=False)
    return MultiVector(n, 2, terms)


@pytest.mark.parametrize("seed", range(6))
def test_random_sparse_bivectors_match_the_chain(seed):
    rng = random.Random(1000 + seed)
    for _ in range(10):
        assert_same_as_chain(random_bivector(rng, rng.randint(4, 9)))


def bound_cases():
    """Bivectors of every kind above, at most 10-dimensional."""
    out = [bivector(name) for name in SMALL]
    out += [contract_algebra(cached_builtin(name), borel_decomposition(cached_builtin(name))
                             ).pi_tilde for name in SMALL]
    rng = random.Random(77)
    out += [random_bivector(rng, rng.randint(4, 8)) for _ in range(12)]
    out += [MultiVector(4, 2), MultiVector(3, 2, {(0, 1): Polynomial.const(3, 1)})]
    return out


def test_climb_from_an_under_reported_rank_reaches_the_true_k(monkeypatch):
    want = [chain_powers(fresh(pi)) for pi in bound_cases()]
    # every seeded point reports rank 0, so the climb starts at the empty set
    monkeypatch.setattr(exterior, "point_ranks", lambda _: iter([(0, (), None)] * 3))
    for pi, powers in zip(bound_cases(), want):
        assert fresh(pi).generic_rank[0] == 2 * (len(powers) - 1)
        assert fresh(pi).top_power == (len(powers) - 1, powers[-1])


def test_a_climb_from_a_partial_pivot_set_reaches_the_true_k(monkeypatch):
    for pi in bound_cases():
        rank, rows = fresh(pi).generic_rank
        for size in range(0, rank, 2):
            # a nonzero 2j-Pfaffian below the top: some j-subset of rows' pairs
            part = next(sub for sub in itertools.combinations(rows, size)
                        if fresh(pi)._engine.terms(sub))
            monkeypatch.setattr(exterior, "point_ranks",
                                lambda _, t=(size, part, None): iter([t]))
            assert fresh(pi).generic_rank[0] == rank
            monkeypatch.undo()


def assert_raises_from(monkeypatch, pi, rank, pivots):
    monkeypatch.setattr(exterior, "point_ranks", lambda _: iter([(rank, pivots, None)]))
    for read in ("generic_rank", "top_power"):
        with pytest.raises(AssertionError, match="disagrees with point evaluation"):
            getattr(fresh(pi), read)
    monkeypatch.undo()


def test_an_over_reported_rank_raises(monkeypatch):
    # a point of rank r above 2k: a set of r indices has a vanishing
    # Pfaffian, and a set of any other length disagrees with r
    cases = [(pi, len(chain_powers(fresh(pi))) - 1) for pi in bound_cases()]
    for extra in (1, 2):
        for pi, k in cases:
            r = 2 * k + extra
            assert_raises_from(monkeypatch, pi, r, ())
            if r <= pi.n:
                assert_raises_from(monkeypatch, pi, r, tuple(range(r)))


def test_a_pivot_set_that_disagrees_with_its_rank_raises(monkeypatch):
    vanishing = 0
    for pi in bound_cases():
        powers = chain_powers(fresh(pi))
        k = len(powers) - 1
        rows = fresh(pi).generic_rank[1]
        if k:
            assert_raises_from(monkeypatch, pi, 2 * k, rows[:-2])
            assert_raises_from(monkeypatch, pi, 2 * k - 2, rows)
        # a set of the true size whose Pfaffian vanishes
        zero = next((idx for idx in itertools.combinations(range(pi.n), 2 * k)
                     if powers[k].coefficient(idx).is_zero), None)
        if zero is not None:
            vanishing += 1
            assert_raises_from(monkeypatch, pi, 2 * k, zero)
    assert vanishing
