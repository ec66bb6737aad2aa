"""Acceptance criteria, one test per criterion.

Every assertion is exact (integer or rational equality); the stated runtime
budgets are asserted as upper bounds.  Each criterion prints one PASS line;
run with  pytest tests/test_acceptance.py -v -s  to see them all.
"""

import itertools
import math
import random
import time

from conftest import (bivector_matrix, cached_builtin, cached_pair, proportionality,
                      random_polynomial, volume_dual)
from liecontract.analysis import feigin_suite, z2_suite
from liecontract.builders import borel_decomposition
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.exterior import (MultiVector, differential, pfaffian, schouten_square,
                                  wedge_power)
from liecontract.invariants import char_invariants, semi_invariant_weight
from liecontract.lie import jacobi_check, lie_poisson_bivector
from liecontract.polyring import (Polynomial, multivariate_gcd, parse_polynomial,
                                  poly_compose, poly_div_exact)

EHF = ["e", "h", "f"]


def report(criterion, elapsed, budget):
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_sl2_worked_example():
    t0 = time.time()
    L = cached_builtin("sl2")
    res = contract_algebra(L, ContractionWeights((1, 0, 1)))
    assert res.valid
    # 2e dh^de + 2f df^dh written on sorted index pairs
    expected = MultiVector(3, 2, {(0, 1): parse_polynomial("-2*e", EHF),
                                  (1, 2): parse_polynomial("-2*f", EHF)})
    assert res.pi_tilde == expected

    F = parse_polynomial("-1/2*h^2 - 2*e*f", EHF)
    d, top = t_degree(F, res.weights)
    assert d == 2
    assert top == parse_polynomial("-2*e*f", EHF)

    assert volume_dual(differential(top)) == res.pi_tilde
    report("1 (sl2 worked example)", time.time() - t0, 1.0)


def test_criterion_2_feigin_suite():
    t0 = time.time()
    expected_p = {"sl2": "1", "sl3": "1", "sl4": "1", "sp4": "f1", "so5": "f2"}
    for name in ("sl2", "sl3", "sl4", "sp4", "so5"):
        started = time.time()
        L = cached_builtin(name)
        rep = feigin_suite(L)
        failing = [c.name for c in rep.clauses if not c.ok]
        assert rep.ok, f"{name}: failing clauses {failing}"
        assert len(rep.clauses) == 6
        fund = next(c for c in rep.clauses if c.name == "fundamental_semiinvariant")
        assert fund.data["computed"] == expected_p[name]
        if name == "sl4":
            assert time.time() - started < 300
    report("2 (Borel-split suite sl2/sl3/sl4/sp4/so5)", time.time() - t0, 400)


def test_criterion_3_z2_suite():
    t0 = time.time()
    for pid in ("sl2_so2", "sp4_sp2sp2", "so4_gl2", "sl4_sp4"):
        rep = z2_suite(cached_pair(pid))
        failing = [c.name for c in rep.clauses if not c.ok]
        assert rep.ok, f"{pid}: failing clauses {failing}"
        degree_sum = next(c for c in rep.clauses if c.name == "reduced_degree_sum")
        assert sum(degree_sum.data["t_degrees"]) == degree_sum.data["dim_g1"]
    report("3 (symmetric-pair suite, four catalog pairs)", time.time() - t0, 600)


def test_criterion_4_property_suites():
    t0 = time.time()
    rng = random.Random(424242)

    # (a) the Schouten square vanishes for Lie-Poisson bivectors and limits
    tables = [cached_builtin(n) for n in ("sl2", "sl3", "sp4", "so4", "so5")]
    for L in tables:
        assert jacobi_check(L)[0]
        assert schouten_square(lie_poisson_bivector(L)).is_zero
    for name in ("sl2", "sl3", "sp4", "so5"):
        L = cached_builtin(name)
        res = contract_algebra(L, borel_decomposition(L))
        assert res.valid
        assert schouten_square(res.pi_tilde).is_zero
    for pid in ("sl2_so2", "sp4_sp2sp2", "so4_gl2", "sl4_sp4"):
        pair = cached_pair(pid)
        res = contract_algebra(pair.parent, pair.weights)
        assert res.valid
        assert schouten_square(res.pi_tilde).is_zero

    # (b) highest components of random central elements stay central: every
    # H has zero semi-invariant weight for the parent, and so does its top
    # for the Borel limit
    for name in ("sl2", "sl3", "sp4"):
        L = cached_builtin(name)
        res = contract_algebra(L, borel_decomposition(L))
        assert res.valid
        gs = char_invariants(L)
        produced = 0
        while produced < 20:
            Q = random_polynomial(rng, len(gs), max_degree=2, max_terms=3)
            H = poly_compose(Q, gs.gens) if not Q.is_zero else Q
            if Q.is_zero or H.is_zero:
                continue
            assert semi_invariant_weight(H, res.original) == [0] * L.n
            _, top = t_degree(H, res.weights)
            assert semi_invariant_weight(top, res.pi_tilde) == [0] * L.n
            produced += 1

    # (c) wedge powers against Pfaffians of principal submatrices, n <= 6
    def assert_duality(pi):
        mat = bivector_matrix(pi)
        for k in range(1, pi.n // 2 + 1):
            power = wedge_power(pi, k)
            for idx in itertools.combinations(range(pi.n), 2 * k):
                sub = [[mat[i][j] for j in idx] for i in idx]
                assert power.coefficient(idx) == math.factorial(k) * pfaffian(sub)

    assert_duality(lie_poisson_bivector(cached_builtin("sl2")))
    assert_duality(lie_poisson_bivector(cached_builtin("so4")))
    for n in (4, 5, 6):
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
                p = random_polynomial(rng, n, max_degree=1, max_terms=2)
                if not p.is_zero:
                    terms[(i, j)] = terms.get((i, j), Polynomial.zero(n)) + p
            assert_duality(MultiVector(n, 2, terms))

    # (d) the degree-law lower bound across valid index-preserving contractions
    from liecontract.lie import algebra_index
    for name in ("sl2", "sl3", "sl4", "sp4", "so5"):
        L = cached_builtin(name)
        w = borel_decomposition(L)
        res = contract_algebra(L, w)
        assert algebra_index(res.contracted) == algebra_index(L)
        gs = char_invariants(L)
        assert sum(t_degree(g, w)[0] for g in gs.gens) >= w.total
    for pid in ("sl2_so2", "sp4_sp2sp2", "so4_gl2", "sl4_sp4"):
        pair = cached_pair(pid)
        res = contract_algebra(pair.parent, pair.weights)
        assert algebra_index(res.contracted) == algebra_index(pair.parent)
        gs = char_invariants(pair.parent)
        assert sum(t_degree(g, pair.weights)[0] for g in gs.gens) >= pair.weights.total

    # (e) gcd division and coprimality on 200 randomized pairs
    done = 0
    while done < 200:
        a = random_polynomial(rng, 3, max_degree=3, max_terms=4)
        b = random_polynomial(rng, 3, max_degree=3, max_terms=4)
        if rng.random() < 0.5:
            common = random_polynomial(rng, 3, max_degree=2, max_terms=2)
            if not common.is_zero:
                a, b = a * common, b * common
        if a.is_zero and b.is_zero:
            continue
        g = multivariate_gcd(a, b)
        if not a.is_zero:
            qa = poly_div_exact(a, g)
            assert qa * g == a
        if not b.is_zero:
            qb = poly_div_exact(b, g)
            assert qb * g == b
        if not a.is_zero and not b.is_zero:
            assert multivariate_gcd(qa, qb) == Polynomial.const(3, 1)
        done += 1

    report("4 (property suites a-e)", time.time() - t0, 120)


def test_criterion_5_negative_controls():
    t0 = time.time()
    L = cached_builtin("sl2")
    res = contract_algebra(L, ContractionWeights((0, 1, 0)))
    assert not res.valid
    assert res.offending == ((0, 2), -1)  # pair (e, f), power t^-1

    from liecontract.lie import LieAlgebra
    bad = LieAlgebra(["x1", "x2", "x3"],
                     {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
    ok, triple = jacobi_check(bad)
    assert not ok and triple == (0, 1, 2)
    assert not schouten_square(bad.bivector).is_zero

    one = Polynomial.const(4, 1)
    a = MultiVector(4, 2, {(0, 1): one})
    b = MultiVector(4, 2, {(0, 2): one})
    assert not proportionality(a, b).proportional
    report("5 (negative controls)", time.time() - t0, 1.0)
