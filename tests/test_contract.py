import random
from fractions import Fraction

import pytest

from conftest import cached_builtin as builtin_algebra
from conftest import random_polynomial, subalgebra_on_indices
from liecontract.builders import BUILTIN_ALGEBRAS, borel_decomposition
from liecontract.contract import ContractionWeights, contract, contract_algebra, t_degree
from liecontract.exterior import MultiVector, schouten_square
from liecontract.invariants import char_invariants, semi_invariant_weight
from liecontract.lie import algebra_index, lie_poisson_bivector
from liecontract.polyring import Polynomial, parse_polynomial

EHF = ["e", "h", "f"]


def sl2():
    return builtin_algebra("sl2")


def casimir():
    return parse_polynomial("-1/2*h^2 - 2*e*f", EHF)


class TestWeights:
    def test_total(self):
        assert ContractionWeights((0, 1, 2)).total == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ContractionWeights((0, -1))


class TestContract:
    def test_split_weights(self):
        res = contract_algebra(sl2(), ContractionWeights((1, 0, 1)))
        assert res.valid
        expected = MultiVector(3, 2, {(0, 1): parse_polynomial("-2*e", EHF),
                                      (1, 2): parse_polynomial("-2*f", EHF)})
        assert res.pi_tilde == expected
        assert res.contracted.bracket_pair(0, 2) == {}

    def test_borel_weights(self):
        res = contract_algebra(sl2(), ContractionWeights((0, 0, 1)))
        assert res.valid
        assert res.contracted.bracket_pair(1, 0) == {0: 2}
        assert res.contracted.bracket_pair(1, 2) == {2: -2}
        assert res.contracted.bracket_pair(0, 2) == {}

    def test_invalid_weights_report_pair(self):
        res = contract_algebra(sl2(), ContractionWeights((0, 1, 0)))
        assert not res.valid
        assert res.offending == ((0, 2), -1)
        assert res.pi_tilde is None and res.contracted is None

    def test_limit_is_poisson_for_valid_contractions(self):
        rng = random.Random(17)
        L = builtin_algebra("sl3")
        count = 0
        while count < 8:
            w = ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n)))
            res = contract_algebra(L, w)
            if not res.valid:
                continue
            assert schouten_square(res.pi_tilde).is_zero
            count += 1

    def test_rank_never_grows(self):
        L = sl2()
        rank0 = L.n - algebra_index(L)
        for w in [(1, 0, 1), (0, 0, 1), (0, 1, 1)]:
            res = contract_algebra(L, ContractionWeights(w))
            assert res.valid
            rank1 = L.n - algebra_index(res.contracted)
            assert rank1 <= rank0

    def test_pi_t_at_one_recovers_original(self):
        L = builtin_algebra("sp4")
        w = borel_decomposition(L)
        res = contract_algebra(L, w)
        assert sum(res.pi_t.values(), MultiVector(L.n, 2)) == lie_poisson_bivector(L)

    def test_level_grading_of_borel_sl3_is_valid(self):
        # graded pieces: Cartan at level 0, simple roots at 1, their sum at 2
        L = builtin_algebra("sl3")
        rd = L.root_data
        B = subalgebra_on_indices(L, sorted(rd.positive + rd.cartan))
        levels = {"e1": 1, "e2": 1, "e12": 2, "h1": 0, "h2": 0}
        w = ContractionWeights(tuple(levels[lab] for lab in B.labels))
        res = contract_algebra(B, w)
        assert res.valid

    def test_non_bivector_rejected(self):
        with pytest.raises(ValueError):
            contract(MultiVector(3, 1, {(0,): Polynomial.const(3, 1)}),
                     ContractionWeights((0, 0, 0)))

    def test_affine_bivector_keeps_no_algebra_for_a_constant_limit(self):
        # a constant kept in the limit has no bracket row; one sent to t^2 leaves a linear limit
        x0 = Polynomial.variable(3, 0)
        pi = MultiVector(3, 2, {(0, 1): Polynomial.const(3, 1), (1, 2): x0})
        res = contract(pi, ContractionWeights((0, 0, 0)))
        assert res.valid and res.pi_tilde == pi and res.contracted is None
        res = contract(pi, ContractionWeights((1, 1, 0)))
        assert res.valid and res.pi_tilde == MultiVector(3, 2, {(1, 2): x0})
        assert res.contracted.brackets == {(1, 2): {0: 1}}

    def test_nonlinear_coefficients_supported(self):
        # quadratic coefficient: monomial weight 2, frame shift 2, power 0
        x = Polynomial.variable(2, 0)
        pi = MultiVector(2, 2, {(0, 1): x * x})
        res = contract(pi, ContractionWeights((1, 1)))
        assert res.valid
        assert res.pi_tilde == pi
        assert res.contracted is None


class TestTDegree:
    def test_split_weights(self):
        d, top = t_degree(casimir(), ContractionWeights((1, 0, 1)))
        assert (d, top) == (2, parse_polynomial("-2*e*f", EHF))

    def test_borel_weights(self):
        d, top = t_degree(casimir(), ContractionWeights((0, 0, 1)))
        assert (d, top) == (1, parse_polynomial("-2*e*f", EHF))

    def test_weight_zero(self):
        d, top = t_degree(parse_polynomial("h", EHF), ContractionWeights((3, 0, 2)))
        assert (d, top) == (0, parse_polynomial("h", EHF))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            t_degree(Polynomial.zero(3), ContractionWeights((0, 0, 0)))

    def test_multiplicative(self):
        rng = random.Random(23)
        w = ContractionWeights((2, 0, 1))
        done = 0
        while done < 30:
            p = random_polynomial(rng, 3)
            q = random_polynomial(rng, 3)
            if p.is_zero or q.is_zero:
                continue
            dp, tp = t_degree(p, w)
            dq, tq = t_degree(q, w)
            dpq, tpq = t_degree(p * q, w)
            assert dpq == dp + dq
            assert tpq == tp * tq
            done += 1


def assert_top_central(h, res):
    """h is a Casimir of the parent (zero semi-invariant weight), the
    contraction is valid, and h's highest component is a Casimir of the limit."""
    zero = [0] * res.original.n
    assert semi_invariant_weight(h, res.original) == zero
    assert res.valid
    _, top = t_degree(h, res.weights)
    assert semi_invariant_weight(top, res.pi_tilde) == zero


class TestHighestComponentCentral:
    def test_casimir_borel_weights(self):
        res = contract_algebra(sl2(), ContractionWeights((0, 0, 1)))
        assert_top_central(casimir(), res)

    def test_casimir_split_weights(self):
        res = contract_algebra(sl2(), ContractionWeights((1, 0, 1)))
        assert_top_central(casimir(), res)

    def test_constant(self):
        res = contract_algebra(sl2(), ContractionWeights((0, 0, 1)))
        assert_top_central(Polynomial.const(3, 7), res)

    def test_non_central_input_rejected(self):
        res = contract_algebra(sl2(), ContractionWeights((0, 0, 1)))
        assert semi_invariant_weight(parse_polynomial("e", EHF), res.original) != [0] * 3

    def test_randomized_invariants(self):
        # polynomials in the Casimir stay central, and so do their tops
        rng = random.Random(55)
        L = sl2()
        res = contract_algebra(L, borel_decomposition(L))
        C = casimir()
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            H = (Polynomial.const(3, coeffs[0]) + C * coeffs[1]
                 + C * C * coeffs[2])
            if H.is_zero:
                continue
            assert_top_central(H, res)


def test_contracted_structure_constants_match_bivector():
    for name in ("sl3", "sp4"):
        L = builtin_algebra(name)
        res = contract_algebra(L, borel_decomposition(L))
        pi2 = lie_poisson_bivector(res.contracted)
        assert pi2 == res.pi_tilde


def test_generator_degree_sum_boundaries():
    # sum of t-degrees equals the weight total for the Borel split
    for name in ("sl2", "sl3", "sp4"):
        L = builtin_algebra(name)
        w = borel_decomposition(L)
        gs = char_invariants(L)
        total = sum(t_degree(g, w)[0] for g in gs.gens)
        assert total == w.total


def replaced_contract(pi, w):
    """The t-polynomial path the grading replaced, in public monomial form:
    x_i -> t^{-w_i} x_i on each coefficient, then the shift by t^{w_i + w_j};
    (offending, limit) with the offending pair first in index order."""
    tterms = {}
    for (i, j), p in pi.terms.items():
        by_power = {}
        for m, c in p.as_dict().items():
            d = sum(-w[v] * e for v, e in m)
            by_power.setdefault(d + w[i] + w[j], {})[m] = c
        tterms[(i, j)] = by_power
    for idx in sorted(tterms):
        low = min(tterms[idx])
        if low < 0:
            return (idx, low), None
    return None, MultiVector(pi.n, 2, {idx: Polynomial(pi.n, tp[0])
                                       for idx, tp in tterms.items() if 0 in tp})


def check_against_replaced(pi, w, linear):
    res = contract(pi, ContractionWeights(w))
    offending, tilde = replaced_contract(pi, w)
    assert res.offending == offending
    assert res.valid == (offending is None)
    assert sum(res.pi_t.values(), MultiVector(pi.n, 2)) == pi
    if offending is None:
        assert res.pi_tilde == tilde
        if linear:
            rows = {idx: {k: c for ((k, _),), c in p.as_dict().items()}
                    for idx, p in tilde.terms.items()}
            assert res.contracted.brackets == rows
    return res.valid


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_graded_contract_matches_replaced_t_substitution(name):
    L = builtin_algebra(name)
    pi = lie_poisson_bivector(L)
    rng = random.Random(BUILTIN_ALGEBRAS.index(name))
    weights = [(0,) * L.n, (1,) * L.n, tuple(borel_decomposition(L))]
    weights += [tuple(rng.randint(0, 2) for _ in range(L.n)) for _ in range(40)]
    verdicts = {check_against_replaced(pi, w, linear=True) for w in weights}
    assert verdicts == {True, False}


def test_graded_contract_matches_replaced_on_polynomial_bivectors():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(60):
        pi = MultiVector(4, 2, {(i, j): random_polynomial(rng, 4, max_degree=2)
                                for i in range(4) for j in range(i + 1, 4)})
        w = tuple(rng.randint(0, 2) for _ in range(4))
        verdicts.add(check_against_replaced(pi, w, linear=False))
    assert verdicts == {True, False}
