import itertools
from fractions import Fraction

import pytest

from conftest import cached_builtin as builtin_algebra
from conftest import cached_pair as symmetric_pair
from liecontract.builders import borel_decomposition
from liecontract.contract import contract_algebra, t_degree
from liecontract.exterior import MultiVector
from liecontract.invariants import (char_invariants, membership_linear,
                                    semi_invariant_weight, t_degree_reduction)
from liecontract.lie import LieAlgebra
from liecontract.polyring import Polynomial, parse_polynomial, poly_compose

EHF = ["e", "h", "f"]


class TestCharInvariants:
    def test_sl2_normalized_casimir(self):
        gs = char_invariants(builtin_algebra("sl2"))
        assert len(gs) == 1
        assert gs.gens[0] == parse_polynomial("-1/2*h^2 - 2*e*f", EHF)

    def test_sl3_degrees(self):
        assert char_invariants(builtin_algebra("sl3")).degrees == [2, 3]

    def test_sp4_degrees_sum_to_borel_dimension(self):
        gs = char_invariants(builtin_algebra("sp4"))
        assert gs.degrees == [2, 4]
        assert sum(gs.degrees) == 6

    def test_degree_sums_match_borel_dimension(self):
        for name in ("sl2", "sl3", "sl4", "sp4", "so4", "so5"):
            L = builtin_algebra(name)
            gs = char_invariants(L)
            ell = L.root_data.rank
            assert sum(gs.degrees) == (L.n + ell) // 2

    def test_centrality_gate(self):
        for name in ("sl2", "sl3", "sl4", "sp4", "so4", "so5"):
            L = builtin_algebra(name)
            for g in char_invariants(L).gens:
                assert semi_invariant_weight(g, L.bivector) == [0] * L.n

    def test_requires_matrices(self):
        L = LieAlgebra(["a", "b"], {})
        with pytest.raises(ValueError):
            char_invariants(L)


class TestCentrality:
    def test_casimir(self):
        L = builtin_algebra("sl2")
        C = parse_polynomial("-1/2*h^2 - 2*e*f", EHF)
        assert semi_invariant_weight(C, L.bivector) == [0] * 3

    def test_basis_vector_not_central(self):
        L = builtin_algebra("sl2")
        assert semi_invariant_weight(parse_polynomial("e", EHF), L.bivector) != [0] * 3


class TestSemiInvariantWeight:
    def test_negative_simple_root_vector(self):
        L = builtin_algebra("sl2")
        res = contract_algebra(L, borel_decomposition(L))
        lam = semi_invariant_weight(parse_polynomial("f", EHF), res.pi_tilde)
        assert lam == [0, -2, 0]

    def test_highest_root_vector(self):
        L = builtin_algebra("sl2")
        res = contract_algebra(L, borel_decomposition(L))
        lam = semi_invariant_weight(parse_polynomial("e", EHF), res.pi_tilde)
        assert lam == [0, 2, 0]

    def test_mixed_sum_rejected(self):
        L = builtin_algebra("sl2")
        assert semi_invariant_weight(parse_polynomial("e + f", EHF), L.bivector) is None

    def test_zero_weight_exactly_on_central(self):
        L = builtin_algebra("sl2")
        lam = semi_invariant_weight(parse_polynomial("-1/2*h^2 - 2*e*f", EHF), L.bivector)
        assert lam == [0, 0, 0]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            semi_invariant_weight(Polynomial.zero(3), builtin_algebra("sl2").bivector)

    @pytest.mark.parametrize("limit, text, c, want", [
        (True, "1/3*f", Fraction(-7, 5), [0, -2, 0]),
        (False, "-1/2*h^2 - 2*e*f", Fraction(3, 4), [0, 0, 0]),
        (False, "1/2*e + 1/3*f", Fraction(5, 6), None)])
    def test_a_nonzero_multiple_has_the_same_weights(self, limit, text, c, want):
        L = builtin_algebra("sl2")
        pi = contract_algebra(L, borel_decomposition(L)).pi_tilde if limit else L.bivector
        h = parse_polynomial(text, EHF)
        assert semi_invariant_weight(h * c, pi) == semi_invariant_weight(h, pi) == want

    def test_every_coordinate_is_checked(self):
        # under {x_i, x_k} = x_k alone, x_k has weight 1 at coordinate i and 0
        # elsewhere; under {x_i, x_k} = 1 alone, only coordinate i shows that
        # x_k is no semi-invariant
        n = 4
        for i, k in itertools.permutations(range(n), 2):
            xk = Polynomial.variable(n, k)
            pair, sign = ((i, k), 1) if i < k else ((k, i), -1)
            pi = MultiVector(n, 2, {pair: xk * sign})
            assert semi_invariant_weight(xk, pi) == [int(j == i) for j in range(n)]
            pi = MultiVector(n, 2, {pair: Polynomial.const(n, sign)})
            assert semi_invariant_weight(xk, pi) is None


class TestMembership:
    def test_square_of_generator(self):
        ef = parse_polynomial("e*f", EHF)
        P = membership_linear(ef * ef, [ef])
        assert P is not None
        assert poly_compose(P, [ef]) == ef * ef
        assert P == Polynomial(1, [(((0, 2),), Fraction(1))])

    def test_not_a_member(self):
        ef = parse_polynomial("e*f", EHF)
        assert membership_linear(parse_polynomial("h^2", EHF), [ef]) is None

    def test_inhomogeneous_rejected(self):
        ef = parse_polynomial("e*f", EHF)
        with pytest.raises(ValueError):
            membership_linear(parse_polynomial("e^2*f^2 + e*f", EHF), [ef])

    def test_profile_constraint(self):
        # same degrees, but the auxiliary budget rules the candidate out
        ef = parse_polynomial("e*f", EHF)
        P = membership_linear(ef * ef, [ef], profile=((1,), 2))
        assert P is not None
        assert membership_linear(ef * ef, [ef], profile=((1,), 3)) is None

    def test_exact_recomposition(self):
        gens = [parse_polynomial("e*f", EHF), parse_polynomial("h^2", EHF)]
        h = parse_polynomial("4*e*f*h^2 - e^2*f^2", EHF)
        P = membership_linear(h, gens)
        assert P is not None
        assert (h - poly_compose(P, gens)).is_zero


class TestTDegreeReduction:
    def test_sl2_borel_fixed_point(self):
        L = builtin_algebra("sl2")
        gs = char_invariants(L)
        red = t_degree_reduction(gs, borel_decomposition(L))
        assert red.gens == gs.gens

    def test_sl2_split_fixed_point(self):
        L = builtin_algebra("sl2")
        sp = symmetric_pair("sl2_so2")
        gs = char_invariants(L)
        red = t_degree_reduction(gs, sp.weights)
        assert red.gens == gs.gens

    def test_so4_pair_reduces_pfaffian(self):
        sp = symmetric_pair("so4_gl2")
        gs = char_invariants(sp.parent)
        before = [t_degree(g, sp.weights)[0] for g in gs.gens]
        red = t_degree_reduction(gs, sp.weights)
        after = [t_degree(g, sp.weights)[0] for g in red.gens]
        assert before == [2, 2]
        assert sorted(after) == [0, 2]
        assert sum(after) == len(sp.g1)

    def test_sp4_pair_degree_budget(self):
        sp = symmetric_pair("sp4_sp2sp2")
        gs = char_invariants(sp.parent)
        red = t_degree_reduction(gs, sp.weights)
        after = [t_degree(g, sp.weights)[0] for g in red.gens]
        assert after == [2, 2]
        assert sum(after) == len(sp.g1)

    def test_never_increases_and_stays_central(self):
        for pid in ("sp4_sp2sp2", "so4_gl2"):
            sp = symmetric_pair(pid)
            gs = char_invariants(sp.parent)
            before = [t_degree(g, sp.weights)[0] for g in gs.gens]
            red = t_degree_reduction(gs, sp.weights)
            for g0, g1, b in zip(gs.gens, red.gens, before):
                assert g1.degree() == g0.degree()
                assert t_degree(g1, sp.weights)[0] <= b
                assert semi_invariant_weight(g1, sp.parent.bivector) == [0] * sp.parent.n
