import random
from fractions import Fraction

import pytest

from conftest import cached_builtin as builtin_algebra
from conftest import cached_pair as symmetric_pair
from conftest import proportionality, volume_dual
from liecontract.analysis import (_form_of_differentials, contr_deg_report, feigin_suite,
                                  fundamental_semiinvariant, kostant_check, regularity,
                                  z2_suite)
from liecontract.builders import borel_decomposition
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.exterior import MultiVector, differential
from liecontract.invariants import char_invariants, semi_invariant_weight, t_degree_reduction
from liecontract.lie import lie_poisson_bivector
from liecontract.polyring import Polynomial, parse_polynomial, poly_compose

EHF = ["e", "h", "f"]


def sl2_pi():
    return lie_poisson_bivector(builtin_algebra("sl2"))


def casimir():
    return parse_polynomial("-1/2*h^2 - 2*e*f", EHF)


class TestProportionality:
    """The certificate of regularity on sl2, and the full-sides reference."""

    def test_regularity_instance_gives_units(self):
        cert = regularity(sl2_pi(), [casimir()]).certificate
        assert cert.proportional and cert.constant_ratio
        assert cert.q1 == Polynomial.const(3, 1)
        assert cert.q2 == Polynomial.const(3, 1)

    def test_square_of_casimir(self):
        F = casimir()
        cert = regularity(sl2_pi(), [F * F]).certificate
        assert cert.proportional
        assert cert.q1.is_constant
        # q2/q1 is 2F up to the monic normalization of the gcd
        ratio_poly = cert.q2 * (1 / cert.q1.constant_value())
        assert ratio_poly == 2 * F

    def test_disjoint_supports(self):
        n = 4
        one = Polynomial.const(n, 1)
        a = MultiVector(n, 2, {(0, 1): one})
        b = MultiVector(n, 2, {(0, 2): one})
        assert not proportionality(a, b).proportional

    def test_scaling_invariance(self):
        cert = regularity(sl2_pi(), [casimir() * Fraction(7, 3)]).certificate
        assert cert.proportional and cert.constant_ratio
        assert cert.q2.constant_value() / cert.q1.constant_value() == Fraction(7, 3)

    def test_swap_symmetry(self):
        F = casimir()
        a = volume_dual(differential(F * F))
        c1 = proportionality(a, sl2_pi())
        c2 = proportionality(sl2_pi(), a)
        assert c1.proportional and c2.proportional
        # q1 A = q2 B and q1' B = q2' A force q1 q1' = q2 q2'
        assert c2.q1 * c1.q1 == c2.q2 * c1.q2

    def test_zero_rejected(self):
        rep = regularity(sl2_pi(), [Polynomial.zero(3)])
        with pytest.raises(ValueError, match="proportionality needs two nonzero multivectors"):
            rep.certificate


def independent(polys):
    """The Jacobian criterion KostantReport.independent reads: the wedge of
    the differentials is nonzero."""
    return not _form_of_differentials(polys, polys[0].n).is_zero


class TestIndependence:
    def test_coordinates(self):
        polys = [Polynomial.variable(3, i) for i in range(3)]
        assert independent(polys)

    def test_square_dependence(self):
        ef = parse_polynomial("e*f", EHF)
        assert not independent([ef, ef * ef])

    def test_tops_with_tight_budget(self):
        for name in ("sl2", "sl3", "sp4"):
            L = builtin_algebra(name)
            w = borel_decomposition(L)
            gs = char_invariants(L)
            tops = [t_degree(g, w)[1] for g in gs.gens]
            assert sum(t_degree(g, w)[0] for g in gs.gens) == w.total
            assert independent(tops)


class TestKostantCheck:
    def test_sl2(self):
        gs = char_invariants(builtin_algebra("sl2"))
        rep = kostant_check(gs, sl2_pi(), 1)
        assert rep.is_kostant_type and rep.index == 1
        assert rep.certificate.q1 == Polynomial.const(3, 1)
        assert rep.certificate.q2 == Polynomial.const(3, 1)

    def test_borel_contraction_of_sl2(self):
        L = builtin_algebra("sl2")
        res = contract_algebra(L, borel_decomposition(L))
        top = parse_polynomial("-2*e*f", EHF)
        rep = kostant_check([top], res.pi_tilde, 1)
        assert rep.is_kostant_type

    def test_borel_contraction_of_sp4_with_divisor(self):
        # regularity holds although the singular set contains a divisor
        L = builtin_algebra("sp4")
        w = borel_decomposition(L)
        res = contract_algebra(L, w)
        gs = char_invariants(L)
        tops = [t_degree(g, w)[1] for g in gs.gens]
        rep = kostant_check(tops, res.pi_tilde, 2)
        assert rep.is_kostant_type
        fsi = fundamental_semiinvariant(res.pi_tilde, 2)
        assert not fsi.p.is_constant

    def test_wrong_count_rejected(self):
        gs = char_invariants(builtin_algebra("sl2"))
        with pytest.raises(ValueError):
            kostant_check(gs, sl2_pi(), 2)

    def test_triangular_substitution_invariance(self):
        L = builtin_algebra("sp4")
        gs = char_invariants(L)
        f1, f2 = gs.gens
        modified = [f1, f2 + f1 * f1 * Fraction(5, 3)]
        rep = kostant_check(modified, lie_poisson_bivector(L), 2)
        assert rep.is_kostant_type


class TestFundamentalSemiInvariant:
    def test_type_a_trivial(self):
        for name in ("sl2", "sl3"):
            L = builtin_algebra(name)
            res = contract_algebra(L, borel_decomposition(L))
            ell = L.root_data.rank
            fsi = fundamental_semiinvariant(res.pi_tilde, ell)
            assert fsi.p == Polynomial.const(L.n, 1)

    def test_sp4_mark_two_root(self):
        L = builtin_algebra("sp4")
        res = contract_algebra(L, borel_decomposition(L))
        fsi = fundamental_semiinvariant(res.pi_tilde, 2)
        f1 = L.root_data.simple_f[0]
        assert fsi.p == Polynomial.variable(L.n, f1)

    def test_reductive_trivial(self):
        fsi = fundamental_semiinvariant(sl2_pi(), 1)
        assert fsi.p == Polynomial.const(3, 1)

    def test_p_is_semi_invariant(self):
        L = builtin_algebra("sp4")
        res = contract_algebra(L, borel_decomposition(L))
        fsi = fundamental_semiinvariant(res.pi_tilde, 2)
        assert semi_invariant_weight(fsi.p, res.pi_tilde) is not None

    def test_wrong_index_rejected(self):
        with pytest.raises(ValueError):
            fundamental_semiinvariant(sl2_pi(), 2)
        # only the index is accepted: above it, the content of a lower
        # wedge power is no fundamental semi-invariant
        pi = lie_poisson_bivector(builtin_algebra("sl3"))
        assert fundamental_semiinvariant(pi, 2).p == Polynomial.const(8, 1)
        for ell in (0, 1, 3, 4, 6):
            with pytest.raises(ValueError, match="is not the index 2"):
                fundamental_semiinvariant(pi, ell)


class TestContrDegReport:
    def test_sl2_split_equality(self):
        L = builtin_algebra("sl2")
        rep = contr_deg_report(char_invariants(L), ContractionWeights((1, 0, 1)))
        assert rep.ok and rep.classification == "equality"
        assert rep.sum_t_degrees == rep.weight_total == 2
        assert rep.good_generating_system and rep.kostant_with_limit

    def test_sl2_borel_equality(self):
        L = builtin_algebra("sl2")
        rep = contr_deg_report(char_invariants(L), ContractionWeights((0, 0, 1)))
        assert rep.ok and rep.sum_t_degrees == rep.weight_total == 1
        assert rep.good_generating_system

    def test_invalid_contraction_reported(self):
        L = builtin_algebra("sl2")
        rep = contr_deg_report(char_invariants(L), ContractionWeights((0, 1, 0)))
        assert not rep.ok
        assert "(e,f)" in rep.error

    def test_lower_bound_never_violated(self):
        # every valid index-preserving contraction in the catalog satisfies it
        for name in ("sl2", "sl3", "sp4", "so5"):
            L = builtin_algebra(name)
            rep = contr_deg_report(char_invariants(L), borel_decomposition(L))
            assert rep.index_preserved
            assert rep.sum_t_degrees >= rep.weight_total

    def test_so4_strict_until_reduced(self):
        # w gives h2 weight 1, and both generators' tops are multiples of
        # h2^2: the law is strict with dependent tops; reduction cancels h2^2
        # from one, and the set is in the equality class
        L = builtin_algebra("so4")
        w = ContractionWeights((1, 1, 0, 1, 0, 0))
        rep = contr_deg_report(char_invariants(L), w)
        assert rep.ok and rep.classification == "strict"
        assert rep.t_degrees == [2, 2] and (rep.sum_t_degrees, rep.weight_total) == (4, 3)
        assert rep.independent is False and rep.good_generating_system is False
        rep = contr_deg_report(t_degree_reduction(char_invariants(L), w), w)
        assert rep.ok and rep.classification == "equality"
        assert rep.t_degrees == [1, 2] and rep.sum_t_degrees == rep.weight_total == 3
        assert rep.good_generating_system is True

    def test_sl3_stays_strict_after_reduction(self):
        L = builtin_algebra("sl3")
        w = ContractionWeights((0, 1, 0, 0, 2, 2, 1, 2))
        rep = contr_deg_report(t_degree_reduction(char_invariants(L), w), w)
        assert rep.ok and rep.classification == "strict"
        assert rep.t_degrees == [4, 6] and (rep.sum_t_degrees, rep.weight_total) == (10, 8)
        assert rep.independent is False and rep.good_generating_system is False


class TestHighestComponentAlgebra:
    def test_top_of_polynomial_in_generators(self):
        # for a good generating system, the top of Q(F_1..F_l) is the
        # t-leading part of Q evaluated at the tops
        from conftest import random_polynomial
        rng = random.Random(300)
        L = builtin_algebra("sp4")
        w = borel_decomposition(L)
        gs = char_invariants(L)
        pairs = [t_degree(g, w) for g in gs.gens]
        tops = [p for _, p in pairs]
        tdegs = [d for d, _ in pairs]

        def t_budget(mono):
            return sum(tdegs[v] * e for v, e in mono)

        done = 0
        while done < 10:
            Q = random_polynomial(rng, 2, max_degree=3, max_terms=4)
            if Q.is_zero:
                continue
            g = poly_compose(Q, gs.gens)
            if g.is_zero:
                continue
            d, top = t_degree(g, w)
            best = max(t_budget(m) for m in Q.as_dict())
            lead = Polynomial(2, {m: c for m, c in Q.as_dict().items()
                                  if t_budget(m) == best})
            assert d == best
            assert top == poly_compose(lead, tops)
            done += 1


class TestSuites:
    def test_feigin_sl2(self):
        rep = feigin_suite(builtin_algebra("sl2"))
        assert rep.ok
        names = [c.name for c in rep.clauses]
        assert names == ["index_of_contraction", "t_degree_drop",
                         "kostant_equality_for_tops", "fundamental_semiinvariant",
                         "semicentre_generators", "semicentre_proportionality"]

    def test_feigin_sl3(self):
        rep = feigin_suite(builtin_algebra("sl3"))
        assert rep.ok
        drop = next(c for c in rep.clauses if c.name == "t_degree_drop")
        assert drop.data["t_degrees"] == [1, 2]

    def test_feigin_so6_exercises_even_orthogonal_path(self):
        # the so_{2l} generator recipe ends with the Pfaffian; all marks are 1
        rep = feigin_suite(builtin_algebra("so6"))
        assert rep.ok
        fund = next(c for c in rep.clauses if c.name == "fundamental_semiinvariant")
        assert fund.data["computed"] == "1"

    def test_feigin_rejects_missing_marks(self):
        with pytest.raises(ValueError):
            feigin_suite(builtin_algebra("so4"))

    def test_z2_sl2(self):
        rep = z2_suite(symmetric_pair("sl2_so2"))
        assert rep.ok

    def test_z2_so4(self):
        rep = z2_suite(symmetric_pair("so4_gl2"))
        assert rep.ok
        rk = next(c for c in rep.clauses if c.name == "borel_dimension_identity")
        assert rk.data == {"dim_b": 4, "dim_g1": 2, "dim_b_l": 2}

    def test_report_dict_is_json_safe(self):
        import json
        rep = z2_suite(symmetric_pair("sl2_so2"))
        json.dumps(rep.as_dict())


class TestCoefficientTypes:
    def test_suite_polynomials_have_int_or_fraction_coefficients(self, monkeypatch):
        # every polynomial the sl3 and sp4 suites make, through either constructor
        bad = []

        def check(terms):
            bad.extend(c for c in terms.values() if not (
                type(c) is int or (type(c) is Fraction and c.denominator != 1)))

        raw, init = Polynomial._raw.__func__, Polynomial.__init__

        def checked_raw(cls, n, terms):
            check(terms)
            return raw(cls, n, terms)

        def checked_init(self, n, terms=None):
            init(self, n, terms)
            check(self.terms)

        monkeypatch.setattr(Polynomial, "_raw", classmethod(checked_raw))
        monkeypatch.setattr(Polynomial, "__init__", checked_init)
        from liecontract.builders import builtin_algebra as fresh_algebra
        reports = [feigin_suite(fresh_algebra("sl3")), feigin_suite(fresh_algebra("sp4")),
                   z2_suite("sp4_sp2sp2")]
        assert all(rep.ok for rep in reports)
        assert not bad, f"coefficients of other types: {bad[:5]}"
