import random
from fractions import Fraction

import pytest

from conftest import (OutOfTime, planted_gcd_cases, primitive_prs_gcd, random_point,
                      random_polynomial)
from liecontract.contract import ContractionWeights, contract
from liecontract.exterior import MultiVector
from liecontract.polyring import (Polynomial, _gcd_rec, _graded, _monomial_gcd, _pack,
                                  _pseudo_rem, _uni_degree, _uni_leading, multivariate_gcd,
                                  parse_polynomial, poly_compose, poly_div_exact, poly_monic,
                                  poly_rename, poly_to_str)

EHF = ["e", "h", "f"]


def var(n, i):
    return Polynomial.variable(n, i)


def t_expand(p, weights):
    """{weighted degree d: part of p}, the one-polynomial case of the grader."""
    return _graded(p.n, [p], weights)[0][0]


def sl2_casimir():
    # -h^2/2 - 2ef in the (e, h, f) coordinates
    return parse_polynomial("-1/2*h^2 - 2*e*f", EHF)


class TestArithmetic:
    def test_difference_of_squares(self):
        x1, x2 = var(2, 0), var(2, 1)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_add_zero_identity(self):
        p = parse_polynomial("3*e^2 - 1/3*f", EHF)
        assert p + Polynomial.zero(3) == p

    def test_casimir_minus_cartan_part(self):
        lhs = sl2_casimir() - parse_polynomial("-1/2*h^2", EHF)
        assert lhs == parse_polynomial("-2*e*f", EHF)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            var(2, 0) + var(3, 0)

    def test_power(self):
        p = var(2, 0) + var(2, 1)
        assert p ** 3 == p * p * p
        assert p ** 0 == Polynomial.const(2, 1)


class TestDerivative:
    def test_power_rule(self):
        assert sl2_casimir().diff(1) == parse_polynomial("-h", EHF)

    def test_linear_term(self):
        assert parse_polynomial("-2*e*f", EHF).diff(0) == parse_polynomial("-2*f", EHF)

    def test_absent_variable(self):
        assert parse_polynomial("h^2", EHF).diff(0).is_zero

    def test_mixed_partials_commute(self):
        rng = random.Random(101)
        for _ in range(40):
            p = random_polynomial(rng, 4, max_degree=4, max_terms=6)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert p.diff(i).diff(j) == p.diff(j).diff(i)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sl2_casimir().diff(3)


class TestEvaluate:
    def test_casimir_at_cartan_point(self):
        assert sl2_casimir().evaluate([0, 2, 0]) == -2

    def test_constant_term_at_origin(self):
        p = parse_polynomial("5 - 2*e*f + h", EHF)
        assert p.evaluate([0, 0, 0]) == 5

    def test_product_point(self):
        p = var(2, 0) * var(2, 1)
        assert p.evaluate([3, Fraction(1, 3)]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sl2_casimir().evaluate([1, 2])

    def test_evaluation_is_multiplicative(self):
        rng = random.Random(77)
        for _ in range(100):
            p = random_polynomial(rng, 3)
            q = random_polynomial(rng, 3)
            pt = random_point(rng, 3)
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


class TestGcd:
    def test_monomial_gcd(self):
        e, f = var(3, 0), var(3, 2)
        assert multivariate_gcd(2 * e * f, 2 * f) == f

    def test_factor_case(self):
        x1, x2 = var(2, 0), var(2, 1)
        assert multivariate_gcd(x1 * x1 - x2 * x2, x1 - x2) == x1 - x2

    def test_distinct_variables_coprime(self):
        # oracle: a nonconstant common divisor of -2e and -2f would be a
        # degree-1 monomial dividing both, and no variable divides both
        e, f = var(3, 0), var(3, 2)
        for v in range(3):
            divides_e = all(dict(m).get(v, 0) >= 1 for m in (-2 * e).as_dict())
            divides_f = all(dict(m).get(v, 0) >= 1 for m in (-2 * f).as_dict())
            assert not (divides_e and divides_f)
        assert multivariate_gcd(-2 * e, -2 * f) == Polynomial.const(3, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            multivariate_gcd(Polynomial.zero(2), Polynomial.zero(2))

    def test_no_nonzero_entry_rejected_and_zero_entries_skipped(self):
        x0 = var(2, 0)
        for polys in ((), (Polynomial.zero(2),), (Polynomial.zero(2), Polynomial.zero(2))):
            with pytest.raises(ValueError, match="gcd of zero polynomials is undefined"):
                multivariate_gcd(*polys)
        assert multivariate_gcd(Polynomial.zero(2), x0 ** 2) == x0 ** 2
        assert multivariate_gcd(3 * x0 ** 2, Polynomial.zero(2), 6 * x0) == x0
        with pytest.raises(ValueError, match="ring dimension mismatch"):
            multivariate_gcd(x0, Polynomial.zero(3))

    def test_division_and_coprimality_postconditions(self):
        rng = random.Random(90210)
        done = 0
        while done < 60:
            a = random_polynomial(rng, 3, max_degree=3, max_terms=4)
            b = random_polynomial(rng, 3, max_degree=3, max_terms=4)
            common = random_polynomial(rng, 3, max_degree=2, max_terms=2)
            if not common.is_zero:
                a, b = a * common, b * common
            if a.is_zero and b.is_zero:
                continue
            g = multivariate_gcd(a, b)
            qa = poly_div_exact(a, g) if not a.is_zero else a
            qb = poly_div_exact(b, g) if not b.is_zero else b
            assert (a.is_zero or qa * g == a) and (b.is_zero or qb * g == b)
            if not a.is_zero and not b.is_zero:
                assert multivariate_gcd(qa, qb) == Polynomial.const(3, 1)
            done += 1

    def test_gcd_monic_normalization(self):
        x1, x2 = var(2, 0), var(2, 1)
        g = multivariate_gcd(4 * x1 * x1 - 4 * x2 * x2, 6 * x1 + 6 * x2)
        assert g == x1 + x2

    def test_gcd_of_many_folds_the_pairwise_gcd(self):
        rng = random.Random(4711)
        for _ in range(40):
            common = random_polynomial(rng, 3, max_degree=2, max_terms=2)
            polys = [random_polynomial(rng, 3, max_degree=2, max_terms=3) * common
                     for _ in range(rng.randint(1, 4))]
            if any(p.is_zero for p in polys):
                continue
            want = poly_monic(polys[0])
            for p in polys[1:]:
                want = multivariate_gcd(want, p)
            got = multivariate_gcd(*polys)
            assert got == (Polynomial.const(3, 1) if want.is_constant else want)

    def test_gcd_of_many_is_one_once_constant(self):
        x1, x2 = var(2, 0), var(2, 1)
        assert multivariate_gcd(3 * x1 * x2, 2 * x1, Polynomial.const(2, 5)) == \
            Polynomial.const(2, 1)
        assert multivariate_gcd(-2 * x1 * x2 + 4 * x1) == x1 * x2 - 2 * x1

    def test_one_gcd_matches_the_two_it_replaced(self):
        """multivariate_gcd(*polys) against the replaced pair: the two-argument
        gcd (poly_monic of _gcd_rec, zero entries allowed) on seeded pairs, and
        the gcd of many (smallest first, 1 once constant) on nonzero lists."""
        def two_argument(a, b):
            if a.is_zero and b.is_zero:
                raise ValueError("gcd of two zero polynomials is undefined")
            if a.is_zero or b.is_zero:
                return poly_monic(b if a.is_zero else a)
            return poly_monic(_gcd_rec(a, b))

        def of_many(polys):
            g = None
            for c in sorted(polys, key=lambda p: len(p.terms)):
                g = c if g is None else _gcd_rec(g, c)
                if g.is_constant:
                    return Polynomial.const(c.n, 1)
            return poly_monic(g)

        rng = random.Random(2727)
        pairs = lists = 0
        while pairs < 80 or lists < 40:
            common = random_polynomial(rng, 3, max_degree=2, max_terms=2)
            polys = [random_polynomial(rng, 3, max_degree=2, max_terms=3) * common
                     for _ in range(rng.randint(1, 4))]
            if len(polys) == 2 and any(polys):
                assert multivariate_gcd(*polys) == two_argument(*polys)
                pairs += 1
            if all(polys):
                assert multivariate_gcd(*polys) == of_many(polys)
                lists += 1


    def test_monomial_gcd_packs_the_fieldwise_minimum(self):
        # against _pack of each variable's least exponent, on seeded keys in
        # 1 to 6 variables; every third list has a key of exponent 0 in
        # every field, and exponents reach the field's top
        rng = random.Random(3939)
        for t in range(200):
            n = rng.randint(1, 6)
            monos = [[(v, rng.choice((0, 1, 2, 3, 65535))) for v in range(n)]
                     for _ in range(rng.randint(1, 5))]
            if t % 3 == 0:
                monos.append([(v, 0) for v in range(n)])
            keys = [_pack(n, m) for m in monos]
            least = [min(dict(m)[v] for m in monos) for v in range(n)]
            assert _monomial_gcd(keys, n) == _pack(n, enumerate(least))

    def test_pseudo_rem_is_the_true_pseudo_remainder(self):
        # lc(g)^(delta + 1) f - r is a multiple of g and deg r < deg g in x_v.
        # x^3 by y x^2 + 1 takes one step to -x, so one more lc factor is due
        x, y = var(2, 0), var(2, 1)
        assert _pseudo_rem(x ** 3, y * x * x + Polynomial.const(2, 1), 0) == -x * y
        rng = random.Random(4040)
        done = 0
        while done < 80:
            f, g = (random_polynomial(rng, 3, max_degree=4, max_terms=4) for _ in range(2))
            v = rng.randrange(3)
            df, dg = _uni_degree(f, v), _uni_degree(g, v)
            if f.is_zero or g.is_zero or df < dg or dg == 0:
                continue
            r = _pseudo_rem(f, g, v)
            lead = _uni_leading(g, v, dg) ** (df - dg + 1)
            assert r.is_zero or _uni_degree(r, v) < dg
            assert poly_div_exact(lead * f - r, g) * g == lead * f - r
            done += 1

    def test_gcd_where_the_remainder_degrees_skip(self):
        # a = x^5 c + lower, b = x^3 c' + lower in the main variable x: the
        # PRS drops the degree by two, so the scale h of the subresultant
        # divisions is a power of a leading coefficient; each division is
        # exact or poly_div_exact raises, and g divides the gcd
        rng = random.Random(4141)
        n = 3
        x = var(n, n - 1)
        for _ in range(300):
            g = random_polynomial(rng, n, max_degree=2, max_terms=3)
            a = (x ** 5 * random_polynomial(rng, n, max_degree=1, max_terms=2)
                 + random_polynomial(rng, n, max_degree=2, max_terms=3))
            b = (x ** 3 * random_polynomial(rng, n, max_degree=1, max_terms=2)
                 + random_polynomial(rng, n, max_degree=1, max_terms=2))
            if a and b and g:
                got = multivariate_gcd(a * g, b * g)
                poly_div_exact(got, poly_monic(g))
                assert multivariate_gcd(poly_div_exact(a * g, got),
                                        poly_div_exact(b * g, got)) == Polynomial.const(n, 1)

    def test_gcd_matches_the_primitive_prs_where_it_finishes(self):
        """multivariate_gcd against the primitive PRS it replaced (conftest's
        copy), on the planted-factor cases in 4 to 15 variables and on
        seeded pairs in 3, wherever the copy finishes within 2 s."""
        rng = random.Random(5151)
        cases = list(planted_gcd_cases())
        while len(cases) < 80:
            common = random_polynomial(rng, 3, max_degree=2, max_terms=3)
            a, b = (random_polynomial(rng, 3, max_degree=3, max_terms=4) * common
                    for _ in range(2))
            if a and b:
                cases.append((a, b))
        compared = 0
        for a, b in cases:
            try:
                want = primitive_prs_gcd(a, b, seconds=2.0)
            except OutOfTime:
                continue
            assert multivariate_gcd(a, b) == want
            compared += 1
        assert compared


class TestExactDivision:
    def test_not_divisible_raises(self):
        x1, x2 = var(2, 0), var(2, 1)
        with pytest.raises(ValueError):
            poly_div_exact(x1 * x1 + x2, x1 + x2)

    def test_quotient(self):
        x1, x2 = var(2, 0), var(2, 1)
        assert poly_div_exact(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2


class TestTExpansion:
    def test_split_weights_decomposition(self):
        te = t_expand(sl2_casimir(), [1, 0, 1])
        assert (max(te), te[max(te)]) == (2, parse_polynomial("-2*e*f", EHF))
        assert te[0] == parse_polynomial("-1/2*h^2", EHF)
        assert set(te) == {0, 2}

    def test_weight_zero_variable(self):
        te = t_expand(parse_polynomial("h", EHF), [2, 0, 5])
        assert set(te) == {0}
        assert te[0] == parse_polynomial("h", EHF)

    def test_borel_weights_decomposition(self):
        # oracle: substitute f -> t*f by hand and collect
        te = t_expand(sl2_casimir(), [0, 0, 1])
        assert (max(te), te[max(te)]) == (1, parse_polynomial("-2*e*f", EHF))
        assert te[0] == parse_polynomial("-1/2*h^2", EHF)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            t_expand(sl2_casimir(), [-1, 0, 0])

    def test_recovers_at_one_and_top_nonzero(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_polynomial(rng, 3, allow_zero=False)
            if p.is_zero:
                continue
            w = [rng.randint(0, 3) for _ in range(3)]
            te = t_expand(p, w)
            assert sum(te.values(), Polynomial.zero(3)) == p
            assert not te[max(te)].is_zero

    def test_internal_substitution_allows_negative(self):
        # a contraction puts the degree-d part at t^{w_i + w_j - d}, which may
        # be negative: here 0 + 0 - 1 at the pair (h, f)
        pi = MultiVector(3, 2, {(1, 2): parse_polynomial("e*f", EHF)})
        res = contract(pi, ContractionWeights((1, 0, 0)))
        assert not res.valid
        assert min(res.pi_t) == -1
        assert res.offending == ((1, 2), -1)


class TestTextGrammar:
    def test_canonical_order(self):
        p = parse_polynomial("1/2*h^2 - 2*e*f", EHF)
        assert poly_to_str(p, EHF) == "-2*e*f + 1/2*h^2"

    def test_round_trip(self):
        rng = random.Random(12)
        names = ["a", "b2", "c_3"]
        for _ in range(50):
            p = random_polynomial(rng, 3)
            assert parse_polynomial(poly_to_str(p, names), names) == p

    def test_unit_coefficients(self):
        p = parse_polynomial("e - f", EHF)
        assert poly_to_str(p, EHF) == "e - f"

    def test_zero(self):
        assert poly_to_str(Polynomial.zero(3), EHF) == "0"
        assert parse_polynomial("0", EHF).is_zero

    def test_bad_variable(self):
        with pytest.raises(ValueError):
            parse_polynomial("e + q", EHF)

    def test_missing_star(self):
        with pytest.raises(ValueError):
            parse_polynomial("2e", EHF)

    # a '*' must sit between two factors; each of these used to parse, as
    # 6*e, 2*e, e, e + f and e*f
    @pytest.mark.parametrize("text", ["2**3*e", "e**2", "*e", "e+*f", "e* *f"])
    def test_star_that_follows_no_factor(self, text):
        with pytest.raises(ValueError, match=r"^'\*' must follow a factor$"):
            parse_polynomial(text, EHF)

    # a '^' must follow a variable; these used to ask for a '*' before it, or
    # name '^' as an unknown variable
    @pytest.mark.parametrize("text", ["2^3*e", "e^2^3", "^e", "e*^2"])
    def test_caret_that_follows_no_variable(self, text):
        with pytest.raises(ValueError, match=r"^'\^' must follow a variable$"):
            parse_polynomial(text, EHF)


class TestComposeRename:
    def test_compose(self):
        P = Polynomial(1, [(((0, 2),), Fraction(3))])  # 3*y^2
        ef = parse_polynomial("e*f", EHF)
        assert poly_compose(P, [ef]) == 3 * ef * ef

    def test_rename_drops_variable(self):
        p = parse_polynomial("e*f", EHF)
        q = poly_rename(p, {0: 0, 2: 1}, 2)
        assert q == var(2, 0) * var(2, 1)
        with pytest.raises(ValueError):
            poly_rename(parse_polynomial("h", EHF), {0: 0, 2: 1}, 2)

    def test_monic(self):
        p = parse_polynomial("-2*e*f + h", EHF)
        assert poly_monic(p) == parse_polynomial("e*f - 1/2*h", EHF)


class TestEncodingLimits:
    def test_largest_exponent_accepted(self):
        x = var(2, 0)
        p = x ** 65535
        assert p.degree() == 65535 and p.as_dict() == {((0, 65535),): 1}
        assert poly_div_exact(p, x) == x ** 65534

    def test_exponent_overflow_raises(self):
        x, y = var(2, 0), var(2, 1)
        with pytest.raises(ValueError):
            x ** 65535 * x
        with pytest.raises(ValueError):
            (x * y) ** 65536
        with pytest.raises(ValueError):     # refused before 10^9 term products
            (x + y) ** 65536
        with pytest.raises(ValueError):
            Polynomial(2, {((0, 65536),): 1})
        with pytest.raises(ValueError, match="exceeds 65535"):
            parse_polynomial("h^70000", EHF)

    def test_total_degree_beyond_field_width(self):
        # only single exponents are bounded; the degree field is not
        x, y = var(2, 0), var(2, 1)
        big = x ** 40000 * y ** 40000
        assert big.degree() == 80000
        assert poly_div_exact(big * (x + y), x + y) == big

    def test_constructor_rejects_monomials_outside_the_ring(self):
        for mono in (((3, 1),), ((-1, 1),), ((0, -1),), ((0, 1.5),)):
            with pytest.raises(ValueError):
                Polynomial(3, {mono: 1})

    def test_constructor_canonicalises_public_monomials(self):
        p = Polynomial(3, {((2, 1), (0, 2), (1, 0)): 1, ((0, 1), (2, 1), (0, 1)): 2})
        assert p.as_dict() == {((0, 2), (2, 1)): 3}


class TestCoefficientTypes:
    def test_values_returned_as_fractions(self):
        p = parse_polynomial("2*e*f + 3", EHF)
        assert type(Polynomial.const(3, 4).constant_value()) is Fraction
        assert type(p.leading()[1]) is Fraction
        assert type(p.evaluate([1, 1, 1])) is Fraction

    def test_int_when_integral_fraction_otherwise(self):
        p = parse_polynomial("2*e*f + 3", EHF)
        for q in (p, poly_monic(p), p * Fraction(1, 2) * 2, p - p * Fraction(1, 3),
                  poly_div_exact(p * p, p), poly_div_exact(p, 2 * p),
                  poly_div_exact(p, Polynomial.const(3, 4)), Polynomial(3, {((0, 1),): 2.5})):
            for c in q.terms.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
