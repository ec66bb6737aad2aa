import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import bivector_matrix, random_polynomial, volume_dual
from liecontract.exterior import (Form, MultiVector, _scaled_matrix_at, differential, pfaffian,
                                  schouten_square, wedge, wedge_power)
from liecontract.invariants import semi_invariant_weight
from liecontract.linalg import rational_rank
from liecontract.polyring import Polynomial, parse_polynomial

EHF = ["e", "h", "f"]


def sl2_pi():
    n = 3
    return MultiVector(n, 2, {
        (0, 1): parse_polynomial("-2*e", EHF),
        (0, 2): parse_polynomial("h", EHF),
        (1, 2): parse_polynomial("-2*f", EHF),
    })


def one_form(n, coeffs):
    return Form(n, 1, {(i,): p for i, p in coeffs.items() if not p.is_zero})


def random_bivector(rng, n, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        p = random_polynomial(rng, n, max_degree=2, max_terms=3, allow_zero=False)
        if not p.is_zero:
            terms[(i, j)] = terms.get((i, j), Polynomial.zero(n)) + p
    return MultiVector(n, 2, terms)


def rational_det(matrix) -> Fraction:
    """Determinant over Q by Gaussian elimination: the Pf^2 = det reference."""
    m = len(matrix)
    rows = [list(map(Fraction, r)) for r in matrix]
    det = Fraction(1)
    for col in range(m):
        sel = None
        for r in range(col, m):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            return Fraction(0)
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, m):
            if rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


class TestWedge:
    def test_basis_forms(self):
        n = 3
        dx1 = one_form(n, {0: Polynomial.const(n, 1)})
        dx2 = one_form(n, {1: Polynomial.const(n, 1)})
        w = wedge(dx1, dx2)
        assert w.terms == {(0, 1): Polynomial.const(n, 1)}

    def test_square_is_zero(self):
        n = 3
        dx1 = one_form(n, {0: Polynomial.const(n, 1)})
        assert wedge(dx1, dx1).is_zero

    def test_hand_expansion(self):
        # (-2f de - 2e df) ^ (-h dh) = 2fh de^dh - 2eh dh^df
        n = 3
        a = one_form(n, {0: parse_polynomial("-2*f", EHF),
                         2: parse_polynomial("-2*e", EHF)})
        b = one_form(n, {1: parse_polynomial("-h", EHF)})
        w = wedge(a, b)
        assert w.coefficient((0, 1)) == parse_polynomial("2*f*h", EHF)
        assert w.coefficient((1, 2)) == parse_polynomial("-2*e*h", EHF)

    def test_kind_mismatch(self):
        n = 3
        dx = one_form(n, {0: Polynomial.const(n, 1)})
        dv = MultiVector(n, 1, {(0,): Polynomial.const(n, 1)})
        with pytest.raises(TypeError):
            wedge(dx, dv)

    def test_degree_overflow(self):
        n = 2
        a = MultiVector(n, 1, {(0,): Polynomial.const(n, 1)})
        b = MultiVector(n, 2, {(0, 1): Polynomial.const(n, 1)})
        with pytest.raises(ValueError):
            wedge(a, b)

    def test_associative_and_graded_commutative(self):
        rng = random.Random(31)
        n = 5
        for _ in range(15):
            degs = [rng.randint(1, 2) for _ in range(3)]
            elts = []
            for k in degs:
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    idx = tuple(sorted(rng.sample(range(n), k)))
                    p = random_polynomial(rng, n, max_degree=1, max_terms=2,
                                          allow_zero=False)
                    if not p.is_zero:
                        terms[idx] = terms.get(idx, Polynomial.zero(n)) + p
                elts.append(MultiVector(n, k, terms))
            a, b, c = elts
            if a.degree + b.degree + c.degree <= n:
                assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            if a.degree + b.degree <= n:
                sign = (-1) ** (a.degree * b.degree)
                assert wedge(a, b) == wedge(b, a).scale(sign)


class TestWedgePower:
    def test_power_one(self):
        pi = sl2_pi()
        assert wedge_power(pi, 1) == pi

    def test_disjoint_supports(self):
        n = 4
        a = Polynomial.variable(n, 0)
        b = Polynomial.variable(n, 1)
        pi = MultiVector(n, 2, {(0, 1): a, (2, 3): b})
        sq = wedge_power(pi, 2)
        assert sq.terms == {(0, 1, 2, 3): 2 * a * b}

    def test_too_large(self):
        with pytest.raises(ValueError):
            wedge_power(sl2_pi(), 2)

    def test_power_zero_is_unit(self):
        u = wedge_power(sl2_pi(), 0)
        assert u.degree == 0 and u.coefficient(()) == Polynomial.const(3, 1)


class TestVolumeDual:
    def test_volume_form_to_unit(self):
        n = 4
        omega = Form(n, n, {tuple(range(n)): Polynomial.const(n, 1)})
        d = volume_dual(omega)
        assert d.degree == 0 and d.coefficient(()) == Polynomial.const(n, 1)

    def test_sl2_regularity_instance(self):
        # dF/omega recovers the Lie-Poisson bivector for the normalized Casimir
        F = parse_polynomial("-1/2*h^2 - 2*e*f", EHF)
        assert volume_dual(differential(F)) == sl2_pi()

    def test_two_dim_sign(self):
        n = 2
        d = volume_dual(one_form(n, {0: Polynomial.const(n, 1)}))
        assert d.terms == {(1,): Polynomial.const(n, 1)}

    def test_defining_pairing_property(self):
        # D_J = sign * F_{complement of J} checked against (F ^ dx_J) / omega
        rng = random.Random(47)
        for n in (2, 3, 4):
            for k in range(n + 1):
                terms = {}
                for idx in itertools.combinations(range(n), k):
                    p = random_polynomial(rng, n, max_degree=1, max_terms=2)
                    if not p.is_zero:
                        terms[idx] = p
                F = Form(n, k, terms)
                D = volume_dual(F)
                for J in itertools.combinations(range(n), n - k):
                    dxJ = Form(n, n - k, {J: Polynomial.const(n, 1)})
                    prod = wedge(F, dxJ)
                    c = prod.coefficient(tuple(range(n)))
                    assert D.coefficient(J) == c


class TestSchouten:
    def test_sl2_poisson(self):
        assert schouten_square(sl2_pi()).is_zero

    def test_contraction_limit_poisson(self):
        tilde = MultiVector(3, 2, {(0, 1): parse_polynomial("-2*e", EHF),
                                   (1, 2): parse_polynomial("-2*f", EHF)})
        assert schouten_square(tilde).is_zero

    def test_non_jacobi_table(self):
        # [x1,x2]=x3, [x2,x3]=x1, [x1,x3]=x1; the triple bracket expansion
        # leaves [[x3,x1],x2] = -x3
        n = 3
        x = [Polynomial.variable(n, i) for i in range(n)]
        pi = MultiVector(n, 2, {(0, 1): x[2], (1, 2): x[0], (0, 2): x[0]})
        sq = schouten_square(pi)
        assert not sq.is_zero
        assert sq.coefficient((0, 1, 2)) == -x[2]


class TestPfaffian:
    def test_two_by_two(self):
        n = 1
        a = Polynomial.variable(n, 0)
        M = [[Polynomial.zero(n), a], [-a, Polynomial.zero(n)]]
        assert pfaffian(M) == a

    def test_int_zeros_with_polynomial_entries(self):
        # polynomial mode comes from any entry, not from matrix[0][0]
        x = Polynomial.variable(1, 0)
        assert pfaffian([[0, x], [-x, 0]]) == x

    def test_four_by_four_expansion(self):
        n = 6
        names = [f"a{i}{j}" for i, j in itertools.combinations(range(1, 5), 2)]
        v = {pair: Polynomial.variable(n, k)
             for k, pair in enumerate(itertools.combinations(range(4), 2))}
        M = [[Polynomial.zero(n)] * 4 for _ in range(4)]
        for (i, j), p in v.items():
            M[i][j] = p
            M[j][i] = -p
        expected = (v[(0, 1)] * v[(2, 3)] - v[(0, 2)] * v[(1, 3)]
                    + v[(0, 3)] * v[(1, 2)])
        assert pfaffian(M) == expected
        assert names[0] == "a12"

    def test_square_is_determinant(self):
        rng = random.Random(2024)
        for _ in range(5):
            M = [[Fraction(0)] * 6 for _ in range(6)]
            for i in range(6):
                for j in range(i + 1, 6):
                    M[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    M[j][i] = -M[i][j]
            pf = pfaffian(M)
            assert pf * pf == rational_det(M)

    def test_not_antisymmetric(self):
        M = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        with pytest.raises(ValueError):
            pfaffian(M)


class TestWedgePfaffianDuality:
    def assert_duality(self, pi):
        n = pi.n
        mat = bivector_matrix(pi)
        for k in range(1, n // 2 + 1):
            power = wedge_power(pi, k)
            for idx in itertools.combinations(range(n), 2 * k):
                sub = [[mat[i][j] for j in idx] for i in idx]
                assert power.coefficient(idx) == math.factorial(k) * pfaffian(sub)

    def test_sl2(self):
        self.assert_duality(sl2_pi())

    def test_random_small(self):
        rng = random.Random(8)
        for n in (4, 5, 6):
            for _ in range(3):
                self.assert_duality(random_bivector(rng, n))


class TestWedgePowerRank:
    def test_vanishing_matches_sampled_and_symbolic_rank(self):
        # a zero wedge power forces rank below 2k everywhere; a nonzero one
        # shows up in the symbolic Pfaffian minors
        rng = random.Random(66)
        cases = [sl2_pi()]
        for n in (4, 5, 6):
            cases.append(random_bivector(rng, n, max_terms=2))
        for pi in cases:
            n = pi.n
            mat = bivector_matrix(pi)
            for k in range(1, n // 2 + 1):
                power = wedge_power(pi, k)
                sampled = 0
                for _ in range(50):
                    pt = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(n)]
                    sampled = max(sampled, rational_rank(_scaled_matrix_at(pi, pt)[0]))
                if power.is_zero:
                    assert sampled < 2 * k
                    # symbolic rank below 2k: every 2k-Pfaffian minor vanishes
                    for idx in itertools.combinations(range(n), 2 * k):
                        sub = [[mat[i][j] for j in idx] for i in idx]
                        assert pfaffian(sub).is_zero
                else:
                    some = any(not pfaffian([[mat[i][j] for j in idx] for i in idx]).is_zero
                               for idx in itertools.combinations(range(n), 2 * k))
                    assert some


class TestBivectorMatrix:
    """pi's matrix at a point, as the int matrix point_ranks reduces."""

    def test_zero_point(self):
        M, _ = _scaled_matrix_at(sl2_pi(), [0, 0, 0])
        assert all(x == 0 for row in M for x in row)

    def test_rank_at_point(self):
        M, scale = _scaled_matrix_at(sl2_pi(), [1, 0, 0])
        assert scale == 1
        assert M[0][1] == -2 and M[0][2] == 0 and M[1][2] == 0
        assert rational_rank(M) == 2

    def test_antisymmetric(self):
        rng = random.Random(3)
        pi = random_bivector(rng, 4)
        M, _ = _scaled_matrix_at(pi, [1, 2, 3, 4])
        for i in range(4):
            for j in range(4):
                assert M[i][j] == -M[j][i]


def test_bracket_with_coordinate():
    """{x_j, h} read through semi_invariant_weight: the Casimir brackets to
    zero with every coordinate, and {h, e} = 2e gives e the weight 2 at h
    once {f, e} = -h is dropped."""
    pi = sl2_pi()
    F = parse_polynomial("-1/2*h^2 - 2*e*f", EHF)
    assert semi_invariant_weight(F, pi) == [0, 0, 0]
    e = parse_polynomial("e", EHF)
    assert semi_invariant_weight(e, pi) is None
    borel = MultiVector(3, 2, {(0, 1): pi.coefficient((0, 1))})
    assert semi_invariant_weight(e, borel) == [0, 2, 0]
