"""The one regularity routine against the wedge-chain paths it replaced.

analysis.regularity proves the index of a bivector from known Casimirs at a
seeded point and decides the regularity equality dF_1^...^dF_l / omega ==
wedge^k pi, and the certificate q1 * A = q2 * B, from one coefficient pair
(A_I, B_I).  The references are in-test copies of what kostant_check,
contr_deg_report, feigin_suite and z2_suite did before: the index read off
the top wedge power and the full comparison of conftest's volume_dual(form)
with wedge^k pi, and feigin's fundamental semi-invariant and semicentre clauses
built from the wedge powers of the limit and of g'.  Every read of a report
(equal, and the certificate's q's or its error) is also compared with the
full sides and conftest's reference proportionality, with the seeded points
and without them, where the report falls back to one pair at generic_rank's I.
"""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import (cached_builtin, cached_wedge_power, case, proportionality,
                      random_polynomial, schouten_square_spy, subalgebra_on_indices,
                      volume_dual)

from liecontract import analysis, builders, exterior, invariants, polyring
from liecontract.analysis import (Clause, ContrDegReport, FundamentalSemiInvariant,
                                  SuiteReport, _content, _coprime_ratio, _form_of_differentials,
                                  contr_deg_report, feigin_suite, fundamental_semiinvariant,
                                  kostant_check, regularity, z2_suite)
from liecontract.builders import (BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS,
                                  borel_decomposition, builtin_algebra)
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.exterior import (MultiVector, point_ranks, wedge_power,
                                  wedge_power_coefficient)
from liecontract.invariants import char_invariants, t_degree_reduction
from liecontract.lie import algebra_from_text, algebra_index, lie_poisson_bivector
from liecontract.polyring import (Polynomial, multivariate_gcd, parse_polynomial,
                                  poly_div_exact, poly_rename, poly_to_str)

PARENTS = list(BUILTIN_ALGEBRAS) + [f"{pid}/parent" for pid in Z2_PAIRS]
LIMITS = [f"{name}/borel" for name in BUILTIN_ALGEBRAS] + [f"{pid}/z2" for pid in Z2_PAIRS]


def chain_index(pi):
    """The index of pi read off its top wedge power."""
    return pi.n - 2 * pi.top_power[0]


def spy_wedge_powers(monkeypatch):
    """The list of bivectors whose top power is read or of which a wedge
    power takes a step wedge(., pi), filled as the code under test runs."""
    seen = []
    top_power = MultiVector.top_power
    wedge = exterior.wedge

    def read(self):
        seen.append(self)
        return top_power.fget(self)

    def step(a, b):
        if type(b) is MultiVector and b.degree == 2:
            seen.append(b)
        return wedge(a, b)

    monkeypatch.setattr(MultiVector, "top_power", property(read))
    monkeypatch.setattr(exterior, "wedge", step)
    return seen


def spy_point_ranks(monkeypatch):
    """The list of bivectors regularity evaluates at the seeded points, by
    _pivot_point or by generic_rank."""
    evaluated = []
    real = exterior.point_ranks
    for module in (exterior, invariants):
        monkeypatch.setattr(module, "point_ranks", lambda pi: evaluated.append(pi) or real(pi))
    return evaluated


def full_comparison(pi, casimirs):
    """The replaced verdict: both sides of the equality built in full."""
    b = cached_wedge_power(pi, (pi.n - len(casimirs)) // 2)
    return not b.is_zero and volume_dual(_form_of_differentials(casimirs, pi.n)) == b


def reference_proportionality(a, b):
    """The replaced proportionality, with its own gcd normalisation:
    (proportional, q1, q2) with coprime q1 * a = q2 * b."""
    if set(a.terms) != set(b.terms):
        return False, None, None
    base = min(a.terms)
    g = multivariate_gcd(a.terms[base], b.terms[base])
    q2, q1 = poly_div_exact(a.terms[base], g), poly_div_exact(b.terms[base], g)
    if any(a.terms[idx] * q1 != q2 * b.terms[idx] for idx in a.terms):
        return False, None, None
    _, lead = q1.leading()
    return True, q1 * (1 / lead), q2 * (1 / lead)


def chain_kostant_check(gens, pi, ell):
    """The replaced kostant_check: (index, is_kostant_type, q1, q2) from the
    index off the top power and the full sides."""
    index = chain_index(pi)
    if len(gens) != ell or ell != index:
        raise ValueError("need exactly index-many generators")
    form = _form_of_differentials(gens, pi.n)
    if form.is_zero:
        raise ValueError("generators are algebraically dependent")
    proportional, q1, q2 = reference_proportionality(
        volume_dual(form), cached_wedge_power(pi, (pi.n - ell) // 2))
    constant = proportional and q1.is_constant and q2.is_constant
    return index, constant, q1, q2


def kostant_tuple(rep):
    cert = rep.certificate
    return rep.index, rep.is_kostant_type, cert.q1, cert.q2


@pytest.mark.parametrize("key", PARENTS + LIMITS)
def test_certified_index_equals_the_chain_index(key):
    pi, casimirs = case(key)
    rep = regularity(pi, casimirs)
    assert rep.pivots is not None and rep.independent
    assert rep.index == len(casimirs) == chain_index(pi)


@pytest.mark.parametrize("key", LIMITS)
def test_one_coefficient_verdict_equals_the_full_comparison(key):
    pi, tops = case(key)
    rep = regularity(pi, tops)
    assert rep.pivots is not None
    assert not _form_of_differentials(tops, pi.n).is_zero
    assert rep.equal == full_comparison(pi, tops)
    # a rescaled top breaks the equality, and one coefficient sees it
    doubled = (tops[0] * 2,) + tops[1:]
    rep = regularity(pi, doubled)
    assert rep.pivots is not None and rep.equal is False
    assert full_comparison(pi, doubled) is False


@pytest.mark.parametrize("key", ["sl3", "sp4_sp2sp2/z2"])
def test_certificate_refuses_a_non_casimir_and_too_few(key):
    pi, casimirs = case(key)
    x0 = Polynomial.variable(pi.n, 0)
    for offered in (casimirs[:-1] + (x0,), casimirs[:-1]):
        rep = regularity(pi, offered)
        assert rep.pivots is None and rep.index == len(casimirs)


def test_each_check_is_needed_where_every_seeded_point_is_singular():
    # pi = p(x0) d1^d2 with p vanishing at the x0 of every seeded point: the
    # point rank 0 says only index <= 3, while the true index is 1
    n = 3
    x = [Polynomial.variable(n, i) for i in range(n)]
    p = Polynomial.const(n, 1)
    for _, _, point in point_ranks(MultiVector(n, 2)):
        p = p * (x[0] - Polynomial.const(n, point[0]))
    pi = MultiVector(n, 2, {(1, 2): p})
    assert chain_index(pi) == 1
    # independent, but x1 and x2 are not Casimirs: the Casimir check refuses
    rep = regularity(pi, x)
    assert rep.pivots is None and rep.index == 1
    # Casimirs, but dependent: the Jacobian rank refuses
    rep = regularity(pi, [x[0], x[0] ** 2, x[0] ** 3])
    assert rep.pivots is None and rep.index == 1 and not rep.independent


def test_an_index_set_with_vanishing_pfaffian_is_refused(monkeypatch):
    pi, tops = case("sl3/borel")
    ell = len(tops)
    point = next(point_ranks(pi))[2]
    bad = next(idx for idx in itertools.combinations(range(pi.n), pi.n - ell)
               if wedge_power_coefficient(pi, idx).is_zero)
    monkeypatch.setattr(analysis, "_pivot_point", lambda *_: (bad, point))
    # A = 2B is not B, yet A_I = 2 B_I = 0 = B_I at this I: the point proof
    # reads A_I(x0) = 0 and does not close, and generic_rank decides
    doubled = (tops[0] * 2,) + tops[1:]
    rep = regularity(pi, doubled)
    assert rep.pivots is None and rep.index == ell
    assert rep.equal is False and full_comparison(pi, doubled) is False
    q2 = Polynomial.const(pi.n, 2)
    assert kostant_tuple(rep) == (ell, True, Polynomial.const(pi.n, 1), q2)


@pytest.mark.parametrize("pid", ["sp4_sp2sp2", "so4_gl2"])
def test_chain_fallback_gives_the_same_report(pid, monkeypatch):
    want = z2_suite(pid).as_dict()
    monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    seen = spy_wedge_powers(monkeypatch)
    assert z2_suite(pid).as_dict() == want
    # the fallback decides from one pair (A_I, B_I) at generic_rank's I
    assert seen == []


def test_z2_suite_builds_no_chain_on_the_parent_or_the_limit(monkeypatch):
    seen = spy_wedge_powers(monkeypatch)
    rep = z2_suite("sl4_sp4")
    assert rep.ok
    # the centraliser l's index is its generic rank: no top power at all
    assert seen == []


# ---------------------------------------------------------------------------
# kostant_check against the chain path it replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", list(BUILTIN_ALGEBRAS) + LIMITS)
def test_kostant_check_equals_the_chain_path(key):
    pi, casimirs = case(key)
    rep = kostant_check(casimirs, pi, len(casimirs))
    assert rep.pivots is not None
    assert kostant_tuple(rep) == chain_kostant_check(casimirs, pi, len(casimirs))


@pytest.mark.parametrize("key", ["sp4/borel", "sl4_sp4/z2"])
def test_kostant_check_on_a_doubled_top_equals_the_chain_path(key):
    pi, tops = case(key)
    doubled = (tops[0] * 2,) + tops[1:]
    rep = kostant_check(doubled, pi, len(tops))
    assert rep.pivots is not None
    got = kostant_tuple(rep)
    assert got == chain_kostant_check(doubled, pi, len(tops))
    _, _, q1, q2 = got
    a = volume_dual(_form_of_differentials(doubled, pi.n))
    assert a.scale(q1) == cached_wedge_power(pi, (pi.n - len(tops)) // 2).scale(q2)


def test_kostant_check_on_a_non_casimir_set_is_not_proportional(monkeypatch):
    pi, casimirs = case("sl3")
    offered = casimirs[:-1] + (Polynomial.variable(pi.n, 0),)
    want = chain_kostant_check(offered, pi, len(offered))
    seen = spy_wedge_powers(monkeypatch)
    rep = kostant_check(offered, pi, len(offered))
    assert rep.pivots is None
    assert kostant_tuple(rep) == want
    assert not rep.certificate.proportional
    # the failed Casimir check decides it: no wedge power of pi is read
    assert seen == []


FROBENIUS = "name: frob\nlabels: a b\nbracket: 0 1 1 1\n"


@pytest.mark.parametrize("path", ["certificate", "chain"])
def test_index_zero_compares_the_unit_form(path, monkeypatch):
    # [a, b] = b has index 0: A is the volume dual of the unit 0-form, B = pi
    L = algebra_from_text(FROBENIUS)[0]
    pi = lie_poisson_bivector(L)
    if path == "chain":
        monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    rep = kostant_check([], pi, 0)
    assert (rep.pivots is None) == (path == "chain")
    b, one = parse_polynomial("b", L.labels), Polynomial.const(2, 1)
    assert kostant_tuple(rep) == (0, False, b, one) == chain_kostant_check([], pi, 0)
    assert rep.independent and not rep.equal


@pytest.mark.parametrize("name", ["sl4", "so6"])
def test_kostant_check_builds_no_wedge_chain(name, monkeypatch):
    L = builtin_algebra(name)          # a fresh algebra: no top power memoised yet
    gens = char_invariants(L)
    started = spy_wedge_powers(monkeypatch)
    rep = kostant_check(gens, lie_poisson_bivector(L), len(gens))
    assert rep.is_kostant_type and rep.certificate.q1 == Polynomial.const(L.n, 1)
    assert started == []


def gcd_ratio(a, b):
    """The replaced _coprime_ratio: the gcd path for every pair."""
    g = multivariate_gcd(a, b)
    q1, q2 = poly_div_exact(b, g), poly_div_exact(a, g)
    _, lead = q1.leading()
    return q1 * (1 / lead), q2 * (1 / lead)


def typed_terms(p):
    return sorted((m, type(c), c) for m, c in p.terms.items())


def test_the_ratio_without_the_gcd_equals_the_gcd_path():
    """(q1, q2) from a constant ratio read off the leading coefficients,
    against the gcd path, on every (A_I, B_I) pair of the parents and limits
    and on seeded pairs, half of them a number times the other."""
    pairs = [rep._minor for key in PARENTS + LIMITS if (rep := regularity(*case(key)))._minor]
    rng = random.Random(3131)
    while len(pairs) < 120:
        common = random_polynomial(rng, 3, max_degree=2, max_terms=2)
        b = random_polynomial(rng, 3, max_degree=3, max_terms=4) * common
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        a = b * c if rng.random() < 0.5 else random_polynomial(rng, 3, max_terms=4) * common
        if a and b:
            pairs.append((a, b))
    for a, b in pairs:
        got, want = _coprime_ratio(a, b), gcd_ratio(a, b)
        assert [typed_terms(q) for q in got] == [typed_terms(q) for q in want]


def spy_ratio_gcd(monkeypatch):
    """[inside] per call of the PRS gcd, polyring._gcd_rec: whether it ran
    under analysis._coprime_ratio."""
    calls, depth = [], []
    real_gcd, real_ratio = polyring._gcd_rec, analysis._coprime_ratio

    def gcd(a, b):
        calls.append(bool(depth))
        return real_gcd(a, b)

    def ratio(a, b):
        depth.append(1)
        try:
            return real_ratio(a, b)
        finally:
            depth.pop()

    monkeypatch.setattr(polyring, "_gcd_rec", gcd)
    monkeypatch.setattr(analysis, "_coprime_ratio", ratio)
    return calls


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_kostant_takes_no_gcd(name, monkeypatch):
    L = builtin_algebra(name)
    gens = char_invariants(L)
    calls = spy_ratio_gcd(monkeypatch)
    rep = kostant_check(gens, lie_poisson_bivector(L), len(gens))
    cert = rep.certificate
    assert (cert.q1, cert.q2) == (Polynomial.const(L.n, 1), Polynomial.const(L.n, 1))
    assert calls == []


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_feigin_takes_the_ratio_gcd_only_where_q1_is_not_constant(name, monkeypatch):
    """On sp4 and so5 the semicentre certificate has q1 = p', of degree 1."""
    calls = spy_ratio_gcd(monkeypatch)
    assert feigin_suite(builtin_algebra(name)).ok
    assert any(calls) == (name in ("sp4", "so5"))


# ---------------------------------------------------------------------------
# every read of a report against the full sides it replaced
# ---------------------------------------------------------------------------

def outcome(read):
    """read(), or the type and message of the ValueError it raises."""
    try:
        return read()
    except ValueError as err:
        return type(err), str(err)


def cert_tuple(cert):
    return cert.proportional, cert.q1, cert.q2


def full_sides_reads(pi, casimirs):
    """(equal, certificate) from A = volume_dual(form) and B = wedge^k pi
    built in full, compared whole and cross-multiplied by the reference."""
    sides = outcome(lambda: (volume_dual(_form_of_differentials(casimirs, pi.n)),
                             cached_wedge_power(pi, (pi.n - len(casimirs)) // 2)))
    if isinstance(sides[0], type):
        return sides, sides
    a, b = sides
    return not b.is_zero and a == b, outcome(lambda: cert_tuple(proportionality(a, b)))


def report_reads(pi, casimirs):
    rep = regularity(pi, casimirs)
    return outcome(lambda: rep.equal), outcome(lambda: cert_tuple(rep.certificate))


def offered_sets(pi, casimirs):
    """The Casimirs as offered, and the sets that break one hypothesis each."""
    x = tuple(Polynomial.variable(pi.n, i) for i in range(pi.n))
    c = tuple(casimirs)
    return [c, c[:-1], c + x[:1], (c[0] * 2,) + c[1:], c[:-1] + x[:1],
            (c[0], c[0] ** 2) + c[2:], x, ()]


def reads_both_ways(cases, monkeypatch):
    """report_reads of each (pi, casimirs) with the seeded points, and then
    with none, so that every report takes the fallback."""
    real = [report_reads(pi, casimirs) for pi, casimirs in cases]
    monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    return real, [report_reads(pi, casimirs) for pi, casimirs in cases]


@pytest.mark.parametrize("key", list(BUILTIN_ALGEBRAS) + [f"{name}/borel"
                                                          for name in BUILTIN_ALGEBRAS])
def test_report_reads_equal_the_full_sides(key, monkeypatch):
    pi, casimirs = case(key)
    cases = [(pi, offered) for offered in offered_sets(pi, casimirs)]
    want = [full_sides_reads(pi, offered) for _, offered in cases]
    real, fallback = reads_both_ways(cases, monkeypatch)
    assert real == want and fallback == want
    # the offered Casimirs pass; the doubled top is proportional, not equal
    assert want[0][0] is True and want[3][0] is False and want[3][1][0] is True


def random_bivector(rng, n):
    """Random sparse Fraction coefficients on about half the pairs, with no
    Jacobi identity asked for."""
    return MultiVector(n, 2, {ij: random_polynomial(rng, n, max_degree=1, max_terms=2)
                              for ij in itertools.combinations(range(n), 2)
                              if rng.random() < 0.5})


def random_offer(rng, n):
    """A random polynomial, or a coordinate or its square: a Casimir when
    pi's row of that coordinate is empty."""
    x = Polynomial.variable(n, rng.randrange(n))
    return rng.choice([random_polynomial(rng, n, max_degree=2, max_terms=3), x, x * x])


def test_report_reads_equal_the_full_sides_on_random_bivectors(monkeypatch):
    rng = random.Random(20241017)
    cases = []
    for _ in range(80):
        n = rng.randint(2, 6)
        pi = random_bivector(rng, n)
        cases.append((pi, [random_offer(rng, n) for _ in range(rng.randint(0, n + 1))]))
    # more polynomials than variables are refused before any point is evaluated
    over = [(pi, casimirs) for pi, casimirs in cases if len(casimirs) > pi.n]
    cases = [(pi, casimirs) for pi, casimirs in cases if len(casimirs) <= pi.n]
    assert len(over) == 13
    evaluated = spy_point_ranks(monkeypatch)
    for pi, casimirs in over:
        with pytest.raises(ValueError, match="more polynomials than variables"):
            regularity(pi, casimirs)
    assert evaluated == []
    monkeypatch.undo()
    want = [full_sides_reads(pi, casimirs) for pi, casimirs in cases]
    real, fallback = reads_both_ways(cases, monkeypatch)
    assert real == want and fallback == want
    # proportional and unproportional sides, and each of the two errors
    kinds = {cert[1].split()[0] if isinstance(cert[0], type) else cert[0]
             for _, cert in want}
    assert kinds == {True, False, "proportionality", "multivectors"}


def test_report_reads_no_form_when_the_count_is_not_the_index(monkeypatch):
    # sl4's three invariants and x0: l = 4 against index 3, so A and B are
    # not proportional and equal is read without building the 4-form
    pi, casimirs = case("sl4")
    rep = regularity(pi, list(casimirs) + [Polynomial.variable(pi.n, 0)])
    calls = []
    wedge = exterior.wedge

    def count(a, b):
        calls.append(b.degree)
        return wedge(a, b)

    monkeypatch.setattr(exterior, "wedge", count)
    monkeypatch.setattr(analysis, "wedge", count)
    assert (rep.index, rep.pivots, rep.equal) == (3, None, False)
    assert calls == []
    # the certificate's zero test on A reads the Jacobian at a seeded point
    with pytest.raises(ValueError, match="different spaces"):
        rep.certificate
    assert calls == []


def test_report_reads_of_polynomials_of_another_ring_raise(monkeypatch):
    # a ring mismatch is refused before any seeded point is evaluated: at
    # l = 1 the seeded rank is n - l, and l = 2 would take the fallback
    pi = lie_poisson_bivector(cached_builtin("sl2"))
    evaluated = spy_point_ranks(monkeypatch)
    for offered in ([Polynomial.variable(4, 3)],
                    [Polynomial.variable(4, 0), Polynomial.variable(4, 1)]):
        with pytest.raises(ValueError, match="ring dimension mismatch: 4 vs 3"):
            regularity(pi, offered)
    assert evaluated == []


# ---------------------------------------------------------------------------
# feigin_suite against the wedge-power clauses it replaced
# ---------------------------------------------------------------------------

def chain_feigin_suite(L):
    """The replaced feigin_suite: the fundamental semi-invariant as the
    content of wedge^k pi~, and on g' the index off its top power, the form
    of the semicentre generators and proportionality of p' * A with B."""
    rd = L.root_data
    ell = rd.rank
    names = L.labels
    w = borel_decomposition(L)
    res = contract_algebra(L, w)
    gens = char_invariants(L)
    pairs = [t_degree(g, w) for g in gens.gens]
    tops = [top for _, top in pairs]
    limit = regularity(res.pi_tilde, tops)
    drops = [g.degree() - d for g, (d, _) in zip(gens.gens, pairs)]
    clauses = [Clause("index_of_contraction", limit.index == ell,
                      {"computed": limit.index, "expected": ell}),
               Clause("t_degree_drop", all(x == 1 for x in drops),
                      {"degrees": gens.degrees, "t_degrees": [d for d, _ in pairs]}),
               Clause("kostant_equality_for_tops", limit.equal, {})]
    if limit.index > ell:
        clauses.append(Clause("fundamental_semiinvariant", False,
                              {"reason": "wedge power vanished"}))
        return SuiteReport(suite="feigin", target=L.name, clauses=clauses)

    fsi = fundamental_semiinvariant(res.pi_tilde, ell)
    expected = Polynomial.const(L.n, 1)
    for fi, r in zip(rd.simple_f, rd.marks):
        expected = expected * Polynomial.variable(L.n, fi) ** (r - 1)
    clauses.append(Clause("fundamental_semiinvariant", fsi.p == expected,
                          {"computed": poly_to_str(fsi.p, names),
                           "expected": poly_to_str(expected, names)}))

    semis = list(tops[:-1])
    semis.extend(Polynomial.variable(L.n, fi) for fi in rd.simple_f)
    semis.append(Polynomial.variable(L.n, rd.highest))
    keep = sorted(list(rd.positive) + list(rd.negative))
    idx_map = {old: new for new, old in enumerate(keep)}
    semis_prime = [poly_rename(hh, idx_map, len(keep)) for hh in semis]
    h_form = _form_of_differentials(semis_prime, len(keep))
    gprime = subalgebra_on_indices(res.contracted, keep)
    ind_prime = algebra_index(gprime)
    indep = not h_form.is_zero
    clauses.append(Clause("semicentre_generators", indep and ind_prime == 2 * ell,
                          {"count": len(semis), "cartan_free": True, "independent": indep,
                           "derived_index": ind_prime, "expected_index": 2 * ell}))
    p_prime = poly_rename(fsi.p, idx_map, len(keep))
    lhs = volume_dual(h_form).scale(p_prime)
    rhs = wedge_power(lie_poisson_bivector(gprime), (L.n - 3 * ell) // 2)
    cert = proportionality(lhs, rhs)
    # the constant a with lhs = a * rhs
    ratio = cert.q2.constant_value() / cert.q1.constant_value() if cert.constant_ratio else 0
    ok = ratio != 0
    data = {"constant": str(ratio)} if cert.constant_ratio else {}
    clauses.append(Clause("semicentre_proportionality", ok, data))
    return SuiteReport(suite="feigin", target=L.name, clauses=clauses)


def spy_regularity(monkeypatch):
    """The list of reports analysis.regularity returns, filled as it runs."""
    reports = []
    real = analysis.regularity

    def spy(pi, casimirs):
        reports.append(real(pi, casimirs))
        return reports[-1]

    monkeypatch.setattr(analysis, "regularity", spy)
    return reports


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_feigin_suite_equals_the_chain_path(name):
    want = chain_feigin_suite(builtin_algebra(name)).as_dict()
    assert want["ok"]
    assert feigin_suite(builtin_algebra(name)).as_dict() == want


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_feigin_chain_fallback_gives_the_same_report(name, monkeypatch):
    want = feigin_suite(builtin_algebra(name)).as_dict()
    monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    reports = spy_regularity(monkeypatch)
    seen = spy_wedge_powers(monkeypatch)
    assert feigin_suite(builtin_algebra(name)).as_dict() == want
    # the limit and g' both took the fallback, and it read no wedge power
    assert len(reports) == 2 and all(rep.pivots is None for rep in reports)
    assert seen == []


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_feigin_suite_builds_no_wedge_power_of_the_limit_or_g_prime(name, monkeypatch):
    reports = spy_regularity(monkeypatch)
    seen = spy_wedge_powers(monkeypatch)
    L = builtin_algebra(name)          # a fresh algebra: no top power memoised yet
    assert feigin_suite(L).ok
    limit, derived = reports
    assert (limit.pi.n, derived.pi.n) == (L.n, L.n - L.root_data.rank)
    # the index proofs on the limit and on g' close, and no wedge power is built
    assert limit.pivots is not None and derived.pivots is not None
    assert derived.index == 2 * L.root_data.rank
    assert seen == []


FEIGIN_TARGETS = list(FEIGIN_ALGEBRAS) + ["sp6", "so7", "sl5"]


def feigin_target(name):
    """A fresh Borel-split target: a builtin, or sp6, so7 and sl5 past the
    15-dimensional cap of the builtins."""
    if name in FEIGIN_ALGEBRAS:
        return builtin_algebra(name)
    return getattr(builders, f"_build_{name[:2]}")(int(name[2:]))


@pytest.mark.parametrize("name", FEIGIN_TARGETS)
def test_g_prime_bivector_is_the_limit_restricted(name, monkeypatch):
    # g' = n+ + n- of the limit, as the Lie algebra the suite no longer
    # builds: its gated bivector is pi~ restricted and renamed
    L = feigin_target(name)
    reports = spy_regularity(monkeypatch)
    assert feigin_suite(L).ok
    _, derived = reports
    rd = L.root_data
    gprime = subalgebra_on_indices(contract_algebra(L, borel_decomposition(L)).contracted,
                                   sorted(rd.positive + rd.negative))
    assert derived.pi == lie_poisson_bivector(gprime)
    assert derived.pi.n == gprime.n == L.n - rd.rank


@pytest.mark.parametrize("name", FEIGIN_TARGETS)
def test_feigin_suite_runs_no_schouten_square(name, monkeypatch):
    # L is built by from_matrices, so its Jacobi verdict comes from the
    # construction; the limit and g' are Poisson as limits of L's bivector
    squares = schouten_square_spy(monkeypatch)
    L = feigin_target(name)            # fresh: nothing computed on it yet
    assert feigin_suite(L).ok
    assert squares == []


@pytest.mark.parametrize("pid", Z2_PAIRS)
def test_z2_suite_runs_no_schouten_square(pid, monkeypatch):
    squares = schouten_square_spy(monkeypatch)
    assert z2_suite(pid).ok             # a fresh pair: nothing computed on it yet
    assert squares == []


@pytest.mark.parametrize("name", ["sl3", "sp4", "so5", "so6"])
def test_feigin_reads_the_top_power_when_the_tops_are_not_equal(name, monkeypatch):
    # with the limit's pivots dropped and A == B refused, p is the content of
    # the limit's top power, read by fundamental_semiinvariant at l = the
    # rank, and every clause on p agrees
    want = {c.name: c for c in feigin_suite(builtin_algebra(name)).clauses}
    real_contraction = analysis._contraction

    def contraction(L, gens, w):
        res, pairs, limit = real_contraction(L, gens, w)
        return res, pairs, analysis.KostantReport(limit.pi, limit.casimirs, limit.index, None)

    monkeypatch.setattr(analysis, "_contraction", contraction)
    monkeypatch.setattr(analysis.KostantReport, "equal", property(lambda self: False))
    asked = []
    real = analysis.fundamental_semiinvariant

    def spy(pi, ell):
        asked.append(ell)
        return real(pi, ell)

    monkeypatch.setattr(analysis, "fundamental_semiinvariant", spy)
    got = {c.name: c for c in feigin_suite(builtin_algebra(name)).clauses}
    assert asked == [builtin_algebra(name).root_data.rank]
    assert not got["kostant_equality_for_tops"].ok
    for clause in ("fundamental_semiinvariant", "semicentre_generators",
                   "semicentre_proportionality"):
        assert got[clause] == want[clause]


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_the_content_of_the_form_is_that_of_its_volume_dual(name):
    # feigin_suite reads p off the limit's l-form: volume_dual only re-indexes
    # its coefficients and changes signs, so the monic gcd is the same
    form = regularity(*case(f"{name}/borel")).form
    got, want = _content(form), _content(volume_dual(form))
    assert got.p == want.p
    assert got.p.is_constant == (name not in ("sp4", "so5"))


def test_a_wrong_fundamental_semiinvariant_fails_the_semicentre_clause(monkeypatch):
    # sp4 has p = f1; with p forced to 1, p' * A = c * B has no constant c.
    # The suite reads p off the tops, the chain path off the top power
    monkeypatch.setattr(analysis, "_tops_content", lambda limit: Polynomial.const(limit.pi.n, 1))
    monkeypatch.setattr(analysis, "_content",
                        lambda b: FundamentalSemiInvariant(Polynomial.const(b.n, 1)))
    rep = feigin_suite(builtin_algebra("sp4"))
    clauses = {c.name: c for c in rep.clauses}
    assert clauses["fundamental_semiinvariant"].data["computed"] == "1"
    assert clauses["semicentre_generators"].ok
    assert not clauses["semicentre_proportionality"].ok
    assert clauses["semicentre_proportionality"].data == {}
    assert rep.as_dict() == chain_feigin_suite(builtin_algebra("sp4")).as_dict()


# ---------------------------------------------------------------------------
# contr_deg_report against the chain path it replaced
# ---------------------------------------------------------------------------

def chain_contr_deg_report(gens, w):
    """The replaced contr_deg_report: the limit's index off its top power, and
    the equality case from volume_dual(form) == wedge^k pi."""
    L = gens.algebra
    ell = len(gens)
    res = contract_algebra(L, w)
    if not res.valid:
        return None
    ind0 = algebra_index(L)
    ind1 = chain_index(res.pi_tilde)
    report = ContrDegReport(ok=True, error=None, index_original=ind0,
                            index_contracted=ind1, index_preserved=ind0 == ind1)
    if ind0 != ind1:
        report.ok = False
        report.error = "index is not preserved; the degree law does not apply"
        return report
    pairs = [t_degree(g, w) for g in gens.gens]
    report.degrees = [g.degree() for g in gens.gens]
    report.t_degrees = [d for d, _ in pairs]
    report.sum_t_degrees = sum(report.t_degrees)
    report.weight_total = w.total
    form = _form_of_differentials([top for _, top in pairs], L.n)
    report.independent = not form.is_zero
    if report.sum_t_degrees < report.weight_total:
        report.ok = False
        report.error = "degree-law violation: sum of t-degrees below the weight total"
        return report
    if report.sum_t_degrees == report.weight_total:
        report.classification = "equality"
        b = wedge_power(res.pi_tilde, (L.n - ell) // 2)
        report.kostant_with_limit = volume_dual(form) == b
        report.good_generating_system = report.independent
        report.ok = report.independent and report.kostant_with_limit
        if not report.ok:
            report.error = "equality case must give independent tops satisfying the equality"
    else:
        report.classification = "strict"
        report.good_generating_system = False
        report.ok = not report.independent
        if not report.ok:
            report.error = "strict case must give dependent highest components"
    return report


def seeded_weights(L, keeps, seed):
    """Valid weights in {0,1,2}^n whose limit keeps (or raises) the index,
    judged by the limit's rank at the seeded points."""
    rng = random.Random(seed)
    ell = algebra_index(L)
    while True:
        w = ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n)))
        res = contract_algebra(L, w)
        if res.valid and any(w):
            rank = max(r for r, _, _ in point_ranks(res.pi_tilde))
            if keeps == (rank == L.n - ell):
                return w


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
@pytest.mark.parametrize("kind", ["borel", "keeps", "raises"])
def test_contr_deg_report_equals_the_chain_path(name, kind):
    L = cached_builtin(name)
    w = borel_decomposition(L) if kind == "borel" else \
        seeded_weights(L, kind == "keeps", BUILTIN_ALGEBRAS.index(name))
    gens = t_degree_reduction(char_invariants(L), w)
    got = contr_deg_report(gens, w)
    want = chain_contr_deg_report(gens, w)
    assert got.as_dict() == want.as_dict()
    assert got.index_preserved == (kind != "raises")
