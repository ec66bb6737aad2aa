"""The rules behind the regularity verdict, each stated once, against in-test
copies of the code each one replaced:

* the pivot point (I, x0), invariants._pivot_point, against regularity's
  loop over the seeded points and the normalisation's pivot set;
* the constant-ratio test a = c * b, polyring._ratio, against
  _coprime_ratio's, the normalisation's and _weight's own tests;
* the read of k! Pf(pi_I) off the engine's int terms, shared by top_power
  and wedge_power_coefficient, against k! * engine([I]) and the loop
  top_power ran before;
* all partials of F from polyring._partials' one pass, in _int_partials and
  differential, against n calls to Polynomial.diff;
* A != 0, KostantReport.independent, against the form's zero test, and the
  certificate on it against the certificate that ran its own point loop.

Then the smallest dimensions: a 0-, 1- or 2-dimensional abelian algebra
has the zero bivector, so regularity decides it and every verb on it
exits 0.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from conftest import cached_builtin, case, random_polynomial

from liecontract import analysis, exterior, invariants, linalg, polyring
from liecontract.analysis import (ProportionalityCertificate, _coprime_ratio, _jacobian_rank,
                                  regularity)
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS
from liecontract.cli import main
from liecontract.exterior import (Form, MultiVector, _seeded_points, differential, point_ranks,
                                  wedge_power_coefficient)
from liecontract.invariants import _int_partials, _pivot_point, _weight, semi_invariant_weight
from liecontract.lie import LieAlgebra, lie_poisson_bivector
from liecontract.polyring import Polynomial, _accumulate, _integral_terms, _ratio

KEYS = (list(BUILTIN_ALGEBRAS) + [f"{name}/borel" for name in BUILTIN_ALGEBRAS]
        + [f"{pid}/parent" for pid in Z2_PAIRS] + [f"{pid}/z2" for pid in Z2_PAIRS])


def same_terms(p, q):
    """Equal, with the same term order and the same coefficient types."""
    assert p == q
    assert list(p.terms) == list(q.terms)
    assert [type(c) for c in p.terms.values()] == [type(c) for c in q.terms.values()]


# ---------------------------------------------------------------------------
# one pivot point
# ---------------------------------------------------------------------------

def loop_pivot_point(pi, ell):
    """regularity's replaced loop: the first seeded point of rank n - l."""
    for rank, pivots, point in point_ranks(pi):
        if rank == pi.n - ell:
            return pivots, point
    return None


def regularity_pivots(pi, ell):
    """The normalisation's replaced pivot rule, with its two raises."""
    if (pi.n - ell) % 2:
        raise ValueError("generator count does not match a skew rank")
    index_set = next((piv for r, piv, _ in point_ranks(pi) if r == pi.n - ell), None)
    if index_set is None:
        raise ValueError("degenerate generator set")
    return index_set


@pytest.mark.parametrize("key", KEYS)
def test_pivot_point_is_the_replaced_pivots(key):
    pi, casimirs = case(key)
    ell = len(casimirs)
    got = _pivot_point(pi, ell)
    assert got == loop_pivot_point(pi, ell) is not None
    if "/" not in key or key.endswith("/parent"):
        assert got[0] == regularity_pivots(pi, ell)
    rep = regularity(pi, casimirs)
    assert rep.pivots == got[0]
    # every other count: the same point, or None where no seeded point has the rank
    for other in range(pi.n + 1):
        assert _pivot_point(pi, other) == loop_pivot_point(pi, other)
        if _pivot_point(pi, other) is not None:
            assert _pivot_point(pi, other)[0] == regularity_pivots(pi, other)


# ---------------------------------------------------------------------------
# one ratio test
# ---------------------------------------------------------------------------

def coprime_constant(a, b):
    """_coprime_ratio's replaced test: c off the leading coefficients."""
    c = a.leading()[1] / b.leading()[1]
    return c if b * c == a else None


def normalisation_scale(A, B):
    """The normalisation's replaced test: the scale with B = scale * A."""
    bm, bc = B.leading()
    ac = A.coefficient(bm)
    if not ac or A * (bc / ac) != B:
        return None
    return bc / ac


def weight_of_row(br, terms, dpi):
    """_weight's replaced test of one nonzero row br == lam * dpi * h, for h
    scaled to the int map terms."""
    hm = max(terms)
    lam = br.get(hm)
    if not lam or len(br) != len(terms) or any(
            c * terms[hm] != lam * terms.get(m, 0) for m, c in br.items()):
        return None
    return Fraction(lam, terms[hm] * dpi)


def ratio_pairs(seed, count=300):
    """(a, b) of nonzero polynomials: proportional with a Fraction or int
    factor, with one coefficient moved, with a term added or dropped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        b = random_polynomial(rng, n, max_terms=5, allow_zero=False)
        if b.is_zero:
            continue
        c = rng.choice([Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)), rng.randint(1, 4)])
        a = b * c
        kind = rng.randrange(4)
        if kind == 1:
            m = rng.choice(list(a.terms))
            a = a + Polynomial._raw(n, {m: 1})
        elif kind == 2:
            a = a + random_polynomial(rng, n, max_terms=1, allow_zero=False)
        elif kind == 3 and len(a.terms) > 1:
            a = Polynomial._raw(n, dict(list(a.terms.items())[1:]))
        if not a.is_zero:
            out.append((a, b))
    return out


def same_number(got, want):
    assert got == want and type(got) is type(want)


def test_ratio_is_the_three_replaced_tests():
    pairs = ratio_pairs(2901)
    proportional = 0
    for a, b in pairs:
        same_number(_ratio(a, b), coprime_constant(a, b))
        same_number(_ratio(b, a), normalisation_scale(a, b))
        _, (ta, tb) = _integral_terms([a, b])
        for dpi in (1, 6):
            lam = _ratio(Polynomial._raw(a.n, ta), Polynomial._raw(b.n, tb))
            same_number(None if lam is None else lam / dpi, weight_of_row(ta, tb, dpi))
        proportional += _ratio(a, b) is not None
    assert 50 < proportional < len(pairs) - 50
    # the certificate's constant pair is (1, c) exactly when the ratio is a number
    for a, b in pairs[:60]:
        c = coprime_constant(a, b)
        if c is not None:
            assert _coprime_ratio(a, b) == (Polynomial.const(a.n, 1), Polynomial.const(a.n, c))


def test_ratio_of_a_zero_polynomial_is_none():
    x, zero = Polynomial.variable(2, 0), Polynomial.zero(2)
    assert _ratio(zero, x) is None and _ratio(x, zero) is None and _ratio(zero, zero) is None


def replaced_weight(h_partials, pi):
    """The replaced _weight, its rows and its own ratio test."""
    h, partials = h_partials
    terms = h.terms
    n = pi.n
    dpi, maps = _integral_terms(pi.terms.values())
    rows = [{} for _ in range(n)]
    for (a, b), t in zip(pi.terms, maps):
        _accumulate(rows[a], t, partials[b], False, n)
        _accumulate(rows[b], t, partials[a], True, n)
    out = []
    for row in rows:
        br = {m: c for m, c in row.items() if c}
        if not br:
            out.append(Fraction(0))
            continue
        lam = weight_of_row(br, terms, dpi)
        if lam is None:
            return None
        out.append(lam)
    return out


@pytest.mark.parametrize("key", ["sl3", "sp4", "sl3/borel", "so5/borel", "sl2_so2/z2"])
def test_weight_is_the_replaced_weight(key):
    pi, casimirs = case(key)
    rng = random.Random(len(key))
    offers = list(casimirs) + [Polynomial.variable(pi.n, i) for i in range(pi.n)]
    offers += [random_polynomial(rng, pi.n, allow_zero=False) for _ in range(10)]
    semi = 0
    for scaled in (pi, pi.scale(Fraction(2, 3))):
        for h in offers:
            if h.is_zero:
                continue
            got = _weight(_int_partials(h), scaled)
            assert got == replaced_weight(_int_partials(h), scaled)
            assert got is None or all(type(x) is Fraction for x in got)
            assert got == semi_invariant_weight(h, scaled)
            semi += got is not None and any(got)
    assert key.endswith("/borel") <= (semi > 0)


# ---------------------------------------------------------------------------
# one coefficient read of wedge^k pi
# ---------------------------------------------------------------------------

def engine_coefficient(pi, idx):
    """The replaced wedge_power_coefficient: k! times the engine's call."""
    return Polynomial.const(pi.n, math.factorial(len(idx) // 2)) * pi._engine([idx])


def loop_top_power(pi):
    """The replaced top_power loop, on a fresh copy of pi."""
    fresh = MultiVector(pi.n, 2, pi.terms)
    k = fresh.generic_rank[0] // 2
    pf = fresh._engine
    f, dk = math.factorial(k), pf.d ** k
    out = {}
    for idx in itertools.combinations(sorted({i for ij in pi.terms for i in ij}), 2 * k):
        if t := pf.terms(idx):
            t = {m: c * f for m, c in t.items()}
            out[idx] = (Polynomial._raw(pi.n, t) if dk == 1
                        else Polynomial._collect(pi.n, t, dk))
    return k, out


def coefficient_bivectors():
    rng = random.Random(2902)
    pis = [lie_poisson_bivector(cached_builtin(name)) for name in ("sl2", "sl3", "sp4")]
    pis += [pi.scale(Fraction(1, 3)) for pi in pis]
    for n in (3, 4, 5, 6, 6):
        pis.append(MultiVector(n, 2, {
            (i, j): random_polynomial(rng, n, max_degree=2, max_terms=3)
            for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.7}))
    return pis


def test_coefficient_read_is_k_factorial_times_the_engine():
    pis = coefficient_bivectors()
    assert sum(pi._engine.d != 1 for pi in pis) >= 6
    for pi in pis:
        for k in range(pi.n // 2 + 1):
            for idx in itertools.combinations(range(pi.n), 2 * k):
                # the first read expands, the second is a memo hit
                for _ in range(2):
                    same_terms(wedge_power_coefficient(pi, idx), engine_coefficient(pi, idx))
        k, want = loop_top_power(pi)
        top_k, top = MultiVector(pi.n, 2, pi.terms).top_power
        assert top_k == k and list(top.terms) == list(want)
        for idx, p in top.terms.items():
            same_terms(p, want[idx])


def test_a_memo_hit_with_d_one_makes_no_product(monkeypatch):
    pi = MultiVector(15, 2, lie_poisson_bivector(cached_builtin("sl4")).terms)
    assert pi._engine.d == 1
    index_set, _ = _pivot_point(pi, 3)
    want = wedge_power_coefficient(pi, index_set)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return _accumulate(*args, **kwargs)

    for module in (polyring, linalg, exterior, invariants):
        monkeypatch.setattr(module, "_accumulate", spy)
    same_terms(wedge_power_coefficient(pi, index_set), want)
    assert calls == []


# ---------------------------------------------------------------------------
# one partials pass
# ---------------------------------------------------------------------------

def diff_int_partials(h):
    """The replaced _int_partials: n calls to diff on h scaled to int."""
    _, (terms,) = _integral_terms([h])
    scaled = Polynomial._raw(h.n, terms)
    return terms, [scaled.diff(l).terms for l in range(h.n)]


def diff_differential(p):
    """The replaced differential: n calls to diff."""
    terms = {}
    for i in range(p.n):
        d = p.diff(i)
        if not d.is_zero:
            terms[(i,)] = d
    return Form._raw(p.n, 1, terms)


def test_partials_come_from_one_pass_and_no_diff(monkeypatch):
    rng = random.Random(2903)
    polys = [random_polynomial(rng, rng.randint(1, 6), max_degree=4, max_terms=8)
             for _ in range(150)]
    polys += list(case("sl3")[1]) + list(case("sp4/borel")[1])
    want = [(diff_int_partials(p), diff_differential(p)) for p in polys]
    calls = []
    diff = Polynomial.diff
    monkeypatch.setattr(Polynomial, "diff", lambda self, i: calls.append(i) or diff(self, i))
    for p, (int_partials, form) in zip(polys, want):
        scaled, partials = _int_partials(p)
        assert scaled.terms == int_partials[0] and len(partials) == p.n
        for got, ref in zip(partials, int_partials[1]):
            same_terms(Polynomial._raw(p.n, got), Polynomial._raw(p.n, ref))
        d = differential(p)
        assert type(d) is Form and d.degree == 1 and list(d.terms) == list(form.terms)
        for idx, c in d.terms.items():
            same_terms(c, form.terms[idx])
    assert calls == []


# ---------------------------------------------------------------------------
# one rule for A != 0
# ---------------------------------------------------------------------------

def seeded_sets(pi, casimirs, seed):
    """Generator sets on pi's ring: the Casimirs, none (l = 0), a zero F,
    two made dependent by a Casimir, and seeded random polynomials, some
    made dependent by the product of two of them."""
    n, F = pi.n, casimirs[0]
    rng = random.Random(seed)
    sets = [list(casimirs), [], [F, Polynomial.zero(n)], [F, F * F], [F * 3, F], [F]]
    for _ in range(6):
        gens = [random_polynomial(rng, n, max_degree=2, max_terms=3)
                for _ in range(rng.randint(1, min(3, n - 1)))]
        if rng.randrange(2):
            gens.append(gens[0] * gens[-1])
        sets.append(gens)
    return sets


def point_proof(gens, n):
    """A seeded point where the F's Jacobian, from Polynomial.diff and
    evaluate, has rank l."""
    return any(linalg.rational_rank([[g.diff(i).evaluate(x) for i in range(n)] for g in gens])
               == len(gens) for x in _seeded_points(n))


def two_rule_certificate(rep):
    """The replaced KostantReport.certificate: its own point loop, then the
    form, where the replaced independent read the form alone."""
    if rep._minor is not None:
        return ProportionalityCertificate(True, *_coprime_ratio(*rep._minor))
    n, ell = rep.pi.n, len(rep.casimirs)
    rows = [_int_partials(F)[1] for F in rep.casimirs]
    proved = any(_jacobian_rank(rows, point) == ell for point in _seeded_points(n))
    if (not proved and rep.form.is_zero
            or 2 * ((n - ell) // 2) > rep.pi.generic_rank[0]):
        raise ValueError("proportionality needs two nonzero multivectors")
    if (n - ell) % 2:
        raise ValueError("multivectors live in different spaces")
    return ProportionalityCertificate(False)


def outcome(read):
    try:
        return read()
    except ValueError as exc:
        return str(exc)


def spy_forms(monkeypatch):
    """The generator lists whose form analysis builds, filled as it runs."""
    built = []
    real = analysis._form_of_differentials
    monkeypatch.setattr(analysis, "_form_of_differentials",
                        lambda polys, n: built.append(polys) or real(polys, n))
    return built


@pytest.mark.parametrize("key", KEYS)
def test_independent_is_the_form_test_on_the_fallback(key, monkeypatch):
    pi, casimirs = case(key)
    monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    verdicts = set()
    for gens in seeded_sets(pi, casimirs, sum(map(ord, key))):
        rep = regularity(pi, gens)
        assert rep.pivots is None
        assert rep.independent == (not rep.form.is_zero)
        verdicts.add(rep.independent)
    assert verdicts == {True, False}


@pytest.mark.parametrize("path", ["pivots", "fallback"])
@pytest.mark.parametrize("key", ["sl2", "sl3", "sp4/borel", "so4_gl2/z2"])
def test_independent_and_the_certificate_build_at_most_one_form(key, path, monkeypatch):
    pi, casimirs = case(key)
    if path == "fallback":
        monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    built, messages = spy_forms(monkeypatch), set()
    for gens in seeded_sets(pi, casimirs, sum(map(ord, key))):
        want = outcome(lambda: two_rule_certificate(regularity(pi, gens)))
        built.clear()
        rep = regularity(pi, gens)
        independent = rep.independent
        got = outcome(lambda: rep.certificate)
        assert got == want
        # a seeded point that proves A != 0 builds no form; else one, shared
        assert len(built) == (0 if point_proof(gens, pi.n) else 1)
        assert independent == (rep.pivots is not None or not rep.form.is_zero)
        if isinstance(got, str):
            messages.add(got)
    assert messages == {"proportionality needs two nonzero multivectors",
                        "multivectors live in different spaces"}


# ---------------------------------------------------------------------------
# the smallest dimensions through the command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2])
def test_regularity_of_a_small_abelian_algebra(n):
    # the zero bivector: rank 0 at every point, so the coordinates are the
    # Casimirs and both sides of the equality are 1
    pi = lie_poisson_bivector(LieAlgebra([f"a{i}" for i in range(n)], {}))
    rep = regularity(pi, [Polynomial.variable(n, i) for i in range(n)])
    assert (rep.index, rep.pivots, rep.independent, rep.equal) == (n, (), True, True)
    one = Polynomial.const(n, 1)
    assert (rep.certificate.q1, rep.certificate.q2) == (one, one)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("labels", ["", "a", "a b"])
def test_small_abelian_files_pass_every_verb(labels, tmp_path, capsys):
    path = tmp_path / "small.alg"
    path.write_text(f"name: small\nlabels: {labels}\n")
    target, n = str(path), len(labels.split())
    assert run(capsys, "index", target) == (0, f"index {target} = {n}\n", "")
    assert run(capsys, "fsi", target) == (0, f"fundamental semi-invariant: 1 (index {n})\n", "")
    assert run(capsys, "bivector", target) == (0, "", "")
    code, out, _ = run(capsys, "--format", "json", "bivector", target)
    assert code == 0 and json.loads(out)["bivector"] == []
    # for n = 0 the one weight vector is the empty one, --weights=
    weights = ",".join(["0"] * n)
    assert run(capsys, "contract", target, f"--weights={weights}") == (
        0, "(abelian limit: all brackets vanish)\n", "")
    code, out, _ = run(capsys, "--format", "json", "contract", target, f"--weights={weights}")
    assert code == 0 and json.loads(out)["weights"] == [0] * n
    assert run(capsys, "fsi", target, f"--weights={weights}") == (
        0, f"fundamental semi-invariant: 1 (index {n})\n", "")
    assert run(capsys, "validate", target)[0] == 0
