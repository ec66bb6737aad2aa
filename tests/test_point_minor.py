"""regularity's point proof on one l x l minor, and the field-walking evaluator.

analysis.regularity proves the index at _pivot_point's x0 from the l x l
minor of the F's Jacobian on the columns J outside the pivots I, which is
A_I(x0) up to sign, where it used to rank the full l x n Jacobian.  With
real pivots the two refuse the same sets: if every F is a Casimir and the
full Jacobian has rank l at x0, then A(x0) = c B(x0) with c != 0 and
B_I(x0) = k! Pf(pi_I)(x0) != 0, so A_I(x0) != 0.  conftest's
full_jacobian_regularity is the old proof, with the old report's B_I test at
the pivots; every read of both reports must agree on the builtins and their
Borel limits, the symmetric pairs' parents and limits, every bivector the
feigin suites hand to regularity (g' among them), seeded valid weightings
and seeded sets that are not Kostant.

polyring._scaled_values walks each monomial's packed fields; conftest's
reference_scaled_values is its formula before, on public monomials.  The
spies pin the work: l * l partials per point proof, and one from_matrices
per symmetric_pair("sl4_sp4").
"""

import random
from fractions import Fraction

import pytest
from conftest import (cached_builtin, cached_pair, case, full_jacobian_regularity,
                      random_point, random_polynomial, reference_scaled_values)

from liecontract import analysis, builders
from liecontract.analysis import feigin_suite, regularity, z2_suite
from liecontract.builders import BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.invariants import char_invariants
from liecontract.polyring import Polynomial, _scaled_values

KEYS = (list(BUILTIN_ALGEBRAS) + [f"{name}/borel" for name in BUILTIN_ALGEBRAS]
        + [f"{pid}/{kind}" for pid in Z2_PAIRS for kind in ("parent", "z2")])
SMALL = ("sl2", "sl3", "sp4", "so4", "so5")


def outcome(read):
    """A report's read, or the message it raises."""
    try:
        return read()
    except ValueError as err:
        return str(err)


def assert_same_report(pi, casimirs):
    got, want = regularity(pi, casimirs), full_jacobian_regularity(pi, casimirs)
    for field in ("index", "pivots", "independent", "equal"):
        assert getattr(got, field) == getattr(want, field), field
    assert outcome(lambda: got.certificate) == outcome(lambda: want.certificate)
    return got


@pytest.mark.parametrize("key", KEYS)
def test_the_minor_proves_what_the_full_jacobian_proved(key):
    pi, casimirs = case(key)
    assert assert_same_report(pi, casimirs).pivots is not None


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_every_feigin_regularity_call_agrees(name, monkeypatch):
    calls = []
    real = analysis.regularity
    monkeypatch.setattr(analysis, "regularity",
                        lambda pi, fs: calls.append((pi, list(fs))) or real(pi, fs))
    assert feigin_suite(cached_builtin(name)).ok
    # the Borel limit against its tops, then g' against the semicentre generators
    assert len(calls) == 2
    for pi, fs in calls:
        assert_same_report(pi, fs)


def seeded_valid_weights(L, seed, count=3):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        w = ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n)))
        res = contract_algebra(L, w)
        if res.valid and any(w):
            found.append(res)
    return found


@pytest.mark.parametrize("name", SMALL)
def test_seeded_valid_weightings_agree(name):
    L = cached_builtin(name)
    gens = char_invariants(L).gens
    for res in seeded_valid_weights(L, 500 + SMALL.index(name)):
        assert_same_report(res.pi_tilde, [t_degree(g, res.weights)[1] for g in gens])


def non_kostant_sets(pi, fs, rng):
    """Sets offered as Casimirs that are not a Kostant set: doubled, dependent,
    too few, too many, with a coordinate or a seeded polynomial in place of a
    Casimir, and with a zero polynomial."""
    n, x0 = pi.n, Polynomial.variable(pi.n, 0)
    sets = [[fs[0] * 2] + fs[1:], [fs[0], fs[0] * fs[0]] + fs[2:], fs[:-1],
            fs + [x0], [x0] + fs[1:], fs[:-1] + [Polynomial.zero(n)]]
    sets += [fs[:-1] + [random_polynomial(rng, n, max_degree=3, allow_zero=False)]
             for _ in range(3)]
    return [s for s in sets if len(s) <= n]


@pytest.mark.parametrize("key", [k for k in KEYS if k.split("/")[0] in SMALL]
                         + ["sl2_so2/parent", "sp4_sp2sp2/z2", "so4_gl2/z2"])
def test_seeded_non_kostant_sets_agree(key):
    pi, casimirs = case(key)
    rng = random.Random(key)
    for fs in non_kostant_sets(pi, list(casimirs), rng):
        assert_same_report(pi, fs)


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_scaled_values_match_the_unpacked_formula(n):
    rng = random.Random(900 + n)
    polys = ([Polynomial.zero(n), Polynomial.const(n, 7), Polynomial.const(n, Fraction(-3, 4))]
             + [random_polynomial(rng, n, max_degree=8, max_terms=8) for _ in range(30)])
    points = [random_point(rng, n) for _ in range(8)]
    points += [[rng.randint(-5, 5) for _ in range(n)] for _ in range(4)]
    points += [[0] * n, [rng.choice([0, random_point(rng, 1)[0]]) for _ in range(n)]]
    for point in points:
        assert _scaled_values(polys, point) == reference_scaled_values(polys, point)
        constants = polys[:3]
        assert _scaled_values(constants, point) == reference_scaled_values(constants, point)
        zeros = [Polynomial.zero(n)] * 3
        assert _scaled_values(zeros, point) == reference_scaled_values(zeros, point) \
            == ([0, 0, 0], 1)
        assert _scaled_values([], point) == reference_scaled_values([], point)


def test_scaled_values_of_the_pair_partials_match():
    L = cached_pair("sl4_sp4").parent
    partials = [F.diff(j) for F in char_invariants(L).gens for j in range(L.n)]
    for point in [random_point(random.Random(7), L.n), [0] * L.n]:
        assert _scaled_values(partials, point) == reference_scaled_values(partials, point)


# ---------------------------------------------------------------------------
# spies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pid", Z2_PAIRS)
def test_z2_point_proofs_evaluate_l_squared_partials(pid, monkeypatch):
    sizes = []
    real = analysis._scaled_values
    monkeypatch.setattr(analysis, "_scaled_values",
                        lambda polys, point: sizes.append(len(polys)) or real(polys, point))
    rep = z2_suite(pid)
    assert rep.ok
    ell = rep.clauses[2].data["expected"]
    # the limit's proof on l * l partials, not l * n; the parent's index is
    # read off char_invariants' certificate
    assert sizes == [ell * ell]


def test_the_sl4_sp4_pair_builds_one_algebra_from_matrices(monkeypatch):
    calls = []
    real = builders.from_matrices
    monkeypatch.setattr(builders, "from_matrices",
                        lambda *args, **kw: calls.append(kw["name"]) or real(*args, **kw))
    builders.symmetric_pair("sl4_sp4")
    assert calls == ["sl4_adapted"]
