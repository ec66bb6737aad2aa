"""The fundamental semi-invariant read off the tops: analysis._tops_content.

p = content(dF_1 ^ ... ^ dF_l) comes from a triangular monomial minor A_J,
which p divides, and one seeded point per variable of that minor; the l-form
is built only when no such minor is found or a point test fails, and then p
is its gcd.  Each value is checked against _content(form).p, the gcd of the
whole form.
"""

import functools
import random

import pytest

from conftest import case, random_polynomial
from liecontract import analysis, builders, polyring
from liecontract.analysis import KostantReport, _content, _tops_content, feigin_suite
from liecontract.builders import FEIGIN_ALGEBRAS, Z2_PAIRS, borel_decomposition
from liecontract.contract import contract_algebra, t_degree
from liecontract.exterior import MultiVector
from liecontract.invariants import char_invariants
from liecontract.polyring import Polynomial

PAST_CAP = {"sp6": ("_build_sp", 6), "so7": ("_build_so", 7), "sl5": ("_build_sl", 5)}
# the Borel limits whose points prove p = 1 with no form built, and the ones
# where p is a nonconstant monomial, a point test fails and p is the form's gcd
POINT_PROVED = ("sl2", "sl3", "sl4", "so6", "sl5")
MONOMIAL = ("sp4", "so5", "sp6", "so7")


@functools.lru_cache(maxsize=None)
def algebra(name):
    if name in PAST_CAP:
        build, size = PAST_CAP[name]
        return getattr(builders, build)(size)
    return builders.builtin_algebra(name)


@functools.lru_cache(maxsize=None)
def borel_tops(name):
    L = algebra(name)
    w = borel_decomposition(L)
    return contract_algebra(L, w).pi_tilde, tuple(t_degree(g, w)[1]
                                                  for g in char_invariants(L).gens)


def report(pi, polys):
    """A fresh report on polys, with no form built yet."""
    return KostantReport(pi, list(polys), None, None)


def on(polys, n):
    return report(MultiVector(n, 2), polys)


@pytest.mark.parametrize("key", [f"{name}/borel" for name in FEIGIN_ALGEBRAS + tuple(PAST_CAP)]
                         + [f"{pid}/z2" for pid in Z2_PAIRS])
def test_the_tops_content_is_the_forms_gcd(key):
    name, _, kind = key.partition("/")
    pi, tops = borel_tops(name) if kind == "borel" else case(key)
    rep = report(pi, tops)
    got = _tops_content(rep)
    assert got == _content(report(pi, tops).form).p
    if name in POINT_PROVED:
        assert got.is_constant and "form" not in rep.__dict__
    if name in MONOMIAL:
        assert not got.is_constant and len(got.terms) == 1 and "form" in rep.__dict__


def steps_of(monkeypatch):
    """[steps] filled as _tops_content runs: "no minor" when no triangular
    monomial minor is found, "points" when the points prove p = 1, and
    "point failed" when a point test fails; both failures read the form's gcd."""
    steps, tested = [], []
    real = analysis._jacobian_rank
    monkeypatch.setattr(analysis, "_jacobian_rank",
                        lambda rows, point: tested.append(1) or real(rows, point))

    def run(rep):
        tested.clear()
        p = _tops_content(rep)
        built = "form" in rep.__dict__
        steps.append("point failed" if built and tested else "no minor" if built else "points")
        return p
    return steps, run


def test_a_minor_that_is_not_monomial_reads_the_forms_gcd(monkeypatch):
    # F1 = x, F2 = (x + y)^2 z: F2's partials off x's column have 2 and 3
    # terms, so no triangular monomial minor; A = 2(x + y)z dx^dy + (x + y)^2 dx^dz
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    steps, run = steps_of(monkeypatch)
    assert run(on([x, (x + y) ** 2 * z], 3)) == x + y
    assert steps == ["no minor"]


def test_each_step_on_hand_picked_sets(monkeypatch):
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    steps, run = steps_of(monkeypatch)
    # minor 2x * 1; at x = 0 the row of x^2 vanishes, and A = 2x dx^dy + 4xz dx^dz
    assert run(on([x * x, y + z * z], 3)) == x
    # minor 1 * y; at y = 0 the Jacobian keeps rank 2 through z + 2y = z != 0
    assert run(on([x, y * z + y * y], 3)) == Polynomial.const(3, 1)
    # minor 1 * 2xy; A = 2xy dx^dz + x^2 dy^dz, whose gcd is x
    assert run(on([x * x * y, z], 3)) == x
    # the empty list: the unit 0-form, p = 1 with no variable to test
    assert run(on([], 3)) == Polynomial.const(3, 1)
    assert steps == ["point failed", "points", "point failed", "points"]


def seeded_sets(seed, count):
    """Seeded lists of 1 to 3 polynomials in 4 variables, each a multiple of
    a random monomial, plus a short random polynomial half the time; only
    lists with a nonzero form are kept."""
    rng = random.Random(seed)
    n, out = 4, []
    while len(out) < count:
        polys = []
        for _ in range(rng.randint(1, 3)):
            vs = sorted(rng.sample(range(n), rng.randint(1, 2)))
            mono = Polynomial(n, {tuple((v, rng.randint(1, 2)) for v in vs): rng.randint(1, 3)})
            extra = random_polynomial(rng, n, max_degree=2, max_terms=2)
            polys.append(mono + extra if rng.random() < 0.5 else mono)
        if not on(polys, n).form.is_zero:
            out.append(polys)
    return out


def test_seeded_sets_reach_each_step_and_agree_with_the_gcd(monkeypatch):
    steps, run = steps_of(monkeypatch)
    for polys in seeded_sets(39, 60):
        assert run(on(polys, 4)) == _content(on(polys, 4).form).p, polys
    assert set(steps) == {"no minor", "points", "point failed"}


def test_a_failed_point_test_gives_the_same_p(monkeypatch):
    # every point test fails, so each limit reads the form's gcd
    monkeypatch.setattr(analysis, "_jacobian_rank", lambda rows, point: -1)
    for name in FEIGIN_ALGEBRAS:
        pi, tops = borel_tops(name)
        rep = report(pi, tops)
        assert _tops_content(rep) == _content(report(pi, tops).form).p
        assert "form" in rep.__dict__
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    assert _tops_content(on([x, y * z + y * y], 3)) == Polynomial.const(3, 1)


def spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("name", POINT_PROVED)
def test_feigin_builds_no_form_and_takes_no_gcd_when_points_prove_p_is_one(name, monkeypatch):
    forms = spy(monkeypatch, analysis, "_form_of_differentials")
    gcds = spy(monkeypatch, analysis, "multivariate_gcd")
    prs = spy(monkeypatch, polyring, "_gcd_rec")
    rep = feigin_suite(algebra(name))
    assert rep.ok
    assert {c.name: c for c in rep.clauses}["fundamental_semiinvariant"].data["computed"] == "1"
    assert forms == gcds == prs == []


@pytest.mark.parametrize("name", MONOMIAL)
def test_feigin_reads_a_monomial_p_off_the_form(name, monkeypatch):
    forms = spy(monkeypatch, analysis, "_form_of_differentials")
    rep = feigin_suite(algebra(name))
    assert rep.ok
    assert len(forms) == 1
