"""Casimirs proved by construction: the verdict that lets regularity skip the
bracket check.

char_invariants seeds a _Casimirs set for the bivector of an algebra that
from_matrices built, t_degree_reduction keeps it, and analysis._contraction
passes it to the tops of a valid contraction.  Every proved set is compared
with the bracket check it replaces, _weight(_int_partials(F), pi) == [0] * n;
spies count the _weight calls the suites still make; the normalisation
checks the list of an algebra built by hand once, and the sets changed
after they were made keep the check.  Standard library only.
"""

import random

import pytest
from conftest import cached_builtin, cached_pair

from liecontract import analysis, builders, invariants
from liecontract.analysis import contr_deg_report, feigin_suite, regularity, z2_suite
from liecontract.builders import (BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS,
                                  borel_decomposition)
from liecontract.contract import ContractionWeights, contract_algebra
from liecontract.invariants import (GeneratorSet, _casimirs_of, _int_partials, _weight,
                                    char_invariants, t_degree_reduction)
from liecontract.lie import LieAlgebra, algebra_from_text, algebra_to_text, lie_poisson_bivector
from liecontract.polyring import Polynomial

SMALL = ("sl2", "sl3", "sp4", "so4", "so5")
PAST_THE_CAP = {"sp6": lambda: builders._build_sp(6), "so7": lambda: builders._build_so(7),
                "sl5": lambda: builders._build_sl(5)}


def checked(pi, polys):
    """The bracket check the verdict replaces: every F a nonzero Casimir of pi."""
    return all(not F.is_zero and _weight(_int_partials(F), pi) == [0] * pi.n for F in polys)


def assert_proved(polys, pi):
    assert _casimirs_of(polys) is pi
    assert checked(pi, polys)


def weight_spy(monkeypatch):
    """The ring sizes n of the _weight calls made for the rest of the test."""
    calls = []
    real = invariants._weight

    def spy(h_partials, pi):
        calls.append(pi.n)
        return real(h_partials, pi)

    monkeypatch.setattr(invariants, "_weight", spy)
    monkeypatch.setattr(analysis, "_weight", spy)
    return calls


def seeded_valid_weights(L, seed, count=3):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        w = ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n)))
        if any(w) and contract_algebra(L, w).valid:
            found.append(w)
    return found


# ---------------------------------------------------------------------------
# the verdict equals the check on every set the package proves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(BUILTIN_ALGEBRAS) + list(PAST_THE_CAP))
def test_char_invariants_carry_the_verdict(name):
    L = PAST_THE_CAP[name]() if name in PAST_THE_CAP else cached_builtin(name)
    assert_proved(char_invariants(L).gens, lie_poisson_bivector(L))


@pytest.mark.parametrize("pid", Z2_PAIRS)
def test_pair_parent_and_reduced_set_carry_the_verdict(pid):
    pair = cached_pair(pid)
    pi = lie_poisson_bivector(pair.parent)
    gens = char_invariants(pair.parent)
    assert_proved(gens.gens, pi)
    assert_proved(t_degree_reduction(gens, pair.weights).gens, pi)


def limit_tops(L, gens, w):
    res, _, limit = analysis._contraction(L, gens, w)
    assert res.valid
    return limit.casimirs, res.pi_tilde


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_borel_tops_and_reduced_set_carry_the_verdict(name):
    L = cached_builtin(name)
    gens, w = char_invariants(L), borel_decomposition(L)
    assert_proved(*limit_tops(L, gens.gens, w))
    assert_proved(t_degree_reduction(gens, w).gens, lie_poisson_bivector(L))


@pytest.mark.parametrize("pid", Z2_PAIRS)
def test_z2_tops_carry_the_verdict(pid):
    pair = cached_pair(pid)
    reduced = t_degree_reduction(char_invariants(pair.parent), pair.weights)
    assert_proved(*limit_tops(pair.parent, reduced.gens, pair.weights))


@pytest.mark.parametrize("name", SMALL)
def test_seeded_weightings_keep_the_verdict(name):
    L = cached_builtin(name)
    gens = char_invariants(L)
    pi = lie_poisson_bivector(L)
    for w in seeded_valid_weights(L, 700 + SMALL.index(name)):
        assert_proved(t_degree_reduction(gens, w).gens, pi)
        assert_proved(*limit_tops(L, gens.gens, w))
        assert_proved(*limit_tops(L, t_degree_reduction(gens, w).gens, w))


# ---------------------------------------------------------------------------
# what the suites still bracket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pid", Z2_PAIRS)
def test_z2_suite_brackets_nothing(pid, monkeypatch):
    calls = weight_spy(monkeypatch)
    assert z2_suite(builders.symmetric_pair(pid)).ok
    assert calls == []


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_feigin_suite_brackets_only_g_prime(name, monkeypatch):
    calls = weight_spy(monkeypatch)
    L = builders.builtin_algebra(name)
    assert feigin_suite(L).ok
    rank = L.root_data.rank
    # the semicentre generators: the tops but the last, the simple f's and the highest root
    assert calls == [L.n - rank] * (2 * rank)


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_the_fallback_reads_the_verdict(name, monkeypatch):
    # with no seeded point, the limit's report proves l == index's Casimir
    # precondition from its tops' verdict; g' still checks its set, unless
    # it has as many generators as variables (sl2), where the proof needs none
    want = feigin_suite(cached_builtin(name)).as_dict()
    monkeypatch.setattr(analysis, "_pivot_point", lambda *_: None)
    calls = weight_spy(monkeypatch)
    L = builders.builtin_algebra(name)
    assert feigin_suite(L).as_dict() == want
    rank, n_prime = L.root_data.rank, L.n - L.root_data.rank
    assert calls == ([n_prime] * (2 * rank) if 2 * rank < n_prime else [])


# ---------------------------------------------------------------------------
# sets the package did not prove keep the check
# ---------------------------------------------------------------------------

def test_a_seeded_non_casimir_takes_the_fallback(monkeypatch):
    L = cached_builtin("sl3")
    pi = lie_poisson_bivector(L)
    gens = char_invariants(L).gens
    offered = [Polynomial.variable(L.n, 0) * gens[0]] + gens[1:]
    calls = weight_spy(monkeypatch)
    rep = regularity(pi, offered)
    assert rep.pivots is None and calls
    assert rep.casimirs == offered and _casimirs_of(rep.casimirs) is None
    # the same set offered as a plain list is checked, and passes
    calls.clear()
    assert regularity(pi, list(gens)).pivots is not None and calls == [L.n] * len(gens)


def test_a_hand_built_generator_set_keeps_the_check(monkeypatch):
    L = cached_builtin("sl3")
    gens = char_invariants(L)
    w = borel_decomposition(L)
    bad = GeneratorSet(algebra=L, gens=[gens.gens[0] * Polynomial.variable(L.n, 0),
                                        gens.gens[1]], normalization=gens.normalization)
    calls = weight_spy(monkeypatch)
    rep = contr_deg_report(bad, w)
    assert calls and not rep.ok
    # the proved set runs no check, and a plain copy of it runs one per top
    calls.clear()
    assert contr_deg_report(gens, w).ok and calls == []
    plain = GeneratorSet(algebra=L, gens=list(gens.gens), normalization=gens.normalization)
    assert contr_deg_report(plain, w).as_dict() == contr_deg_report(gens, w).as_dict()
    assert calls == [L.n] * len(gens)


def test_brackets_that_disagree_with_the_matrices_seed_no_verdict(monkeypatch):
    # built by hand, with sl2's matrices and its bracket doubled or as it is:
    # no construction proves the bracket is the matrix commutator, so the
    # normalisation checks each generator once and its set comes back proved
    sl2 = cached_builtin("sl2")
    doubled = {pair: {k: 2 * c for k, c in row.items()} for pair, row in sl2.brackets.items()}
    calls = weight_spy(monkeypatch)
    for brackets in (doubled, sl2.brackets):
        L = LieAlgebra(sl2.labels, brackets, matrices=sl2.matrices)
        calls.clear()
        gens = char_invariants(L)
        assert calls == [3] and _casimirs_of(gens.gens) is lie_poisson_bivector(L)
        calls.clear()
        assert regularity(lie_poisson_bivector(L), gens.gens).pivots is not None
        assert calls == []


def test_a_file_algebra_seeds_no_verdict(monkeypatch):
    L, _ = algebra_from_text(algebra_to_text(cached_builtin("sl3")))
    calls = weight_spy(monkeypatch)
    gens = char_invariants(L)       # checked by the normalisation, then proved
    assert calls == [8, 8] and _casimirs_of(gens.gens) is lie_poisson_bivector(L)
    calls.clear()
    assert contr_deg_report(gens, borel_decomposition(L)).ok
    assert calls == []


def test_a_changed_set_loses_the_verdict(monkeypatch):
    L = cached_builtin("sl3")
    pi = lie_poisson_bivector(L)
    gens = char_invariants(L).gens
    assert _casimirs_of(gens) is pi
    assert _casimirs_of(gens[:]) is None and _casimirs_of(list(gens)) is None
    assert _casimirs_of(gens + []) is None
    changed = char_invariants(L).gens
    changed[0] = changed[0] * Polynomial.variable(L.n, 0)
    assert _casimirs_of(changed) is None
    grown = char_invariants(L).gens
    grown.append(Polynomial.variable(L.n, 0))
    assert _casimirs_of(grown) is None
    # a proved set for another bivector proves nothing for this one
    other = char_invariants(builders.builtin_algebra("sl3")).gens
    assert _casimirs_of(other) is not pi
    calls = weight_spy(monkeypatch)
    assert regularity(pi, other).pivots is not None and calls == [8, 8]
