"""The chain-free certificates of z2_suite against the wedge chain.

casimirs_certify_index proves the index of a bivector from known Casimirs
at a seeded point, and _regularity_from_one_minor decides the regularity
equality dF_1^...^dF_l / omega == wedge^k pi from one coefficient pair
(A_I, B_I).  The references are the ones they replace in z2_suite: the
chain's index and the full comparison volume_dual(form) == chain.power(k).
"""

import functools
import itertools

import pytest
from conftest import cached_builtin, cached_pair

from liecontract import analysis, invariants
from liecontract.analysis import _form_of_differentials, _regularity_from_one_minor, z2_suite
from liecontract.builders import (BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition,
                                  symmetric_pair)
from liecontract.contract import contract_algebra, t_degree
from liecontract.exterior import (MultiVector, WedgeChain, point_ranks, volume_dual,
                                  wedge_power_coefficient)
from liecontract.invariants import casimirs_certify_index, char_invariants, t_degree_reduction
from liecontract.lie import lie_poisson_bivector
from liecontract.polyring import Polynomial

PARENTS = list(BUILTIN_ALGEBRAS) + [f"{pid}/parent" for pid in Z2_PAIRS]
LIMITS = [f"{name}/borel" for name in BUILTIN_ALGEBRAS] + [f"{pid}/z2" for pid in Z2_PAIRS]


@functools.lru_cache(maxsize=None)
def case(key):
    """(bivector, Casimirs) of a builtin, a pair's parent, a builtin's Borel
    limit with the tops of its generators, or a pair's limit with the tops
    of its reduced generators."""
    name, _, kind = key.partition("/")
    pair = cached_pair(name) if kind in ("parent", "z2") else None
    L = pair.parent if pair else cached_builtin(name)
    gens = char_invariants(L)
    if kind in ("", "parent"):
        return lie_poisson_bivector(L), tuple(gens.gens)
    if kind == "borel":
        w = borel_decomposition(L)
    else:
        w = pair.weights
        gens = t_degree_reduction(gens, w)
    tops = tuple(t_degree(g, w)[1] for g in gens.gens)
    return contract_algebra(L, w).pi_tilde, tops


def full_comparison(pi, casimirs):
    """The replaced verdict: both sides of the equality built in full."""
    b = pi.chain.power((pi.n - len(casimirs)) // 2)
    return not b.is_zero and volume_dual(_form_of_differentials(casimirs)) == b


@pytest.mark.parametrize("key", PARENTS + LIMITS)
def test_certified_index_equals_the_chain_index(key):
    pi, casimirs = case(key)
    assert casimirs_certify_index(pi, casimirs)
    assert len(casimirs) == pi.chain.index


@pytest.mark.parametrize("key", LIMITS)
def test_one_coefficient_verdict_equals_the_full_comparison(key):
    pi, tops = case(key)
    assert casimirs_certify_index(pi, tops)
    assert not _form_of_differentials(tops).is_zero
    verdict = _regularity_from_one_minor(pi, tops)
    assert verdict is not None and verdict == full_comparison(pi, tops)
    # a rescaled top breaks the equality, and one coefficient sees it
    doubled = (tops[0] * 2,) + tops[1:]
    assert _regularity_from_one_minor(pi, doubled) is False
    assert full_comparison(pi, doubled) is False


@pytest.mark.parametrize("key", ["sl3", "sp4_sp2sp2/z2"])
def test_certificate_refuses_a_non_casimir_and_too_few(key):
    pi, casimirs = case(key)
    x0 = Polynomial.variable(pi.n, 0)
    assert not casimirs_certify_index(pi, casimirs[:-1] + (x0,))
    assert not casimirs_certify_index(pi, casimirs[:-1])


def test_each_check_is_needed_where_every_seeded_point_is_singular():
    # pi = p(x0) d1^d2 with p vanishing at the x0 of every seeded point: the
    # point rank 0 says only index <= 3, while the true index is 1
    n = 3
    x = [Polynomial.variable(n, i) for i in range(n)]
    p = Polynomial.const(n, 1)
    for _, _, point in point_ranks(MultiVector(n, 2)):
        p = p * (x[0] - Polynomial.const(n, point[0]))
    pi = MultiVector(n, 2, {(1, 2): p})
    assert pi.chain.index == 1
    # independent, but x1 and x2 are not Casimirs: the Casimir check refuses
    assert not casimirs_certify_index(pi, x)
    # Casimirs, but dependent: the Jacobian rank refuses
    assert not casimirs_certify_index(pi, [x[0], x[0] ** 2, x[0] ** 3])


def test_an_index_set_with_vanishing_pfaffian_is_refused(monkeypatch):
    pi, tops = case("sl3/borel")
    ell = len(tops)
    point = next(point_ranks(pi))[2]
    bad = next(idx for idx in itertools.combinations(range(pi.n), pi.n - ell)
               if wedge_power_coefficient(pi, idx).is_zero)
    monkeypatch.setattr(invariants, "point_ranks",
                        lambda _: iter([(pi.n - ell, bad, point)]))
    # A = 2B is not B, yet A_I = 2 B_I = 0 = B_I at this I
    doubled = (tops[0] * 2,) + tops[1:]
    assert _regularity_from_one_minor(pi, doubled) is None
    assert full_comparison(pi, doubled) is False


@pytest.mark.parametrize("pid", ["sp4_sp2sp2", "so4_gl2"])
def test_chain_fallback_gives_the_same_report(pid, monkeypatch):
    want = z2_suite(pid).as_dict()
    monkeypatch.setattr(analysis, "casimirs_certify_index", lambda pi, casimirs: False)
    assert z2_suite(pid).as_dict() == want


def test_z2_suite_builds_no_chain_on_the_parent_or_the_limit(monkeypatch):
    seen = []
    extend = WedgeChain._extend

    def spy(self, k):
        seen.append(self.pi)
        return extend(self, k)

    monkeypatch.setattr(WedgeChain, "_extend", spy)
    rep = z2_suite("sl4_sp4")
    assert rep.ok
    pair = symmetric_pair("sl4_sp4")
    parent = lie_poisson_bivector(pair.parent)
    limit = contract_algebra(pair.parent, pair.weights).pi_tilde
    # only the centraliser l, 6-dimensional here, reads its chain
    assert seen and all(pi == pair.centralizer_alg.bivector for pi in seen)
    assert not any(pi == parent or pi == limit for pi in seen)
