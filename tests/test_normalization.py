"""The Pfaffian-minor normalisation of char_invariants against the full
wedge-power normalisation it replaced, and the regularity equality that
moved from char_invariants to kostant_check, checked here in full as well."""

import itertools
import random

import pytest
from conftest import cached_builtin, cached_pair, random_polynomial, volume_dual

from liecontract import invariants
from liecontract.analysis import kostant_check
from liecontract.builders import BUILTIN_ALGEBRAS
from liecontract.exterior import (MultiVector, differential, wedge, wedge_power,
                                  wedge_power_coefficient)
from liecontract.invariants import char_invariants
from liecontract.lie import lie_poisson_bivector
from liecontract.polyring import Polynomial


def reference_normalize(L, gens):
    """The replaced routine: build both sides of the regularity equality in
    full, scale at the first index set, and compare every coefficient."""
    pi = lie_poisson_bivector(L)
    n = L.n
    ell = len(gens)
    if (n - ell) % 2:
        raise ValueError("generator count does not match a skew rank")
    forms = differential(gens[0])
    for g in gens[1:]:
        forms = wedge(forms, differential(g))
    A = volume_dual(forms)
    B = wedge_power(pi, (n - ell) // 2)
    if A.is_zero or B.is_zero:
        raise ValueError("degenerate generator set")
    idx = next(iter(sorted(B.terms)))
    pb = B.terms[idx]
    pa = A.terms.get(idx)
    if pa is None:
        raise ValueError("generator differentials are not proportional to the wedge power")
    bm, bc = pb.leading()
    ac = pa.coefficient(bm)
    if not ac:
        raise ValueError("generator differentials are not proportional to the wedge power")
    scale = bc / ac
    if A.scale(scale) != B:
        raise ValueError("generator normalization failed: sides are not proportional")
    gens[0] = gens[0] * scale
    return scale


def raw_generators(L, monkeypatch):
    """char_invariants' generators before the normalisation."""
    with monkeypatch.context() as m:
        m.setattr(invariants, "_normalize_to_regularity", lambda L, gens: 1)
        return char_invariants(L).gens


@pytest.mark.parametrize("source", ["sl2", "sl3", "sp4", "so4", "so5",
                                    "sl2_so2", "sp4_sp2sp2", "so4_gl2"])
def test_scale_matches_the_full_wedge_normalisation(source, monkeypatch):
    L = cached_builtin(source) if source in BUILTIN_ALGEBRAS else cached_pair(source).parent
    raw = raw_generators(L, monkeypatch)
    new, ref = list(raw), list(raw)
    scale = invariants._normalize_to_regularity(L, new)
    assert scale == reference_normalize(L, ref)
    assert new == ref
    assert char_invariants(L).normalization == scale


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_regularity_equality_holds_exactly(name):
    L = cached_builtin(name)
    gs = char_invariants(L)
    pi = lie_poisson_bivector(L)
    rep = kostant_check(gs, pi, len(gs))
    cert = rep.certificate
    assert rep.is_kostant_type
    assert cert.q1 == Polynomial.const(L.n, 1) and cert.q2 == Polynomial.const(L.n, 1)
    # kostant_check reads one coefficient; the equality holds at every one
    forms = differential(gs.gens[0])
    for g in gs.gens[1:]:
        forms = wedge(forms, differential(g))
    top_k, top = pi.top_power
    assert top_k == (L.n - len(gs)) // 2 and volume_dual(forms) == top


def test_non_proportional_generators_raise_value_error(monkeypatch):
    L = cached_builtin("sl3")
    gens = raw_generators(L, monkeypatch)
    gens[1] = Polynomial.variable(L.n, 0) ** 3
    with pytest.raises(ValueError, match="not proportional to the wedge power"):
        invariants._normalize_to_regularity(L, gens)


def test_equal_leading_coefficients_are_not_enough(monkeypatch):
    # f12 cubed changes the Jacobian minor below its leading term only, so
    # the comparison of the whole minor is what rejects this set
    L = cached_builtin("sl3")
    gens = raw_generators(L, monkeypatch)
    gens[1] = gens[1] + Polynomial.variable(L.n, L.label_index("f12")) ** 3
    with pytest.raises(ValueError, match="not proportional to the wedge power"):
        invariants._normalize_to_regularity(L, gens)
    with pytest.raises(ValueError, match="not proportional"):
        reference_normalize(L, gens)


def test_too_many_generators_raise_value_error(monkeypatch):
    L = cached_builtin("sl3")
    gens = raw_generators(L, monkeypatch)
    gens += [Polynomial.variable(L.n, 0), Polynomial.variable(L.n, 1)]
    with pytest.raises(ValueError, match="degenerate generator set"):
        invariants._normalize_to_regularity(L, gens)


def test_wedge_power_coefficient_matches_the_chain():
    rng = random.Random(7)
    pis = [lie_poisson_bivector(cached_builtin(name)) for name in ("sl3", "sp4")]
    for n in (4, 5, 6):
        terms = {(i, j): random_polynomial(rng, n, max_degree=1, max_terms=2)
                 for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6}
        pis.append(MultiVector(n, 2, terms))
    for pi in pis:
        for k in range(1, pi.n // 2 + 1):
            power = wedge_power(pi, k)
            if k == pi.top_power[0]:
                assert power == pi.top_power[1]
            for idx in itertools.combinations(range(pi.n), 2 * k):
                assert wedge_power_coefficient(pi, idx) == power.coefficient(idx)
    pi = pis[0]
    for bad in [(1, 0), (0, 0), (-1, 0), (0, pi.n), (0, 1, 2)]:
        with pytest.raises(ValueError):
            wedge_power_coefficient(pi, bad)
