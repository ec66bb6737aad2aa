"""The top wedge power of a bivector: one memoised (k, wedge^k pi) per bivector.

Equivalence against the chain loop (repeated wedge(., pi) keeping every
power) and against the unmemoised wedge_power, the cross-check against the
seeded point ranks, and a count of the Pfaffian expansions a second query on
the same algebra or limit makes.  The seeded point ranks are kept per bivector
too: spies on the int elimination (linalg._echelon) count the reductions of
one bivector's matrix.
"""

import random
import sys
import threading

import pytest

from liecontract import exterior, linalg
from liecontract.analysis import (contr_deg_report, fundamental_semiinvariant, kostant_check,
                                  z2_suite)
from liecontract.builders import (BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition,
                                  builtin_algebra, symmetric_pair)
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.exterior import MultiVector, wedge, wedge_power
from liecontract.invariants import char_invariants, t_degree_reduction
from liecontract.lie import algebra_index, lie_poisson_bivector
from liecontract.polyring import Polynomial

# index of every algebra below, as computed before the engine existed
INDEX = {"sl2": 1, "sl3": 2, "sp4": 2, "so4": 2, "so5": 2,
         "sl2_so2": 1, "sp4_sp2sp2": 2, "so4_gl2": 2}


def reference_powers(pi):
    """The replaced chain loop: every nonzero power, {k: wedge^k pi}."""
    powers, cur, k = {}, None, 0
    while 2 * (k + 1) <= pi.n:
        nxt = pi if cur is None else wedge(cur, pi)
        if nxt.is_zero:
            break
        k += 1
        powers[k] = nxt
        cur = nxt
    return powers


def algebra(name):
    """A fresh builtin, or a fresh symmetric pair's parent."""
    return builtin_algebra(name) if name in BUILTIN_ALGEBRAS else symmetric_pair(name).parent


def test_every_small_algebra_is_covered():
    small = [name for name in BUILTIN_ALGEBRAS + Z2_PAIRS if algebra(name).n <= 10]
    assert sorted(small) == sorted(INDEX)


@pytest.mark.parametrize("name", sorted(INDEX))
def test_chain_matches_replaced_loop_and_wedge_power(name):
    L = algebra(name)
    pi = lie_poisson_bivector(L)
    ref = reference_powers(pi)
    for k in range(L.n // 2 + 1):
        want = ref.get(k, MultiVector(L.n, 2 * k)) if k else MultiVector.unit(L.n)
        assert want == wedge_power(pi, k)
    top_k, top = pi.top_power
    assert top_k == max(ref) and top == ref[top_k] == wedge_power(pi, top_k)
    # a lower power is computed afresh; the kept top is not replaced
    assert wedge_power(pi, 1) == pi and pi.top_power[1] is top
    assert algebra_index(L) == L.n - 2 * max(ref) == INDEX[name]
    assert L.n - 2 * top_k == INDEX[name]


def test_one_bivector_and_one_chain_per_algebra():
    L = builtin_algebra("sl3")
    pi = lie_poisson_bivector(L)
    assert L.bivector is pi and pi.top_power is pi.top_power
    res = contract_algebra(L, borel_decomposition(L))
    assert res.pi_tilde is lie_poisson_bivector(res.contracted)


def test_chain_rejects_bad_requests():
    pi = lie_poisson_bivector(builtin_algebra("sl2"))
    with pytest.raises(ValueError):
        wedge_power(pi, 2)
    with pytest.raises(ValueError):
        wedge_power(pi, -1)
    with pytest.raises(ValueError):
        MultiVector.unit(3).top_power
    with pytest.raises(ValueError):
        wedge_power(MultiVector.unit(3), 0)


def test_zero_bivector_has_full_index():
    zero = MultiVector(4, 2)
    assert zero.top_power == (0, MultiVector.unit(4))
    assert wedge_power(zero, 2) == MultiVector(4, 4)
    # index n: the top power is the unit 0-vector, whose content is 1
    assert fundamental_semiinvariant(zero, 4).p == Polynomial.const(4, 1)


def test_top_power_is_checked_against_the_point_ranks(monkeypatch):
    L = builtin_algebra("sl3")
    pi = MultiVector(L.n, 2, lie_poisson_bivector(L).terms)    # nothing memoised yet
    # a seeded point of full rank contradicts the index 2 of sl3: the
    # Pfaffian on its pivots, all of sl3's 8 indices, vanishes
    monkeypatch.setattr(exterior, "point_ranks",
                        lambda _: iter([(L.n, tuple(range(L.n)), None)]))
    with pytest.raises(AssertionError, match="disagrees with point evaluation"):
        pi.top_power
    monkeypatch.undo()
    # the failed check kept nothing; the true ranks agree
    assert pi.top_power[0] == (L.n - INDEX["sl3"]) // 2
    assert max(r for r, _, _ in exterior.point_ranks(pi)) <= 2 * pi.top_power[0]


def test_second_queries_make_no_pfaffian_expansions(monkeypatch):
    expanded = []
    real = linalg._Pfaffians._expand

    def counting(self, rows):
        expanded.append(rows)
        return real(self, rows)

    # every index, top power and B_I is read off the bivector's one Pfaffian
    # engine; regularity's A_I (certificate, equal) is made afresh for each
    # report, so the kostant queries read only what the index proof gives
    monkeypatch.setattr(linalg._Pfaffians, "_expand", counting)
    L = builtin_algebra("sp4")
    w = borel_decomposition(L)
    res = contract_algebra(L, w)
    gens = char_invariants(L)
    tops = [t_degree(g, w)[1] for g in gens.gens]
    pi = lie_poisson_bivector(L)

    def queries():
        return (algebra_index(L), kostant_check(gens, pi, 2).independent,
                fundamental_semiinvariant(pi, 2).p,
                algebra_index(res.contracted),
                kostant_check(tops, res.pi_tilde, 2).independent,
                fundamental_semiinvariant(res.pi_tilde, 2).p)

    before = len(expanded)
    first = queries()
    made = len(expanded)
    assert made > before
    assert queries() == first
    assert len(expanded) == made


def test_a_second_kostant_check_makes_no_b_i_expansion(monkeypatch):
    L = builtin_algebra("sp4")
    gens = char_invariants(L)
    pi = MultiVector(L.n, 2, lie_poisson_bivector(L).terms)    # nothing memoised yet
    engine = pi._engine
    expanded = []
    real = linalg._Pfaffians._expand

    def spy(self, rows):
        expanded.append(self is engine)
        return real(self, rows)

    monkeypatch.setattr(linalg._Pfaffians, "_expand", spy)
    assert kostant_check(gens, pi, 2).is_kostant_type
    # the first report expands B_I on pi's engine and A_I on its own
    assert True in expanded and False in expanded
    made = len(expanded)
    assert kostant_check(gens, pi, 2).is_kostant_type
    assert True not in expanded[made:]


def test_threads_sharing_one_chain_get_the_right_powers():
    L = builtin_algebra("sl3")
    ref = reference_powers(lie_poisson_bivector(L))
    top_k = max(ref)
    want = [ref.get(k, MultiVector(L.n, 2 * k)) for k in range(L.n // 2 + 1)]
    orders = [[1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3], [3, 1, 4, 2]]
    errors = []

    def worker(pi, order):
        try:
            for k in order:
                if pi.top_power != (top_k, want[top_k]):
                    errors.append("top")
                if wedge_power(pi, k) != want[k]:
                    errors.append(k)
        except Exception as exc:    # a thread's exception would be lost otherwise
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            pi = MultiVector(L.n, 2, lie_poisson_bivector(L).terms)   # nothing memoised
            threads = [threading.Thread(target=worker, args=(pi, o)) for o in orders * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert L.n - 2 * pi.top_power[0] == INDEX["sl3"]
    finally:
        sys.setswitchinterval(switch)
    assert not errors


def spy_echelon(monkeypatch):
    """Every matrix handed to the one elimination, _echelon, through linalg
    (_reduced, rational_rank) or exterior (point_ranks)."""
    seen = []
    real = linalg._echelon

    def spy(matrix):
        seen.append(matrix)
        return real(matrix)

    monkeypatch.setattr(linalg, "_echelon", spy)
    monkeypatch.setattr(exterior, "_echelon", spy)
    return seen


def matrix_at(pi, point):
    """The int matrix point_ranks reduces: pi's matrix at point times one scale."""
    return exterior._scaled_matrix_at(pi, point)[0]


def test_point_ranks_are_reduced_once_and_only_as_far_as_read(monkeypatch):
    L = builtin_algebra("sl3")
    pi = MultiVector(L.n, 2, lie_poisson_bivector(L).terms)    # nothing kept yet
    want = list(exterior.point_ranks(MultiVector(L.n, 2, pi.terms)))
    seen = spy_echelon(monkeypatch)
    assert next(exterior.point_ranks(pi)) == want[0] and len(seen) == 1
    assert list(exterior.point_ranks(pi)) == want and len(seen) == 3
    assert list(exterior.point_ranks(pi)) == want and len(seen) == 3
    assert [matrix_at(pi, point) for _, _, point in want] == seen


def test_z2_suite_reduces_the_parent_matrix_once_per_point(monkeypatch):
    # char_invariants proves the scale and the index at a nilpotent point,
    # so no seeded point of the parent is reduced
    parent = lie_poisson_bivector(symmetric_pair("sl4_sp4").parent)
    points = [point for _, _, point in exterior.point_ranks(MultiVector(parent.n, 2))]
    mats = [matrix_at(parent, point) for point in points]
    seen = spy_echelon(monkeypatch)
    assert z2_suite("sl4_sp4").ok
    counts = [sum(m == mat for m in seen) for mat in mats]
    assert max(counts) == 0, counts


def raising_weights(L, seed):
    """Valid weights in {0,1,2}^n whose limit has a larger index than L."""
    rng = random.Random(seed)
    ell = algebra_index(L)
    while True:
        w = ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n)))
        res = contract_algebra(L, w)
        if res.valid and max(r for r, _, _ in exterior.point_ranks(res.pi_tilde)) < L.n - ell:
            return w


@pytest.mark.parametrize("seed", range(3))
def test_index_raising_report_reduces_each_bivector_at_most_three_times(seed, monkeypatch):
    # the routine's fallback and the top power's cross-check share the ranks
    L = builtin_algebra("sl3")
    w = raising_weights(L, seed)
    gens = t_degree_reduction(char_invariants(L), w)
    owners = []
    real_at = exterior._scaled_matrix_at

    def scaled_at(pi, point):
        owners.append(pi)
        return real_at(pi, point)

    seen = spy_echelon(monkeypatch)
    monkeypatch.setattr(exterior, "_scaled_matrix_at", scaled_at)
    assert contr_deg_report(gens, w).index_preserved is False
    # point_ranks reduces each matrix right after evaluating it
    assert len(seen) >= len(owners) > 0
    per_bivector = {}
    for pi in owners:
        per_bivector[id(pi)] = per_bivector.get(id(pi), 0) + 1
    assert max(per_bivector.values()) <= 3, per_bivector
