"""One contraction pipeline: contr_deg_report (the ggs verb), feigin_suite and
z2_suite each run analysis._contraction once, which contracts once, grades
each generator once and runs regularity on pi~ once against the tops.

* a spy on each caller counts the pipeline's runs, its contractions and its
  regularity calls on pi~;
* contr_deg_report equals an in-test copy of the body it replaced, on every
  small builtin at the Borel weights and at seeded weight vectors, valid and
  invalid, with full, reduced and short generator sets;
* the two branches no paper target reaches: a generator count that is not
  the index, and a hand-built symmetric pair whose weights do not contract;
* a reduced set is graded once: the pairs t_degree_reduction carries are
  read by the pipeline, and an edited list or other weights grade again.
"""

import random

import pytest
from conftest import cached_builtin, cached_pair

from liecontract import analysis
from liecontract.analysis import (ContrDegReport, contr_deg_report, feigin_suite, regularity,
                                  z2_suite)
from liecontract.builders import Z2_PAIRS, SymmetricPair, borel_decomposition
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.invariants import GeneratorSet, char_invariants, t_degree_reduction
from liecontract.lie import algebra_index

SMALL = ("sl2", "so4", "sl3", "sp4", "so5")


def spy_pipeline(monkeypatch):
    """A log of ("pipeline", res) per _contraction run, ("contract", res)
    per contraction and ("regularity", pi) per regularity call."""
    log = []
    real_pipeline, real_contract, real_regularity = (
        analysis._contraction, analysis.contract_algebra, analysis.regularity)

    def pipeline(L, gens, w):
        out = real_pipeline(L, gens, w)
        log.append(("pipeline", out[0]))
        return out

    def contract(L, w):
        res = real_contract(L, w)
        log.append(("contract", res))
        return res

    def spied_regularity(pi, casimirs):
        log.append(("regularity", pi))
        return real_regularity(pi, casimirs)

    monkeypatch.setattr(analysis, "_contraction", pipeline)
    monkeypatch.setattr(analysis, "contract_algebra", contract)
    monkeypatch.setattr(analysis, "regularity", spied_regularity)
    return log


@pytest.mark.parametrize("run", [
    lambda: contr_deg_report(char_invariants(cached_builtin("sl3")),
                             borel_decomposition(cached_builtin("sl3"))),
    lambda: feigin_suite(cached_builtin("sl3")),
    lambda: z2_suite(cached_pair("sl2_so2")),
    lambda: z2_suite(cached_pair("so4_gl2")),
], ids=["ggs sl3", "feigin sl3", "z2 sl2_so2", "z2 so4_gl2"])
def test_each_caller_runs_the_pipeline_once(monkeypatch, run):
    log = spy_pipeline(monkeypatch)
    rep = run()
    assert rep.ok
    pipelines = [res for kind, res in log if kind == "pipeline"]
    assert len(pipelines) == 1
    res = pipelines[0]
    assert [res] == [x for kind, x in log if kind == "contract"]
    assert res.valid
    on_limit = [pi for kind, pi in log if kind == "regularity" and pi is res.pi_tilde]
    assert len(on_limit) == 1


def test_an_invalid_contraction_stops_the_pipeline_before_the_tops(monkeypatch):
    L = cached_builtin("sl2")
    graded = []
    monkeypatch.setattr(analysis, "t_degree", lambda g, w: graded.append(g) or t_degree(g, w))
    log = spy_pipeline(monkeypatch)
    res, pairs, limit = analysis._contraction(L, char_invariants(L).gens,
                                              ContractionWeights((0, 1, 0)))
    assert not res.valid and pairs is None and limit is None
    assert graded == [] and [kind for kind, _ in log] == ["contract", "pipeline"]


def parent_contr_deg_report(gens, w):
    """contr_deg_report as it was before the pipeline: the count check ran
    before the generators were graded."""
    L = gens.algebra
    ell = len(gens)
    res = contract_algebra(L, w)
    if not res.valid:
        idx, pw = res.offending
        pair = f"({L.labels[idx[0]]},{L.labels[idx[1]]})"
        return ContrDegReport(ok=False, error=f"invalid contraction: t^{pw} at pair {pair}")
    ind0 = algebra_index(L)
    if ind0 != ell:
        return ContrDegReport(ok=False, error=f"generator count {ell} differs from index {ind0}")
    pairs = [t_degree(g, w) for g in gens.gens]
    limit = regularity(res.pi_tilde, [top for _, top in pairs])
    indices = {"index_original": ind0, "index_contracted": limit.index}
    if ind0 != limit.index:
        return ContrDegReport(ok=False, index_preserved=False, **indices,
                              error="index is not preserved; the degree law does not apply")
    t_degrees = [d for d, _ in pairs]
    total = sum(t_degrees)
    law = {**indices, "index_preserved": True, "degrees": [g.degree() for g in gens.gens],
           "t_degrees": t_degrees, "sum_t_degrees": total, "weight_total": w.total,
           "independent": limit.independent}
    if total < w.total:
        error = "degree-law violation: sum of t-degrees below the weight total"
        return ContrDegReport(ok=False, error=error, **law)
    if total == w.total:
        ok = limit.independent and limit.equal
        error = "equality case must give independent tops satisfying the equality"
        return ContrDegReport(ok=ok, error=None if ok else error, **law,
                              classification="equality", kostant_with_limit=limit.equal,
                              good_generating_system=limit.independent)
    ok = not limit.independent
    error = "strict case must give dependent highest components"
    return ContrDegReport(ok=ok, error=None if ok else error, **law, classification="strict",
                          good_generating_system=False)


@pytest.mark.parametrize("name", SMALL)
def test_contr_deg_report_equals_the_body_it_replaced(name):
    L = cached_builtin(name)
    gens = char_invariants(L)
    rng = random.Random(f"pipeline-{name}")
    weights = [borel_decomposition(L), ContractionWeights((0,) * L.n),
               ContractionWeights((1,) * L.n)]
    weights += [ContractionWeights(tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(L.n)))
                for _ in range(10)]
    valid = 0
    for w in weights:
        short = GeneratorSet(algebra=L, gens=gens.gens[:-1], normalization=gens.normalization)
        for gs in (gens, t_degree_reduction(gens, w), short):
            assert contr_deg_report(gs, w).as_dict() == parent_contr_deg_report(gs, w).as_dict()
        valid += contract_algebra(L, w).valid
    assert 3 <= valid < len(weights)


def test_a_generator_count_other_than_the_index_is_reported():
    L = cached_builtin("sl3")
    gens = char_invariants(L)
    short = GeneratorSet(algebra=L, gens=gens.gens[:-1], normalization=gens.normalization)
    rep = contr_deg_report(short, borel_decomposition(L))
    assert rep.as_dict() == {
        "ok": False, "error": "generator count 1 differs from index 2",
        **{key: None for key in rep.as_dict() if key not in ("ok", "error")}}
    # an invalid contraction is reported first
    rep = contr_deg_report(short, ContractionWeights((0, 0, 0, 1, 0, 0, 0, 0)))
    assert not rep.ok and rep.error == "invalid contraction: t^-1 at pair (e1,f1)"


def test_a_symmetric_pair_that_does_not_contract_fails_at_contraction_valid():
    pair = cached_pair("sl2_so2")
    bad = SymmetricPair(pair_id=pair.pair_id, parent=pair.parent, g0=pair.g0, g1=pair.g1,
                        cartan_subspace=pair.cartan_subspace,
                        centralizer_alg=pair.centralizer_alg,
                        weights=ContractionWeights((0, 1, 0)))
    rep = z2_suite(bad)
    assert [(c.name, c.ok) for c in rep.clauses] == [
        ("z2_grading", True), ("borel_dimension_identity", True),
        ("contraction_valid", False)]
    assert rep.clauses[-1].data == {} and not rep.ok


def spy_grading(monkeypatch):
    graded = []
    monkeypatch.setattr(analysis, "t_degree", lambda g, w: graded.append(g) or t_degree(g, w))
    return graded


@pytest.mark.parametrize("pair_id", Z2_PAIRS)
def test_z2_reads_the_pairs_the_reduction_carries(pair_id, monkeypatch):
    graded = spy_grading(monkeypatch)
    pair = cached_pair(pair_id)
    assert z2_suite(pair).ok
    assert graded == []
    reduced = t_degree_reduction(char_invariants(pair.parent), pair.weights)
    _, pairs, _ = analysis._contraction(pair.parent, reduced.gens, pair.weights)
    assert graded == []
    assert pairs == [t_degree(g, pair.weights) for g in reduced.gens]


@pytest.mark.parametrize("name", SMALL)
def test_contr_deg_report_grades_a_reduced_set_once(name, monkeypatch):
    L = cached_builtin(name)
    gens = char_invariants(L)
    w = borel_decomposition(L)
    reduced = t_degree_reduction(gens, w)
    graded = spy_grading(monkeypatch)
    want = parent_contr_deg_report(reduced, w).as_dict()
    graded.clear()
    # the weights it was graded at, also as an equal copy
    for same in (w, ContractionWeights(tuple(w))):
        assert contr_deg_report(reduced, same).as_dict() == want
    assert graded == []
    # other weights grade again
    other = ContractionWeights((0,) * L.n)
    assert contr_deg_report(reduced, other).as_dict() == parent_contr_deg_report(
        reduced, other).as_dict()
    assert len(graded) == len(reduced.gens)
    # so does a list edited after it was made
    graded.clear()
    edited = t_degree_reduction(gens, w)
    edited.gens[0] = edited.gens[0] * 2
    assert contr_deg_report(edited, w).as_dict() == parent_contr_deg_report(edited, w).as_dict()
    assert len(graded) == len(reduced.gens)
