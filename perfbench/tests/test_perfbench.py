"""Tests of the benchmark's own machinery: span arithmetic, the oracles, the
wedge work counter and the speed scaling."""

import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import liecontract as lc  # noqa: E402
from liecontract.exterior import MultiVector  # noqa: E402
from liecontract.polyring import Polynomial  # noqa: E402

import counters  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def job(fn):
    return SimpleNamespace(label="job", run=fn)


def span(name, parent, start, end, ovh=0.0):
    return [name, parent, 0, start, end, ovh]


def test_self_time_of_nested_spans():
    s = [span("job", -1, 0.0, 10.0, ovh=0.5),
         span("a", 0, 1.0, 4.0),
         span("b", 1, 2.0, 3.0),
         span("a", 0, 5.0, 9.0)]
    assert spans.self_times(s) == [2.5, 2.0, 1.0, 4.0]
    agg = spans.aggregate(s)
    assert agg["a"] == {"calls": 2, "self_s": 6.0, "incl_s": 7.0}
    assert spans.time_under(s, "b", "a") == 1.0
    assert spans.time_under(s, "b", "job") == 1.0
    assert spans.time_under(s, "a", "b") == 0.0


def test_recursive_span_counted_once_in_inclusive_time():
    s = [span("f", -1, 0.0, 6.0), span("f", 0, 1.0, 5.0), span("g", 1, 2.0, 3.0)]
    assert spans.self_times(s) == [2.0, 3.0, 1.0]
    assert spans.aggregate(s)["f"]["incl_s"] == 6.0


def test_recorder_nests_calls_between_modules_and_restores_bindings():
    import liecontract.analysis as analysis
    import liecontract.exterior as exterior
    original = exterior.wedge
    pi = lc.lie_poisson_bivector(lc.builtin_algebra("sl3"))
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert analysis.wedge is exterior.wedge is not original
        run.time_job(job(lambda: exterior.wedge_power(pi, 3)), rec)
    finally:
        spans.uninstall(undo)
    assert exterior.wedge is original and analysis.wedge is original
    names = [s[spans.NAME] for s in rec.spans]
    assert names == ["bench.job", "exterior.wedge_power", "exterior.wedge",
                     "exterior.wedge"]
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, 1, 1]
    assert all(s[spans.JOB] == 0 for s in rec.spans)
    assert all(x >= 0 for x in spans.self_times(rec.spans))


def test_validity_oracle_agrees_with_contract_algebra():
    rng = random.Random(7)
    for name in ("sl2", "sl3", "sp4", "so4", "so5"):
        L = lc.builtin_algebra(name)
        for _ in range(25):
            w = [rng.randint(0, 2) for _ in range(L.n)]
            res = lc.contract_algebra(L, lc.ContractionWeights(tuple(w)))
            valid, offending, limit = oracle.contract_oracle(L.brackets, w)
            assert res.valid == valid == oracle.weights_valid(L.brackets, w)
            if valid:
                assert {ij: dict(r) for ij, r in res.contracted.brackets.items()} == limit
            else:
                assert tuple(res.offending) == offending


def test_term_products_on_hand_sized_wedge():
    x = [Polynomial.variable(4, i) for i in range(4)]
    one = Polynomial.const(4, 1)
    a = MultiVector(4, 2, {(0, 1): x[0], (2, 3): x[1] + x[2]})
    b = MultiVector(4, 2, {(2, 3): x[0] + x[3] + one, (0, 2): x[1]})
    # only (0,1) with (2,3) is disjoint: 1 term times 3 terms
    assert counters.term_products(a, b) == 3
    assert counters.term_products(b, a) == 3
    c = MultiVector(4, 1, {(3,): x[0] + x[1]})
    # (0,1)^(3): 1*2, (2,3)^(3) overlaps
    assert counters.term_products(a, c) == 2


def test_wedge_counters_see_repeated_chains():
    pi = lc.lie_poisson_bivector(lc.builtin_algebra("sl3"))
    rec = spans.Recorder()
    cnt = counters.Counters(rec)
    undo = spans.install(rec, cnt.hooks())
    try:
        run.time_job(job(lambda: (lc.wedge_power(pi, 3), lc.wedge_power(pi, 3))), rec)
    finally:
        spans.uninstall(undo)
    assert cnt.wedge_calls == 4
    assert cnt.repeats == 2
    assert cnt.chain_starts_max == 2
    assert cnt.term_products > 0 and cnt.terms_out > 0


def test_poly_text_round_trip():
    rng = random.Random(3)
    labels = ["e", "h", "f", "x1"]
    for _ in range(50):
        p = oracle.random_poly(rng, 4)
        text = oracle.render_poly(p, labels)
        q = lc.parse_polynomial(text, labels)
        assert oracle.parse_poly(lc.poly_to_str(q, labels), labels) == p


def test_t_degree_oracle():
    p = {((0, 2),): Fraction(1), ((1, 1), (2, 1)): Fraction(-3), ((2, 3),): Fraction(1, 2)}
    assert oracle.t_degree_oracle(p, [1, 0, 2]) == (3, 6, {((2, 3),): Fraction(1, 2)})


def test_tail_percentile_keeps_ten_samples_beyond_in_every_round():
    assert run.tail(list(range(1, 1001)), 1000) == (99.0, 990)
    assert run.tail(list(range(1, 1001)), 100) == (90.0, 900)
    assert run.tail(list(range(1, 101)), 100) == (90.0, 90)
    assert run.tail([0.5, 0.25], 1) == (100.0, 0.5)


def test_speed_factor_is_mean_kernel_speed():
    sp = speed.Speed()
    sp.samples = [speed.REF_KERNEL_S, 2 * speed.REF_KERNEL_S, 4 * speed.REF_KERNEL_S]
    assert abs(sp.factor() - (1 + 0.5 + 0.25) / 3) < 1e-12
    assert abs(sp.factor(1) - 0.375) < 1e-12


def test_round_takes_kernel_time_out_and_scales_by_the_pass_factor():
    class FixedSpeed(speed.Speed):
        def sample(self):
            t0 = perf_counter()
            while perf_counter() - t0 < 0.05:
                pass
            self.samples.append(2 * speed.REF_KERNEL_S)
            self.spent += perf_counter() - t0

    sp = FixedSpeed()
    wl = SimpleNamespace(round=lambda inputs, runner: [
        SimpleNamespace(label="j", run=sp.sample, check=lambda r: None, probe=None)])
    stats = run.Stats()
    run.run_round(wl, None, None, stats, sp)
    # the job is one kernel sample, whose 0.05 s are taken out of its time
    assert stats.factors == [0.5]
    assert 0 <= stats.raw_rounds[0] < 0.01
    assert stats.rounds[0] == stats.raw_rounds[0] * 0.5
