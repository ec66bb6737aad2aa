"""The one-pass contraction layer against the paths it replaced.

contract grades the whole bivector in one call of polyring's batch grader,
which checks the weights once and grades each distinct monomial once;
t_degree reads its one-polynomial case.  The seeded-point ranks read their
pivots off linalg's forward int elimination, on the int matrix scale * pi(x),
and conftest.row_reduce reads linalg._reduced, that elimination with an
upward pass, with each pivot row divided by its pivot.
t_degree_reduction keeps each generator's (t-degree, top) and grades again
only the generator it replaced.  The grader reads a weighted degree off one
multiply while deg(m) max(w) <= 65535, and field by field past that bound.

The in-test copies below are the replaced code: a t_expand per polynomial,
a contract that grades each coefficient through it, and the reduction loop
that re-grades every generator for every j.  Results must be identical,
dict orders included.  Standard library only, apart from the one sympy
cross-check, which skips when sympy is absent.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import cached_builtin, cached_pair, random_polynomial, row_reduce
from liecontract import invariants
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition
from liecontract.contract import ContractionResult, ContractionWeights, contract, t_degree
from liecontract.exterior import MultiVector
from liecontract.invariants import char_invariants, membership_linear, t_degree_reduction
from liecontract.lie import LieAlgebra, lie_poisson_bivector
from liecontract.linalg import _echelon, rational_rank
from liecontract.polyring import _EMAX, Polynomial, _graded, poly_compose

# ---------------------------------------------------------------------------
# the replaced paths
# ---------------------------------------------------------------------------


def reference_t_expand(p, weights):
    ws = list(weights)
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    n = p.n
    if len(ws) != n:
        raise ValueError(f"weight vector length {len(ws)} != ring dimension {n}")
    by_field = ws[::-1]
    mask = (1 << (n << 4)) - 1
    buckets = {}
    for m, c in p.terms.items():
        d = 0
        r = m & mask
        while r:
            low = ((r & -r).bit_length() - 1) & ~15
            e = (r >> low) & _EMAX
            d += by_field[low >> 4] * e
            r ^= e << low
        buckets.setdefault(d, {})[m] = c
    return {d: Polynomial._raw(n, b) for d, b in buckets.items()}


def reference_contract(pi, w, labels=None):
    if len(w) != pi.n:
        raise ValueError(f"weight length {len(w)} != ring dimension {pi.n}")
    grades = {}
    for idx, p in pi.terms.items():
        shift = w[idx[0]] + w[idx[1]]
        for d, part in reference_t_expand(p, w).items():
            grades.setdefault(shift - d, {})[idx] = part
    pi_t = {k: MultiVector._raw(pi.n, 2, terms) for k, terms in grades.items()}
    negative = [(idx, k) for k, part in pi_t.items() if k < 0 for idx in part.terms]
    if negative:
        return ContractionResult(pi_t=pi_t, valid=False, weights=w, original=pi,
                                 offending=min(negative))
    tilde = pi_t.get(0, MultiVector._raw(pi.n, 2, {}))
    contracted = None
    if all(p.degree() <= 1 for p in pi.terms.values()):
        use_labels = list(labels) if labels is not None else [f"x{i}" for i in range(pi.n)]
        contracted = LieAlgebra(use_labels, {ij: p.linear_coefficients()
                                             for ij, p in tilde.terms.items()})
        tilde = contracted.bivector
    return ContractionResult(pi_t=pi_t, valid=True, weights=w, original=pi,
                             pi_tilde=tilde, contracted=contracted)


def reference_reduction(gens, w):
    current = list(gens.gens)
    order = sorted(range(len(current)), key=lambda i: current[i].degree())
    changed = True
    while changed:
        changed = False
        for j in order:
            dj, topj = t_degree(current[j], w)
            others = [i for i in order if i != j]
            if not others:
                continue
            pairs = [t_degree(current[i], w) for i in others]
            P = membership_linear(topj, [t for _, t in pairs],
                                  profile=([d for d, _ in pairs], dj))
            if P is None or P.is_zero:
                continue
            current[j] = current[j] - poly_compose(P, [current[i] for i in others])
            changed = True
    return current


# ---------------------------------------------------------------------------
# the batch grader
# ---------------------------------------------------------------------------

def same_parts(got, want):
    """Equal {degree: part} maps, in the same key and term order."""
    return (list(got) == list(want)
            and all(list(got[d].terms.items()) == list(want[d].terms.items()) for d in want))


def grader_cases():
    """(label, polynomials of one ring, weights): random polynomials with
    zero weights, monomials shared across polynomials and exponents near the
    16-bit field's limit."""
    rng = random.Random(2205)
    out = []
    for t in range(40):
        n = rng.randint(1, 6)
        polys = [random_polynomial(rng, n, max_degree=4, max_terms=6)
                 for _ in range(rng.randint(1, 5))]
        # a shared monomial set: the same terms, rescaled, in every polynomial
        polys.append(polys[0] * Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        if t % 4 == 0:
            polys.append(Polynomial(n, {((rng.randrange(n), _EMAX - rng.randint(0, 3)),): 1,
                                        ((0, _EMAX),): Fraction(-2, 3)}))
        ws = [0 if rng.random() < 0.3 else rng.randint(1, 5) for _ in range(n)]
        if t % 5 == 0:
            ws = [0] * n
        out.append((f"n={n} #{t}", polys, ws))
    return out


GRADER_CASES = grader_cases()


@pytest.mark.parametrize("polys, ws", [case[1:] for case in GRADER_CASES],
                         ids=[case[0] for case in GRADER_CASES])
def test_batch_grader_matches_the_per_polynomial_t_expand(polys, ws):
    parts, top = _graded(polys[0].n, polys, ws)
    assert len(parts) == len(polys)
    for p, got in zip(polys, parts):
        assert same_parts(got, reference_t_expand(p, ws))
        assert same_parts(_graded(p.n, [p], ws)[0][0], reference_t_expand(p, ws))
    assert top == max((p.degree() for p in polys), default=-1)


def test_batch_grader_checks_the_weights_once_for_every_polynomial():
    polys = [Polynomial.variable(3, 0), Polynomial.zero(3)]
    for ws, message in (([1, -1, 0], "weights must be nonnegative"),
                        ([1, 0], "weight vector length 2 != ring dimension 3")):
        for call in (lambda: _graded(3, polys, ws), lambda: reference_t_expand(polys[0], ws),
                     lambda: _graded(3, polys[:1], ws)):
            with pytest.raises(ValueError, match=message):
                call()
    assert _graded(3, [], [0, 0, 0]) == ([], -1)
    assert _graded(3, [Polynomial.zero(3)], [1, 2, 3]) == ([{}], -1)
    assert _graded(3, [Polynomial.const(3, 5)], [1, 2, 3])[1] == 0


def test_one_multiply_grades_exactly_up_to_the_bound():
    """n = 1 shows the bound is sharp: x^e at weight w has weighted degree
    e w, which the multiply reads in one 16-bit field; at e w = 65536 it
    carries out of it, so the grader reads that field by field."""
    x = Polynomial.variable(1, 0)
    for e, w in ((4369, 15), (4096, 16), (65535, 1), (1, 65535), (2, 32768),
                 (65535, 2), (1, 65536), (0, 65536)):
        p = x ** e + Polynomial.const(1, 3)
        parts, top = _graded(1, [p], [w])
        assert same_parts(parts[0], reference_t_expand(p, [w]))
        assert max(parts[0]) == e * w and top == e
    assert max((x ** 4096).terms) * 16 & _EMAX == 0


def test_one_multiply_on_several_variables_at_the_bound():
    """deg(m) max(w) at 65535 and at 65536, with exponents near the field's
    limit, each polynomial alone and all in one batch."""
    ws = (3, 5, 1)
    polys = [Polynomial(3, {((0, 5000), (1, 5000), (2, 3107)): 1, ((1, 2),): Fraction(1, 2)}),
             Polynomial(3, {((0, 5000), (1, 5000), (2, 3108)): -1, ((2, 1),): 2}),
             Polynomial(3, {((2, _EMAX),): 1, ((1, 1), (2, _EMAX - 1)): 4})]
    assert [p.degree() * max(ws) for p in polys] == [65535, 65540, 327675]
    for p in polys:
        assert same_parts(_graded(3, [p], ws)[0][0], reference_t_expand(p, ws))
    parts, top = _graded(3, polys, ws)
    assert all(same_parts(got, reference_t_expand(p, ws)) for got, p in zip(parts, polys))
    assert top == _EMAX
    p = polys[2]
    for ws in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert same_parts(_graded(3, [p], ws)[0][0], reference_t_expand(p, ws))


def test_grading_with_no_variables_one_variable_and_zero_weights():
    c = Polynomial.const(0, 3)
    parts, top = _graded(0, [c, Polynomial.zero(0)], ())
    assert parts == [{0: c}, {}] and top == 0
    p = Polynomial.variable(1, 0) ** 7 - Polynomial.const(1, 1)
    assert _graded(1, [p], [0]) == ([{0: p}], 7)
    rng = random.Random(2207)
    for n in range(1, 7):
        p = random_polynomial(rng, n, max_degree=5, max_terms=8, allow_zero=False)
        assert _graded(n, [p], [0] * n) == ([{0: p} if p else {}], p.degree())


def test_one_multiply_matches_the_field_loop_on_large_weights():
    """Seeded weights around the bound, so one batch mixes both reads."""
    rng = random.Random(2208)
    choices = (0, 1, 7, 255, 4096, 16383, 21845, 32767, 65535, 65536, 100000)
    slow = fast = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        polys = [random_polynomial(rng, n, max_degree=4, max_terms=6) for _ in range(3)]
        ws = [rng.choice(choices) for _ in range(n)]
        parts, top = _graded(n, polys, ws)
        for p, got in zip(polys, parts):
            assert same_parts(got, reference_t_expand(p, ws))
            if p:
                if p.degree() * max(ws) <= _EMAX:
                    fast += 1
                else:
                    slow += 1
        assert top == max((p.degree() for p in polys), default=-1)
    assert fast >= 100 and slow >= 100


# ---------------------------------------------------------------------------
# the int elimination
# ---------------------------------------------------------------------------

def deficient_matrices():
    """Seeded rational matrices of rank below both sides: products of a
    random int m x k and Fraction k x c factor, k < min(m, c), with integral
    entries kept as int in every other matrix."""
    rng = random.Random(2206)
    out = []
    for t in range(30):
        m, c = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(m, c) - 1) if min(m, c) > 1 else 0
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(c)]
                 for _ in range(k)]
        mat = [[sum((a * r[j] for a, r in zip(row, right)), Fraction(0)) for j in range(c)]
               for row in left]
        out.append([[int(x) if x.denominator == 1 and t % 2 else x for x in row] for row in mat])
    return out


@pytest.mark.parametrize("matrix", deficient_matrices())
def test_int_echelon_matches_row_reduce(matrix):
    """The forward pass: int rows, row r's first nonzero at pivots[r] and
    zeros below it, the rows below the rank zero, and the row space of the
    matrix, so that row_reduce reads the same reduced rows off them."""
    rows, pivots = _echelon(matrix)
    want_rows, want_pivots = row_reduce(matrix)
    assert pivots == want_pivots
    assert rational_rank(matrix) == len(pivots) < min(len(matrix), len(matrix[0]))
    assert all(type(x) is int for row in rows for x in row)
    for r, col in enumerate(pivots):
        assert not any(rows[r][:col]) and rows[r][col]
        assert not any(row[col] for row in rows[r + 1:])
    assert not any(x for row in rows[len(pivots):] for x in row)
    assert row_reduce(rows) == (want_rows, want_pivots)
    assert rational_rank(matrix + rows) == len(pivots)


def test_int_echelon_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for matrix in deficient_matrices():
        _, pivots = _echelon(matrix)
        _, want = sympy.Matrix(matrix).rref()
        assert pivots == list(want)
        assert len(pivots) == sympy.Matrix(matrix).rank()


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def seeded_weights(L, seed):
    """Borel weights (valid), all-zero weights (valid) and seeded random
    weights in {0, ..., 3}^n."""
    rng = random.Random(seed)
    out = [tuple(borel_decomposition(L)), (0,) * L.n]
    out += [tuple(rng.randint(0, 3) for _ in range(L.n)) for _ in range(12)]
    return out


def assert_same_contraction(got, want):
    assert list(got.pi_t) == list(want.pi_t)
    for k, part in want.pi_t.items():
        assert list(got.pi_t[k].terms.items()) == list(part.terms.items())
    assert got.valid == want.valid and got.offending == want.offending
    assert got.pi_tilde == want.pi_tilde
    if want.contracted is None:
        assert got.contracted is None
    else:
        assert got.contracted.labels == want.contracted.labels
        assert list(got.contracted.brackets.items()) == list(want.contracted.brackets.items())


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_contract_matches_the_per_coefficient_path(name):
    L = cached_builtin(name)
    pi = lie_poisson_bivector(L)
    verdicts = set()
    for ws in seeded_weights(L, sum(map(ord, name))):
        w = ContractionWeights(ws)
        got = contract(pi, w, labels=L.labels)
        assert_same_contraction(got, reference_contract(pi, w, labels=L.labels))
        verdicts.add(got.valid)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_the_limit_keeps_the_grade_zero_part_as_its_bivector(name):
    """pi_tilde is pi_t[0] itself and the limit algebra's bivector, and it
    equals, pair for pair and term for term in order, the bivector packed
    again from the limit's bracket table."""
    L = cached_builtin(name)
    pi = lie_poisson_bivector(L)
    kept = 0
    for ws in seeded_weights(L, 7 * sum(map(ord, name))):
        res = contract(pi, ContractionWeights(ws), labels=L.labels)
        if not res.valid:
            continue
        kept += 0 in res.pi_t
        assert res.pi_tilde is res.pi_t.get(0, res.pi_tilde) is res.contracted.bivector
        repacked = LieAlgebra(L.labels, res.contracted.brackets).bivector
        assert list(res.pi_tilde.terms) == list(repacked.terms)
        for idx, p in repacked.terms.items():
            assert list(res.pi_tilde.terms[idx].terms.items()) == list(p.terms.items())
        rows = [(ij, p.linear_coefficients()) for ij, p in res.pi_tilde.terms.items()]
        assert list(res.contracted.brackets.items()) == rows
    assert kept >= 2       # the Borel and the zero weights at least


def test_the_limit_needs_a_label_per_variable():
    # too few or too many labels would give the limit algebra a dimension
    # its kept bivector does not have; repeated labels are still refused
    L = cached_builtin("sl2")
    pi, w = lie_poisson_bivector(L), ContractionWeights((0, 0, 1))
    with pytest.raises(ValueError, match="2 labels for a bivector in 3 variables"):
        contract(pi, w, labels=L.labels[:2])
    with pytest.raises(ValueError, match="4 labels for a bivector in 3 variables"):
        contract(pi, w, labels=L.labels + ["x"])
    with pytest.raises(ValueError, match="basis label 'e' is repeated"):
        contract(pi, w, labels=["e", "e", "f"])


def seeded_valid_weights(L, count, seed):
    """count seeded weight vectors in {0, 1, 2}^n whose contraction of L is valid."""
    rng = random.Random(seed)
    pi, out = lie_poisson_bivector(L), []
    while len(out) < count:
        w = ContractionWeights(tuple(rng.randint(0, 2) for _ in range(L.n)))
        if contract(pi, w).valid:
            out.append(w)
    return out


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_the_limit_algebra_equals_the_cleaned_one(name):
    """The limit is built from pi~'s rows without __init__'s cleaning pass;
    it must equal LieAlgebra(labels, rows), with the same row, target and
    coefficient-type order, at the Borel weights and at seeded valid ones."""
    L = cached_builtin(name)
    pi = lie_poisson_bivector(L)
    for w in [borel_decomposition(L), *seeded_valid_weights(L, 6, 2300 + L.n)]:
        limit = contract(pi, w, labels=L.labels).contracted
        rows = {ij: p.linear_coefficients() for ij, p in contract(pi, w).pi_tilde.terms.items()}
        cleaned = LieAlgebra(L.labels, rows)
        assert limit == cleaned
        assert ([(ij, [(k, type(c), c) for k, c in row.items()])
                 for ij, row in limit.brackets.items()]
                == [(ij, [(k, type(c), c) for k, c in row.items()])
                    for ij, row in cleaned.brackets.items()])
        assert (limit.n, limit.name, limit.matrices, limit.root_data) == (
            cleaned.n, cleaned.name, cleaned.matrices, cleaned.root_data)
        assert limit.bivector == cleaned.bivector


def test_contract_matches_on_polynomial_bivectors():
    rng = random.Random(2207)
    for _ in range(40):
        n = rng.randint(2, 5)
        pi = MultiVector(n, 2, {(i, j): random_polynomial(rng, n, max_degree=3)
                                for i in range(n) for j in range(i + 1, n)
                                if rng.random() < 0.6})
        w = ContractionWeights(tuple(rng.randint(0, 3) for _ in range(n)))
        assert_same_contraction(contract(pi, w), reference_contract(pi, w))


def test_contract_rejects_a_weight_of_another_length():
    pi = lie_poisson_bivector(cached_builtin("sl2"))
    with pytest.raises(ValueError, match="weight vector length 2 != ring dimension 3"):
        contract(pi, ContractionWeights((0, 1)))


# ---------------------------------------------------------------------------
# the weights boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", [float("inf"), float("-inf"), float("nan"), "1", None, 1.5,
                                   -1, Fraction(1, 2), 1j, [1]], ids=repr)
def test_every_nonintegral_weight_is_a_value_error(entry):
    with pytest.raises(ValueError, match=r"weight .* at position 1 is not a nonnegative integer"):
        ContractionWeights((0, entry, 0))
    with pytest.raises(ValueError, match=r"position 1"):
        ContractionWeights((2, entry))


def test_integral_weights_of_other_types_become_ints():
    w = ContractionWeights((2.0, Fraction(3), True, 0))
    assert w.weights == (2, 3, 1, 0)
    assert all(type(x) is int for x in w)


# ---------------------------------------------------------------------------
# t_degree_reduction
# ---------------------------------------------------------------------------

def test_reduction_grades_only_the_replaced_generator(monkeypatch):
    pair = cached_pair("sl4_sp4")
    gens = char_invariants(pair.parent)
    want = reference_reduction(gens, pair.weights)
    graded, composed = [], []
    real_degree, real_compose = invariants.t_degree, invariants.poly_compose
    monkeypatch.setattr(invariants, "t_degree", lambda h, w: graded.append(h) or real_degree(h, w))
    monkeypatch.setattr(invariants, "poly_compose",
                        lambda P, args: composed.append(P) or real_compose(P, args))
    got = t_degree_reduction(gens, pair.weights)
    assert got.gens == want
    assert len(composed) >= 1
    # each generator once, then each replacement once
    assert len(graded) == len(gens.gens) + len(composed)


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_reduction_matches_the_regrading_loop(name):
    L = cached_builtin(name)
    gens = char_invariants(L)
    for ws in seeded_weights(L, math.prod(map(ord, name)) % 1000)[:4]:
        w = ContractionWeights(ws)
        assert t_degree_reduction(gens, w).gens == reference_reduction(gens, w)


@pytest.mark.parametrize("source", [*BUILTIN_ALGEBRAS, *Z2_PAIRS])
def test_reduction_in_int_matches_the_loop_and_carries_its_pairs(source):
    """The reduced generators equal the regrading loop's, each coefficient of
    the same type, at Borel weights or the pair's own; the list carries each
    one's (t-degree, top) at those weights, as t_degree grades it."""
    if source in Z2_PAIRS:
        pair = cached_pair(source)
        L, w = pair.parent, pair.weights
    else:
        L = cached_builtin(source)
        w = borel_decomposition(L)
    got = t_degree_reduction(char_invariants(L), w).gens
    want = reference_reduction(char_invariants(L), w)
    assert [sorted((m, type(c), c) for m, c in g.terms.items()) for g in got] == [
        sorted((m, type(c), c) for m, c in g.terms.items()) for g in want]
    assert got.graded == (w.weights, tuple(t_degree(g, w) for g in got))
