"""The parent built in int against the paths it replaced.

from_matrices sums each commutator into a sparse target {r * m + t: entry}
and column_solver solves it sparsely, checking the combination at every
position the target or a used column touches; char_invariants reads the
trace dual as (D, Y = D X) with int coefficients, from the Gram inverse d T^-1
that linalg._int_inverse reads off one [T | I] reduction, and divides each
generator's coefficients by D^k once.  The references in conftest are the
replaced code: the dense column solver (dense_column_solver, with
dense_brackets for from_matrices' table) and the Fraction trace dual
(fraction_trace_dual).  Bracket tables, row key order included, trace duals,
generators and normalisations must be equal to theirs, and the error
messages unchanged.
"""

import random
from fractions import Fraction

import pytest

from conftest import cached_builtin, dense_brackets, dense_column_solver, fraction_trace_dual
from liecontract import builders, invariants, lie
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, _PAIRS
from liecontract.invariants import _trace_dual_generic_matrix, char_invariants
from liecontract.lie import from_matrices, subalgebra_from_vectors
from liecontract.linalg import _int_inverse, column_solver, mat_mul
from liecontract.polyring import Polynomial


def halved_sl3():
    """sl3's realisation with every entry halved: Fraction matrices, the
    family tag kept."""
    L = cached_builtin("sl3")
    mats = [[[Fraction(x, 2) for x in row] for row in M] for M in L.matrices]
    return from_matrices(mats, labels=L.labels, name="sl3_halved", family=L.family)


def conjugated_sl3():
    """P M P^-1 on sl3's realisation for P = 1 + E_01 / 2: the trace form and
    so the Gram inverse are sl3's, while X gains the denominators of P."""
    L = cached_builtin("sl3")
    P, Q = ([[1, c, 0], [0, 1, 0], [0, 0, 1]] for c in (Fraction(1, 2), Fraction(-1, 2)))
    mats = [mat_mul(mat_mul(P, M), Q) for M in L.matrices]
    return from_matrices(mats, labels=L.labels, name="sl3_conjugated", family=L.family)


PARENTS = {**{name: lambda name=name: cached_builtin(name) for name in BUILTIN_ALGEBRAS},
           **{f"{pair} parent": _PAIRS[pair][0] for pair in Z2_PAIRS}}
BEYOND = {"sp6": lambda: builders._build_sp(6), "so7": lambda: builders._build_so(7),
          "sl5": lambda: builders._build_sl(5), "so8": lambda: builders._build_so(8),
          "sl4_adapted": builders._adapted_sl4_basis, "sl3_halved": halved_sl3,
          "sl3_conjugated": conjugated_sl3}
ALGEBRAS = {**PARENTS, **BEYOND}


def ints(p: Polynomial):
    return all(type(c) is int for c in p.terms.values())


# ---------------------------------------------------------------------------
# the trace dual and the generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(ALGEBRAS))
def test_trace_dual_is_the_fraction_one_times_d(key):
    L = ALGEBRAS[key]()
    D, Y = _trace_dual_generic_matrix(L)
    assert type(D) is int and D > 0
    assert all(ints(p) for row in Y for p in row)
    X = fraction_trace_dual(L)
    assert [[p * Fraction(1, D) for p in row] for row in Y] == X


def test_fraction_entries_can_need_more_than_the_gram_inverse():
    """The conjugated sl3 keeps sl3's Gram matrix, so its d, but X's
    coefficients have P's denominators: D is a proper multiple of d."""
    L = conjugated_sl3()
    T = [[sum(A[r][s] * B[s][r] for r in range(3) for s in range(3)) for B in L.matrices]
         for A in L.matrices]
    _, d, _ = _int_inverse(T)
    D, _ = _trace_dual_generic_matrix(L)
    assert D != d and D % d == 0
    assert _trace_dual_generic_matrix(cached_builtin("sl3"))[0] == d


# the builtins and the adapted sl4 are test_matrix_kernels' cases
@pytest.mark.parametrize("key", sorted(set(BEYOND) - {"sl4_adapted"})
                         + [f"{pair} parent" for pair in Z2_PAIRS])
def test_generators_equal_the_fraction_trace_dual(key, monkeypatch):
    got = char_invariants(ALGEBRAS[key]())
    monkeypatch.setattr(invariants, "_trace_dual_generic_matrix",
                        lambda L: (1, fraction_trace_dual(L)))
    want = char_invariants(ALGEBRAS[key]())
    assert got.gens == want.gens
    assert [list(g.terms.items()) for g in got.gens] == [list(g.terms.items()) for g in want.gens]
    assert all(type(a) is type(b) for g, h in zip(got.gens, want.gens)
               for a, b in zip(g.terms.values(), h.terms.values()))
    assert got.normalization == want.normalization


def test_a_degenerate_trace_form_is_refused():
    # the upper-triangular 2 x 2 matrices: tr(E_01 M) = 0 for every M here
    L = from_matrices([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]], family=("sl", 2))
    with pytest.raises(ValueError, match="^matrix is singular$"):
        _trace_dual_generic_matrix(L)


# ---------------------------------------------------------------------------
# the sparse solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(PARENTS) + ["sl3_conjugated", "sl3_halved"])
def test_brackets_equal_the_dense_solver(key):
    L = ALGEBRAS[key]()
    want = dense_brackets(L.matrices)
    assert [(pair, list(row.items())) for pair, row in L.brackets.items()] == \
        [(pair, list(row.items())) for pair, row in want.items()]
    assert all(type(c) is int or c.denominator > 1 for row in L.brackets.values()
               for c in row.values())


def test_a_target_off_the_span_only_at_a_non_pivot_position_gives_none():
    solve = column_solver([[1, 0, 1]])
    assert solve({0: 1, 2: 1}) == {0: 1}
    assert solve({0: 1, 2: 2}) is None      # the pivot entry alone says x = 1
    assert solve({1: 5}) is None            # no column is used at all
    assert solve({2: 1}) is None
    for name in BUILTIN_ALGEBRAS:
        cols = [[x for row in M for x in row] for M in cached_builtin(name).matrices]
        pivots, _, _ = _int_inverse(cols)
        solve, dense = column_solver(cols), dense_column_solver(cols)
        for q in (q for q in range(len(cols[0])) if q not in pivots):
            target = list(cols[0])
            target[q] += 1
            assert solve({i: x for i, x in enumerate(target) if x}) is None
            assert dense(target) is None


@pytest.mark.parametrize("seed", range(6))
def test_sparse_solves_equal_the_dense_solver(seed):
    rng = random.Random(seed)
    L = cached_builtin(BUILTIN_ALGEBRAS[seed % len(BUILTIN_ALGEBRAS)])
    cols = [[x for row in M for x in row] for M in L.matrices]
    solve, dense = column_solver(cols), dense_column_solver(cols)
    for _ in range(30):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else 0
             for _ in cols]
        target = [sum(c[i] * xk for c, xk in zip(cols, x)) for i in range(len(cols[0]))]
        if rng.random() < 0.5:
            target[rng.randrange(len(target))] += 1
        want = dense(target)
        got = solve({i: t for i, t in enumerate(target) if t})
        assert got == (None if want is None else {k: c for k, c in enumerate(want) if c})
        assert got is None or list(got) == sorted(got)


def test_the_four_messages_are_unchanged():
    sl2 = cached_builtin("sl2")
    e, _, f = sl2.matrices
    with pytest.raises(ValueError, match="^matrices are linearly dependent$"):
        from_matrices([e, f, [[x + y for x, y in zip(a, b)] for a, b in zip(e, f)]])
    with pytest.raises(ValueError) as old:
        dense_brackets([e, f, [[x + y for x, y in zip(a, b)] for a, b in zip(e, f)]])
    assert str(old.value) == "matrices are linearly dependent"
    with pytest.raises(ValueError, match=r"^span is not closed under commutator at pair \(e,f\)$"):
        from_matrices([e, f], labels=["e", "f"])
    with pytest.raises(ValueError) as old:
        dense_brackets([e, f], labels=["e", "f"])
    assert str(old.value) == "span is not closed under commutator at pair (e,f)"
    with pytest.raises(ValueError, match="^spanning vectors are linearly dependent$"):
        subalgebra_from_vectors(sl2, [{0: 1}, {0: 2}])
    with pytest.raises(ValueError, match="^span is not closed under the bracket$"):
        subalgebra_from_vectors(sl2, [{0: 1}, {2: 1}])


# ---------------------------------------------------------------------------
# spies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["so6", "sl4_adapted"])
def test_char_invariants_builds_its_matrix_in_int(key, monkeypatch):
    linear, pfaffians = [], []
    real_linear = Polynomial.linear.__func__
    real_pfaffian = invariants.pfaffian

    def spy_linear(cls, n, coeffs):
        linear.append(list(coeffs.values()))
        return real_linear(cls, n, coeffs)

    monkeypatch.setattr(Polynomial, "linear", classmethod(spy_linear))
    monkeypatch.setattr(invariants, "pfaffian",
                        lambda matrix: pfaffians.append(matrix) or real_pfaffian(matrix))
    L = ALGEBRAS[key]()
    linear.clear()
    char_invariants(L)
    assert linear and all(type(c) is int for coeffs in linear for c in coeffs)
    assert len(pfaffians) == (key == "so6")
    assert all(ints(p) for matrix in pfaffians for row in matrix for p in row)


def test_from_matrices_hands_solve_dict_targets_only(monkeypatch):
    targets = []
    real = lie.column_solver

    def spy(columns):
        solve = real(columns)
        return lambda target: targets.append(target) or solve(target)

    monkeypatch.setattr(lie, "column_solver", spy)
    L = from_matrices(cached_builtin("sl4").matrices, family=("sl", 4))
    assert len(targets) == L.n * (L.n - 1) // 2
    assert all(type(t) is dict for t in targets)
    assert L.brackets == cached_builtin("sl4").brackets
