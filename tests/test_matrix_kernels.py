"""The int-first sparse matrix layer against the dense Fraction path it replaced.

from_matrices normalises the realisation to int where integral, takes each
commutator from nonzero entries and solves with the inverse's denominator
cleared; char_invariants builds the trace-dual generic matrix X from nonzero
entries, as (D, Y = D X) with int coefficients.  The in-test copies below are the
replaced code: dense Fraction commutators with one Fraction solve per pair,
and X assembled by one polynomial addition per matrix entry.  Outputs must be
equal (Y / D equal to X), and every number the layer keeps must be an int or
a non-integral Fraction; Y keeps only ints.
"""

import random
from fractions import Fraction

import pytest

from conftest import fraction_trace_dual, rational_inverse, row_reduce
from liecontract import invariants
from liecontract.builders import (BUILTIN_ALGEBRAS, Z2_PAIRS, _adapted_sl4_basis,
                                  builtin_algebra, symmetric_pair)
from liecontract.cli import main
from liecontract.invariants import _trace_dual_generic_matrix, char_invariants
from liecontract.lie import algebra_from_text, from_matrices
from liecontract.polyring import Polynomial

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# the replaced dense Fraction path
# ---------------------------------------------------------------------------

def dense_mul(a, b):
    m = len(a)
    return [[sum((a[r][s] * b[s][t] for s in range(m)), _ZERO) for t in range(m)]
            for r in range(m)]


def dense_commutator(a, b):
    ab, ba = dense_mul(a, b), dense_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def reference_column_solver(columns):
    n = len(columns)
    size = len(columns[0])
    rows, pivots = row_reduce([list(col) + [int(j == k) for j in range(n)]
                               for k, col in enumerate(columns)])
    if pivots[-1] >= size:
        return None
    inverse = [row[size:] for row in rows]

    def solve(target):
        picked = [(target[p], inverse[r]) for r, p in enumerate(pivots) if target[p]]
        sol = [sum((b * e[k] for b, e in picked), _ZERO) for k in range(n)]
        combo = [_ZERO] * size
        for c, col in zip(sol, columns):
            if c:
                for i, v in enumerate(col):
                    if v:
                        combo[i] += c * v
        return sol if combo == list(target) else None

    return solve


def reference_brackets(mats, labels=None):
    """The replaced from_matrices' bracket table, with the same errors."""
    mats = [[[Fraction(x) for x in row] for row in M] for M in mats]
    n = len(mats)
    solve = reference_column_solver([[x for row in M for x in row] for M in mats])
    if solve is None:
        raise ValueError("matrices are linearly dependent")
    if labels is None:
        labels = [f"x{i}" for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm = dense_commutator(mats[i], mats[j])
            sol = solve([x for row in comm for x in row])
            if sol is None:
                raise ValueError(
                    f"span is not closed under commutator at pair ({labels[i]},{labels[j]})")
            row = {k: c for k, c in enumerate(sol) if c}
            if row:
                brackets[(i, j)] = row
    return brackets


def reference_trace_dual(L):
    """The replaced X = sum_j x_j M_j^dual, one polynomial addition per entry."""
    mats = L.matrices
    n = L.n
    m = len(mats[0])
    T = [[sum((mats[i][r][s] * mats[j][s][r] for r in range(m) for s in range(m)),
              _ZERO) for j in range(n)] for i in range(n)]
    Tinv = rational_inverse(T)
    X = [[Polynomial.zero(n) for _ in range(m)] for _ in range(m)]
    for j in range(n):
        var = Polynomial.variable(n, j)
        for i in range(n):
            c = Tinv[i][j]
            if not c:
                continue
            for r in range(m):
                for s in range(m):
                    if mats[i][r][s]:
                        X[r][s] = X[r][s] + var * (c * mats[i][r][s])
    return X


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

NAMES = BUILTIN_ALGEBRAS + ("sl4_adapted",)


def algebra(name):
    return _adapted_sl4_basis() if name == "sl4_adapted" else builtin_algebra(name)


def unit(i, j, m=3):
    return [[int((r, s) == (i, j)) for s in range(m)] for r in range(m)]


def conjugate(mats, rng):
    """P M P^-1 for a seeded rational P, and a seeded rational change of
    basis on top: the same Lie algebra with non-integral entries."""
    m = len(mats[0])
    while True:
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
             for _ in range(m)]
        try:
            Pinv = rational_inverse(P)
            break
        except ValueError:
            continue
    conj = [dense_mul(dense_mul(P, M), Pinv) for M in mats]
    k = len(conj)
    while True:
        C = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
             for _ in range(k)]
        if len(row_reduce(C)[1]) == k:
            break
    return [[[sum((C[a][b] * conj[b][r][s] for b in range(k)), _ZERO) for s in range(m)]
             for r in range(m)] for a in range(k)]


UPPER_GL3 = [unit(i, j) for i in range(3) for j in range(i, 3)]


def is_int_or_proper_fraction(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
def test_brackets_equal_the_dense_path(name):
    L = algebra(name)
    assert L.brackets == reference_brackets(L.matrices)
    fractional = [[[Fraction(x) for x in row] for row in M] for M in L.matrices]
    assert from_matrices(fractional).brackets == L.brackets


@pytest.mark.parametrize("name", NAMES)
def test_generators_equal_the_dense_path(name, monkeypatch):
    L = algebra(name)
    D, Y = _trace_dual_generic_matrix(L)
    assert [[p * Fraction(1, D) for p in row] for row in Y] == reference_trace_dual(L)
    got = char_invariants(L)
    monkeypatch.setattr(invariants, "_trace_dual_generic_matrix",
                        lambda L: (1, fraction_trace_dual(L)))
    want = char_invariants(algebra(name))
    assert got.gens == want.gens
    assert got.normalization == want.normalization
    # term order and coefficient types too, so no rendering can move
    assert [list(g.terms.items()) for g in got.gens] == [list(g.terms.items()) for g in want.gens]
    assert all(type(a) is type(b) for g, h in zip(got.gens, want.gens)
               for a, b in zip(g.terms.values(), h.terms.values()))


@pytest.mark.parametrize("seed", range(12))
def test_random_conjugate_bases_give_the_dense_brackets(seed):
    mats = conjugate(UPPER_GL3, random.Random(seed))
    assert any(type(x) is Fraction and x.denominator != 1
               for M in mats for row in M for x in row)
    L = from_matrices(mats)
    assert L.brackets == reference_brackets(mats)
    assert all(is_int_or_proper_fraction(c) for row in L.brackets.values()
               for c in row.values())
    assert all(is_int_or_proper_fraction(x) for M in L.matrices for row in M for x in row)
    assert L.matrices == mats


@pytest.mark.parametrize("seed", range(4))
def test_from_matrices_errors_equal_the_dense_path(seed):
    rng = random.Random(seed)
    mats = conjugate(UPPER_GL3, rng)
    # a sum of two basis matrices makes the set dependent
    dependent = mats + [[[x + y for x, y in zip(ra, rb)] for ra, rb in zip(mats[0], mats[1])]]
    # E_01 and E_10 do not commute into their span
    not_closed = conjugate([unit(0, 1), unit(1, 0)], rng)
    for bad, message in ((dependent, "matrices are linearly dependent"),
                         (not_closed, r"span is not closed under commutator at pair \(a,b\)")):
        labels = [f"x{i}" for i in range(len(bad))] if len(bad) > 2 else ["a", "b"]
        with pytest.raises(ValueError, match=message) as new:
            from_matrices(bad, labels=labels)
        with pytest.raises(ValueError) as old:
            reference_brackets(bad, labels=labels)
        assert str(new.value) == str(old.value)


def test_trace_dual_basis_against_sympy():
    sympy = pytest.importorskip("sympy")
    for name in NAMES:
        L = algebra(name)
        D, Y = _trace_dual_generic_matrix(L)
        m = len(Y)
        coeffs = [[{j: Fraction(c, D) for j, c in Y[r][s].linear_coefficients().items()}
                   for s in range(m)] for r in range(m)]
        # row i: M_i^dual flattened; column j: M_j transposed, flattened
        dual = sympy.Matrix(L.n, m * m, lambda i, rs: sympy.Rational(
            str(coeffs[rs // m][rs % m].get(i, 0))))
        mats = sympy.Matrix(m * m, L.n, lambda rs, j: sympy.Rational(
            str(L.matrices[j][rs % m][rs // m])))
        assert dual * mats == sympy.eye(L.n), name


# ---------------------------------------------------------------------------
# type policy
# ---------------------------------------------------------------------------

PARENTS = [(name, builtin_algebra) for name in BUILTIN_ALGEBRAS] + \
    [(pid, lambda p: symmetric_pair(p).parent) for pid in Z2_PAIRS]


@pytest.mark.parametrize("name, build", PARENTS, ids=[name for name, _ in PARENTS])
def test_matrix_layer_keeps_ints_where_integral(name, build):
    L = build(name)
    assert all(is_int_or_proper_fraction(x) for M in L.matrices for row in M for x in row)
    assert all(is_int_or_proper_fraction(c) for row in L.brackets.values()
               for c in row.values())
    D, Y = _trace_dual_generic_matrix(L)
    assert all(is_int_or_proper_fraction(c) for row in Y for p in row
               for c in p.as_dict().values())
    assert type(D) is int and all(type(c) is int for row in Y for p in row
                                  for c in p.as_dict().values())


@pytest.mark.parametrize("name", BUILTIN_ALGEBRAS)
def test_emitted_file_reads_back_equal_to_the_builtin(name, tmp_path, capsys):
    path = tmp_path / f"{name}.alg"
    assert main(["emit-builtin", name, "-o", str(path)]) == 0
    capsys.readouterr()
    loaded, _ = algebra_from_text(path.read_text())
    assert all(type(x) is Fraction for M in loaded.matrices for row in M for x in row)
    assert loaded == builtin_algebra(name)
