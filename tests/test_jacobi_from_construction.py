"""The Jacobi verdict from the construction.

`from_matrices` accepts only linearly independent matrices whose
commutators it has solved for exactly, so its bracket is the commutator of
gl_m pulled back along an injective linear map, and Jacobi holds by
associativity.  The algebra it returns carries the verdict (True, None)
without a Schouten square.  The seeded verdict must equal the square's and
the triple loop's on every algebra the package builds from matrices and on
seeded closed spans; algebras read from files keep the square, even when
the file carries matrices, and `validate` always computes it.
"""

import random
from fractions import Fraction

import pytest

from conftest import schouten_square_spy
from liecontract import builders
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, builtin_algebra, symmetric_pair
from liecontract.cli import main
from liecontract.exterior import schouten_square
from liecontract.lie import (JacobiError, algebra_from_text, algebra_to_text, from_matrices,
                             jacobi_check, lie_poisson_bivector)
from test_poisson_check import loop_jacobi_check


def mat_mul(A, B):
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(len(B[0]))]
            for row in A]


def unit(m, r, s):
    return [[int((i, j) == (r, s)) for j in range(m)] for i in range(m)]


def unimodular(rng, m, steps=6):
    """A seeded integer matrix of determinant 1 and its integer inverse, as a
    product of elementary row additions."""
    P = [[int(i == j) for j in range(m)] for i in range(m)]
    Q = [row[:] for row in P]
    for _ in range(steps if m > 1 else 0):
        r, s = rng.sample(range(m), 2)
        c = rng.choice([-2, -1, 1, 2])
        E = [[int(i == j) + (c if (i, j) == (r, s) else 0) for j in range(m)] for i in range(m)]
        Einv = [[int(i == j) - (c if (i, j) == (r, s) else 0) for j in range(m)]
                for i in range(m)]
        P, Q = mat_mul(E, P), mat_mul(Q, Einv)
    return P, Q


def conjugate(rng, mats):
    """P D M D^-1 P^-1 for a seeded unimodular P and diagonal D of fractions."""
    m = len(mats[0])
    P, Q = unimodular(rng, m)
    d = [Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2, 5])) for _ in range(m)]
    D = [[d[i] if i == j else 0 for j in range(m)] for i in range(m)]
    Dinv = [[1 / d[i] if i == j else 0 for j in range(m)] for i in range(m)]
    left, right = mat_mul(P, D), mat_mul(Dinv, Q)
    return [mat_mul(mat_mul(left, M), right) for M in mats]


def recombined(rng, mats):
    """The same span in a seeded basis: rows of a unimodular matrix as coefficients."""
    A, _ = unimodular(rng, len(mats), steps=2 * len(mats))
    m = len(mats[0])
    return [[[sum(a * M[r][s] for a, M in zip(row, mats)) for s in range(m)] for r in range(m)]
            for row in A]


def upper_triangular(m, strict):
    return [unit(m, r, s) for r in range(m) for s in range(r + int(strict), m)]


def borel_of(name):
    L = builtin_algebra(name)
    rd = L.root_data
    return [L.matrices[k] for k in rd.positive + rd.cartan]


def seeded_spans():
    """(id, matrices) of closed spans: seeded conjugates of each builtin's
    matrices, the upper-triangular and strictly upper-triangular spans of
    gl_m, each builtin's Borel span, and seeded recombinations of them all."""
    out = []
    for seed, name in enumerate(BUILTIN_ALGEBRAS):
        rng = random.Random(seed)
        out.append((f"conj-{name}", conjugate(rng, builtin_algebra(name).matrices)))
        out.append((f"conj-basis-{name}", recombined(rng, out[-1][1])))
    for m in range(1, 5):
        out.append((f"upper-{m}", upper_triangular(m, strict=False)))
        if m > 1:
            out.append((f"strict-upper-{m}", upper_triangular(m, strict=True)))
    for seed, name in enumerate(BUILTIN_ALGEBRAS):
        rng = random.Random(100 + seed)
        out.append((f"borel-{name}", borel_of(name)))
        out.append((f"borel-basis-{name}", recombined(rng, conjugate(rng, borel_of(name)))))
    return out


SPANS = dict(seeded_spans())

BUILDS = {
    **{name: (lambda name=name: builtin_algebra(name)) for name in BUILTIN_ALGEBRAS},
    **{f"{pid}/parent": (lambda pid=pid: symmetric_pair(pid).parent) for pid in Z2_PAIRS},
    "sp6": lambda: builders._build_sp(6),
    "so7": lambda: builders._build_so(7),
    "sl5": lambda: builders._build_sl(5),
    **{f"span/{key}": (lambda key=key: from_matrices(mats)) for key, mats in SPANS.items()},
}


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_seeded_verdict_equals_the_square_and_the_loop(key, monkeypatch):
    L = BUILDS[key]()
    squares = schouten_square_spy(monkeypatch)
    assert L._jacobi == (True, None) and squares == []     # read off the construction
    assert L._jacobi == jacobi_check(L) == loop_jacobi_check(L)
    assert schouten_square(L.bivector).is_zero


def test_seeded_spans_are_varied():
    # fractions, several matrix sizes, and a nonzero bracket in every span of two or more matrices
    algebras = {key: from_matrices(mats) for key, mats in SPANS.items()}
    assert any(isinstance(c, Fraction) for L in algebras.values()
               for row in L.brackets.values() for c in row.values())
    assert {len(L.matrices[0]) for L in algebras.values()} == {1, 2, 3, 4, 5, 6}
    assert [key for key, L in algebras.items() if not L.brackets] == ["upper-1", "strict-upper-2"]


def test_builders_run_no_square_and_files_run_one(monkeypatch):
    squares = schouten_square_spy(monkeypatch)
    L = builtin_algebra("sl4")
    assert lie_poisson_bivector(L) is L.bivector
    assert squares == []
    F, _ = algebra_from_text(algebra_to_text(L))
    assert F.matrices == L.matrices and "_jacobi" not in vars(F)
    assert lie_poisson_bivector(F) == L.bivector
    assert squares == [15]


def test_validate_computes_the_square(capsys, monkeypatch):
    squares = schouten_square_spy(monkeypatch)
    assert main(["validate", "sl4"]) == 0
    assert "[ok] jacobi" in capsys.readouterr().out
    assert squares == [15]


def broken_sl2_text():
    """sl2's file with its matrices kept and [e, f] = e in place of h."""
    text = algebra_to_text(builtin_algebra("sl2"), weights=[0, 0, 1])
    assert "bracket: 0 2 1 1\n" in text
    return text.replace("bracket: 0 2 1 1\n", "bracket: 0 2 0 1\n")


def test_a_file_with_matrices_keeps_the_gate():
    L, _ = algebra_from_text(broken_sl2_text())
    assert L.matrices == builtin_algebra("sl2").matrices
    with pytest.raises(JacobiError, match=r"^Jacobi identity fails at triple \(0, 1, 2\)$"):
        lie_poisson_bivector(L)


@pytest.mark.parametrize("argv", [["index"], ["bivector"], ["fsi"],
                                  ["contract", "--weights", "0,0,1"]],
                         ids=["index", "bivector", "fsi", "contract"])
def test_verbs_on_a_broken_file_with_matrices_exit_one(argv, capsys, tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text(broken_sl2_text())
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Jacobi identity fails at triple (0, 1, 2)" in captured.err


def test_validate_on_a_broken_file_with_matrices_fails_jacobi(capsys, tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text(broken_sl2_text())
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"validate {path}: FAIL", "  [FAIL] jacobi"]
    assert "  violating triple: ['e', 'h', 'f']" in out
