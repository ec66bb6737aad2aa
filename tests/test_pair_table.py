"""The z2 catalog as one table: the table-driven symmetric_pair against the
four-branch construction it replaced, the catalog errors on bad rows, and
further classical pairs that are one row each.  The z2 tops equality: the
two weighted-degree parts of the parent's minor pair (conftest's reference
read) against the limit's own pair, and the degree-sum verdict that
replaced both, which the feigin suite reads as well."""

import random
from fractions import Fraction

import pytest
from conftest import graded_tops_minor, rational_inverse, reference_is_semisimple

from liecontract import analysis, builders, invariants
from liecontract.analysis import feigin_suite, regularity, z2_suite
from liecontract.builders import (FEIGIN_ALGEBRAS, Z2_PAIRS, _diagonal, _neg, _unit,
                                  borel_decomposition, build_classical, builtin_algebra,
                                  symmetric_pair)
from liecontract.contract import ContractionWeights, contract_algebra, t_degree
from liecontract.invariants import (_pivot_point, _regularity_minor, char_invariants,
                                    t_degree_reduction)
from liecontract.lie import (algebra_to_text, centralizer_in_span, from_matrices,
                             lie_poisson_bivector, subalgebra_from_vectors)
from liecontract.linalg import mat_mul, rational_rank, zero_matrix


# ---------------------------------------------------------------------------
# the four-branch construction, kept as the reference
# ---------------------------------------------------------------------------

def _split_by_matrix_involution(L, sigma):
    g0, g1 = [], []
    for i, M in enumerate(L.matrices):
        img = sigma(M)
        if img == M:
            g0.append(i)
        elif img == _neg(M):
            g1.append(i)
        else:
            raise ValueError(f"basis vector {L.labels[i]} is not homogeneous "
                             f"under the involution")
    return tuple(g0), tuple(g1)


def _reference_sl4_basis():
    sp = build_classical("sp", 4)
    mats = [[row[:] for row in M] for M in sp.matrices]
    labels = list(sp.labels)
    mats.extend([
        builders._add(_unit(4, 0, 1), _unit(4, 2, 3)),
        builders._add(_unit(4, 1, 0), _unit(4, 3, 2)),
        builders._add(_unit(4, 0, 2), _neg(_unit(4, 1, 3))),
        builders._add(_unit(4, 2, 0), _neg(_unit(4, 3, 1))),
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    ])
    labels.extend(f"v{i + 1}" for i in range(5))
    return from_matrices(mats, labels=labels, name="sl4_adapted", family=("sl", 4))


def _sp_form_matrix(m):
    J = zero_matrix(m)
    nn = m // 2
    for i in range(m):
        J[i][m - 1 - i] = 1 if i < nn else -1
    return J


def _reference_pair(pair_id):
    """(parent, g0, g1, cartan subspace, centralizer, weights) as the
    four-branch symmetric_pair built them."""
    if pair_id == "sl2_so2":
        L = build_classical("sl", 2)
        g0 = (L.label_index("h"),)
        g1 = (L.label_index("e"), L.label_index("f"))
        c = [{g1[0]: 1, g1[1]: 1}]
    elif pair_id == "sp4_sp2sp2":
        L = build_classical("sp", 4)
        d = [1, -1, -1, 1]

        def sigma(M):
            return [[d[i] * M[i][j] * d[j] for j in range(4)] for i in range(4)]

        g0, g1 = _split_by_matrix_involution(L, sigma)
        e1, f1 = L.root_data.simple_e[0], L.root_data.simple_f[0]
        c = [{e1: 1, f1: 1}]
    elif pair_id == "so4_gl2":
        L = build_classical("so", 4)
        d = [1, 1, -1, -1]

        def sigma(M):
            return [[d[i] * M[i][j] * d[j] for j in range(4)] for i in range(4)]

        g0, g1 = _split_by_matrix_involution(L, sigma)
        e2, f2 = L.root_data.simple_e[1], L.root_data.simple_f[1]
        c = [{e2: 1, f2: 1}]
    elif pair_id == "sl4_sp4":
        L = _reference_sl4_basis()
        J = _sp_form_matrix(4)

        def sigma(M):
            Mt = [[M[j][i] for j in range(4)] for i in range(4)]
            return mat_mul(mat_mul(J, Mt), J)

        g0, g1 = _split_by_matrix_involution(L, sigma)
        c = [{L.label_index("v5"): 1}]
    else:
        raise ValueError(f"unknown symmetric pair {pair_id!r}")
    cent0 = centralizer_in_span(L, c, g0)
    l_alg = subalgebra_from_vectors(L, cent0, labels=[f"l{i}" for i in range(len(cent0))])
    w = [0] * L.n
    for i in g1:
        w[i] = 1
    return L, g0, g1, c, l_alg, ContractionWeights(tuple(w))


def test_catalog_ids_are_read_off_the_table():
    assert Z2_PAIRS == tuple(builders._PAIRS) == ("sl2_so2", "sp4_sp2sp2", "so4_gl2", "sl4_sp4")


@pytest.mark.parametrize("pair_id", Z2_PAIRS)
def test_table_matches_the_four_branch_construction(pair_id):
    L, g0, g1, c, l_alg, w = _reference_pair(pair_id)
    pair = symmetric_pair(pair_id)
    assert pair.parent == L
    assert (pair.g0, pair.g1, pair.weights) == (g0, g1, w)
    assert [list(v.items()) for v in pair.cartan_subspace] == [list(v.items()) for v in c]
    assert algebra_to_text(pair.parent) == algebra_to_text(L)
    assert algebra_to_text(pair.centralizer_alg) == algebra_to_text(l_alg)


@pytest.mark.parametrize("pair_id", Z2_PAIRS)
def test_z2_report_matches_the_four_branch_construction(pair_id):
    L, g0, g1, c, l_alg, w = _reference_pair(pair_id)
    reference = builders.SymmetricPair(pair_id=pair_id, parent=L, g0=g0, g1=g1,
                                       cartan_subspace=c, centralizer_alg=l_alg, weights=w)
    assert z2_suite(symmetric_pair(pair_id)).as_dict() == z2_suite(reference).as_dict()


# ---------------------------------------------------------------------------
# every catalog error is reached by a bad row
# ---------------------------------------------------------------------------

def _minus_transpose(M):
    return [[-x for x in col] for col in zip(*M)]


def _negate_off_diagonal(M):
    return [[x if i == j else -x for j, x in enumerate(row)] for i, row in enumerate(M)]


BAD_ROWS = {
    "not homogeneous": ((lambda: build_classical("sl", 2)), _minus_transpose, [("e", "f")],
                        "catalog error: basis vector e of bad is not homogeneous "
                        "under the involution"),
    "not graded": ((lambda: build_classical("sl", 3)), _negate_off_diagonal, [("e1", "f1")],
                   "catalog error: bad split is not a Z2-grading"),
    "not abelian": ((lambda: build_classical("sl", 4)), _diagonal(1, 1, -1, -1),
                    [("e12", "f12"), ("e123", "f123")],
                    "catalog error: Cartan subspace of bad not abelian"),
    "not semisimple": ((lambda: build_classical("sl", 2)), _diagonal(1, -1), [("e",)],
                       "catalog error: Cartan subspace of bad not semisimple"),
    "not maximal": ((lambda: build_classical("sp", 4)), _diagonal(1, 1, -1, -1), [("e2", "f2")],
                    "catalog error: Cartan subspace of bad is not maximal"),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_bad_row_raises_its_catalog_error(case, monkeypatch):
    build, sigma, cartan, message = BAD_ROWS[case]
    monkeypatch.setitem(builders._PAIRS, "bad", (build, sigma, cartan))
    with pytest.raises(ValueError) as err:
        symmetric_pair("bad")
    assert str(err.value) == message


def test_unknown_pair_names_the_catalog():
    with pytest.raises(ValueError) as err:
        symmetric_pair("sl3_so3")
    assert str(err.value) == ("unknown symmetric pair 'sl3_so3'; choose from "
                              "('sl2_so2', 'sp4_sp2sp2', 'so4_gl2', 'sl4_sp4')")


# ---------------------------------------------------------------------------
# further classical pairs are one row each
# ---------------------------------------------------------------------------

MORE_ROWS = {
    "sl3_s(gl2+gl1)": (("sl", 3), (1, 1, -1), [("e2", "f2")], (4, 4, 1)),
    "sl4_s(gl2+gl2)": (("sl", 4), (1, 1, -1, -1), [("e12", "f12"), ("e23", "f23")], (7, 8, 1)),
    "sl4_s(gl3+gl1)": (("sl", 4), (1, 1, 1, -1), [("e3", "f3")], (9, 6, 4)),
}


@pytest.mark.parametrize("pair_id", MORE_ROWS)
def test_added_row_passes_z2(pair_id, monkeypatch):
    (kind, size), d, cartan, dims = MORE_ROWS[pair_id]
    monkeypatch.setitem(builders._PAIRS, pair_id,
                        (lambda: build_classical(kind, size), _diagonal(*d), cartan))
    pair = symmetric_pair(pair_id)
    assert (len(pair.g0), len(pair.g1), pair.centralizer_alg.n) == dims
    rep = z2_suite(pair)
    assert rep.ok, [cl.name for cl in rep.clauses if not cl.ok]


# ---------------------------------------------------------------------------
# the tops equality graded off the parent's minor pair
# ---------------------------------------------------------------------------

def add_row(monkeypatch, pair_id):
    if pair_id in MORE_ROWS:
        (kind, size), d, cartan, _ = MORE_ROWS[pair_id]
        monkeypatch.setitem(builders._PAIRS, pair_id,
                            (lambda: build_classical(kind, size), _diagonal(*d), cartan))


def tops_clause(rep):
    return next(c.ok for c in rep.clauses if c.name == "kostant_equality_for_tops")


@pytest.mark.parametrize("pair_id", [*Z2_PAIRS, *MORE_ROWS])
def test_graded_pair_is_the_limit_minor_pair(pair_id, monkeypatch):
    """At the parent's I, the two graded parts of B_I are the limit's
    (A~_I, B~_I), for the reduced tops and for the tops before reduction
    (where sum d' exceeds the weight total on three catalog pairs, so the
    parts differ); the clause equals the limit's own verdict."""
    add_row(monkeypatch, pair_id)
    pair = symmetric_pair(pair_id)
    L, w = pair.parent, pair.weights
    gens = char_invariants(L)
    pi = lie_poisson_bivector(L)
    res = contract_algebra(L, w)
    verdicts = []
    for gs in (t_degree_reduction(gens, w).gens, gens.gens):
        graded = [t_degree(g, w) for g in gs]
        tops = [top for _, top in graded]
        a_t, b_t = graded_tops_minor(pi, len(gens), w, [d for d, _ in graded])
        index_set, _ = _pivot_point(pi, len(gens))
        assert (a_t, b_t) == _regularity_minor(res.pi_tilde, tops, index_set)
        assert not b_t.is_zero
        limit = regularity(res.pi_tilde, tops)
        if limit.pivots is not None:
            assert (a_t == b_t) == limit.equal
        verdicts.append(limit.equal)
    assert tops_clause(z2_suite(pair)) == verdicts[0] is True


@pytest.mark.parametrize("pair_id", Z2_PAIRS)
def test_each_z2_suite_expands_one_minor_pair(pair_id, monkeypatch):
    """No (A_I, B_I) pair is expanded: the parent's normalisation reads its
    scale at a point, and the limit's verdict reads sum d'.  The one
    regularity call is the limit's: the certificate proves the parent's
    index."""
    calls, proofs = [], []

    def spy(pi, gens, index_set):
        calls.append(pi)
        return _regularity_minor(pi, gens, index_set)

    monkeypatch.setattr(invariants, "_regularity_minor", spy)
    monkeypatch.setattr(analysis, "_regularity_minor", spy)
    real_regularity = analysis.regularity
    monkeypatch.setattr(analysis, "regularity",
                        lambda pi, fs: proofs.append(pi) or real_regularity(pi, fs))
    pair = symmetric_pair(pair_id)
    assert z2_suite(pair).ok
    assert calls == []
    assert proofs == [contract_algebra(pair.parent, pair.weights).pi_tilde]


def test_the_sl4_borel_limit_takes_the_fallback(monkeypatch):
    """On the sl4 Borel limit, B_I has no part of degree w(I) at the parent's
    I, where the graded read fell back to the limit's own minor pair; the
    clause reads sum d' at the limit's pivots, expands none, and is the
    limit's own verdict."""
    L = builtin_algebra("sl4")
    w = borel_decomposition(L)
    pi = lie_poisson_bivector(L)
    graded = [t_degree(g, w) for g in char_invariants(L).gens]
    tops = [top for _, top in graded]
    _, b_t = graded_tops_minor(pi, len(graded), w, [d for d, _ in graded])
    assert b_t.is_zero
    calls = []

    def spy(pi, gens, index_set):
        calls.append(pi)
        return _regularity_minor(pi, gens, index_set)

    monkeypatch.setattr(invariants, "_regularity_minor", spy)
    monkeypatch.setattr(analysis, "_regularity_minor", spy)
    g1 = tuple(i for i in range(L.n) if w[i])
    borel = builders.SymmetricPair(
        pair_id="sl4_borel", parent=L, g0=tuple(i for i in range(L.n) if not w[i]), g1=g1,
        cartan_subspace=[], weights=w,
        centralizer_alg=subalgebra_from_vectors(L, [{h: 1} for h in L.root_data.cartan]))
    rep = z2_suite(borel)
    limit_pi = contract_algebra(L, w).pi_tilde
    assert calls == []
    assert tops_clause(rep) == regularity(limit_pi, tops).equal is True


def sl4_borel_pair():
    L = builtin_algebra("sl4")
    w = borel_decomposition(L)
    return builders.SymmetricPair(
        pair_id="sl4_borel", parent=L, g0=tuple(i for i in range(L.n) if not w[i]),
        g1=tuple(i for i in range(L.n) if w[i]), cartan_subspace=[], weights=w,
        centralizer_alg=subalgebra_from_vectors(L, [{h: 1} for h in L.root_data.cartan]))


@pytest.mark.parametrize("pair_id", [*Z2_PAIRS, *MORE_ROWS, "sl4_borel"])
def test_the_degree_sum_verdict_is_the_limit_verdict(pair_id, monkeypatch):
    """With pivots on the parent and on the limit, A~ == B~ exactly when
    sum d' is the weight total.  The reduced tops, which the clause reads,
    have pivots on every pair; the tops before reduction have them where
    they are independent, and are not equal where they are not."""
    add_row(monkeypatch, pair_id)
    pair = sl4_borel_pair() if pair_id == "sl4_borel" else symmetric_pair(pair_id)
    L, w = pair.parent, pair.weights
    gens = char_invariants(L)
    assert regularity(lie_poisson_bivector(L), gens.gens).pivots is not None
    pi_tilde = contract_algebra(L, w).pi_tilde
    limits = []
    for gs in (t_degree_reduction(gens, w).gens, gens.gens):
        graded = [t_degree(g, w) for g in gs]
        limits.append(limit := regularity(pi_tilde, [top for _, top in graded]))
        if limit.pivots is not None:
            assert (sum(d for d, _ in graded) == w.total) == limit.equal
        else:
            assert not limit.independent and not limit.equal
    assert limits[0].pivots is not None
    assert tops_clause(z2_suite(pair)) == limits[0].equal is True


PAST_CAP = {"sp6": ("sp", 6), "so7": ("so", 7), "sl5": ("sl", 5)}


@pytest.mark.parametrize("source", [*FEIGIN_ALGEBRAS, *PAST_CAP, *Z2_PAIRS, *MORE_ROWS,
                                    "sl4_borel"])
def test_the_shared_tops_rule_is_the_limit_verdict(source, monkeypatch):
    """analysis._tops_equal, the tops clause of feigin and z2, reads sum d'
    at the limit's pivots; it equals limit.equal, the limit's own expanded
    pair, on each Borel limit feigin reads and on each pair z2 reduces."""
    if source in FEIGIN_ALGEBRAS or source in PAST_CAP:
        kind, size = PAST_CAP.get(source, (None, None))
        L = getattr(builders, f"_build_{kind}")(size) if kind else builtin_algebra(source)
        w, gens = borel_decomposition(L), char_invariants(L)
    else:
        add_row(monkeypatch, source)
        pair = sl4_borel_pair() if source == "sl4_borel" else symmetric_pair(source)
        L, w = pair.parent, pair.weights
        gens = t_degree_reduction(char_invariants(L), w)
    res, pairs, limit = analysis._contraction(L, gens.gens, w)
    assert limit.pivots is not None
    assert analysis._tops_equal(res, pairs, limit) == limit.equal is True


@pytest.mark.parametrize("name", FEIGIN_ALGEBRAS)
def test_each_feigin_suite_expands_only_the_pair_of_g_prime(name, monkeypatch):
    """The tops clause reads sum d' at the limit's pivots, so the one pair
    expanded is g''s, for its semicentre certificate."""
    expanded, proofs = [], []
    real_regularity = analysis.regularity

    def spy(pi, gens, index_set):
        expanded.append(pi.n)
        return _regularity_minor(pi, gens, index_set)

    monkeypatch.setattr(invariants, "_regularity_minor", spy)
    monkeypatch.setattr(analysis, "_regularity_minor", spy)
    monkeypatch.setattr(analysis, "regularity",
                        lambda pi, fs: proofs.append(pi.n) or real_regularity(pi, fs))
    L = builtin_algebra(name)
    assert feigin_suite(L).ok
    n_prime = L.n - L.root_data.rank
    assert expanded == [n_prime] and proofs == [L.n, n_prime]


# ---------------------------------------------------------------------------
# the row validation's kernels against the code they replaced
# ---------------------------------------------------------------------------

def seeded_square_matrices(seed=4141, count=3000):
    """count seeded m x m matrices, m <= 4: small int entries, and Jordan
    forms conjugated by an int matrix P (P J P^-1, Fraction entries where
    P^-1 has them) with diagonal forms, so semisimple ones with repeated
    eigenvalues, in every second one."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        m = rng.randint(1, 4)
        if t % 3 == 0:
            out.append([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            continue
        J, i = zero_matrix(m), 0
        while i < m:
            size = 1 if t % 2 else rng.randint(1, m - i)
            lam = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
            for k in range(size):
                J[i + k][i + k] = lam
                if k:
                    J[i + k - 1][i + k] = 1
            i += size
        P = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        while rational_rank(P) < m:
            P = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        M = mat_mul(mat_mul(P, J), rational_inverse(P))
        out.append([[x.numerator if x.denominator == 1 else x for x in row] for row in M])
    return out


def test_semisimplicity_by_two_ranks_matches_the_squarefree_test():
    verdicts = [(builders._is_semisimple_matrix(M), reference_is_semisimple(M))
                for M in seeded_square_matrices()]
    assert all(got == want for got, want in verdicts)
    semisimple = sum(want for _, want in verdicts)
    assert 1000 <= semisimple <= len(verdicts) - 500


def test_semisimplicity_matches_sympy_on_a_sample():
    sympy = pytest.importorskip("sympy")
    sample = seeded_square_matrices(seed=4242, count=18)
    for M in sample:
        assert builders._is_semisimple_matrix(M) == sympy.Matrix(M).is_diagonalizable(), M


def test_semisimplicity_on_named_matrices():
    jordan = [[2, 1, 0], [0, 2, 0], [0, 0, 2]]
    assert not builders._is_semisimple_matrix(jordan)
    assert builders._is_semisimple_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert builders._is_semisimple_matrix([[5]])
    assert not builders._is_semisimple_matrix([[0, 1], [0, 0]])
    assert builders._is_semisimple_matrix([[0, -1], [1, 0]])      # eigenvalues +-i
    assert builders._is_semisimple_matrix([[Fraction(1, 2), 0], [1, Fraction(-1, 3)]])


def j_transpose_j(M):
    """The sp4 involution as it was built: two products and a transpose."""
    J = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    return mat_mul(mat_mul(J, [list(col) for col in zip(*M)]), J)


def test_sp4_form_entrywise_is_j_transpose_j():
    rng = random.Random(4343)
    mats = list(builders._adapted_sl4_basis().matrices)
    mats += [[[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)] for _ in range(200)]
    assert len(mats) == 215
    for M in mats:
        assert builders._sp4_form(M) == j_transpose_j(M)
