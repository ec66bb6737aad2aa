"""The normalisation's scale read at a point of the nilpotent cone.

invariants._normalize_to_regularity reads B_I(xi) / A_I(xi) at the point xi
of _nilpotent_point once its certificate holds, and raises at the first
step that fails.  The point must give the scale and generators of the
expanded pair (A_I, B_I) it replaced, conftest.expanded_normalize; every
failed step must raise its own message; and char_invariants must expand no
pair on any algebra, built by hand or not.  linalg._int_pfaffian, the int
kernel behind both numbers, is checked against the memoised engine
_Pfaffians.
"""

import itertools
import random
from fractions import Fraction

import conftest
import pytest
from conftest import cached_builtin, cached_pair, expanded_normalize

from liecontract import builders, invariants
from liecontract.builders import BUILTIN_ALGEBRAS, Z2_PAIRS, borel_decomposition
from liecontract.contract import contract_algebra
from liecontract.exterior import _seeded_points
from liecontract.invariants import _Casimirs, _normalize_to_regularity, char_invariants
from liecontract.lie import from_matrices, lie_poisson_bivector
from liecontract.linalg import _int_pfaffian, _Pfaffians, poly_det_cofactor
from liecontract.polyring import Polynomial, _partials

PAST_CAP = {"sp6": ("sp", 6), "so7": ("so", 7), "sl5": ("sl", 5)}
# the scales of the expanded pair, which took seconds at these sizes
PAST_CAP_SCALES = {"sp6": -185794560, "so7": -2972712960, "sl5": -18144000}


@pytest.fixture(scope="module")
def past_cap():
    return {name: getattr(builders, "_build_" + kind)(size)
            for name, (kind, size) in PAST_CAP.items()}


def algebra(source, past_cap):
    if source in BUILTIN_ALGEBRAS:
        return cached_builtin(source)
    if source in PAST_CAP:
        return past_cap[source]
    return cached_pair(source).parent


def spy_minors(monkeypatch):
    calls = []
    real = invariants._regularity_minor

    def spy(pi, gens, index_set):
        calls.append(index_set)
        return real(pi, gens, index_set)

    monkeypatch.setattr(invariants, "_regularity_minor", spy)
    return calls


def raw_casimirs(L, monkeypatch):
    """char_invariants' proved generators before the normalisation."""
    with monkeypatch.context() as m:
        m.setattr(invariants, "_normalize_to_regularity", lambda L, gens: 1)
        gens = char_invariants(L).gens
    assert invariants._casimirs_of(gens) is lie_poisson_bivector(L)
    return gens


def expanded(L, gens):
    """(scale, generators) of the expanded pair on a copy of gens."""
    out = list(gens)
    return expanded_normalize(L, out), out


def hand_built(L):
    """A copy of L built without from_matrices: nothing proves its Casimirs."""
    return builders.LieAlgebra(L.labels, L.brackets, matrices=L.matrices,
                               root_data=L.root_data, name=L.name)


# ---------------------------------------------------------------------------
# the int Pfaffian kernel
# ---------------------------------------------------------------------------

def random_skew(rng, m, density, low=-4, high=4):
    a = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        if rng.random() < density:
            a[i][j] = x = rng.randint(low, high)
            a[j][i] = -x
    return a


@pytest.mark.parametrize("m", range(15))
def test_int_pfaffian_is_the_engine_pfaffian(m):
    rng = random.Random(1000 + m)
    for density in (0.15, 0.4, 1.0):
        for _ in range(6):
            a = random_skew(rng, m, density)
            want = _Pfaffians.of_matrix(a)([tuple(range(m))]) if m % 2 == 0 else 0
            assert _int_pfaffian(a) == want


def test_int_pfaffian_swaps_pivots_and_finds_zeros():
    # row 0 meets only the last column: every step swaps a pivot column in
    m = 8
    a = [[0] * m for _ in range(m)]
    for i in range(0, m, 2):
        a[i][m - 1 - i], a[m - 1 - i][i] = i + 1, -(i + 1)
    assert _int_pfaffian(a) == _Pfaffians.of_matrix(a)([tuple(range(m))]) != 0
    # a zero row, and two equal rows: both Pfaffians are 0
    b = random_skew(random.Random(5), 6, 1.0)
    b[2] = [0] * 6
    for r in b:
        r[2] = 0
    assert _int_pfaffian(b) == 0
    c = [[0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1], [-3, -2, -1, 0]]
    assert _int_pfaffian(c) == _Pfaffians.of_matrix(c)([(0, 1, 2, 3)]) == 0
    assert _int_pfaffian([]) == 1 and _int_pfaffian([[0]]) == 0
    # the kernel leaves its input as it was
    d = random_skew(random.Random(6), 10, 0.5)
    copy = [list(r) for r in d]
    _int_pfaffian(d)
    assert d == copy


def test_int_pfaffian_reads_a_determinant_off_the_block():
    rng = random.Random(8)
    for ell in range(1, 5):
        v = [[rng.randint(-5, 5) for _ in range(ell)] for _ in range(ell)]
        block = [[0] * ell + row for row in v]
        block += [[-v[i][j] for i in range(ell)] + [0] * ell for j in range(ell)]
        det = _int_pfaffian(block) * (-1 if ell // 2 % 2 else 1)
        want = poly_det_cofactor([[Polynomial.const(1, x) for x in row] for row in v])
        assert det == want.constant_value()


def test_partials_on_chosen_columns_are_the_full_partials():
    L = cached_builtin("sl4")
    for F in char_invariants(L).gens:
        full = _partials(F.terms, L.n)
        for cols in ([0], [3, 7, 14], list(range(L.n))):
            assert _partials(F.terms, L.n, cols) == {j: full[j] for j in cols if j in full}


# ---------------------------------------------------------------------------
# the point path against the expanded pair
# ---------------------------------------------------------------------------

SOURCES = [*BUILTIN_ALGEBRAS, *Z2_PAIRS, *PAST_CAP]


@pytest.mark.parametrize("source", SOURCES)
def test_point_scale_is_the_expanded_scale(source, past_cap, monkeypatch):
    L = algebra(source, past_cap)
    gens = raw_casimirs(L, monkeypatch)
    want_scale, want_gens = expanded(L, gens)
    calls = spy_minors(monkeypatch)
    got = char_invariants(L)
    assert calls == []
    assert got.normalization == want_scale and got.gens == want_gens
    assert invariants._casimirs_of(got.gens) is lie_poisson_bivector(L)
    if source in PAST_CAP_SCALES:
        assert want_scale == PAST_CAP_SCALES[source]


def test_fractional_structure_constants_take_the_point_path(monkeypatch):
    # sl3 on rescaled matrices: pi(xi) has denominators, so its I-block is
    # scaled to int before the Pfaffian
    src = cached_builtin("sl3")
    scales = [Fraction(1, 3), 2, 1, Fraction(5, 2), 1, 1, Fraction(1, 7), 1]
    mats = [[[x * c for x in row] for row in M] for M, c in zip(src.matrices, scales)]
    L = from_matrices(mats, labels=src.labels)
    assert any(type(c) is not int for row in L.brackets.values() for c in row.values())
    gens = raw_casimirs(L, monkeypatch)
    want_scale, want_gens = expanded(L, gens)
    calls = spy_minors(monkeypatch)
    got = char_invariants(L)
    assert calls == [] and got.normalization == want_scale == Fraction(-30, 7)
    assert got.gens == want_gens


def test_perfect_holds_on_the_catalog_and_fails_on_a_limit(past_cap):
    for source in SOURCES:
        assert invariants._perfect(algebra(source, past_cap))
    # a Borel limit has a character, so its brackets miss part of a basis
    L = cached_builtin("sl3")
    assert not invariants._perfect(contract_algebra(L, borel_decomposition(L)).contracted)


def certificate_case(monkeypatch, name="sl3"):
    L = cached_builtin(name)
    return L, raw_casimirs(L, monkeypatch), spy_minors(monkeypatch)


CERTIFICATE = "no nilpotent-point certificate"


def assert_point_value(L, gens, calls, monkeypatch):
    """The list is checked, one _weight per F, and read at the point, with
    the expanded pair's value."""
    want = expanded(L, gens)
    weights = []
    real = invariants._weight
    monkeypatch.setattr(invariants, "_weight", lambda h, pi: weights.append(pi.n) or real(h, pi))
    assert _normalize_to_regularity(L, gens) == want[0]
    assert list(gens) == want[1] and calls == [] and weights == [L.n] * len(gens)


def test_a_plain_list_takes_the_expanded_path(monkeypatch):
    # a plain list is checked, then read at the point
    L, gens, calls = certificate_case(monkeypatch)
    assert_point_value(L, list(gens), calls, monkeypatch)


def test_an_edited_casimir_list_takes_the_expanded_path(monkeypatch):
    # F_2 * 3 is still a Casimir: checked, then read at the point
    L, gens, calls = certificate_case(monkeypatch)
    gens[1] = gens[1] * 3
    assert invariants._casimirs_of(gens) is None
    assert_point_value(L, gens, calls, monkeypatch)


def test_an_algebra_not_shown_perfect_takes_the_expanded_path(monkeypatch):
    # step (d) fails, and the certificate's error is raised
    L, gens, calls = certificate_case(monkeypatch)
    monkeypatch.setattr(invariants, "_perfect", lambda L: False)
    with pytest.raises(ValueError, match=CERTIFICATE):
        _normalize_to_regularity(L, gens)
    assert calls == []


def test_a_point_outside_its_image_takes_the_expanded_path(monkeypatch):
    # a seeded point is regular semisimple, rank n - l but
    # outside im pi(x), so step (b') fails with the certificate's error
    L, gens, calls = certificate_case(monkeypatch)
    x = tuple(int(c.numerator * 840 // c.denominator) for c in _seeded_points(L.n)[0])
    monkeypatch.setattr(invariants, "_nilpotent_point", lambda L: x)
    with pytest.raises(ValueError, match=CERTIFICATE):
        _normalize_to_regularity(L, list(gens))
    # with n - l = 7 odd, [pi(x) | x] has rank n - l, and only x's own pivot
    # tells it from a rank of n - l: F_1^2 meets (a), k = 3
    bad = _Casimirs(lie_poisson_bivector(L), [gens[0] ** 2])
    with pytest.raises(ValueError, match="degenerate generator set"):
        _normalize_to_regularity(L, bad)
    assert calls == []


@pytest.mark.parametrize("point", ["zero", "one root"])
def test_a_rank_that_falls_short_takes_the_expanded_path(point, monkeypatch):
    # step (b) fails
    L, gens, calls = certificate_case(monkeypatch)
    x = [0] * L.n
    if point == "one root":
        x[L.label_index("f1")] = 1
    monkeypatch.setattr(invariants, "_nilpotent_point", lambda L: tuple(x))
    with pytest.raises(ValueError, match="degenerate generator set"):
        _normalize_to_regularity(L, gens)
    assert calls == []


@pytest.mark.parametrize("mismatch, error, expansions", [
    ("a product of Casimirs", "not proportional to the wedge power", 1),
    ("one generator short", "degenerate generator set", 0)])
def test_a_degree_mismatch_takes_the_expanded_path_and_its_error(mismatch, error, expansions,
                                                                 monkeypatch):
    # sl3: sum(deg F_i - 1) is 5 against k = 3, and 1 against no k at all;
    # the point raises the expanded pair's error, with no pair expanded
    # where the reference expands `expansions`
    L, gens, calls = certificate_case(monkeypatch)
    polys = [gens[0], gens[0] * gens[1]] if mismatch == "a product of Casimirs" else [gens[0]]
    bad = _Casimirs(lie_poisson_bivector(L), polys)
    with pytest.raises(ValueError, match=error):
        _normalize_to_regularity(L, bad)
    assert calls == []
    real = conftest._regularity_minor
    monkeypatch.setattr(conftest, "_regularity_minor",
                        lambda *args: calls.append(args[2]) or real(*args))
    with pytest.raises(ValueError, match=error):
        expanded(L, bad)
    assert len(calls) == expansions


def test_dependent_differentials_take_the_expanded_path_and_its_error(monkeypatch):
    # sp4: F_1^2 has F_2's degree, so (a) and (b) hold and A_I(xi) = 0
    L, gens, calls = certificate_case(monkeypatch, "sp4")
    bad = _Casimirs(lie_poisson_bivector(L), [gens[0], gens[0] ** 2])
    with pytest.raises(ValueError, match="not proportional to the wedge power"):
        _normalize_to_regularity(L, bad)
    assert calls == []


def test_char_invariants_of_a_hand_built_copy_expands_the_pair(monkeypatch):
    # nothing proves a hand-built algebra's Casimirs, so the
    # normalisation checks them, reads the point, and returns a proved list
    src = cached_builtin("sl3")
    L = hand_built(src)
    calls = spy_minors(monkeypatch)
    got = char_invariants(L)
    assert calls == []
    assert got.normalization == char_invariants(src).normalization
    assert invariants._casimirs_of(got.gens) is lie_poisson_bivector(L)


@pytest.mark.parametrize("source", [*BUILTIN_ALGEBRAS, *Z2_PAIRS, *PAST_CAP, "so8"])
def test_a_hand_built_copy_gives_the_builtin_generators(source, past_cap, monkeypatch):
    # the copy has no construction mark and no kind tag: char_invariants
    # reads the kind off n and the matrix size
    src = builders._build_so(8) if source == "so8" else algebra(source, past_cap)
    L = hand_built(src)
    calls = spy_minors(monkeypatch)
    got, want = char_invariants(L), char_invariants(src)
    assert calls == []
    assert got.normalization == want.normalization and got.gens == want.gens
    assert source != "so8" or got.normalization == -7847962214400
    assert invariants._casimirs_of(got.gens) is lie_poisson_bivector(L)


def test_swapped_matrices_give_no_casimirs(monkeypatch):
    # sl3 with the matrices of e1 and e2 swapped and its bracket table kept:
    # the minors of X are Casimirs of the swapped bracket, not of this one
    src = cached_builtin("sl3")
    i, j = src.label_index("e1"), src.label_index("e2")
    mats = list(src.matrices)
    mats[i], mats[j] = mats[j], mats[i]
    L = builders.LieAlgebra(src.labels, src.brackets, matrices=mats,
                            root_data=src.root_data, name=src.name)
    calls = spy_minors(monkeypatch)
    with pytest.raises(ValueError, match="not proportional to the wedge power"):
        char_invariants(L)
    assert calls == []
