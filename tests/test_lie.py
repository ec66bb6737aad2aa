import functools
import hashlib
import random
from fractions import Fraction

import pytest

from conftest import cached_builtin as builtin_algebra
from conftest import cached_pair as symmetric_pair
from conftest import subalgebra_on_indices
from liecontract import builders
from liecontract.builders import (BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS,
                                  borel_decomposition, build_classical, is_z2_grading)
from liecontract.lie import (JacobiError, LieAlgebra, RootData, algebra_from_text,
                             algebra_index,
                             algebra_to_text, from_matrices, jacobi_check,
                             lie_poisson_bivector, subalgebra_from_vectors)
from liecontract.linalg import flatten, solve_exact
from liecontract.polyring import parse_polynomial

F0, F1 = Fraction(0), Fraction(1)


def commutator(a, b):
    """[a, b] = ab - ba by dense products, the reference for from_matrices."""
    m = len(a)
    return [[sum(a[r][s] * b[s][t] - b[r][s] * a[s][t] for s in range(m))
             for t in range(m)] for r in range(m)]


def sl2_matrices():
    e = [[F0, F1], [F0, F0]]
    h = [[F1, F0], [F0, -F1]]
    f = [[F0, F0], [F1, F0]]
    return e, h, f


class TestFromMatrices:
    def test_standard_sl2(self):
        e, h, f = sl2_matrices()
        L = from_matrices([e, h, f], labels=["e", "h", "f"])
        assert L.brackets == {(0, 1): {0: Fraction(-2)},
                              (0, 2): {1: Fraction(1)},
                              (1, 2): {2: Fraction(-2)}}

    def test_commuting_diagonals(self):
        a = [[F1, F0], [F0, F0]]
        b = [[F0, F0], [F0, F1]]
        L = from_matrices([a, b])
        assert L.brackets == {}

    def test_borel_of_sl2(self):
        e, h, _ = sl2_matrices()
        L = from_matrices([e, h], labels=["e", "h"])
        assert L.brackets == {(0, 1): {0: Fraction(-2)}}

    def test_linear_dependence_rejected(self):
        e, h, _ = sl2_matrices()
        e2 = [[F0, Fraction(2)], [F0, F0]]
        with pytest.raises(ValueError):
            from_matrices([e, h, e2])

    def test_not_closed_rejected(self):
        e, _, f = sl2_matrices()
        with pytest.raises(ValueError):
            from_matrices([e, f])

    def test_round_trip_for_builtins(self):
        for name in BUILTIN_ALGEBRAS:
            L = builtin_algebra(name)
            rebuilt = from_matrices(L.matrices, labels=L.labels)
            assert rebuilt.brackets == L.brackets

    def test_messages_name_the_failure(self):
        e, h, f = sl2_matrices()
        with pytest.raises(ValueError, match="matrices are linearly dependent"):
            from_matrices([e, h, [[F0, Fraction(2)], [F0, F0]]])
        # the solution read off the pivot entries is zero here; only the
        # check of every entry rejects it
        with pytest.raises(ValueError, match=r"not closed under commutator at pair \(e,f\)"):
            from_matrices([e, f], labels=["e", "f"])

    def test_one_reduction_matches_a_solve_per_pair(self):
        for name in ("sl3", "sp4", "so5"):
            mats = builtin_algebra(name).matrices
            columns = [flatten(M) for M in mats]
            expected = {}
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    sol = solve_exact(columns, flatten(commutator(mats[i], mats[j])))
                    row = {k: c for k, c in enumerate(sol) if c}
                    if row:
                        expected[(i, j)] = row
            assert from_matrices(mats).brackets == expected

    # sha256 of algebra_to_text, recorded before from_matrices reduced the
    # basis once: (parent, centralizer algebra) for the symmetric pairs
    TEXT_SHA256 = {
        "sl2": "232be919677520abd8cff35289dbe61398d11652f40e7ec6b64e59ad1679ff9e",
        "sl3": "b6d9bd0db89ba4420ae9f33ab2dadbe666259bb9d9f2b80f2b7fd90edd053304",
        "sl4": "49abbbaf5f9fe18925efc86f628e0addd590aaf82af837564c50b536a1a1c019",
        "sp4": "dfdb9e4546088a795be292f6cf86e2397a47f27d210995b4d09f6323f98fd52a",
        "so4": "c34d631251363d2d17520f6b640e643842734bd9102bc7310f19afac7a1b7d2d",
        "so5": "c108e235acd1edadb00214ed266391eaaa89cf082af84e91296af381d4f9d320",
        "so6": "bf5142ec5fb296901206546a42cb123c41f76061116ec8dd9a85f1d5fb526b4e",
        "sl2_so2": ("232be919677520abd8cff35289dbe61398d11652f40e7ec6b64e59ad1679ff9e",
                    "b75b5ab06a3674e5ca6d2aad63402354a2025f638a2f0379811eff0aec46ea69"),
        "sp4_sp2sp2": ("dfdb9e4546088a795be292f6cf86e2397a47f27d210995b4d09f6323f98fd52a",
                       "0e87aa16adfdd99fc7bd948e180c506df38bb26194a60b8f6fc9ac0b11cbafd6"),
        "so4_gl2": ("c34d631251363d2d17520f6b640e643842734bd9102bc7310f19afac7a1b7d2d",
                    "59e3cf6a1e1c550836f5e07e784207d02202ad2825a4e27ced6f1be298a821a7"),
        "sl4_sp4": ("fc7ae8b614d52f7fe289da45fd1de64d0c3098d3e7ac557ee2ff81e3d7aa8def",
                    "f3f2c87cdfcedcb0138e2a380049cb677d825434cd61302a5f6ced7add510933"),
    }

    def test_algebra_files_unchanged(self):
        def sha(L):
            return hashlib.sha256(algebra_to_text(L).encode()).hexdigest()

        for key, digest in self.TEXT_SHA256.items():
            if key in BUILTIN_ALGEBRAS:
                assert sha(builtin_algebra(key)) == digest, key
            else:
                pair = symmetric_pair(key)
                assert (sha(pair.parent), sha(pair.centralizer_alg)) == digest, key


class TestJacobi:
    def test_sl2(self):
        assert jacobi_check(builtin_algebra("sl2")) == (True, None)

    def test_counterexample_table(self):
        L = LieAlgebra(["x1", "x2", "x3"],
                       {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
        ok, triple = jacobi_check(L)
        assert not ok and triple == (0, 1, 2)

    def test_abelian(self):
        L = LieAlgebra(["a", "b", "c"], {})
        assert jacobi_check(L) == (True, None)


class TestLiePoissonBivector:
    def test_sl2(self):
        L = builtin_algebra("sl2")
        pi = lie_poisson_bivector(L)
        assert pi.coefficient((0, 1)) == parse_polynomial("-2*e", L.labels)
        assert pi.coefficient((0, 2)) == parse_polynomial("h", L.labels)
        assert pi.coefficient((1, 2)) == parse_polynomial("-2*f", L.labels)

    def test_abelian_zero(self):
        L = LieAlgebra(["a", "b"], {})
        assert lie_poisson_bivector(L).is_zero

    def test_borel_of_sl2(self):
        e, h, _ = sl2_matrices()
        L = from_matrices([e, h], labels=["e", "h"])
        pi = lie_poisson_bivector(L)
        assert pi.coefficient((0, 1)) == parse_polynomial("-2*e", ["e", "h"])

    def test_jacobi_gate(self):
        L = LieAlgebra(["x1", "x2", "x3"],
                       {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
        with pytest.raises(ValueError):
            lie_poisson_bivector(L)

    def test_jacobi_gate_raises_typed_error(self):
        L = LieAlgebra(["x1", "x2", "x3"],
                       {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
        with pytest.raises(JacobiError, match=r"triple \(0, 1, 2\)"):
            lie_poisson_bivector(L)
        # the ungated bivector is still available
        assert L.bivector.degree == 2

    def test_bracket_target_out_of_range_rejected(self):
        for k in (3, 7, -1):
            with pytest.raises(ValueError, match=rf"\(0,1\) has target {k}"):
                LieAlgebra(["a", "b", "c"], {(0, 1): {k: 1}})
        with pytest.raises(ValueError, match="target 7"):
            algebra_from_text("name: oob\nlabels: a b c\nbracket: 0 1 7 1\n")

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="label 'a' is repeated"):
            LieAlgebra(["a", "a", "b"], {})
        with pytest.raises(ValueError, match="label 'b' is repeated"):
            algebra_from_text("name: dup\nlabels: a b c b\n")

    def test_root_data_index_out_of_range_rejected(self):
        def root_data(**changed):
            fields = dict(rank=1, simple_e=(0,), simple_f=(2,), cartan=(1,),
                          positive=(0,), negative=(2,), highest=0, marks=(1,))
            return RootData(**dict(fields, **changed))

        LieAlgebra(["e", "h", "f"], {}, root_data=root_data())
        LieAlgebra(["e", "h", "f"], {}, root_data=root_data(highest=None, marks=None))
        for field, value in (("simple_e", (9,)), ("simple_f", (-1,)), ("cartan", (3,)),
                             ("positive", (0, 5)), ("negative", (2, 3)), ("highest", 3)):
            with pytest.raises(ValueError, match=r"root data index -?\d+ must satisfy"):
                LieAlgebra(["e", "h", "f"], {}, root_data=root_data(**{field: value}))
        # indices in range but tuple lengths that contradict the rank
        with pytest.raises(ValueError, match="root data simple_e has length 3; rank is 1"):
            LieAlgebra(["e", "h", "f"], {}, root_data=root_data(simple_e=(0, 1, 2), marks=(1, 2)))

    def test_negative_weights_line_rejected(self):
        base = "name: w\nlabels: a b c\n"
        for body in ("[1,-1,0]", "[-3, 0, 0]", "[0,0,-1]"):
            with pytest.raises(ValueError, match=r"line 3: weights entries must be nonnegative"):
                algebra_from_text(base + f"weights: {body}\n")
        assert algebra_from_text(base + "weights: [1,0,2]\n")[1] == [1, 0, 2]

    def test_empty_weights_entries_line_rejected(self):
        base = "name: w\nlabels: a b c\n"
        for body in ("[1,,2]", "[0,1,]", "[,0,1,2]", "[0, ,1,2]", "[,]"):
            with pytest.raises(ValueError, match=r"line 3: weights has an empty entry"):
                algebra_from_text(base + f"weights: {body}\n")
        # no entries at all is still a list, of length 0
        for body in ("[]", "[ ]"):
            assert algebra_from_text(f"name: w\nlabels:\nweights: {body}\n")[1] == []

    def test_matsize_below_one_line_rejected(self):
        for size in ("0", "-1"):
            with pytest.raises(ValueError, match=rf"line 3: matsize must be at least 1, got {size}"):
                algebra_from_text(f"name: m\nlabels: a\nmatsize: {size}\nmatrix: 1\n")
        assert algebra_from_text("name: m\nlabels: a\nmatsize: 1\nmatrix: 1\n")[0].matrices

    def test_root_data_lengths_must_match_the_rank(self):
        fields = dict(rank=1, simple_e=(0,), simple_f=(2,), cartan=(1,),
                      positive=(0,), negative=(2,), highest=0, marks=(1,))
        for field, value, message in (
                ("simple_e", (), "simple_e has length 0; rank is 1"),
                ("simple_f", (2, 2), "simple_f has length 2; rank is 1"),
                ("cartan", (1, 1), "cartan has length 2; rank is 1"),
                ("marks", (1, 1), "marks has length 2; rank is 1"),
                ("rank", 2, "simple_e has length 1; rank is 2"),
                ("positive", (0, 0), "positive has length 2 and negative has length 1")):
            rd = RootData(**dict(fields, **{field: value}))
            with pytest.raises(ValueError, match=message):
                LieAlgebra(["e", "h", "f"], {}, root_data=rd)
        # marks are optional, and positive and negative may be longer than the rank
        LieAlgebra(["e", "h", "f"], {}, root_data=RootData(**dict(fields, marks=None)))
        LieAlgebra(["e", "h", "f"], {},
                   root_data=RootData(**dict(fields, positive=(0, 0), negative=(2, 2))))

    def test_zero_denominator_names_the_line(self):
        with pytest.raises(ValueError, match=r"line 3: zero denominator in '1/0'"):
            algebra_from_text("name: z\nlabels: a b c\nbracket: 0 1 2 1/0\n")
        with pytest.raises(ValueError, match=r"line 5: zero denominator in '3/0'"):
            algebra_from_text("name: z\nlabels: a\nmatsize: 2\n\nmatrix: 1 0 0 3/0\n")


# the classical algebras past the 15-dimensional cap as well as under it
CLASSICAL = ([("sl", k) for k in range(2, 7)] + [("so", k) for k in range(4, 11)]
             + [("sp", k) for k in (4, 6, 8)])


@functools.lru_cache(maxsize=None)
def classical(kind, size):
    return {"sl": builders._build_sl, "so": builders._build_so,
            "sp": builders._build_sp}[kind](size)


def reference_roots(kind, size):
    """(positive roots as simple-root coefficients, marks) by the per-family
    formulas the builders once typed by hand; marks None for so4."""
    def run(i, j, rank):  # a_i + ... + a_{j-1}
        return [1 if i <= t < j else 0 for t in range(rank)]

    if kind == "sl":
        rank = size - 1
        return ([run(i, j, rank) for i in range(size) for j in range(i + 1, size)],
                (1,) * rank)
    rank = size // 2
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    roots = [run(i, j, rank) for i, j in pairs]
    if kind == "sp":
        # e_i + e_j and 2 e_i end with a_n once
        roots += [[a + 2 * b for a, b in zip(run(i, j, rank), run(j, rank - 1, rank))]
                  for i, j in pairs]
        roots += [[2 * b for b in run(i, rank - 1, rank)] for i in range(rank)]
        for c in roots[len(pairs):]:
            c[-1] += 1
        return roots, (2,) * (rank - 1) + (1,)
    if size % 2:
        # short roots e_i, and e_i + e_j = run(i, j) + 2 run(j, rank)
        roots += [run(i, rank, rank) for i in range(rank)]
        roots += [[a + 2 * b for a, b in zip(run(i, j, rank), run(j, rank, rank))]
                  for i, j in pairs]
        return roots, (1,) + (2,) * (rank - 1)
    # e_i + e_j of so_2l, whose last simple root is e_{l-1} + e_l
    for i, j in pairs:
        c = run(i, rank - 2, rank) if j == rank - 1 else [
            a + 2 * b for a, b in zip(run(i, j, rank), run(j, rank - 2, rank))]
        c[-1] += 1
        if j < rank - 1:
            c[-2] += 1
        roots.append(c)
    marks = (1,) + (2,) * (rank - 3) + (1, 1) if rank >= 4 else (1, 1, 1) if rank == 3 else None
    return roots, marks


def reference_root_data(kind, size):
    """(labels, RootData) from reference_roots, positives by height and then
    left-heavy coefficients."""
    roots, marks = reference_roots(kind, size)
    roots = sorted(map(tuple, roots), key=lambda c: (sum(c), tuple(-x for x in c)))
    npos, rank = len(roots), len(roots[0])

    def label(prefix, c):
        return prefix + "".join(str(i + 1) * x for i, x in enumerate(c))

    labels = ([label("e", c) for c in roots] + [f"h{i + 1}" for i in range(rank)]
              + [label("f", c) for c in roots])
    simple = [roots.index(tuple(int(t == i) for t in range(rank))) for i in range(rank)]
    rd = RootData(rank=rank, simple_e=tuple(simple),
                  simple_f=tuple(npos + rank + k for k in simple),
                  cartan=tuple(range(npos, npos + rank)), positive=tuple(range(npos)),
                  negative=tuple(range(npos + rank, 2 * npos + rank)),
                  highest=None if marks is None else roots.index(marks), marks=marks)
    return (["e", "h", "f"] if npos == 1 else labels), rd


class TestBuilders:
    def test_dimensions_and_ranks(self):
        expectations = {"sl2": (3, 1), "sl3": (8, 2), "sl4": (15, 3),
                        "sp4": (10, 2), "so4": (6, 2), "so5": (10, 2)}
        for name, (dim, rank) in expectations.items():
            L = builtin_algebra(name)
            assert L.n == dim
            assert L.root_data.rank == rank

    def test_sl_marks_all_one(self):
        for size in range(2, 7):
            L = classical("sl", size)
            assert L.root_data.marks == tuple([1] * (size - 1))

    def test_sp4_marks(self):
        assert build_classical("sp", 4).root_data.marks == (2, 1)

    def test_so5_marks(self):
        assert build_classical("so", 5).root_data.marks == (1, 2)

    def test_so4_not_simple_no_marks(self):
        assert build_classical("so", 4).root_data.marks is None

    @pytest.mark.parametrize("kind,size", CLASSICAL)
    def test_root_data_and_labels_match_the_reference(self, kind, size):
        L = classical(kind, size)
        rd = L.root_data
        assert (L.labels, rd) == reference_root_data(kind, size)
        assert L.n == 2 * len(rd.positive) + rd.rank
        # every root, simple or not, takes 2 on [e, f] in the Cartan
        for e, f in zip(rd.positive, rd.negative):
            h = L.bracket_pair(e, f)
            assert set(h) <= set(rd.cartan) and L.bracket_vectors(h, {e: 1}) == {e: 2}

    def test_feigin_algebras_are_the_builtins_with_marks(self):
        assert FEIGIN_ALGEBRAS == tuple(name for name in BUILTIN_ALGEBRAS
                                        if builtin_algebra(name).root_data.marks is not None)

    def test_chevalley_normalization(self):
        for L in ([builtin_algebra(name) for name in BUILTIN_ALGEBRAS]
                  + [classical(kind, size) for kind, size in CLASSICAL]):
            rd = L.root_data
            for e_i, f_i, h_i in zip(rd.simple_e, rd.simple_f, rd.cartan):
                assert L.bracket_pair(h_i, e_i) == {e_i: 2}
                assert L.bracket_pair(h_i, f_i) == {f_i: -2}
                assert L.bracket_pair(e_i, f_i) == {h_i: 1}

    def test_assemble_rejects_vectors_that_are_not_a_positive_system(self):
        def unit(m, i, j):
            return [[int((r, c) == (i, j)) for c in range(m)] for r in range(m)]

        # sl3's positive root vectors against one h: e1 and e12 are sums
        emats = [unit(3, 0, 1), unit(3, 1, 2), unit(3, 0, 2)]
        with pytest.raises(ValueError, match="not a positive system"):
            builders._assemble("x", None, emats, [[[1, 0, 0], [0, -1, 0], [0, 0, 0]]])
        # e = 2 E_12 needs f = E_21 / 4
        with pytest.raises(ValueError, match="non-integral scale"):
            builders._assemble("x", None, [[[0, 2], [0, 0]]], [[[1, 0], [0, -1]]])

    def test_z2_grading(self):
        L = builtin_algebra("sl2")
        assert is_z2_grading(L, [L.label_index("h")])
        # [h, f] = -2f leaves f in the odd part
        assert not is_z2_grading(L, [L.label_index("e")])
        for key in Z2_PAIRS:
            pair = symmetric_pair(key)
            assert is_z2_grading(pair.parent, pair.g0)
            assert not is_z2_grading(pair.parent, pair.g1)

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            build_classical("sl", 5)
        with pytest.raises(ValueError):
            build_classical("sp", 5)
        with pytest.raises(ValueError):
            build_classical("e8", 8)


class TestBorelWeights:
    def test_sl2(self):
        w = borel_decomposition(builtin_algebra("sl2"))
        assert tuple(w) == (0, 0, 1)

    def test_sl3_negative_count(self):
        w = borel_decomposition(builtin_algebra("sl3"))
        assert sum(w) == 3

    def test_total_weight_is_nilradical_dimension(self):
        for name in ("sl2", "sl3", "sl4", "sp4", "so5"):
            L = builtin_algebra(name)
            w = borel_decomposition(L)
            ell = L.root_data.rank
            assert w.total == (L.n - ell) // 2


class TestIndex:
    def test_sl2(self):
        assert algebra_index(builtin_algebra("sl2")) == 1

    def test_reductive_index_is_rank(self):
        for name in ("sl2", "sl3", "sp4", "so4", "so5"):
            L = builtin_algebra(name)
            assert algebra_index(L) == L.root_data.rank

    def test_derived_contraction_of_sl2(self):
        # n (+) n^- for sl2 is the abelian plane: index 2
        from liecontract.contract import contract_algebra
        L = builtin_algebra("sl2")
        res = contract_algebra(L, borel_decomposition(L))
        gprime = subalgebra_on_indices(res.contracted, [0, 2])
        assert algebra_index(gprime) == 2

    def test_permutation_invariance(self):
        rng = random.Random(44)
        L = builtin_algebra("sl3")
        base = algebra_index(L)
        for _ in range(3):
            perm = list(range(L.n))
            rng.shuffle(perm)
            # move basis vector old i to slot perm[i]
            brackets = {}
            for (i, j), targets in L.brackets.items():
                a, b = perm[i], perm[j]
                row = {perm[k]: c for k, c in targets.items()}
                if a < b:
                    brackets[(a, b)] = row
                else:
                    brackets[(b, a)] = {k: -c for k, c in row.items()}
            labels = [None] * L.n
            for i, lab in enumerate(L.labels):
                labels[perm[i]] = lab
            M = LieAlgebra(labels, brackets)
            assert algebra_index(M) == base


class TestSubalgebras:
    def test_borel_subalgebra(self):
        L = builtin_algebra("sl3")
        rd = L.root_data
        B = subalgebra_on_indices(L, sorted(rd.positive + rd.cartan))
        assert B.n == 5
        assert jacobi_check(B) == (True, None)

    def test_from_vectors(self):
        L = builtin_algebra("sl2")
        # span(e, h) as coordinate vectors
        sub = subalgebra_from_vectors(L, [{0: F1}, {1: F1}], labels=["e", "h"])
        assert sub.brackets == {(0, 1): {0: Fraction(-2)}}

    def test_from_vectors_not_closed(self):
        L = builtin_algebra("sl2")
        with pytest.raises(ValueError):
            subalgebra_from_vectors(L, [{0: F1}, {2: F1}])


class TestSymmetricPairs:
    def test_catalog_dimensions(self):
        expectations = {"sl2_so2": (1, 2, 0), "sp4_sp2sp2": (6, 4, 3),
                        "so4_gl2": (4, 2, 3), "sl4_sp4": (10, 5, 6)}
        for pid, (d0, d1, dl) in expectations.items():
            sp = symmetric_pair(pid)
            assert (len(sp.g0), len(sp.g1), sp.centralizer_alg.n) == (d0, d1, dl)

    def test_grading_inclusions(self):
        for pid in ("sl2_so2", "sp4_sp2sp2", "so4_gl2", "sl4_sp4"):
            sp = symmetric_pair(pid)
            L = sp.parent
            in0 = set(sp.g0)
            for (i, j), targets in L.brackets.items():
                expect0 = (i in in0) == (j in in0)
                for k in targets:
                    assert (k in in0) == expect0

    def test_borel_dimension_identity(self):
        for pid in ("sl2_so2", "sp4_sp2sp2", "so4_gl2", "sl4_sp4"):
            sp = symmetric_pair(pid)
            ell = algebra_index(sp.parent)
            l_alg = sp.centralizer_alg
            dim_b = (sp.parent.n + ell) // 2
            dim_b_l = (l_alg.n + algebra_index(l_alg)) // 2
            assert dim_b == len(sp.g1) + dim_b_l

    def test_centralizer_shapes(self):
        assert symmetric_pair("sp4_sp2sp2").centralizer_alg.n == 3
        sl4 = symmetric_pair("sl4_sp4")
        assert sl4.centralizer_alg.n == 6
        assert algebra_index(sl4.centralizer_alg) == 2

    def test_weights_mark_odd_part(self):
        sp = symmetric_pair("sp4_sp2sp2")
        assert all(sp.weights[i] == 0 for i in sp.g0)
        assert all(sp.weights[i] == 1 for i in sp.g1)

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            symmetric_pair("e6_f4")


class TestFileFormat:
    def test_round_trip_builtins(self):
        for name in BUILTIN_ALGEBRAS:
            L = builtin_algebra(name)
            text = algebra_to_text(L, weights=list(borel_decomposition(L))
                                   if L.root_data else None)
            M, w = algebra_from_text(text)
            assert M == L
            if L.root_data:
                assert w == list(borel_decomposition(L))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            algebra_from_text("name: broken\n")  # no labels
        with pytest.raises(ValueError):
            algebra_from_text("labels: a b\nbracket: 1 0 0 1\n")
        with pytest.raises(ValueError):
            algebra_from_text("labels: a b\nweights: [0]\n")

    def test_comments_and_blank_lines(self):
        text = "# header\nname: ab\nlabels: a b\n\nbracket: 0 1 0 1/2\n"
        L, _ = algebra_from_text(text)
        assert L.brackets == {(0, 1): {0: Fraction(1, 2)}}
