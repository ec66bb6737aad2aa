import json

import pytest

from conftest import cached_builtin
from liecontract import builders
from liecontract.analysis import kostant_check
from liecontract.builders import (BUILTIN_ALGEBRAS, _PAIRS, borel_decomposition,
                                  build_classical, builtin_algebra)
from liecontract.cli import main
from liecontract.contract import ContractionWeights, t_degree
from liecontract.exterior import MultiVector, pfaffian, wedge
from liecontract.invariants import char_invariants, membership_linear
from liecontract.lie import (LieAlgebra, algebra_from_text, algebra_to_text, centralizer_in_span,
                             from_matrices, lie_poisson_bivector, subalgebra_from_vectors)
from liecontract.polyring import (Polynomial, parse_polynomial, poly_compose, poly_div_exact,
                                  poly_to_str)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestContractVerb:
    def test_borel_weights(self, capsys):
        code, out, _ = run(capsys, "contract", "sl2", "--weights", "0,0,1")
        assert code == 0
        assert "[e,h]~ = -2*e" in out
        assert "[h,f]~ = -2*f" in out
        assert "[e,f]" not in out

    def test_invalid_weights_exit_one(self, capsys):
        code, out, _ = run(capsys, "contract", "sl2", "--weights", "0,1,0")
        assert code == 1
        assert "negative t-power at pair (e,f)" in out

    def test_bad_weight_count_exit_two(self, capsys):
        code, _, err = run(capsys, "contract", "sl2", "--weights", "0,1")
        assert code == 2
        assert "3 entries" in err

    def test_abelian_limit(self, capsys):
        # weight 1 on every basis vector sends every bracket to t^1 -> 0
        code, out, _ = run(capsys, "contract", "sl2", "--weights", "1,1,1")
        assert code == 0 and out == "(abelian limit: all brackets vanish)\n"
        code, out, _ = run(capsys, "--format", "json", "contract", "sl2", "--weights", "1,1,1")
        assert code == 0 and json.loads(out)["brackets"] == []


class TestSuiteVerbs:
    def test_feigin_sl3(self, capsys):
        code, out, _ = run(capsys, "feigin", "sl3")
        assert code == 0
        assert out.count("[ok]") == 6
        assert "PASS" in out

    def test_feigin_unknown(self, capsys):
        code, _, err = run(capsys, "feigin", "so4")
        assert code == 2

    def test_z2_small(self, capsys):
        code, out, _ = run(capsys, "z2", "sl2_so2")
        assert code == 0
        assert "PASS" in out

    def test_z2_unknown(self, capsys):
        code, _, _ = run(capsys, "z2", "sp6_sp2sp4")
        assert code == 2


class TestQueryVerbs:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", "sl2")
        assert code == 0 and "PASS" in out

    def test_validate_non_jacobi_file(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("name: bad\nlabels: x1 x2 x3\n"
                        "bracket: 0 1 2 1\nbracket: 1 2 0 1\nbracket: 0 2 0 1\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL" in out and "jacobi" in out

    # matrices that realise no bracket: the third is twice the first, and
    # [e, f] = h leaves the span of e and f
    BAD_MATRICES = {
        "dependent": ("name: dep\nlabels: e h f\n"
                      "bracket: 0 1 0 -2\nbracket: 0 2 1 1\nbracket: 1 2 2 -2\n"
                      "matsize: 2\nmatrix: 0 1 0 0\nmatrix: 1 0 0 -1\nmatrix: 0 2 0 0\n",
                      "matrices are linearly dependent"),
        "not-closed": ("name: open\nlabels: e f\n"
                       "matsize: 2\nmatrix: 0 1 0 0\nmatrix: 0 0 1 0\n",
                       "span is not closed under commutator at pair (e,f)"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_MATRICES))
    def test_validate_bad_matrices_is_a_failed_check(self, capsys, tmp_path, kind):
        text, reason = self.BAD_MATRICES[kind]
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and err == ""
        assert out.splitlines() == [f"validate {path}: FAIL", "  [ok] jacobi",
                                    "  [FAIL] matrix_realization",
                                    f"  matrix realization error: {reason}"]
        code, out, err = run(capsys, "--format", "json", "validate", str(path))
        assert code == 1 and err == ""
        assert json.loads(out) == {"target": str(path), "ok": False,
                                   "checks": {"jacobi": True, "matrix_realization": False},
                                   "matrix_realization_error": reason}

    def test_non_jacobi_file_is_a_failed_check(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("name: bad\nlabels: x y z\n"
                        "bracket: 0 1 0 1\nbracket: 1 2 1 1\nbracket: 0 2 2 1\n")
        code, _, err = run(capsys, "contract", str(path), "--weights", "0,0,1")
        assert code == 1 and "Jacobi identity fails" in err
        for verb in ("bivector", "fsi"):
            code, _, err = run(capsys, verb, str(path))
            assert code == 1 and "Jacobi identity fails" in err

    def test_index_checks_the_jacobi_identity(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("name: bad\nlabels: x y z\n"
                        "bracket: 0 1 0 1\nbracket: 1 2 1 1\nbracket: 0 2 2 1\n")
        code, out, err = run(capsys, "index", str(path))
        assert code == 1 and out == ""
        assert "Jacobi identity fails at triple (0, 1, 2)" in err

    def test_out_of_range_bracket_target_exit_two(self, capsys, tmp_path):
        path = tmp_path / "oob.alg"
        path.write_text("name: oob\nlabels: a b c\nbracket: 0 1 7 1\n")
        for verb in ("bivector", "index"):
            code, _, err = run(capsys, verb, str(path))
            assert code == 2
            assert "(0,1)" in err and "target 7" in err

    @pytest.mark.parametrize("text, line", [
        ("name: z\nlabels: a b c\nbracket: 0 1 2 1/0\n", 3),
        ("name: z\nlabels: a b\nmatsize: 1\nmatrix: 1\nmatrix: 1/0\n", 5),
    ], ids=["bracket", "matrix"])
    def test_zero_denominator_in_file_exit_two(self, capsys, tmp_path, text, line):
        path = tmp_path / "zero.alg"
        path.write_text(text)
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"line {line}: zero denominator in '1/0'" in err

    @pytest.mark.parametrize("line, message", [
        ("bracket: 0 1 2 abc", "bracket needs a rational number, got 'abc'"),
        ("bracket: 0 one 2 1", "bracket needs an integer, got 'one'"),
        ("matsize: x", "matsize needs an integer, got 'x'"),
        ("matrix: 1 abc 0 0", "matrix needs a rational number, got 'abc'"),
        ("rank: x", "rank needs an integer, got 'x'"),
        ("simple_e: 0 y", "simple_e needs an integer, got 'y'"),
        ("weights: [0,x,1]", "weights needs an integer, got 'x'"),
        ("weights: [1,,2]", "weights has an empty entry in [1,,2]"),
        ("weights: [0,1,]", "weights has an empty entry in [0,1,]"),
        ("matsize: 0", "matsize must be at least 1, got 0"),
        ("matsize: -1", "matsize must be at least 1, got -1"),
    ], ids=["bracket-coefficient", "bracket-index", "matsize", "matrix", "rank",
            "simple_e", "weights", "weights-empty-inner", "weights-empty-trailing",
            "matsize-0", "matsize-negative"])
    def test_bad_number_in_file_names_line_key_and_token(self, capsys, tmp_path,
                                                          line, message):
        path = tmp_path / "bad.alg"
        path.write_text(f"name: z\nlabels: a b c\n{line}\n")
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"line 3: {message}" in err

    @pytest.mark.parametrize("body, message", [
        ("labels a b c\n", "line 2: expected 'key: value'"),
        ("labels: a b c\nbracket: 0 1 2\n", "line 3: bracket needs 'i j k coefficient'"),
        ("labels: a b c\nweights: 0,0,1\n", "line 3: weights must look like [0,0,1]"),
        ("labels: a b c\ncolour: red\n", "line 3: unknown key 'colour'"),
        ("labels: a b\nmatrix: 1\nmatrix: 2\n", "matrix lines need a matsize line"),
        ("labels: a b c\nmatsize: 1\nmatrix: 1\nmatrix: 2\n",
         "2 matrices for 3 labels"),
        ("labels: a b\nmatsize: 2\nmatrix: 1 0 0 0\nmatrix: 0 0 1\n",
         "matrix line has the wrong number of entries"),
        ("labels: a b\nlabels: x y z\n", "line 3: repeated key 'labels'"),
    ], ids=["no-colon", "bracket-arity", "weights-brackets", "unknown-key", "no-matsize",
            "matrix-count", "matrix-length", "second-labels"])
    def test_malformed_file_exit_two(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.alg"
        path.write_text("name: bad\n" + body)
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot load {path}: {message}\n"

    # each required root-data field dropped from the emitted sl3 file; the
    # fields are checked in RootData's order, so each file names its own
    @pytest.mark.parametrize("field", ["rank", "simple_e", "simple_f", "cartan",
                                       "positive", "negative"])
    def test_incomplete_root_data_names_the_missing_field(self, capsys, tmp_path, field):
        path = tmp_path / "sl3.alg"
        run(capsys, "emit-builtin", "sl3", "--output", str(path))
        lines = [line for line in path.read_text().splitlines()
                 if line.partition(":")[0] != field]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: cannot load {path}: "
                       f"incomplete root data block: missing {field}\n")

    def test_repeated_label_exit_two(self, capsys, tmp_path):
        path = tmp_path / "dup.alg"
        path.write_text("name: dup\nlabels: a a b\nbracket: 0 2 2 1\n")
        code, out, err = run(capsys, "index", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "label 'a' is repeated" in err

    # each single-valued key of the emitted sl3 file written twice in a row;
    # its bracket and matrix lines repeat, and the file loads without the copy
    @pytest.mark.parametrize("key", ["name", "labels", "matsize", "rank", "simple_e",
                                     "simple_f", "cartan", "positive", "negative",
                                     "highest", "marks", "weights"])
    def test_repeated_key_exit_two(self, capsys, tmp_path, key):
        path = tmp_path / "sl3.alg"
        run(capsys, "emit-builtin", "sl3", "--output", str(path))
        lines = path.read_text().splitlines()
        assert run(capsys, "validate", str(path))[0] == 0
        at = next(i for i, line in enumerate(lines) if line.partition(":")[0] == key)
        lines.insert(at + 1, lines[at])
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot load {path}: line {at + 2}: repeated key {key!r}\n"

    def test_root_data_index_out_of_range_exit_two(self, capsys, tmp_path):
        path = tmp_path / "rd.alg"
        path.write_text("name: rd\nlabels: e h f\n"
                        "bracket: 0 1 0 -2\nbracket: 0 2 1 1\nbracket: 1 2 2 -2\n"
                        "rank: 1\nsimple_e: 9\nsimple_f: 2\ncartan: 1\n"
                        "positive: 0\nnegative: 2\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "root data index 9" in err

    # each edit of the emitted sl3 file keeps every index in range but
    # contradicts rank 2; the first one used to validate as PASS
    @pytest.mark.parametrize("edits, message", [
        ({"cartan": "3", "marks": "1 1 5"}, "root data cartan has length 1; rank is 2"),
        ({"simple_e": "0"}, "root data simple_e has length 1; rank is 2"),
        ({"simple_f": "5 6 7"}, "root data simple_f has length 3; rank is 2"),
        ({"marks": "1 1 5"}, "root data marks has length 3; rank is 2"),
        ({"negative": "5 6"},
         "root data positive has length 3 and negative has length 2; they must match"),
    ], ids=["cartan-and-marks", "simple_e", "simple_f", "marks", "negative"])
    def test_root_data_that_contradicts_its_rank_exit_two(self, capsys, tmp_path, edits,
                                                          message):
        path = tmp_path / "sl3.alg"
        run(capsys, "emit-builtin", "sl3", "--output", str(path))
        lines = [f"{line.partition(':')[0]}: {edits[line.partition(':')[0]]}"
                 if line.partition(":")[0] in edits else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        for verb in ("validate", "index"):
            code, out, err = run(capsys, verb, str(path))
            assert code == 2 and out == ""
            assert err.startswith("error:") and message in err

    def test_every_emitted_file_loads_and_validates(self, capsys, tmp_path):
        for name in BUILTIN_ALGEBRAS:
            path = tmp_path / f"{name}.alg"
            run(capsys, "emit-builtin", name, "--output", str(path))
            code, out, _ = run(capsys, "validate", str(path))
            assert code == 0 and "PASS" in out, name
            for target in (name, str(path)):
                code, out, _ = run(capsys, "--format", "json", "validate", target)
                assert code == 0, target
                assert json.loads(out)["checks"]["chevalley_normalization"] is True, target

    # sl2 tables that satisfy the Jacobi identity and [h, e] = 2e, but not
    # [e, f] = h (a rescaled f) or not [h, f] = -2f ([h, f] = -2f + e)
    CHEVALLEY_EDITS = {"ef": {"bracket: 0 2 1 1": ["bracket: 0 2 1 2"]},
                       "hf": {"bracket: 1 2 2 -2": ["bracket: 1 2 2 -2", "bracket: 1 2 0 1"]}}

    @pytest.mark.parametrize("matrices", [True, False], ids=["matrices", "no-matrices"])
    @pytest.mark.parametrize("edit", sorted(CHEVALLEY_EDITS))
    def test_validate_reads_every_chevalley_relation(self, capsys, tmp_path, edit, matrices):
        path = tmp_path / "sl2.alg"
        run(capsys, "emit-builtin", "sl2", "--output", str(path))
        lines = [new for line in path.read_text().splitlines()
                 if matrices or not line.startswith(("matsize", "matrix"))
                 for new in self.CHEVALLEY_EDITS[edit].get(line, [line])]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and err == ""
        assert out.splitlines()[0] == f"validate {path}: FAIL"
        assert "  [ok] jacobi" in out.splitlines()
        assert "  [FAIL] chevalley_normalization" in out.splitlines()
        code, out, _ = run(capsys, "--format", "json", "validate", str(path))
        assert code == 1
        checks = json.loads(out)["checks"]
        assert checks["jacobi"] is True and checks["chevalley_normalization"] is False
        assert checks.get("matrix_realization", False) is False

    def test_negative_weight_in_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "w.alg"
        path.write_text("name: w\nlabels: e h f\n"
                        "bracket: 0 1 0 -2\nbracket: 0 2 1 1\nbracket: 1 2 2 -2\n"
                        "weights: [1,-1,0]\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "line 6: weights entries must be nonnegative" in err

    def test_fsi_invalid_weights_exit_one(self, capsys):
        code, out, _ = run(capsys, "fsi", "sl2", "--weights", "0,1,0")
        assert code == 1 and "negative t-power" in out

    def test_bivector(self, capsys):
        code, out, _ = run(capsys, "bivector", "sl2")
        assert code == 0
        assert "e^h" in out and "-2*e" in out

    def test_index(self, capsys):
        code, out, _ = run(capsys, "index", "sl2")
        assert code == 0 and "= 1" in out

    def test_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", "sl2")
        assert code == 0
        assert "-2*e*f - 1/2*h^2" in out

    def test_kostant(self, capsys):
        code, out, _ = run(capsys, "kostant", "sl2")
        assert code == 0 and "PASS" in out

    def test_tdeg_generators(self, capsys):
        code, out, _ = run(capsys, "tdeg", "sl2", "--weights", "0,0,1")
        assert code == 0
        assert "t-deg=1" in out and "highest=-2*e*f" in out

    def test_tdeg_explicit_polynomial(self, capsys):
        code, out, _ = run(capsys, "tdeg", "sl2", "--weights", "1,0,1",
                           "--poly", "-1/2*h^2 - 2*e*f")
        assert code == 0 and "t-deg=2" in out

    def test_tdeg_exponent_beyond_field_width_exit_two(self, capsys):
        code, out, err = run(capsys, "tdeg", "sl2", "--weights", "0,0,1", "--poly=h^70000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds 65535" in err

    def test_tdeg_zero_denominator_exit_two(self, capsys):
        code, out, err = run(capsys, "tdeg", "sl2", "--weights=0,0,0", "--poly=1/0*e")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert "zero denominator in '1/0'" in err

    def test_tdeg_bad_polynomial(self, capsys):
        code, _, err = run(capsys, "tdeg", "sl2", "--weights", "0,0,1",
                           "--poly", "q + 1")
        assert code == 2

    @pytest.mark.parametrize("poly, message", [
        ("", "empty polynomial text"),
        ("2^3*e", "'^' must follow a variable"),
        ("e^2^3", "'^' must follow a variable"),
        ("^e", "'^' must follow a variable"),
        ("e^", "'^' must be followed by an integer"),
        ("2**3*e", "'*' must follow a factor"),
        ("e**2", "'*' must follow a factor"),
        ("*e", "'*' must follow a factor"),
        ("e+*f", "'*' must follow a factor"),
        ("e* *f", "'*' must follow a factor"),
        ("e$f", "unexpected characters '$' in polynomial"),
        ("  ", "empty polynomial text"),
        ("e +", "dangling sign in polynomial"),
        ("e^x", "'^' must be followed by an integer"),
        ("e*", "term ends with an operator"),
        ("0", "t-degree of the zero polynomial is undefined"),
    ])
    def test_tdeg_malformed_polynomial_exit_two(self, capsys, poly, message):
        code, out, err = run(capsys, "tdeg", "sl2", "--weights", "0,0,1", f"--poly={poly}")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("weights, message", [
        ("0,x,1", "--weights must be a comma list of integers: "
                  "invalid literal for int() with base 10: 'x'"),
        ("0,-1,1", "--weights entries must be nonnegative"),
        ("", "--weights must be a comma list of integers: "
             "invalid literal for int() with base 10: ''"),
    ], ids=["non-integer", "negative", "empty"])
    def test_bad_weights_exit_two(self, capsys, weights, message):
        for argv in (["contract", "sl2"], ["tdeg", "sl2", "--poly=e"], ["fsi", "sl2"],
                     ["ggs", "sl2"]):
            code, out, err = run(capsys, *argv, f"--weights={weights}")
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"

    def test_ggs(self, capsys):
        code, out, _ = run(capsys, "ggs", "sl2", "--weights", "1,0,1")
        assert code == 0
        assert "good generating system: True" in out

    def test_fsi_plain_and_contracted(self, capsys):
        code, out, _ = run(capsys, "fsi", "sl2")
        assert code == 0 and "fundamental semi-invariant: 1" in out
        code, out, _ = run(capsys, "fsi", "sp4", "--weights", "0,0,0,0,0,0,1,1,1,1")
        assert code == 0 and "fundamental semi-invariant: f1" in out

    def test_unknown_target(self, capsys):
        code, _, err = run(capsys, "index", "g2")
        assert code == 2 and "neither a builtin" in err

    @pytest.mark.parametrize("callee, argv", [
        ("liecontract.cli.fundamental_semiinvariant", ("fsi", "sl2")),
        ("liecontract.cli.algebra_index", ("index", "sl2")),
        ("liecontract.cli.t_degree_reduction", ("ggs", "sl2", "--weights", "1,0,1")),
        # a check failing deep inside the reduction, not at the verb's own call
        ("liecontract.invariants.membership_linear", ("ggs", "sl2", "--weights", "1,0,1")),
    ])
    def test_internal_check_failure_exit_one_without_traceback(self, capsys, monkeypatch,
                                                                callee, argv):
        def broken(*args, **kwargs):
            raise AssertionError("invariant broken")

        monkeypatch.setattr(callee, broken)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: internal check failed: invariant broken\n"


class TestEmitAndLoad:
    def test_round_trip_catalog(self, capsys, tmp_path):
        for name in BUILTIN_ALGEBRAS:
            path = tmp_path / f"{name}.alg"
            code, _, _ = run(capsys, "emit-builtin", name, "--output", str(path))
            assert code == 0
            loaded, _ = algebra_from_text(path.read_text())
            assert loaded == cached_builtin(name)

    def test_emit_to_stdout_matches_the_output_file(self, capsys, tmp_path):
        for name in BUILTIN_ALGEBRAS:
            path = tmp_path / f"{name}.alg"
            assert run(capsys, "emit-builtin", name, "--output", str(path)) == (
                0, f"wrote {path}\n", "")
            code, out, err = run(capsys, "emit-builtin", name)
            assert code == 0 and err == ""
            assert out == path.read_text(), name

    def test_loaded_file_usable_as_target(self, capsys, tmp_path):
        path = tmp_path / "sl2.alg"
        run(capsys, "emit-builtin", "sl2", "--output", str(path))
        code, out, _ = run(capsys, "index", str(path))
        assert code == 0 and "= 1" in out

    def test_family_verbs_on_an_emitted_file(self, capsys, tmp_path):
        # the file format has no family line: the kind is read off the
        # matrices, so a builtin's file answers like the builtin itself
        path = tmp_path / "sp4.alg"
        run(capsys, "emit-builtin", "sp4", "--output", str(path))
        borel = ["--weights", "0,0,0,0,0,0,1,1,1,1"]
        for argv in (["invariants"], ["kostant"], ["ggs", *borel], ["tdeg", *borel]):
            for fmt in ("text", "json"):
                want = run(capsys, "--format", fmt, argv[0], "sp4", *argv[1:])
                got = run(capsys, "--format", fmt, argv[0], str(path), *argv[1:])
                assert got[0] == want[0] == 0
                assert got[1].replace(str(path), "sp4") == want[1]

    def test_changed_bracket_under_a_builtin_name_keeps_no_family(self, capsys, tmp_path):
        path = tmp_path / "sp4.alg"
        run(capsys, "emit-builtin", "sp4", "--output", str(path))
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("bracket:"))
        *head, c = lines[i].split()
        lines[i] = " ".join(head + [str(int(c) + 1)])
        path.write_text("\n".join(lines) + "\n")
        # the file's algebra is the one computed on, and its bracket breaks Jacobi
        for argv in (["invariants"], ["kostant"], ["ggs", "--weights", "0,0,0,0,0,0,1,1,1,1"]):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, out, err) == (1, "", "error: Jacobi identity fails at triple (0, 1, 6)\n")

    @pytest.mark.parametrize("name, build", [
        ("c3", lambda: builders._build_sp(6)), ("b3", lambda: builders._build_so(7)),
        ("a4", lambda: builders._build_sl(5)), ("sl4_sp4", _PAIRS["sl4_sp4"][0])])
    def test_classical_file_under_any_name(self, capsys, tmp_path, name, build):
        # no builtin has these names or sizes: the kind is read off the matrices
        src = build()
        src.name = name
        path = tmp_path / f"{name}.alg"
        path.write_text(algebra_to_text(src))
        code, out, err = run(capsys, "invariants", str(path))
        gs = char_invariants(src)
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"normalization scalar: {gs.normalization}"] + [
            f"F{i + 1} (deg {g.degree()}): {poly_to_str(g, src.labels)}"
            for i, g in enumerate(gs.gens)]
        code, out, _ = run(capsys, "kostant", str(path))
        assert code == 0 and out.startswith(f"kostant {path}: PASS (")
        assert out.endswith(", q1=1, q2=1)\n")

    def test_labels_only_file_has_no_invariants(self, capsys, tmp_path):
        path = tmp_path / "sl2.alg"
        path.write_text(algebra_to_text(LieAlgebra(["e", "h", "f"], cached_builtin("sl2").brackets)))
        code, out, err = run(capsys, "invariants", str(path))
        assert (code, out, err) == (2, "", "error: algebra has no matrix realization\n")

    def test_unknown_builtin(self, capsys):
        code, _, _ = run(capsys, "emit-builtin", "e7")
        assert code == 2

    @pytest.mark.parametrize("where", ["missing/x.alg", "."])
    def test_unwritable_output_exit_two(self, capsys, tmp_path, where):
        # a path under a missing directory, and a directory itself
        path = tmp_path / where
        code, out, err = run(capsys, "emit-builtin", "sl2", "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and not path.is_file()


class TestJsonFormat:
    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "--format", "json", "z2", "sl2_so2")
        _, out2, _ = run(capsys, "--format", "json", "z2", "sl2_so2")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["ok"] is True
        assert payload["suite"] == "z2"

    def test_contract_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "contract", "sl2",
                           "--weights", "0,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert ["[e,h]~", "-2*e"] in payload["brackets"]


ONE = Polynomial.const(3, 1)


# the library's own argument checks, each with its message
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: pfaffian([[0, 1], [-1]]), "matrix must be square",
                 id="pfaffian-non-square"),
    pytest.param(lambda: pfaffian([[1, 1], [-1, 0]]),
                 "matrix is not antisymmetric (nonzero diagonal)", id="pfaffian-diagonal"),
    pytest.param(lambda: from_matrices([]), "need at least one matrix",
                 id="from-matrices-empty"),
    pytest.param(lambda: from_matrices([[[0, 1], [0, 0]], [[0, 0], [1]]]),
                 "all matrices must be square of equal size", id="from-matrices-ragged"),
    pytest.param(lambda: from_matrices(build_classical("sl", 2).matrices,
                                       labels=["e", "h", "f", "g"]),
                 "4 labels for 3 matrices", id="from-matrices-long-labels"),
    pytest.param(lambda: from_matrices(build_classical("sl", 2).matrices, labels=["e", "h"]),
                 "2 labels for 3 matrices", id="from-matrices-short-labels"),
    pytest.param(lambda: LieAlgebra(["a", "b"], {}, matrices=[[[0]]]),
                 "1 matrices for 2 labels", id="algebra-matrix-count"),
    pytest.param(lambda: LieAlgebra(["a", "b"], {}, matrices=[[[1, 0], [0, -1]], [[0]]]),
                 "all matrices must be square of equal size", id="algebra-matrix-sizes"),
    pytest.param(lambda: LieAlgebra(["a", "b"], {}, matrices=[[[1, 2]], [[0, 1]]]),
                 "all matrices must be square of equal size", id="algebra-matrix-not-square"),
    pytest.param(lambda: subalgebra_from_vectors(build_classical("sl", 2), [{0: 1}],
                                                 labels=["a", "b"]),
                 "2 labels for 1 vectors", id="subalgebra-long-labels"),
    pytest.param(lambda: subalgebra_from_vectors(build_classical("sl", 2), [{0: 1}, {1: 1}],
                                                 labels=["a"]),
                 "1 labels for 2 vectors", id="subalgebra-short-labels"),
    pytest.param(lambda: poly_compose(Polynomial.variable(2, 0), [Polynomial.variable(1, 0)]),
                 "need one argument polynomial per variable", id="compose-count"),
    pytest.param(lambda: poly_compose(Polynomial.const(0, 1), []),
                 "composition needs at least one argument to fix the target ring",
                 id="compose-no-argument"),
    pytest.param(lambda: poly_compose(Polynomial.variable(2, 0),
                                      [Polynomial.variable(1, 0), Polynomial.variable(2, 0)]),
                 "argument polynomials live in different rings", id="compose-rings"),
    pytest.param(lambda: MultiVector(3, 2, {(0, 3): ONE}), "bad index set (0, 3) for degree 2, n=3",
                 id="multivector-index-set"),
    pytest.param(lambda: MultiVector(3, 2, {(1, 0): ONE}),
                 "index set (1, 0) must be strictly increasing", id="multivector-order"),
    pytest.param(lambda: Polynomial.linear(3, {3: 1}), "variable index 3 out of range for n=3",
                 id="linear-index"),
    pytest.param(lambda: parse_polynomial("e $", ["e", "h", "f"]),
                 "unexpected characters ' $' in polynomial", id="parse-character"),
])
def test_library_boundary_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


X0 = Polynomial.variable(3, 0)


def dependent_kostant_offer():
    sp4 = cached_builtin("sp4")
    f1 = char_invariants(sp4).gens[0]
    return kostant_check([f1, f1 * f1], lie_poisson_bivector(sp4), 2)


# library checks that no other test reaches, each with its outcome: the
# error it raises, or the value it returns
@pytest.mark.parametrize("call, outcome", [
    pytest.param(dependent_kostant_offer, ValueError("generators are algebraically dependent"),
                 id="kostant-dependent"),
    pytest.param(lambda: t_degree(X0, ContractionWeights((0, 0))),
                 ValueError("weight vector length 2 != ring dimension 3"), id="t-degree-weights"),
    pytest.param(lambda: builtin_algebra("e7"),
                 ValueError(f"unknown builtin algebra 'e7'; choose from {BUILTIN_ALGEBRAS}"),
                 id="builtin-unknown"),
    pytest.param(lambda: build_classical("so", 3), ValueError("unsupported so size 3"),
                 id="classical-size"),
    pytest.param(lambda: borel_decomposition(algebra_from_text("labels: a b\n")[0]),
                 ValueError("algebra has no root data"), id="borel-no-root-data"),
    pytest.param(lambda: subalgebra_from_vectors(cached_builtin("sl2"), [{0: 1}, {0: 2}]),
                 ValueError("spanning vectors are linearly dependent"), id="span-dependent"),
    pytest.param(lambda: cached_builtin("sl2").label_index("zz"),
                 ValueError("unknown basis label 'zz'"), id="label-unknown"),
    pytest.param(lambda: centralizer_in_span(cached_builtin("sl2"), [], [0, 2]),
                 [{0: 1}, {2: 1}], id="centralizer-of-nothing"),
    pytest.param(X0.constant_value, ValueError("not a constant polynomial"),
                 id="constant-value"),
    pytest.param(Polynomial.zero(3).leading, ValueError("zero polynomial has no leading term"),
                 id="leading-zero"),
    pytest.param(lambda: X0 ** -1, ValueError("negative power"), id="negative-power"),
    pytest.param(lambda: poly_div_exact(X0, Polynomial.zero(3)),
                 ZeroDivisionError("division by zero polynomial"), id="divide-by-zero"),
    pytest.param(lambda: poly_to_str(X0, ["a"]), ValueError("need one name per variable"),
                 id="to-str-names"),
    pytest.param(lambda: MultiVector(2, 3), ValueError("degree 3 out of range for n=2"),
                 id="multivector-degree"),
    pytest.param(lambda: wedge(MultiVector(2, 1, {(0,): Polynomial.const(2, 1)}),
                               MultiVector(3, 1, {(0,): Polynomial.const(3, 1)})),
                 ValueError("ring dimension mismatch"), id="wedge-rings"),
    pytest.param(lambda: membership_linear(Polynomial.zero(3), [X0]),
                 ValueError("membership of the zero polynomial is trivial"),
                 id="membership-zero"),
    pytest.param(lambda: membership_linear(X0, [Polynomial.const(3, 2)]),
                 ValueError("generators must be nonconstant"), id="membership-constant"),
    # gl2: its trace form is nondegenerate, but 4 is no classical dimension at m = 2
    pytest.param(lambda: char_invariants(from_matrices(
                     [[[int((r, s) == (a, b)) for s in range(2)] for r in range(2)]
                      for a in range(2) for b in range(2)])),
                 ValueError("no sl, so or sp of 2 x 2 matrices has dimension 4"),
                 id="invariants-family"),
])
def test_library_boundary_cases_no_verb_reaches(call, outcome):
    if not isinstance(outcome, Exception):
        assert call() == outcome
        return
    with pytest.raises(type(outcome)) as err:
        call()
    assert type(err.value) is type(outcome) and str(err.value) == str(outcome)
