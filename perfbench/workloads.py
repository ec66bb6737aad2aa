"""Seeded job lists for the benchmark workloads, and the check on every job.

A workload's ``min_rounds`` is the fewest passes of its job list a run
makes, and ``runs_cli`` says whether its jobs start CLI children.
``prepare(seed, workdir)`` makes all seeded inputs (the set-up
the benchmark times); ``round(inputs, cli_runner)`` returns one pass over the
workload's job list as fresh closures, so no object built in one round, and
for the paper workloads in one job, serves another.  Each job returns its
raw result from ``run()``; ``check(result)`` returns None when the output is
right, else a message.  The checks never read the program's internal
polynomial encoding: they compare rendered text, report dicts and bracket
tables against hashes recorded at the seed commit (``expected.json``) or
against the oracles in ``oracle.py``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle

lc = importlib.import_module("liecontract")
EXPECTED_PATH = Path(__file__).parent / "expected.json"
_expected = {}


def expected():
    """Hashes and values recorded at the seed commit by record_expected.py."""
    if not _expected:
        _expected.update(json.loads(EXPECTED_PATH.read_text()))
    return _expected

SMALL = ("sl2", "sl3", "sp4", "so4", "so5")
SMALL_FEIGIN = ("sl2", "sl3", "sp4", "so5")
SMALL_Z2 = {"sl2": "sl2_so2", "sp4": "sp4_sp2sp2", "so4": "so4_gl2"}


@dataclass
class Job:
    label: str
    run: Callable
    check: Callable
    probe: Optional[str] = None   # ROADMAP 4 defect this job reproduces


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(rep) -> str:
    """Canonical JSON report: the bytes `--format json` prints."""
    return json.dumps(rep.as_dict(), indent=2, sort_keys=True) + "\n"


def check_suite(key):
    def check(rep):
        if not rep.ok:
            return f"{key}: suite verdict FAIL"
        if sha(report_text(rep)) != expected()["suites"][key]:
            return f"{key}: report hash differs from the seed commit"
        return None
    return check


def algebra_facts(name):
    """Labels and bracket table of a builtin, as plain data for the oracles."""
    L = lc.builtin_algebra(name)
    brackets = {ij: dict(row) for ij, row in L.brackets.items()}
    return {"n": L.n, "labels": list(L.labels), "brackets": brackets,
            "index": oracle.generic_index(brackets, L.n, random.Random(0)),
            "borel": list(lc.borel_decomposition(L)) if L.root_data else None}


def seeded_weights(rng, facts, valid, keeps_index=None):
    """Uniform weights in {0,1,2}^n, kept when their validity is as asked and,
    if keeps_index is not None, when the contraction keeps (or drops) the
    index as asked.  Uniform weights are mostly invalid, and most valid ones
    drop the index; asking for each kind keeps the job mix, and so its cost,
    the same for every seed."""
    while True:
        w = [rng.randint(0, 2) for _ in range(facts["n"])]
        if oracle.weights_valid(facts["brackets"], w) != valid:
            continue
        if keeps_index is None or keeps_index == (limit_index(facts, w) == facts["index"]):
            return w


def w_text(w):
    return ",".join(map(str, w))


# ---------------------------------------------------------------------------
# paper-15d: one 15-dimensional paper suite per job, on a fresh algebra
# ---------------------------------------------------------------------------

class PaperSuite:
    min_rounds = 1
    runs_cli = False

    def __init__(self, suite, target):
        self.suite, self.target = suite, target
        self.key = f"{suite} {target}"

    def prepare(self, seed, workdir):
        return {}

    def round(self, inputs, cli_runner=None):
        if self.suite == "feigin":
            def run():
                return lc.feigin_suite(lc.builtin_algebra(self.target))
        else:
            def run():
                return lc.z2_suite(self.target)
        return [Job(self.key, run, check_suite(self.key))]


# ---------------------------------------------------------------------------
# small-session: library sessions over the small algebras
# ---------------------------------------------------------------------------

# weight vectors per session: (valid, contraction keeps the index) -> count
WEIGHT_MIX = {(False, None): 2, (True, False): 3, (True, True): 3}


class SmallSession:
    # six passes give 1032 samples, so job_s.tail is p99: ten of the heaviest
    # fixed jobs (suites, builds, invariants), not the seeded weight jobs
    min_rounds = 6
    runs_cli = False

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        sessions = []
        for name in SMALL:
            facts = algebra_facts(name)
            ws = [seeded_weights(rng, facts, valid, keeps)
                  for (valid, keeps), count in WEIGHT_MIX.items() for _ in range(count)]
            rng.shuffle(ws)
            sessions.append((name, facts, ws))
        rng.shuffle(sessions)
        return {"sessions": sessions}

    def round(self, inputs, cli_runner=None):
        jobs = []
        for name, facts, ws in inputs["sessions"]:
            jobs.extend(self._session(name, facts, ws))
        return jobs

    def _session(self, name, facts, ws):
        s = {}
        exp = expected()["algebras"][name]
        labels = facts["labels"]

        def build():
            s["L"] = lc.builtin_algebra(name)
            lc.lie_poisson_bivector(s["L"])
            return s["L"]

        def check_build(L):
            return None if sha(lc.algebra_to_text(L)) == exp["text"] else \
                f"{name}: algebra text differs from the seed commit"

        def invariants():
            s["gens"] = lc.char_invariants(s["L"])
            return s["gens"]

        def check_invariants(gs):
            return None if sha(invariants_text(gs, labels)) == exp["invariants"] else \
                f"{name}: invariant generators differ from the seed commit"

        def index():
            return lc.algebra_index(s["L"])

        def check_index(ell):
            return None if ell == exp["index"] else f"{name}: index {ell} != {exp['index']}"

        jobs = [Job(f"build {name}", build, check_build),
                Job(f"invariants {name}", invariants, check_invariants),
                Job(f"index {name}", index, check_index)]
        if name in SMALL_FEIGIN:
            jobs.append(Job(f"feigin {name}",
                            lambda: lc.feigin_suite(lc.builtin_algebra(name)),
                            check_suite(f"feigin {name}")))
        if name in SMALL_Z2:
            pair = SMALL_Z2[name]
            jobs.append(Job(f"z2 {pair}", lambda: lc.z2_suite(pair),
                            check_suite(f"z2 {pair}")))
        for w in ws:
            jobs.extend(self._weight_jobs(name, facts, s, w))
        return jobs

    def _weight_jobs(self, name, facts, s, w):
        tag = f"{name} w={w_text(w)}"
        cw = lc.ContractionWeights(tuple(w))
        ok_valid, offending, limit = oracle.contract_oracle(facts["brackets"], w)
        labels = facts["labels"]
        rank = facts["index"]
        ell_limit = limit_index(facts, w)

        def check_contract(res):
            if res.valid != ok_valid:
                return f"contract {tag}: verdict {res.valid}, oracle {ok_valid}"
            if not ok_valid:
                return None if tuple(res.offending) == offending else \
                    f"contract {tag}: offending {res.offending}, oracle {offending}"
            got = {ij: dict(row) for ij, row in res.contracted.brackets.items()}
            return None if got == limit else f"contract {tag}: limit differs from oracle"

        def tdeg():
            return [lc.t_degree(g, cw) for g in s["gens"].gens]

        def check_tdeg(pairs):
            for g, (d, top) in zip(s["gens"].gens, pairs):
                _, want_d, want_top = oracle.t_degree_oracle(
                    oracle.parse_poly(lc.poly_to_str(g, labels), labels), w)
                if d != want_d or oracle.parse_poly(lc.poly_to_str(top, labels),
                                                    labels) != want_top:
                    return f"tdeg {tag}: t-degree or highest component differs from oracle"
            return None

        def ggs():
            return lc.contr_deg_report(lc.t_degree_reduction(s["gens"], cw), cw)

        def check_ggs(rep):
            invalid = bool(rep.error) and rep.error.startswith("invalid contraction")
            if invalid == ok_valid:
                return f"ggs {tag}: validity verdict differs from oracle"
            if ok_valid and (rep.index_original, rep.index_contracted) != (rank, ell_limit):
                return (f"ggs {tag}: indices {rep.index_original}, {rep.index_contracted}"
                        f" != oracle {rank}, {ell_limit}")
            return None

        def fsi():
            res = lc.contract_algebra(s["L"], cw)
            ell = lc.algebra_index(res.contracted)
            return ell, lc.fundamental_semiinvariant(res.pi_tilde, ell)

        def check_fsi(out):
            ell, f = out
            if ell != ell_limit:
                return f"fsi {tag}: index {ell} != oracle {ell_limit}"
            return None if not f.p.is_zero else f"fsi {tag}: zero semi-invariant"

        jobs = [Job(f"contract {tag}", lambda: lc.contract_algebra(s["L"], cw),
                    check_contract),
                Job(f"tdeg {tag}", tdeg, check_tdeg),
                Job(f"ggs {tag}", ggs, check_ggs)]
        if ok_valid:
            jobs.append(Job(f"fsi {tag}", fsi, check_fsi))
        return jobs


def limit_index(facts, w):
    """Oracle index of the contracted algebra, or None for invalid weights."""
    ok, _, limit = oracle.contract_oracle(facts["brackets"], w)
    return oracle.generic_index(limit, facts["n"], random.Random(0)) if ok else None


def invariants_text(gs, labels):
    return "\n".join([str(gs.normalization)]
                     + [lc.poly_to_str(g, labels) for g in gs.gens]) + "\n"


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per invocation
# ---------------------------------------------------------------------------

OOB_TEXT = "name: oob\nlabels: a b c\nbracket: 0 1 7 1\n"
NON_JACOBI_TEXT = ("name: nonjacobi\nlabels: x y z\n"
                   "bracket: 0 1 0 1\nbracket: 1 2 1 1\nbracket: 0 2 2 1\n")
NO_LABELS_TEXT = "name: nolabels\nbracket: 0 1 0 1\n"


# verbs whose stdout on a small algebra is fixed, so expected.json records it
FIXED_VERBS = ("validate", "bivector", "index", "invariants", "kostant",
               "emit-builtin", "fsi")


def fixed_cli(facts):
    """{key: argv} of the CLI invocations whose stdout expected.json records.
    The key names the algebra, so a run on the algebra's emitted file is
    expected to print the same bytes (with the path in place of the name)."""
    runs = {}
    for a in SMALL:
        for verb in FIXED_VERBS:
            runs[f"{verb} {a}"] = [verb, a]
        runs[f"ggs {a} borel"] = ["ggs", a, "--weights", w_text(facts[a]["borel"])]
    for a in SMALL_FEIGIN:
        runs[f"feigin {a}"] = ["feigin", a]
    for pair in SMALL_Z2.values():
        runs[f"z2 {pair}"] = ["z2", pair]
    return runs


class CliCold:
    """Every verb on builtin names and emitted files, text and JSON, plus
    malformed and failing inputs with the README exit codes (0 pass, 1 check
    failed, 2 malformed), plus the ROADMAP 4(a)-(c) probes.

    Every verb that does real work runs on every small algebra, with a fixed
    kind of weights, so the seed changes formats, weights and polynomials
    but not which jobs are heavy: the job list costs about the same for
    every seed.  One pass (about 110 invocations) outlasts a run's measuring
    time, so each run times one pass.
    """

    min_rounds = 1
    runs_cli = True

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        cli = importlib.import_module("liecontract.cli")
        rel = os.path.relpath(workdir)
        files = {}
        facts = {}
        for name in SMALL:
            facts[name] = algebra_facts(name)
            files[name] = os.path.join(rel, f"{name}.alg")
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                if cli.main(["emit-builtin", name, "-o", files[name]]) != 0:
                    raise RuntimeError(f"emit-builtin {name} failed")
        for key, text in (("oob", OOB_TEXT), ("nonjacobi", NON_JACOBI_TEXT),
                          ("nolabels", NO_LABELS_TEXT)):
            files[key] = os.path.join(rel, f"{key}.alg")
            Path(files[key]).write_text(text)
        files["missing"] = os.path.join(rel, "missing.alg")
        files["emit_out"] = os.path.join(rel, "emitted.alg")
        specs = self._specs(rng, facts, files)
        rng.shuffle(specs)
        return {"specs": specs, "facts": facts}

    def _specs(self, rng, facts, files):
        """(argv, expected exit code, check kind, data, probe) per invocation."""
        specs = []
        fixed = fixed_cli(facts)

        def add(argv, code, kind, data=None, probe=None):
            f = rng.choice(("text", "json"))
            specs.append((["--format", f] + argv, code, kind, dict(data or {}, fmt=f), probe))

        def add_fixed(key, on_file=False, probe=None):
            verb, a, *rest = fixed[key]
            if not on_file:
                add([verb, a, *rest], 0, "fixed", {"key": key}, probe)
            else:
                add([verb, files[a], *rest], 0, "fixed",
                    {"key": key, "path": files[a], "name": a}, probe)

        def valid_w(a, keeps_index=None):
            return seeded_weights(rng, facts[a], True, keeps_index)

        def poly_job(target, a, keeps_index):
            p = oracle.random_poly(rng, facts[a]["n"])
            w = valid_w(a, keeps_index)
            add(["tdeg", target, "--weights", w_text(w),
                 "--poly=" + oracle.render_poly(p, facts[a]["labels"])],
                0, "tdeg", {"alg": a, "w": w, "poly": p})

        # tdeg, ggs and fsi cost more when the contraction keeps the index,
        # so each draws a fixed kind of weights per algebra
        for i, a in enumerate(SMALL):
            for verb in FIXED_VERBS[:-1]:    # fsi by name gets seeded weights
                add_fixed(f"{verb} {a}")
            w = valid_w(a)
            add(["contract", a, "--weights", w_text(w)], 0, "contract", {"alg": a, "w": w})
            poly_job(a, a, True)
            w = valid_w(a, i % 2 == 0)
            add(["ggs", a, "--weights", w_text(w)], None, "ggs",
                {"alg": a, "index": limit_index(facts[a], w)})
            w = valid_w(a, i % 2 == 1)
            add(["fsi", a, "--weights", w_text(w)], 0, "fsi",
                {"alg": a, "index": limit_index(facts[a], w)})
            # the same verbs on the file emit-builtin wrote for this algebra
            for verb in ("validate", "index", "fsi"):
                add_fixed(f"{verb} {a}", on_file=True)
            w = valid_w(a)
            add(["contract", files[a], "--weights", w_text(w)], 0, "contract",
                {"alg": a, "w": w})
            poly_job(files[a], a, False)
        for a in SMALL_FEIGIN:
            add_fixed(f"feigin {a}")
        for pair in SMALL_Z2.values():
            add_fixed(f"z2 {pair}")
        add(fixed["emit-builtin sl3"] + ["-o", files["emit_out"]], 0, "emit_file",
            {"key": "emit-builtin sl3", "path": files["emit_out"]})

        for verb, a in zip(("contract", "ggs", "fsi"), ("sl3", "sp4", "so5")):
            w = seeded_weights(rng, facts[a], False)
            add([verb, a, "--weights", w_text(w)], 1, "invalid", {"alg": a, "w": w})
        add(["validate", files["nonjacobi"]], 1, "status")

        a = rng.choice(SMALL)
        zeros = ["0"] * facts[a]["n"]
        x0 = facts[a]["labels"][0]
        malformed = [
            ["contract", a, "--weights", w_text(zeros[:-1])],
            ["contract", a, "--weights", ",".join(zeros[:-1] + ["x"])],
            ["contract", a, "--weights", ",".join(["0", "-1"] + zeros[2:])],
            ["tdeg", a, "--weights", w_text(zeros), f"--poly={x0}^"],
            ["tdeg", a, "--weights", w_text(zeros), f"--poly=qq*{x0}"],
            ["tdeg", a, "--weights", w_text(zeros), "--poly=0"],
            ["index", "sl9"],
            ["index", files["missing"]],
            ["validate", files["nolabels"]],
            ["frobnicate", a],
            ["feigin", "so4"],
            ["z2", "sl3_so3"],
            ["emit-builtin", "sl9"],
        ]
        for argv in malformed:
            add(argv, 2, "status")

        # ROADMAP 4(a): family tag lost on the file round trip; README says a
        # file is as good as the builtin name, so the output must match.
        a4 = rng.choice(SMALL)
        for key in (f"invariants {a4}", f"kostant {a4}", f"ggs {a4} borel"):
            add_fixed(key, on_file=True, probe="4a")
        # ROADMAP 4(b): out-of-range bracket target is malformed input
        for verb in ("bivector", "index"):
            add([verb, files["oob"]], 2, "status", probe="4b")
        # ROADMAP 4(c): a Jacobi failure is a failed check, on every verb
        add(["contract", files["nonjacobi"], "--weights", "0,0,1"], 1, "status", probe="4c")
        return specs

    def round(self, inputs, cli_runner):
        facts = inputs["facts"]
        return [Job(" ".join(argv[2:]), (lambda argv=argv: cli_runner(argv)),
                    self._checker(argv, code, kind, data, facts), probe)
                for argv, code, kind, data, probe in inputs["specs"]]

    def _checker(self, argv, code, kind, data, facts):
        fmt = data["fmt"]

        def check(result):
            got, out, err = result
            if "Traceback" in err:
                return f"{' '.join(argv)}: traceback"
            if code is not None and got != code:
                return f"{' '.join(argv)}: exit {got}, expected {code}"
            msg = CHECKS[kind](got, out, fmt, data, facts) if kind != "status" else None
            return f"{' '.join(argv)}: {msg}" if msg else None
        return check


def _check_fixed(got, out, fmt, data, facts):
    if "path" in data:
        out = out.replace(data["path"], data["name"])
    return None if sha(out) == expected()["cli"][f"{data['key']} {fmt}"] else \
        "output differs from the seed commit"


def _check_emit_file(got, out, fmt, data, facts):
    text = Path(data["path"]).read_text()
    return None if sha(text) == expected()["cli"][f"{data['key']} text"] else \
        "emitted file differs from the seed commit"


def _check_contract(got, out, fmt, data, facts):
    f = facts[data["alg"]]
    _, _, limit = oracle.contract_oracle(f["brackets"], data["w"])
    if fmt == "json":
        pairs = json.loads(out)["brackets"]
    else:
        lines = out.splitlines()
        pairs = [] if lines == ["(abelian limit: all brackets vanish)"] else \
            [line.split(" = ", 1) for line in lines]
    return None if oracle.linear_rows(pairs, f["labels"]) == limit else \
        "limit brackets differ from oracle"


def _check_tdeg(got, out, fmt, data, facts):
    labels = facts[data["alg"]]["labels"]
    deg, td, top = oracle.t_degree_oracle(data["poly"], data["w"])
    if fmt == "json":
        e = json.loads(out)["entries"][0]
        got = (e["degree"], e["t_degree"], e["highest"])
    else:
        head, _, highest = out.strip().partition(" highest=")
        fields = dict(kv.split("=") for kv in head.split()[1:])
        got = (int(fields["deg"]), int(fields["t-deg"]), highest)
    if got[:2] != (deg, td) or oracle.parse_poly(got[2], labels) != top:
        return "t-degree or highest component differs from oracle"
    return None


def _check_ggs(got, out, fmt, data, facts):
    if fmt == "json":
        d = json.loads(out)
        ok, err = d["ok"], d.get("error") or ""
        if d["index_contracted"] != data["index"]:
            return f"contracted index {d['index_contracted']} != oracle {data['index']}"
    else:
        lines = out.splitlines()
        ok = lines[0].endswith("PASS")
        err = next((ln.split("error: ", 1)[1] for ln in lines if "error: " in ln), "")
    if err.startswith("invalid contraction"):
        return "valid weights reported as an invalid contraction"
    return None if (got == 0) == ok else f"exit {got} disagrees with verdict {ok}"


def _check_fsi(got, out, fmt, data, facts):
    if fmt == "json":
        ell = json.loads(out)["index"]
    else:
        ell = int(out.rsplit("(index ", 1)[1].rstrip(")\n"))
    return None if ell == data["index"] else f"index {ell} != oracle {data['index']}"


def _check_invalid(got, out, fmt, data, facts):
    f = facts[data["alg"]]
    _, ((i, j), power), _ = oracle.contract_oracle(f["brackets"], data["w"])
    pair = f"({f['labels'][i]},{f['labels'][j]})"
    return None if pair in out and f"t^{power}" in out else \
        f"offending pair {pair} t^{power} not reported"


CHECKS = {"fixed": _check_fixed, "emit_file": _check_emit_file,
          "contract": _check_contract, "tdeg": _check_tdeg, "ggs": _check_ggs,
          "fsi": _check_fsi, "invalid": _check_invalid}


WORKLOADS = {
    "paper-15d-feigin-sl4": PaperSuite("feigin", "sl4"),
    "paper-15d-feigin-so6": PaperSuite("feigin", "so6"),
    "paper-15d-z2-sl4_sp4": PaperSuite("z2", "sl4_sp4"),
    "small-session": SmallSession(),
    "cli-cold": CliCold(),
}
