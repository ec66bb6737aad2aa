"""Record the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_expected.py

It writes perfbench/expected.json: sha256 of every suite's canonical JSON
report (the bytes ``--format json`` prints), of the small algebras' text form
and invariant generators, and of the stdout of each fixed CLI invocation the
cli-cold workload can draw.  The 15-dimensional suites make this take about a
minute.  A later commit whose outputs differ fails the benchmark's checks;
re-record only when an output change is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import liecontract as lc  # noqa: E402
from liecontract import cli  # noqa: E402

import workloads  # noqa: E402
from workloads import SMALL, sha  # noqa: E402


def cli_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv}: exit {code}")
    return out.getvalue()


def main():
    rec = {"suites": {}, "algebras": {}, "cli": {}}
    for name in lc.FEIGIN_ALGEBRAS:
        rec["suites"][f"feigin {name}"] = sha(workloads.report_text(
            lc.feigin_suite(lc.builtin_algebra(name))))
    for pair in lc.Z2_PAIRS:
        rec["suites"][f"z2 {pair}"] = sha(workloads.report_text(lc.z2_suite(pair)))
    for name in SMALL:
        L = lc.builtin_algebra(name)
        rec["algebras"][name] = {
            "text": sha(lc.algebra_to_text(L)),
            "invariants": sha(workloads.invariants_text(lc.char_invariants(L), L.labels)),
            "index": lc.algebra_index(L)}
    facts = {name: workloads.algebra_facts(name) for name in SMALL}
    runs = workloads.fixed_cli(facts)
    for key, argv in runs.items():
        for fmt in ("text", "json"):
            rec["cli"][f"{key} {fmt}"] = sha(cli_stdout(["--format", fmt] + argv))
    workloads.EXPECTED_PATH.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
