"""Command line surface.

Exit codes: 0 when every requested check passes, 1 when a mathematical check
fails or an internal check breaks, 2 for malformed input.  Reports are printed as text by default or as
JSON with --format json; JSON payloads carry no timings or timestamps, so
identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import (contr_deg_report, feigin_suite, fundamental_semiinvariant,
                       kostant_check, z2_suite)
from .builders import (BUILTIN_ALGEBRAS, FEIGIN_ALGEBRAS, Z2_PAIRS, borel_decomposition,
                       builtin_algebra)
from .contract import ContractionWeights, contract_algebra, t_degree
from .invariants import char_invariants, t_degree_reduction
from .lie import (JacobiError, algebra_from_text, algebra_index, algebra_to_text,
                  from_matrices, jacobi_check, lie_poisson_bivector)
from .polyring import parse_polynomial, poly_to_str

USAGE_ERROR = 2
CHECK_ERROR = 1


class InputError(Exception):
    pass


def _load_target(target: str):
    """Builtin name, or a path to an algebra file."""
    if target in BUILTIN_ALGEBRAS:
        return builtin_algebra(target), None
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                return algebra_from_text(fh.read())[0], target
        except (ValueError, OSError) as exc:
            raise InputError(f"cannot load {target}: {exc}") from exc
    raise InputError(f"{target!r} is neither a builtin algebra nor a readable file; "
                     f"builtins: {', '.join(BUILTIN_ALGEBRAS)}")


def _parse_weights(text: str, n: int) -> ContractionWeights:
    try:
        values = [int(x) for x in text.split(",")] if text or n else []
    except ValueError as exc:
        raise InputError(f"--weights must be a comma list of integers: {exc}") from exc
    if len(values) != n:
        raise InputError(f"--weights needs {n} entries, got {len(values)}")
    if any(v < 0 for v in values):
        raise InputError("--weights entries must be nonnegative")
    return ContractionWeights(tuple(values))


def _emit(payload: dict, fmt: str, lines):
    if fmt == "json":
        import json      # text output, the default, never loads it
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _suite_lines(report):
    lines = [f"suite {report.suite} on {report.target}: "
             f"{'PASS' if report.ok else 'FAIL'}"]
    for c in report.clauses:
        extra = "" if not c.data else "  " + ", ".join(f"{k}={v}" for k, v in sorted(c.data.items()))
        lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}{extra}")
    return lines


def cmd_validate(args, fmt):
    L, _ = _load_target(args.target)
    ok, triple = jacobi_check(L)
    checks = {"jacobi": ok}
    detail = {}
    if not ok:
        detail["violating_triple"] = [L.labels[i] for i in triple]
    if L.matrices is not None:
        try:
            rebuilt = from_matrices(L.matrices, labels=L.labels)
            checks["matrix_realization"] = rebuilt.brackets == L.brackets
        except ValueError as exc:
            # dependent or non-closed matrices realise no bracket: a failed check
            checks["matrix_realization"] = False
            detail["matrix_realization_error"] = str(exc)
    rd = L.root_data
    if rd is not None and ok:
        # [h_i, e_i] = 2 e_i, [e_i, f_i] = h_i and [h_i, f_i] = -2 f_i
        checks["chevalley_normalization"] = all(
            L.bracket_pair(h, e) == {e: 2} and L.bracket_pair(e, f) == {h: 1}
            and L.bracket_pair(h, f) == {f: -2}
            for e, f, h in zip(rd.simple_e, rd.simple_f, rd.cartan))
    all_ok = all(checks.values())
    payload = {"target": args.target, "ok": all_ok, "checks": checks, **detail}
    lines = [f"validate {args.target}: {'PASS' if all_ok else 'FAIL'}"]
    for k, v in checks.items():
        lines.append(f"  [{'ok' if v else 'FAIL'}] {k}")
    for key, value in detail.items():
        lines.append(f"  {key.replace('_', ' ')}: {value}")
    _emit(payload, fmt, lines)
    return 0 if all_ok else CHECK_ERROR


def cmd_bivector(args, fmt):
    L, _ = _load_target(args.target)
    pi = lie_poisson_bivector(L)
    pairs = pi.to_pairs(L.labels)
    payload = {"target": args.target, "bivector": pairs}
    lines = [f"{idx}  {p}" for idx, p in pairs]
    _emit(payload, fmt, lines)
    return 0


def cmd_index(args, fmt):
    L, _ = _load_target(args.target)
    lie_poisson_bivector(L)
    idx = algebra_index(L)
    _emit({"target": args.target, "index": idx}, fmt, [f"index {args.target} = {idx}"])
    return 0


def _offending_message(L, res):
    (i, j), power = res.offending
    return f"negative t-power at pair ({L.labels[i]},{L.labels[j]}): t^{power}"


def cmd_contract(args, fmt):
    L, _ = _load_target(args.target)
    w = _parse_weights(args.weights, L.n)
    res = contract_algebra(L, w)
    if not res.valid:
        msg = _offending_message(L, res)
        _emit({"target": args.target, "valid": False, "error": msg}, fmt, [msg])
        return CHECK_ERROR
    brackets = []
    for (i, j), p in sorted(res.pi_tilde.terms.items()):
        brackets.append((f"[{L.labels[i]},{L.labels[j]}]~", poly_to_str(p, L.labels)))
    payload = {"target": args.target, "valid": True,
               "weights": list(w), "brackets": brackets}
    lines = [f"{lhs} = {rhs}" for lhs, rhs in brackets]
    if not lines:
        lines = ["(abelian limit: all brackets vanish)"]
    _emit(payload, fmt, lines)
    return 0


def cmd_tdeg(args, fmt):
    # without --poly the verb reads the invariant generators
    L, _ = _load_target(args.target)
    w = _parse_weights(args.weights, L.n)
    if args.poly is not None:
        targets = [("input", parse_polynomial(args.poly, L.labels))]
    else:
        gs = char_invariants(L)
        targets = [(f"F{i + 1}", g) for i, g in enumerate(gs.gens)]
    rows = []
    for name, p in targets:
        d, top = t_degree(p, w)
        rows.append({"name": name, "degree": p.degree(), "t_degree": d,
                     "highest": poly_to_str(top, L.labels)})
    payload = {"target": args.target, "weights": list(w), "entries": rows}
    lines = [f"{r['name']}: deg={r['degree']} t-deg={r['t_degree']} highest={r['highest']}"
             for r in rows]
    _emit(payload, fmt, lines)
    return 0


def cmd_invariants(args, fmt):
    L, _ = _load_target(args.target)
    gs = char_invariants(L)
    payload = {"target": args.target, "degrees": gs.degrees,
               "normalization": str(gs.normalization),
               "generators": [poly_to_str(g, L.labels) for g in gs.gens]}
    lines = [f"normalization scalar: {gs.normalization}"]
    for i, g in enumerate(gs.gens):
        lines.append(f"F{i + 1} (deg {g.degree()}): {poly_to_str(g, L.labels)}")
    _emit(payload, fmt, lines)
    return 0


def cmd_kostant(args, fmt):
    L, _ = _load_target(args.target)
    gs = char_invariants(L)
    rep = kostant_check(gs, lie_poisson_bivector(L), len(gs))
    cert = rep.certificate
    payload = {"target": args.target, "kostant_type": rep.is_kostant_type,
               "index": rep.index,
               "proportional": cert.proportional,
               "q1": poly_to_str(cert.q1, L.labels) if cert.q1 is not None else None,
               "q2": poly_to_str(cert.q2, L.labels) if cert.q2 is not None else None}
    lines = [f"kostant {args.target}: {'PASS' if rep.is_kostant_type else 'FAIL'} "
             f"(index {rep.index}, q1={payload['q1']}, q2={payload['q2']})"]
    _emit(payload, fmt, lines)
    return 0 if rep.is_kostant_type else CHECK_ERROR


def cmd_ggs(args, fmt):
    L, _ = _load_target(args.target)
    w = _parse_weights(args.weights, L.n)
    gs = char_invariants(L)
    reduced = t_degree_reduction(gs, w)
    rep = contr_deg_report(reduced, w)
    payload = {"target": args.target, "weights": list(w), **rep.as_dict()}
    lines = [f"ggs {args.target}: {'PASS' if rep.ok else 'FAIL'}"]
    if rep.error:
        lines.append(f"  error: {rep.error}")
    if rep.classification:
        lines.append(f"  classification: {rep.classification}; "
                     f"sum t-deg {rep.sum_t_degrees} vs D_t {rep.weight_total}")
        lines.append(f"  independent tops: {rep.independent}; "
                     f"good generating system: {rep.good_generating_system}")
    _emit(payload, fmt, lines)
    return 0 if rep.ok else CHECK_ERROR


def cmd_fsi(args, fmt):
    L, _ = _load_target(args.target)
    if args.weights is not None:
        w = _parse_weights(args.weights, L.n)
        res = contract_algebra(L, w)
        if not res.valid:
            msg = _offending_message(L, res)
            _emit({"target": args.target, "error": msg}, fmt, [msg])
            return CHECK_ERROR
        pi = res.pi_tilde
        ell = algebra_index(res.contracted)
    else:
        pi = lie_poisson_bivector(L)
        ell = algebra_index(L)
    fsi = fundamental_semiinvariant(pi, ell)
    payload = {"target": args.target, "index": ell,
               "p": poly_to_str(fsi.p, L.labels)}
    _emit(payload, fmt, [f"fundamental semi-invariant: {payload['p']} (index {ell})"])
    return 0


def cmd_suite(args, fmt):
    """feigin and z2: the verb's suite on one member of its catalog."""
    if args.target not in args.catalog:
        raise InputError(f"{args.verb} suite supports {', '.join(args.catalog)}")
    started = time.monotonic()
    rep = args.suite(args.target)
    _emit(rep.as_dict(), fmt, _suite_lines(rep))
    # timing stays outside the deterministic payload
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return 0 if rep.ok else CHECK_ERROR


def cmd_emit_builtin(args, fmt):
    if args.name not in BUILTIN_ALGEBRAS:
        raise InputError(f"unknown builtin {args.name!r}; "
                         f"builtins: {', '.join(BUILTIN_ALGEBRAS)}")
    L = builtin_algebra(args.name)
    weights = list(borel_decomposition(L)) if L.root_data is not None else None
    text = algebra_to_text(L, weights=weights)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="liecontract",
        description="Exact contractions of Lie-Poisson brackets and their "
                    "degree, regularity, and semi-invariant checks.")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="structural checks on an algebra")
    p.add_argument("target")
    p = add("bivector", cmd_bivector, help="print the Lie-Poisson bivector")
    p.add_argument("target")
    p = add("index", cmd_index, help="index of the algebra")
    p.add_argument("target")
    p = add("contract", cmd_contract, help="contract along a weight vector")
    p.add_argument("target")
    p.add_argument("--weights", required=True)
    p = add("tdeg", cmd_tdeg, help="t-degrees and highest components")
    p.add_argument("target")
    p.add_argument("--weights", required=True)
    p.add_argument("--poly", help="polynomial over the basis labels; "
                                  "defaults to the invariant generators")
    p = add("invariants", cmd_invariants, help="central generators")
    p.add_argument("target")
    p = add("kostant", cmd_kostant, help="regularity equality for the generators")
    p.add_argument("target")
    p = add("ggs", cmd_ggs, help="degree-law report after t-degree reduction")
    p.add_argument("target")
    p.add_argument("--weights", required=True)
    p = add("fsi", cmd_fsi, help="fundamental semi-invariant")
    p.add_argument("target")
    p.add_argument("--weights")
    p = add("feigin", cmd_suite, help="Borel-split contraction suite")
    p.add_argument("target", metavar="name")
    p.set_defaults(catalog=FEIGIN_ALGEBRAS, suite=lambda name: feigin_suite(builtin_algebra(name)))
    p = add("z2", cmd_suite, help="symmetric-pair contraction suite")
    p.add_argument("target", metavar="pair")
    p.set_defaults(catalog=Z2_PAIRS, suite=z2_suite)
    p = add("emit-builtin", cmd_emit_builtin, help="write a canonical algebra file")
    p.add_argument("name")
    p.add_argument("--output", "-o")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args, args.format)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a bracket table failing the Jacobi identity is a failed check
        return CHECK_ERROR if isinstance(exc, JacobiError) else USAGE_ERROR
    except AssertionError as exc:
        # a broken internal invariant is reported, never shown as a traceback
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
