"""Independent oracles for the benchmark's checks.

They work on plain data (bracket tables, exponent dicts, text), never on the
program's internal polynomial encoding, so they stay valid when that
encoding changes.  A polynomial here is ``{monomial: Fraction}`` where a
monomial is a sorted tuple of ``(variable index, exponent)`` pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction


def weights_valid(brackets, w) -> bool:
    """A contraction is valid iff w_i + w_j >= w_k for every nonzero c_ij^k."""
    return all(w[i] + w[j] >= w[k]
               for (i, j), row in brackets.items() for k, c in row.items() if c)


def contract_oracle(brackets, w):
    """(valid, offending, limit).

    offending is ((i, j), most negative t-power) at the first pair, in index
    order, that has a negative power; limit keeps exactly the terms with
    w_i + w_j == w_k, as {(i, j): {k: c}}.
    """
    for (i, j) in sorted(brackets):
        low = min(w[i] + w[j] - w[k] for k, c in brackets[(i, j)].items() if c)
        if low < 0:
            return False, ((i, j), low), None
    limit = {}
    for (i, j), row in brackets.items():
        kept = {k: c for k, c in row.items() if c and w[i] + w[j] == w[k]}
        if kept:
            limit[(i, j)] = kept
    return True, None, limit


def t_degree_oracle(poly, w):
    """(total degree, t-degree, highest component) under x_i -> t^{w_i} x_i."""
    def tdeg(m):
        return sum(w[v] * e for v, e in m)

    top = max(tdeg(m) for m in poly)
    return (max(sum(e for _, e in m) for m in poly), top,
            {m: c for m, c in poly.items() if tdeg(m) == top})


_TERM_SPLIT = re.compile(r"\s+([+-])\s+")


def parse_poly(text: str, labels) -> dict:
    """Parse the canonical rendering ``-2*e*f + 1/2*h^2`` back to a dict."""
    index = {name: i for i, name in enumerate(labels)}
    text = text.strip()
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    signs = ["+"] + pieces[1::2]
    out = {}
    for sign, body in zip(signs, pieces[0::2]):
        neg = sign == "-"
        if body.startswith("-"):
            neg = not neg
            body = body[1:]
        coeff = Fraction(1)
        mono = {}
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                v = index[name]
                mono[v] = mono.get(v, 0) + (int(exp) if exp else 1)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, Fraction(0)) + (-coeff if neg else coeff)
    return {m: c for m, c in out.items() if c}


def render_poly(poly, labels) -> str:
    """Plain text a user would type; parse_polynomial accepts it."""
    parts = []
    for m, c in poly.items():
        factors = [f"{labels[v]}^{e}" if e > 1 else labels[v] for v, e in m]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def random_poly(rng, n, terms=3, max_vars=3, max_exp=2):
    """Nonzero polynomial with distinct monomials and small rational coefficients."""
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
              Fraction(-2, 3)]
    out = {}
    while len(out) < terms:
        vs = rng.sample(range(n), rng.randint(1, min(max_vars, n)))
        mono = tuple(sorted((v, rng.randint(1, max_exp)) for v in vs))
        out.setdefault(mono, rng.choice(coeffs))
    return out


def linear_rows(pairs, labels) -> dict:
    """Contract-verb output ``[(lhs, rhs)]`` as {(i, j): {k: c}}."""
    index = {name: i for i, name in enumerate(labels)}
    out = {}
    for lhs, rhs in pairs:
        a, b = lhs.strip().rstrip("~").strip("[]").split(",")
        row = {}
        for mono, c in parse_poly(rhs, labels).items():
            if len(mono) != 1 or mono[0][1] != 1:
                raise ValueError(f"limit bracket {lhs} is not linear: {rhs}")
            row[mono[0][0]] = c
        out[(index[a], index[b])] = row
    return out


def generic_index(brackets, n, rng, points=2):
    """n minus the rank of the structure matrix sum_k c_ij^k x_k at random
    integer points: the algebra's index, up to an unlucky point (which only
    makes the rank smaller, so the largest rank over a few points is taken)."""
    rank = 0
    for _ in range(points):
        x = [rng.randint(-50, 50) for _ in range(n)]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), row in brackets.items():
            v = sum(Fraction(c) * x[k] for k, c in row.items())
            rows[i][j], rows[j][i] = v, -v
        rank = max(rank, _rank(rows))
    return n - rank


def _rank(rows):
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
