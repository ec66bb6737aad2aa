"""Sparse multivariate polynomials over exact rationals.

A monomial is a tuple of (variable index, exponent) pairs sorted by index,
with no zero exponents stored.  A polynomial maps monomials to nonzero
Fraction coefficients; the zero polynomial has an empty term map.  Where a
term order is needed it is graded lexicographic, lower variable indices
ranking higher.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

Mono = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomials (merge of sorted exponent lists)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_dense(m: Mono, n: int) -> tuple:
    out = [0] * n
    for v, e in m:
        out[v] = e
    return tuple(out)


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when monomial a divides monomial b."""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_quot(b: Mono, a: Mono) -> Mono:
    """b / a, assuming a divides b."""
    da = dict(a)
    out = []
    for v, e in b:
        q = e - da.get(v, 0)
        if q < 0:
            raise ValueError("monomial does not divide")
        if q:
            out.append((v, q))
    return tuple(out)


def _grlex_key(m: Mono, n: int):
    return (mono_degree(m), mono_dense(m, n))


class Polynomial:
    """Element of Q[x_0, ..., x_{n-1}] in canonical sparse form."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable | dict | None = None):
        self.n = n
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                c = Fraction(c)
                if c:
                    c0 = clean.get(m)
                    c = c if c0 is None else c0 + c
                    if c:
                        clean[m] = c
                    else:
                        del clean[m]
        self.terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Polynomial":
        # trusted constructor: terms already canonical
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._raw(n, {})

    @classmethod
    def const(cls, n: int, c) -> "Polynomial":
        c = Fraction(c)
        return cls._raw(n, {(): c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return cls._raw(n, {((i, 1),): _ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), _ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set:
        vs = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return vs

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=lambda mm: _grlex_key(mm, self.n))
        return m, self.terms[m]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def _check_dim(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"ring dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            else:
                del out[m]
        return Polynomial._raw(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            v = -c if v is None else v - c
            if v:
                out[m] = v
            else:
                del out[m]
        return Polynomial._raw(self.n, out)

    def __neg__(self):
        return Polynomial._raw(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._raw(self.n, {m: cc * c for m, cc in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                v = out.get(m)
                v = ca * cb if v is None else v + ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial._raw(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range for n={self.n}")
        out: dict = {}
        for m, c in self.terms.items():
            for pos, (v, e) in enumerate(m):
                if v == i:
                    nm = m[:pos] + ((v, e - 1),) + m[pos + 1:] if e > 1 else m[:pos] + m[pos + 1:]
                    nc = c * e
                    v0 = out.get(nm)
                    v0 = nc if v0 is None else v0 + nc
                    if v0:
                        out[nm] = v0
                    else:
                        del out[nm]
                    break
        return Polynomial._raw(self.n, out)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != ring dimension {self.n}")
        vals = [Fraction(v) for v in point]
        total = _ZERO
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                term *= vals[v] ** e
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        names = [f"x{i}" for i in range(self.n)]
        return f"Polynomial({poly_to_str(self, names)})"


def poly_monic(p: Polynomial) -> Polynomial:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero:
        return p
    _, c = p.leading()
    return p * (1 / c)


def poly_div_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a / b; raises ValueError when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    a._check_dim(b)
    if a.is_zero:
        return a
    if len(b.terms) == 1:
        (bm, bc), = b.terms.items()
        quot = {}
        for m, c in a.terms.items():
            if bm and not mono_divides(bm, m):
                raise ValueError("not an exact polynomial division")
            quot[mono_quot(m, bm) if bm else m] = c / bc
        return Polynomial._raw(a.n, quot)
    bm, bc = b.leading()
    rem = dict(a.terms)
    quot = {}
    n = a.n
    keys: dict = {}

    def key_of(m):
        k = keys.get(m)
        if k is None:
            k = keys[m] = _grlex_key(m, n)
        return k

    while rem:
        m = max(rem, key=key_of)
        c = rem[m]
        if not mono_divides(bm, m):
            raise ValueError("not an exact polynomial division")
        qm = mono_quot(m, bm)
        qc = c / bc
        quot[qm] = qc
        for m2, c2 in b.terms.items():
            key = mono_mul(qm, m2)
            v = rem.get(key)
            v = -qc * c2 if v is None else v - qc * c2
            if v:
                rem[key] = v
            else:
                del rem[key]
    return Polynomial._raw(n, quot)


def poly_compose(p: Polynomial, args: Sequence[Polynomial]) -> Polynomial:
    """Substitute a polynomial for each variable of p."""
    if len(args) != p.n:
        raise ValueError("need one argument polynomial per variable")
    if not args:
        raise ValueError("composition needs at least one argument to fix the target ring")
    n_out = args[0].n
    for q in args:
        if q.n != n_out:
            raise ValueError("argument polynomials live in different rings")
    powers: dict = {}

    def arg_pow(i, e):
        key = (i, e)
        got = powers.get(key)
        if got is None:
            got = args[i] ** e
            powers[key] = got
        return got

    total = Polynomial.zero(n_out)
    for m, c in p.terms.items():
        term = Polynomial.const(n_out, c)
        for v, e in m:
            term = term * arg_pow(v, e)
        total = total + term
    return total


def poly_rename(p: Polynomial, index_map: dict, new_n: int) -> Polynomial:
    """Re-index variables through index_map; every used variable must be mapped."""
    out: dict = {}
    for m, c in p.terms.items():
        try:
            nm = tuple(sorted((index_map[v], e) for v, e in m))
        except KeyError as exc:
            raise ValueError(f"variable {exc.args[0]} has no image under the rename") from None
        out[nm] = c
    return Polynomial._raw(new_n, out)


# ---------------------------------------------------------------------------
# polynomials in an auxiliary parameter t
# ---------------------------------------------------------------------------

class TPolynomial:
    """Finite sum  sum_d t^d * p_d  with Polynomial coefficients.

    Negative powers of t may appear in intermediate results; the value is
    called regular when none remain.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        clean = {}
        if coeffs:
            for d, p in coeffs.items():
                if not p.is_zero:
                    clean[d] = p
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def regular(self) -> bool:
        return all(d >= 0 for d in self.coeffs)

    def min_power(self) -> int:
        if not self.coeffs:
            raise ValueError("zero t-polynomial")
        return min(self.coeffs)

    def top(self):
        """(degree in t, highest coefficient)."""
        if not self.coeffs:
            raise ValueError("zero t-polynomial")
        d = max(self.coeffs)
        return d, self.coeffs[d]

    def coefficient(self, d: int) -> Polynomial:
        return self.coeffs.get(d, Polynomial.zero(self.n))

    def shift(self, k: int) -> "TPolynomial":
        return TPolynomial(self.n, {d + k: p for d, p in self.coeffs.items()})

    def at_one(self) -> Polynomial:
        """Value at t = 1 (sum of all coefficients)."""
        total = Polynomial.zero(self.n)
        for p in self.coeffs.values():
            total = total + p
        return total

    def __eq__(self, other):
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        parts = [f"t^{d}*({p!r})" for d, p in sorted(self.coeffs.items(), reverse=True)]
        return " + ".join(parts) if parts else "TPolynomial(0)"


def t_substitute(p: Polynomial, exps: Sequence[int]) -> TPolynomial:
    """Apply x_i -> t^{exps[i]} x_i and collect by power of t.

    Internal form of the weight substitution; exponents may be negative.
    """
    if len(exps) != p.n:
        raise ValueError(f"weight vector length {len(exps)} != ring dimension {p.n}")
    buckets: dict = {}
    for m, c in p.terms.items():
        d = sum(exps[v] * e for v, e in m)
        b = buckets.get(d)
        if b is None:
            b = buckets[d] = {}
        b[m] = b.get(m, _ZERO) + c
    return TPolynomial(p.n, {d: Polynomial._raw(p.n, {m: c for m, c in b.items() if c})
                             for d, b in buckets.items()})


def t_expand(p: Polynomial, weights) -> TPolynomial:
    """Weight substitution x_i -> t^{w_i} x_i for nonnegative integer weights."""
    ws = list(weights)
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    return t_substitute(p, ws)


# ---------------------------------------------------------------------------
# multivariate gcd: primitive-part Euclidean algorithm
# ---------------------------------------------------------------------------

def _mono_gcd_with(poly_terms, seed: dict) -> dict:
    # greatest monomial dividing all terms, starting from the seed exponents
    common = dict(seed)
    for m in poly_terms:
        dm = dict(m)
        for v in list(common):
            e = dm.get(v, 0)
            if e <= 0:
                del common[v]
            elif e < common[v]:
                common[v] = e
        if not common:
            break
    return common


def _main_variable(a: Polynomial, b: Polynomial):
    vs = a.variables() | b.variables()
    return max(vs) if vs else None


def _as_univariate(p: Polynomial, v: int) -> dict:
    """View p as a polynomial in x_v with Polynomial coefficients."""
    coeffs: dict = {}
    for m, c in p.terms.items():
        e = 0
        rest = []
        for var, exp in m:
            if var == v:
                e = exp
            else:
                rest.append((var, exp))
        b = coeffs.get(e)
        if b is None:
            b = coeffs[e] = {}
        b[tuple(rest)] = c
    return {e: Polynomial._raw(p.n, b) for e, b in coeffs.items()}


def _uni_degree(p: Polynomial, v: int) -> int:
    d = 0
    for m in p.terms:
        for var, exp in m:
            if var == v and exp > d:
                d = exp
    return d


def _uni_leading(p: Polynomial, v: int, d: int) -> Polynomial:
    out: dict = {}
    for m, c in p.terms.items():
        rest = []
        hit = 0
        for var, exp in m:
            if var == v:
                hit = exp
            else:
                rest.append((var, exp))
        if hit == d:
            out[tuple(rest)] = c
    return Polynomial._raw(p.n, out)


def _pseudo_rem(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    dg = _uni_degree(g, v)
    lg = _uni_leading(g, v, dg)
    r = f
    while not r.is_zero:
        dr = _uni_degree(r, v)
        if dr < dg:
            break
        lr = _uni_leading(r, v, dr)
        shift = Polynomial._raw(r.n, {((v, dr - dg),): _ONE}) if dr > dg else Polynomial.const(r.n, 1)
        r = r * lg - g * lr * shift
    return r


def _content_primitive(p: Polynomial, v: int):
    coeffs = _as_univariate(p, v)
    content = None
    for e in sorted(coeffs, key=lambda k: len(coeffs[k].terms)):
        c = coeffs[e]
        content = c if content is None else _gcd_rec(content, c)
        if content.is_constant:
            content = Polynomial.const(p.n, 1)
            return content, p
    content = poly_monic(content)
    if content.is_constant:
        return Polynomial.const(p.n, 1), p
    return content, poly_div_exact(p, content)


def _gcd_rec(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if len(a.terms) == 1 or len(b.terms) == 1:
        seed = dict(a.leading()[0]) if len(a.terms) == 1 else dict(b.leading()[0])
        other = b if len(a.terms) == 1 else a
        common = _mono_gcd_with(other.terms.keys(), seed)
        return Polynomial._raw(a.n, {tuple(sorted(common.items())): _ONE})
    v = _main_variable(a, b)
    if v is None:
        return Polynomial.const(a.n, 1)
    ca, pa = _content_primitive(a, v)
    cb, pb = _content_primitive(b, v)
    cg = _gcd_rec(ca, cb)
    f, g = (pa, pb) if _uni_degree(pa, v) >= _uni_degree(pb, v) else (pb, pa)
    while not g.is_zero:
        r = _pseudo_rem(f, g, v)
        if not r.is_zero:
            _, r = _content_primitive(r, v)
        f, g = g, r
    _, f = _content_primitive(f, v)
    return cg * f


def multivariate_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD normalized to graded-lex leading coefficient 1."""
    a._check_dim(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return poly_monic(_gcd_rec(a, b))


# ---------------------------------------------------------------------------
# text grammar:  signed rational coefficients, '*' products, '^' powers
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+/\d+|\d+|[A-Za-z][A-Za-z0-9_]*|[+\-*^])")


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse expressions like '-2*e*f + 1/2*h^2' over the given variable names."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    pos = 0
    tokens = []
    for mt in _TOKEN.finditer(text):
        if text[pos:mt.start()].strip():
            raise ValueError(f"unexpected characters {text[pos:mt.start()]!r} in polynomial")
        tokens.append(mt.group(0))
        pos = mt.end()
    if text[pos:].strip():
        raise ValueError(f"unexpected characters {text[pos:]!r} in polynomial")
    if not tokens:
        raise ValueError("empty polynomial text")

    terms = []
    i = 0

    def parse_term(i):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign in polynomial")
        coeff = Fraction(sign)
        mono: dict = {}
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError(f"missing '*' before {tok!r}")
            if tok[0].isdigit():
                coeff *= Fraction(tok)
                i += 1
            else:
                if tok not in index:
                    raise ValueError(f"unknown variable {tok!r}")
                v = index[tok]
                e = 1
                i += 1
                if i < len(tokens) and tokens[i] == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i].isdigit():
                        raise ValueError("'^' must be followed by an integer")
                    e = int(tokens[i])
                    i += 1
                mono[v] = mono.get(v, 0) + e
            expect_factor = False
        if expect_factor:
            raise ValueError("term ends with an operator")
        return (tuple(sorted(mono.items())), coeff), i

    while i < len(tokens):
        term, i = parse_term(i)
        terms.append(term)
    return Polynomial(n, terms)


def poly_to_str(p: Polynomial, names: Sequence[str]) -> str:
    """Canonical rendering: descending graded-lex, '*' products, '^' powers."""
    if len(names) != p.n:
        raise ValueError("need one name per variable")
    if p.is_zero:
        return "0"
    monos = sorted(p.terms, key=lambda m: _grlex_key(m, p.n), reverse=True)
    pieces = []
    for m in monos:
        c = p.terms[m]
        factors = [f"{names[v]}^{e}" if e > 1 else names[v] for v, e in m]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        pieces.append((c < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
