"""Sparse multivariate polynomials over exact rationals.

A polynomial maps monomials to nonzero coefficients; the zero polynomial has
an empty term map.  A coefficient is an int when it is integral and a
Fraction otherwise, never a float, so integral work (every builtin bivector
and its wedge powers) runs in int arithmetic.

Monomials enter and leave this module in their public form: a tuple of
(variable index, exponent) pairs sorted by index, with no zero exponents.
Inside it, and as the keys of ``Polynomial.terms``, a monomial of
Q[x_0, ..., x_{n-1}] is packed into one int (Monagan and Pearce, ISSAC 2009):
the exponent of x_i fills the 16-bit field at bit 16*(n-1-i), so x_0 holds
the most significant field, and the total degree sits above all the fields.
Integer order is then the graded lexicographic order, lower variable indices
ranking higher, and a monomial product is one integer addition.  No exponent
may exceed 65535: a product, power or parse that would need more raises
ValueError instead of carrying into the next field.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

_EMAX = 0xFFFF      # largest exponent a 16-bit field holds


def _pack(n: int, mono) -> int:
    """Packed key of a monomial given as (variable, exponent) pairs, in any
    order and with repeats summed; rejects what does not fit the ring."""
    exps: dict = {}
    for v, e in mono:
        if not (isinstance(v, int) and 0 <= v < n):
            raise ValueError(f"variable index {v!r} out of range for n={n}")
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent {e!r} of x{v} must be a nonnegative integer")
        exps[v] = exps.get(v, 0) + e
    key = deg = 0
    for v, e in exps.items():
        if e > _EMAX:
            raise ValueError(f"exponent {e} of x{v} exceeds {_EMAX}")
        key |= e << ((n - 1 - v) << 4)
        deg += e
    return key | deg << (n << 4)


def _unpack(m: int, n: int) -> tuple:
    """Public form of a packed monomial; loops only over the fields that are set."""
    out = []
    r = m & ((1 << (n << 4)) - 1)
    while r:
        low = ((r & -r).bit_length() - 1) & ~15
        e = (r >> low) & _EMAX
        out.append((n - 1 - (low >> 4), e))
        r ^= e << low
    out.reverse()
    return tuple(out)


def _field_lows(n: int) -> int:
    """The lowest bit of every field above x_{n-1}'s and of the degree: a carry
    or borrow across a field boundary shows there in  a +/- b  ^ a ^ b."""
    return sum(1 << (f << 4) for f in range(1, n + 1))


def _norm(c):
    # integral Fractions become ints, so integral polynomials compute in ints
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _coeff(c):
    return c if type(c) is int else _norm(Fraction(c))


def _div(a, b):
    """Exact quotient of two coefficients, as an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm(Fraction(a) / b)


def _check_exponents(ta: dict, tb: dict, n: int):
    low = _field_lows(n)
    for ma in ta:
        for mb in tb:
            if ((ma + mb) ^ ma ^ mb) & low:
                raise ValueError(f"an exponent of the product exceeds {_EMAX}")


def _accumulate(acc: dict, ta: dict, tb: dict, negate: bool, n: int, degree=None):
    """acc += ta * tb (or -ta * tb) for term maps of one ring.

    degree, when given, bounds every product's total degree in place of a scan.
    Sums that cancel stay in acc as zeros; Polynomial._collect drops them.
    """
    if not ta or not tb:
        return
    if len(ta) < len(tb):
        ta, tb = tb, ta
    ds = n << 4
    # the total degree bounds every exponent, so most products need no field check
    if ((max(ta) >> ds) + (max(tb) >> ds) if degree is None else degree) > _EMAX:
        _check_exponents(ta, tb, n)
    get = acc.get
    for mb, cb in tb.items():
        if negate:
            cb = -cb
        for ma, ca in ta.items():
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb


def _partials(terms: dict, n: int, cols=None) -> dict:
    """{l: the term map of d/dx_l} for one term map of Q[x_0, ..., x_{n-1}] and
    each l, or each l in cols: the nonzero ones, from one pass; no images merge."""
    out: dict = {}
    one = 1 << (n << 4)
    fields = one - 1 if cols is None else sum(_EMAX << ((n - 1 - l) << 4) for l in cols)
    for m, c in terms.items():
        r = m & fields
        while r:
            low = ((r & -r).bit_length() - 1) & ~15
            e = (r >> low) & _EMAX
            out.setdefault(n - 1 - (low >> 4), {})[m - (1 << low) - one] = _norm(c * e)
            r ^= e << low
    return out


def _ratio(a: Polynomial, b: Polynomial):
    """The Fraction c with a = c * b for polynomials of one ring, or None, as
    when either is zero: both scaled to int by their common denominator and
    compared term by term by cross-multiplication, with no Fraction product."""
    if len(a.terms) != len(b.terms):
        return None
    _, (ta, tb) = _integral_terms([a, b])
    m = max(tb, default=None)
    ca = ta.get(m)
    if ca is None or any(c * tb[m] != ca * tb.get(k, 0) for k, c in ta.items()):
        return None
    return Fraction(ca, tb[m])


def _integral_terms(polys) -> tuple:
    """(d, term maps): the least common denominator d of the coefficients of
    the given polynomials, and each one's term map times d, all int.

    When every coefficient is already an int, d is 1 and the maps are the
    polynomials' own, after one scan."""
    polys = list(polys)
    d = 1
    for p in polys:
        for c in p.terms.values():
            if type(c) is not int and d % c.denominator:
                d = math.lcm(d, c.denominator)
    if d == 1:
        return 1, [p.terms for p in polys]
    return d, [{m: c * d if type(c) is int else c.numerator * (d // c.denominator)
                for m, c in p.terms.items()} for p in polys]


def _scaled_values(polys, point) -> tuple:
    """(values, scale): int values scale * p(point) for polynomials of the
    point's ring, for one positive int scale.

    With x = a / D for the point's common denominator D and c / d for the
    coefficients', a term of degree k scaled by d * D^K, K the largest
    degree, is the int (d c) a^e D^(K-k).  Each monomial is evaluated once,
    field by field, from a table of D^(K-k) per degree k.
    """
    polys = list(polys)
    n = len(point)
    for p in polys:
        if p.n != n:
            raise ValueError(f"point length {n} != ring dimension {p.n}")
    d, maps = _integral_terms(polys)
    ratios = [v.as_integer_ratio() for v in point]
    big = math.lcm(*(q for _, q in ratios))
    by_field = [u * (big // q) for u, q in ratios[::-1]]      # field f holds x_{n-1-f}
    ds = n << 4
    mask = (1 << ds) - 1
    top = max((max(t) >> ds for t in maps if t), default=0)
    powers = [big ** (top - k) for k in range(top + 1)]
    seen: dict = {}
    values = []
    for terms in maps:
        total = 0
        for m, c in terms.items():
            mv = seen.get(m)
            if mv is None:
                mv = powers[m >> ds]
                r = m & mask
                while r:
                    low = ((r & -r).bit_length() - 1) & ~15
                    e = (r >> low) & _EMAX
                    mv *= by_field[low >> 4] ** e
                    r ^= e << low
                seen[m] = mv
            total += c * mv
        values.append(total)
    return values, d * powers[0]


class Polynomial:
    """Element of Q[x_0, ..., x_{n-1}] in canonical sparse form.

    ``Polynomial(n, {((var, exp), ...): c})`` builds one from public
    monomials; the keys of ``terms`` are private to this module.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable | dict | None = None):
        self.n = n
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, c in items:
                c = _coeff(c)
                if c:
                    m = _pack(n, mono)
                    clean[m] = clean.get(m, 0) + c
        self.terms = {m: _norm(c) for m, c in clean.items() if c}

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Polynomial":
        # trusted constructor: terms already canonical
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def _collect(cls, n: int, acc: dict, d: int = 1) -> "Polynomial":
        """The polynomial an _accumulate map holds, divided by the int d."""
        if d != 1:
            return cls._raw(n, {m: _div(c, d) for m, c in acc.items() if c})
        return cls._raw(n, {m: c if type(c) is int else _norm(c)
                            for m, c in acc.items() if c})

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._raw(n, {})

    @classmethod
    def const(cls, n: int, c) -> "Polynomial":
        c = _coeff(c)
        return cls._raw(n, {0: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        return cls.linear(n, {i: 1})

    @classmethod
    def linear(cls, n: int, coeffs: dict) -> "Polynomial":
        """The linear form  sum_k coeffs[k] * x_k."""
        one = 1 << (n << 4)
        terms = {}
        for k, c in coeffs.items():
            if not 0 <= k < n:
                raise ValueError(f"variable index {k} out of range for n={n}")
            c = _coeff(c)
            if c:
                terms[one | 1 << ((n - 1 - k) << 4)] = c
        return cls._raw(n, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get(0, 0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> (self.n << 4)

    def is_homogeneous(self) -> bool:
        ds = self.n << 4
        return len({m >> ds for m in self.terms}) <= 1

    def variables(self) -> set:
        fields = 0
        for m in self.terms:
            fields |= m
        return {v for v, _ in _unpack(fields, self.n)}

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return _unpack(m, self.n), Fraction(self.terms[m])

    def coefficient(self, mono) -> "int | Fraction":
        """Coefficient of a public monomial; 0 when the term is absent."""
        return self.terms.get(_pack(self.n, mono), 0)

    def as_dict(self) -> dict:
        """{public monomial: coefficient}, the form the constructor takes."""
        return {_unpack(m, self.n): c for m, c in self.terms.items()}

    def linear_coefficients(self):
        """{variable: coefficient} of a linear form; None when a term has
        another degree."""
        n = self.n
        one = 1 << (n << 4)
        out = {}
        for m, c in self.terms.items():
            if m >> (n << 4) != 1:
                return None
            out[n - 1 - ((m - one).bit_length() - 1 >> 4)] = c
        return out

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

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = c if sign > 0 else -c
                continue
            v = v + c if sign > 0 else v - c
            if v:
                out[m] = v if type(v) is int else _norm(v)
            else:
                del out[m]
        return Polynomial._raw(self.n, out)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self):
        return Polynomial._raw(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._raw(self.n, {m: _norm(cc * c) for m, cc in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        acc: dict = {}
        _accumulate(acc, self.terms, other.terms, False, self.n)
        return Polynomial._collect(self.n, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        # refuse before the work: p^k raises each largest exponent k-fold
        if k > 1 and self.terms and k * self.degree() > _EMAX:
            top = max(e for m in self.terms for _, e in _unpack(m, self.n))
            if k * top > _EMAX:
                raise ValueError(f"an exponent of the power exceeds {_EMAX}")
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
        n = self.n
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        s = (n - 1 - i) << 4
        step = 1 << s | 1 << (n << 4)
        out: dict = {}
        for m, c in self.terms.items():
            e = (m >> s) & _EMAX
            if e:
                # distinct monomials keep distinct images, so nothing merges
                out[m - step] = _norm(c * e)
        return Polynomial._raw(n, out)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, as a Fraction; computed in int by
        _scaled_values."""
        (v,), scale = _scaled_values([self], point)
        return Fraction(v, scale)

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


def _divides(a: int, b: int, low: int) -> bool:
    """True when packed monomial a divides packed monomial b."""
    d = b - a
    return d >= 0 and not (d ^ b ^ a) & low


def poly_div_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a / b; raises ValueError when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    a._check_dim(b)
    if a.is_zero:
        return a
    n = a.n
    low = _field_lows(n)
    bm = max(b.terms)
    bc = b.terms[bm]
    quot = {}
    if len(b.terms) == 1:
        for m, c in a.terms.items():
            if not _divides(bm, m, low):
                raise ValueError("not an exact polynomial division")
            quot[m - bm] = _div(c, bc)
        return Polynomial._raw(n, quot)
    rem = dict(a.terms)
    # every remainder term has degree <= deg a, so only a degree above the
    # field width can make a product carry across a field
    check = max(rem) >> (n << 4) > _EMAX
    while rem:
        m = max(rem)
        c = rem[m]
        if not _divides(bm, m, low):
            raise ValueError("not an exact polynomial division")
        qm = m - bm
        qc = _div(c, bc)
        quot[qm] = qc
        for m2, c2 in b.terms.items():
            key = qm + m2
            if check and (key ^ qm ^ m2) & low:
                raise ValueError(f"an exponent of the product exceeds {_EMAX}")
            v = rem.get(key, 0) - qc * c2
            if v:
                rem[key] = v
            else:
                del rem[key]
    return Polynomial._raw(n, quot)


def poly_compose(p: Polynomial, args: Sequence[Polynomial]) -> Polynomial:
    """Substitute a polynomial for each variable of p, in int: with A_v =
    d args[v], d the args' common denominator, and c / e for p's, a term c x^m
    of degree k is (e c) d^(K-k) prod A_v^(m_v), K = deg p, e d^K times the
    term, so one division ends the sum.  Its products, powers and sums are
    those on the unscaled args, in order, so the terms come in that order."""
    if len(args) != p.n:
        raise ValueError("need one argument polynomial per variable")
    if not args:
        raise ValueError("composition needs at least one argument to fix the target ring")
    n_out = args[0].n
    for q in args:
        if q.n != n_out:
            raise ValueError("argument polynomials live in different rings")
    (d, maps), (e, (pt,)) = _integral_terms(args), _integral_terms([p])
    K, ds = max(p.degree(), 0), p.n << 4
    args = [Polynomial._raw(n_out, t) for t in maps] if d > 1 else args
    total = Polynomial.zero(n_out)
    for m, c in pt.items():
        term = Polynomial.const(n_out, c * d ** (K - (m >> ds)))
        for v, x in _unpack(m, p.n):
            term = term * args[v] ** x
        total = total + term
    return Polynomial._collect(n_out, total.terms, e * d ** K)


def poly_rename(p: Polynomial, index_map: dict, new_n: int) -> Polynomial:
    """Re-index variables through index_map; every used variable must be mapped."""
    out: dict = {}
    for m, c in p.terms.items():
        try:
            nm = _pack(new_n, [(index_map[v], e) for v, e in _unpack(m, p.n)])
        except KeyError as exc:
            raise ValueError(f"variable {exc.args[0]} has no image under the rename") from None
        out[nm] = c
    return Polynomial._raw(new_n, out)


# ---------------------------------------------------------------------------
# grading by weighted degree
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _weight_word(ws: tuple) -> tuple:
    """(W = sum_i w_i 2^(16 i), the largest k with k max(w) <= 65535) for _graded."""
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    return sum(w << (i << 4) for i, w in enumerate(ws)), _EMAX // max((1, *ws))


def _graded(n: int, polys, weights) -> tuple:
    """(parts, top) for polynomials of one ring Q[x_0, ..., x_{n-1}]: for
    each one in order, {weighted degree d: its part of weighted degree d},
    nonzero parts only, and the largest total degree of a monomial among
    them (-1 when all are zero).  Under x_i -> t^{w_i} x_i for nonnegative
    integer weights, the part of weighted degree d carries t^d.

    A weighted degree is one multiply: field n - 1 of m * W, W = sum_i w_i
    2^(16 i), sums e_i w_i, as field f of m holds x_{n-1-f}'s exponent.  Any
    field k < n of the product sums e_f w_g over f + g = k, at most
    deg(m) max(w): while that is <= 65535 nothing carries between fields (the
    degree bits land above field n - 1), so it is exact.  Past that, or when
    n = 0, a monomial is graded from its exponents.  Each distinct one is graded once.
    """
    ws = tuple(weights)
    word, lim = _weight_word(ws)
    if len(ws) != n:
        raise ValueError(f"weight vector length {len(ws)} != ring dimension {n}")
    ds = n << 4
    # m < cap exactly when deg(m) <= lim, as the degree bits are m's highest
    s, cap = ds - 16, (lim + 1) << ds if n else 0
    seen, parts = {}, []
    for p in polys:
        buckets: dict = {}
        for m, c in p.terms.items():
            d = seen.get(m)
            if d is None and m < cap:
                d = seen[m] = (m * word >> s) & _EMAX
            elif d is None:
                d = seen[m] = sum(ws[v] * e for v, e in _unpack(m, n))
            b = buckets.get(d)
            if b is None:
                b = buckets[d] = {}
            b[m] = c
        parts.append({d: Polynomial._raw(n, b) for d, b in buckets.items()})
    return parts, max(seen) >> ds if seen else -1


# ---------------------------------------------------------------------------
# multivariate gcd: subresultant polynomial remainder sequence
# ---------------------------------------------------------------------------

def _main_variable(a: Polynomial, b: Polynomial):
    vs = a.variables() | b.variables()
    return max(vs) if vs else None


def _as_univariate(p: Polynomial, v: int) -> dict:
    """View p as a polynomial in x_v with Polynomial coefficients."""
    s = (p.n - 1 - v) << 4
    ds = p.n << 4
    coeffs: dict = {}
    for m, c in p.terms.items():
        e = (m >> s) & _EMAX
        b = coeffs.get(e)
        if b is None:
            b = coeffs[e] = {}
        b[m - (e << s) - (e << ds)] = c
    return {e: Polynomial._raw(p.n, b) for e, b in coeffs.items()}


def _uni_degree(p: Polynomial, v: int) -> int:
    s = (p.n - 1 - v) << 4
    return max(((m >> s) & _EMAX for m in p.terms), default=0)


def _uni_leading(p: Polynomial, v: int, d: int) -> Polynomial:
    s = (p.n - 1 - v) << 4
    strip = d << s | d << (p.n << 4)
    return Polynomial._raw(p.n, {m - strip: c for m, c in p.terms.items()
                                 if (m >> s) & _EMAX == d})


def _pseudo_rem(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """lc(g)^(delta + 1) * f mod g in x_v, delta = deg f - deg g >= 0: one
    lc(g) per reduction step, and one more per step a larger drop skipped."""
    dg = _uni_degree(g, v)
    lg = _uni_leading(g, v, dg)
    r, steps = f, _uni_degree(f, v) - dg + 1
    while not r.is_zero:
        dr = _uni_degree(r, v)
        if dr < dg:
            break
        lr = _uni_leading(r, v, dr)
        shift = Polynomial._raw(r.n, {_pack(r.n, ((v, dr - dg),)): 1})
        r = r * lg - g * lr * shift
        steps -= 1
    return r * lg ** steps if steps and not r.is_zero else r


def _content_primitive(p: Polynomial, v: int):
    content = _gcd_many(_as_univariate(p, v).values())
    return content, (p if content.is_constant else poly_div_exact(p, content))


def _monomial_gcd(keys, n: int) -> int:
    """Greatest packed monomial dividing every key, packed from each field's
    least exponent: read off valid keys, each fits its field."""
    shifts = [(n - 1 - v) << 4 for v in range(n)]
    common = None
    for m in keys:
        exps = [(m >> s) & _EMAX for s in shifts]
        common = exps if common is None else list(map(min, common, exps))
    return sum(e << s for e, s in zip(common, shifts)) | sum(common) << (n << 4)


def _gcd_rec(a: Polynomial, b: Polynomial) -> Polynomial:
    """The gcd of nonzero a, b up to a unit: their contents' gcd in the main
    variable x_v times the primitive part of the last nonzero remainder of
    the subresultant PRS of their primitive parts (Collins 1967; Brown and
    Traub 1971; Knuth, TAOCP vol. 2, 4.6.1, Algorithm C).  Each
    pseudo-remainder is divided exactly by lead * h^delta, lead the last
    leading coefficient in x_v and h its subresultant scale, so the
    remainders' coefficients stay small with no content taken in the loop.
    A remainder free of x_v leaves the primitive parts coprime."""
    if len(a.terms) == 1 or len(b.terms) == 1:
        return Polynomial._raw(a.n, {_monomial_gcd([*a.terms, *b.terms], a.n): 1})
    v = _main_variable(a, b)
    ca, pa = _content_primitive(a, v)
    cb, pb = _content_primitive(b, v)
    cg = _gcd_rec(ca, cb)
    # scaled to int, a unit, so that every product and exact division runs in int
    pa, pb = (Polynomial._raw(p.n, _integral_terms([p])[1][0]) for p in (pa, pb))
    f, g = (pa, pb) if _uni_degree(pa, v) >= _uni_degree(pb, v) else (pb, pa)
    lead = h = Polynomial.const(a.n, 1)
    while _uni_degree(g, v):
        delta = _uni_degree(f, v) - _uni_degree(g, v)
        r = _pseudo_rem(f, g, v)
        if r.is_zero:
            return cg * _content_primitive(g, v)[1]
        f, g = g, poly_div_exact(r, lead * h ** delta)
        lead = _uni_leading(f, v, _uni_degree(f, v))
        if delta:
            h = poly_div_exact(lead ** delta, h ** (delta - 1))
    return cg


def multivariate_gcd(*polys: Polynomial) -> Polynomial:
    """The gcd of polynomials of one ring, normalized to graded-lex leading
    coefficient 1.  Zero entries are skipped; at least one must be nonzero."""
    for p in polys[1:]:
        polys[0]._check_dim(p)
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd of zero polynomials is undefined")
    return _gcd_many(nonzero)


def _gcd_many(polys) -> Polynomial:
    """The monic gcd of nonzero polynomials of one ring, at least one.  They
    are taken smallest first, and the gcd stops at 1 once it is constant."""
    g = None
    for c in sorted(polys, key=lambda p: len(p.terms)):
        g = c if g is None else _gcd_rec(g, c)
        if g.is_constant:
            return Polynomial.const(c.n, 1)
    return poly_monic(g)


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
            if tok == "^":
                raise ValueError("'^' must follow a variable")
            if tok == "*":
                if expect_factor:
                    raise ValueError("'*' must follow a factor")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError(f"missing '*' before {tok!r}")
            if tok[0].isdigit():
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {tok!r}") from None
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
                if mono[v] > _EMAX:
                    raise ValueError(f"exponent {mono[v]} of {tok} exceeds {_EMAX}")
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
    pieces = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = [f"{names[v]}^{e}" if e > 1 else names[v] for v, e in _unpack(m, p.n)]
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
