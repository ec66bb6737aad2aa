"""The packed-monomial kernel against the kernel it replaced.

The reference below is the earlier code path, kept minimal: a polynomial is
a dict from tuple monomials (sorted (variable, exponent) pairs) to Fraction
coefficients, and a monomial product is a merge of two sorted tuples.  On
seeded random polynomials every operation of the new kernel, read back in
the public tuple form, must equal the reference exactly.
"""

import random
from fractions import Fraction

import pytest

from conftest import cached_builtin, random_point, random_polynomial
from liecontract.exterior import Form, MultiVector, wedge, wedge_power
from liecontract.polyring import (Polynomial, multivariate_gcd, poly_div_exact,
                                  _graded, poly_to_str)

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
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
    return tuple(out + list(a[i:]) + list(b[j:]))


def grlex(m, n):
    dense = [0] * n
    for v, e in m:
        dense[v] = e
    return sum(dense), tuple(dense)


def r_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def r_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def r_pow(a, k):
    out = {(): ONE}
    for _ in range(k):
        out = r_mul(out, a)
    return out


def r_diff(a, i):
    out = {}
    for m, c in a.items():
        d = dict(m)
        e = d.pop(i, 0)
        if e:
            if e > 1:
                d[i] = e - 1
            key = tuple(sorted(d.items()))
            out[key] = out.get(key, 0) + c * e
    return out


def r_eval(a, point):
    total = Fraction(0)
    for m, c in a.items():
        for v, e in m:
            c = c * Fraction(point[v]) ** e
        total += c
    return total


def r_leading(a, n):
    m = max(a, key=lambda mm: grlex(mm, n))
    return m, a[m]


def r_scale(a, c):
    return {m: x * c for m, x in a.items()} if c else {}


def r_div_exact(a, b, n):
    """Leading-term division; None when b does not divide a."""
    bm, bc = r_leading(b, n)
    rem, quot = dict(a), {}
    while rem:
        m, c = r_leading(rem, n)
        dm, dbm = dict(m), dict(bm)
        if any(dm.get(v, 0) < e for v, e in dbm.items()):
            return None
        qm = tuple(sorted((v, e - dbm.get(v, 0)) for v, e in dm.items()
                          if e - dbm.get(v, 0)))
        quot[qm] = c / bc
        rem = r_add(rem, r_mul({qm: c / bc}, b), -1)
    return quot


def r_variables(a):
    return {v for m in a for v, _ in m}


def r_coeffs_in(a, v):
    """a as a polynomial in x_v: {exponent: coefficient without x_v}."""
    out = {}
    for m, c in a.items():
        e = dict(m).get(v, 0)
        rest = tuple((u, x) for u, x in m if u != v)
        out.setdefault(e, {})[rest] = c
    return out


def r_primitive(a, v, n):
    """(content in x_v, primitive part)."""
    content = None
    for c in r_coeffs_in(a, v).values():
        content = c if content is None else r_gcd_rec(content, c, n)
    content = r_monic(content, n)
    return content, r_div_exact(a, content, n)


def r_prem(f, g, v, n):
    coeffs = r_coeffs_in(g, v)
    dg = max(coeffs)
    lg = coeffs[dg]
    while f:
        cf = r_coeffs_in(f, v)
        df = max(cf)
        if df < dg:
            break
        shift = {((v, df - dg),): ONE} if df > dg else {(): ONE}
        f = r_add(r_mul(f, lg), r_mul(r_mul(g, cf[df]), shift), -1)
    return f


def r_monic(a, n):
    return r_scale(a, 1 / r_leading(a, n)[1])


def r_gcd_rec(a, b, n):
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        common = None
        for m in list(a) + list(b):
            d = dict(m)
            common = d if common is None else {v: min(e, d[v]) for v, e in common.items()
                                               if v in d}
        return {tuple(sorted(common.items())): ONE}
    vs = r_variables(a) | r_variables(b)
    if not vs:
        return {(): ONE}
    v = max(vs)
    ca, f = r_primitive(a, v, n)
    cb, g = r_primitive(b, v, n)
    if max(r_coeffs_in(f, v)) < max(r_coeffs_in(g, v)):
        f, g = g, f
    while g:
        r = r_prem(f, g, v, n)
        f, g = g, (r_primitive(r, v, n)[1] if r else r)
    return r_mul(r_gcd_rec(ca, cb, n), r_primitive(f, v, n)[1])


def r_gcd(a, b, n):
    return r_monic(r_gcd_rec(a, b, n), n)


def r_t_substitute(a, exps):
    out = {}
    for m, c in a.items():
        out.setdefault(sum(exps[v] * e for v, e in m), {})[m] = c
    return out


def r_term_order(a, n):
    return sorted(a, key=lambda m: grlex(m, n), reverse=True)


def r_merge_signed(a, b):
    merged = tuple(sorted(a + b))
    inv = sum(1 for x in a for y in b if x > y)
    return merged, -1 if inv % 2 else 1


def r_wedge(A, B):
    out = {}
    for ia, pa in A.items():
        for ib, pb in B.items():
            if set(ia) & set(ib):
                continue
            idx, sign = r_merge_signed(ia, ib)
            out[idx] = r_add(out.get(idx, {}), r_mul(pa, pb), sign)
    return {idx: p for idx, p in out.items() if p}


# ---------------------------------------------------------------------------
# the new kernel read back in the public form
# ---------------------------------------------------------------------------

def pub(p):
    return {m: Fraction(c) for m, c in p.as_dict().items()}


def pub_mv(mv):
    return {idx: pub(p) for idx, p in mv.terms.items()}


def pairs(seed, n, count, **kw):
    rng = random.Random(seed)
    for _ in range(count):
        yield (random_polynomial(rng, n, **kw), random_polynomial(rng, n, **kw), rng)


def test_product_power_diff_evaluate():
    for a, b, rng in pairs(11, 4, 60, max_degree=4, max_terms=6):
        ra, rb = pub(a), pub(b)
        assert pub(a * b) == r_mul(ra, rb)
        assert pub(a + b) == r_add(ra, rb) and pub(a - b) == r_add(ra, rb, -1)
        k = rng.randint(0, 3)
        assert pub(a ** k) == r_pow(ra, k)
        for i in range(4):
            assert pub(a.diff(i)) == r_diff(ra, i)
        pt = random_point(rng, 4)
        value = a.evaluate(pt)
        assert type(value) is Fraction and value == r_eval(ra, pt)


def test_exact_division_and_gcd():
    done = 0
    for a, b, rng in pairs(12, 3, 60, max_degree=3, max_terms=4):
        g = random_polynomial(rng, 3, max_degree=2, max_terms=3)
        if a.is_zero or b.is_zero or g.is_zero:
            continue
        ra, rb, rg = pub(a), pub(b), pub(g)
        prod = a * g
        assert pub(poly_div_exact(prod, g)) == r_div_exact(r_mul(ra, rg), rg, 3) == ra
        if r_div_exact(ra, rb, 3) is None:
            with pytest.raises(ValueError):
                poly_div_exact(a, b)
        assert pub(multivariate_gcd(a * g, b * g)) == r_gcd(r_mul(ra, rg), r_mul(rb, rg), 3)
        done += 1
    assert done >= 20


def test_t_substitute_leading_and_term_order():
    names = ["a", "b", "c", "d"]
    for a, _, rng in pairs(13, 4, 60, max_degree=5, max_terms=7):
        if a.is_zero:
            continue
        ra = pub(a)
        exps = [rng.randint(0, 3) for _ in range(4)]
        tp = _graded(4, [a], exps)[0][0]
        assert {d: pub(p) for d, p in tp.items()} == r_t_substitute(ra, exps)
        m, c = a.leading()
        assert type(c) is Fraction and (m, c) == r_leading(ra, 4)
        order = r_term_order(ra, 4)
        rendered = poly_to_str(Polynomial(4, {m: 1 for m in order}), names)
        expected = " + ".join("*".join(f"{names[v]}^{e}" if e > 1 else names[v]
                                       for v, e in m) or "1" for m in order)
        assert rendered == expected


def test_wedge_on_random_multivectors():
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(4, 6)
        elts = []
        for k in (1, 2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                idx = tuple(sorted(rng.sample(range(n), k)))
                terms[idx] = random_polynomial(rng, n, max_degree=2, max_terms=3)
            elts.append(MultiVector(n, k, terms))
        a, b = elts
        assert pub_mv(wedge(a, b)) == r_wedge(pub_mv(a), pub_mv(b))
        assert pub_mv(wedge(b, b)) == r_wedge(pub_mv(b), pub_mv(b))


def test_fraction_free_wedge_on_fraction_operands():
    # wedge pulls each operand's common denominator out and divides once at
    # the end; operands mix all-int coefficients (the fast path), one shared
    # denominator and different denominators per coefficient
    rng = random.Random(15)
    denominators = (1, 2, 6, 64, 256)
    for trial in range(40):
        n = rng.randint(4, 6)
        kind = MultiVector if trial % 2 else Form
        elts = []
        for k in (1, 2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                idx = tuple(sorted(rng.sample(range(n), k)))
                p = random_polynomial(rng, n, max_degree=2, max_terms=3) * 12
                terms[idx] = p * Fraction(1, rng.choice(denominators))
            elts.append(kind(n, k, terms))
        a, b = elts
        for x, y in ((a, b), (b, a), (b, b), (a, a)):
            if x.degree + y.degree > n:
                continue
            out = wedge(x, y)
            assert type(out) is kind
            assert pub_mv(out) == r_wedge(pub_mv(x), pub_mv(y))
            for p in out.terms.values():
                # int exactly when integral, as everywhere in the kernel
                assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())


@pytest.mark.parametrize("name", ["sp4", "so5"])
def test_full_chain_equals_reference_chain(name):
    L = cached_builtin(name)
    # the reference bivector straight from the bracket table
    ref_pi = {(i, j): {((k, 1),): Fraction(c) for k, c in row.items()}
              for (i, j), row in L.brackets.items()}
    pi = MultiVector(L.n, 2, L.bivector.terms)
    ref, k, top = ref_pi, 1, None
    while True:
        assert pub_mv(wedge_power(pi, k)) == ref, f"wedge^{k} pi differs"
        if ref:
            top = k, ref
        if 2 * (k + 1) > L.n:
            break
        ref, k = r_wedge(ref, ref_pi), k + 1
    assert k == L.n // 2 and not ref      # sp4 and so5 have index 2: the top power vanishes
    top_k, top_power = pi.top_power
    assert (top_k, pub_mv(top_power)) == top
