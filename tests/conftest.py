import functools
import math
import os
import random
import signal
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from liecontract import lie  # noqa: E402
from liecontract.analysis import (KostantReport, ProportionalityCertificate,  # noqa: E402
                                  _coprime_ratio)
from liecontract.builders import borel_decomposition  # noqa: E402
from liecontract.builders import builtin_algebra as _builtin_algebra  # noqa: E402
from liecontract.builders import symmetric_pair as _symmetric_pair  # noqa: E402
from liecontract.contract import contract_algebra, t_degree  # noqa: E402
from liecontract.exterior import (MultiVector, shuffle_sign, wedge_power,  # noqa: E402
                                  wedge_power_coefficient)
from liecontract.invariants import (_pivot_point, _regularity_minor,  # noqa: E402
                                    char_invariants, semi_invariant_weight, t_degree_reduction)
from liecontract.lie import LieAlgebra, lie_poisson_bivector  # noqa: E402
from liecontract.linalg import (_reduced, identity_matrix, mat_mul, poly_det_cofactor,  # noqa: E402
                               rational_rank, zero_matrix)
from liecontract.polyring import (Polynomial, _as_univariate, _coeff, _div, _graded,  # noqa: E402
                                  _main_variable, _monomial_gcd, _pack, _ratio, _uni_degree,
                                  _uni_leading, multivariate_gcd, poly_div_exact, poly_monic)

# algebras are immutable, so tests may share one instance per builtin
cached_builtin = functools.lru_cache(maxsize=None)(_builtin_algebra)
cached_pair = functools.lru_cache(maxsize=None)(_symmetric_pair)


@functools.lru_cache(maxsize=None)
def case(key):
    """(bivector, Casimirs) of a builtin ("sl3") or a pair's parent
    ("sl2_so2/parent"), or (limit bivector, tops) of a builtin's Borel limit
    ("sl3/borel") or of a pair's limit ("sl2_so2/z2"), whose generators are
    reduced first."""
    name, _, kind = key.partition("/")
    pair = cached_pair(name) if kind in ("parent", "z2") else None
    L = pair.parent if pair else cached_builtin(name)
    gens = char_invariants(L)
    if kind in ("", "parent"):
        return lie_poisson_bivector(L), tuple(gens.gens)
    w = borel_decomposition(L) if kind == "borel" else pair.weights
    if kind == "z2":
        gens = t_degree_reduction(gens, w)
    return contract_algebra(L, w).pi_tilde, tuple(t_degree(g, w)[1] for g in gens.gens)


def schouten_square_spy(monkeypatch):
    """The list of sizes n of the Schouten squares `lie` computes for the rest
    of the test, one entry per square."""
    squares = []
    real = lie.schouten_square
    monkeypatch.setattr(lie, "schouten_square", lambda pi: squares.append(pi.n) or real(pi))
    return squares


def subalgebra_on_indices(L, indices):
    """Restriction to a subset of basis vectors that spans a subalgebra: the
    reference for the Cartan-free g' that feigin_suite reads off pi~."""
    idx = list(indices)
    pos = {old: new for new, old in enumerate(idx)}
    keep = set(idx)
    brackets = {}
    for a, old_i in enumerate(idx):
        for b in range(a + 1, len(idx)):
            old_j = idx[b]
            row = L.bracket_pair(old_i, old_j)
            bad = [k for k in row if k not in keep]
            if bad:
                raise ValueError(
                    f"basis subset is not closed: [{L.labels[old_i]},{L.labels[old_j]}] "
                    f"meets {L.labels[bad[0]]}")
            if row:
                # enumeration order gives pos[old_i] = a < b = pos[old_j]
                brackets[(a, b)] = {pos[k]: c for k, c in row.items()}
    mats = None
    if L.matrices is not None:
        mats = [L.matrices[i] for i in idx]
    return LieAlgebra([L.labels[i] for i in idx], brackets, matrices=mats,
                      name=f"{L.name}-sub" if L.name else None)


def random_polynomial(rng: random.Random, n: int, max_degree: int = 3,
                      max_terms: int = 5, allow_zero: bool = True) -> Polynomial:
    terms = []
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        mono = {}
        for _ in range(rng.randint(0, max_degree)):
            v = rng.randrange(n)
            mono[v] = mono.get(v, 0) + 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms.append((tuple(sorted(mono.items())), coeff))
    return Polynomial(n, terms)


def random_point(rng: random.Random, n: int):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]


def bivector_matrix(pi):
    """Antisymmetric n x n matrix of Polynomial entries pi_{ij}."""
    zero = Polynomial.zero(pi.n)
    mat = [[zero] * pi.n for _ in range(pi.n)]
    for (i, j), p in pi.terms.items():
        mat[i][j] = p
        mat[j][i] = -p
    return mat


def row_reduce(matrix):
    """Reduced row echelon form over Q as (rows, pivot columns), every entry a
    Fraction: linalg._reduced's int rows with each pivot row divided by its
    pivot, then the zero rows below the rank."""
    rows, pivots = _reduced(matrix)
    out = [[Fraction(x, row[col]) for x in row] for row, col in zip(rows, pivots)]
    return out + [[Fraction(0)] * len(row) for row in rows[len(pivots):]], pivots


def rational_inverse(matrix):
    """A^-1 as Fraction rows, off one [A | I] reduction: the package's inverse
    before the trace dual came to read d A^-1 in int (linalg._int_inverse)."""
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square")
    rows, pivots = _reduced([list(matrix[i]) + [int(j == i) for j in range(m)]
                             for i in range(m)])
    if pivots != list(range(m)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[r]) if x else Fraction(0) for x in row[m:]]
            for r, row in enumerate(rows)]


def dense_column_solver(columns):
    """The column solver before its solves became sparse: solve(target) takes
    and returns dense lists, and checks the combination in every entry."""
    n = len(columns)
    size = len(columns[0])
    rows, pivots = _reduced([list(col) + [int(j == k) for j in range(n)]
                             for k, col in enumerate(columns)])
    if pivots[-1] >= size:
        return None
    d = math.lcm(*(row[p] // math.gcd(row[p], *row[size:]) for row, p in zip(rows, pivots)))
    inverse = [(p, [(k, x * d // row[p]) for k, x in enumerate(row[size:]) if x])
               for row, p in zip(rows, pivots)]
    nonzero = [[(i, v) for i, v in enumerate(col) if v] for col in columns]

    def solve(target):
        dsol = [0] * n
        for p, erow in inverse:
            if b := target[p]:
                for k, e in erow:
                    dsol[k] += b * e
        combo = [0] * size
        for c, col in zip(dsol, nonzero):
            if c:
                for i, v in col:
                    combo[i] += c * v
        if combo != [d * t for t in target]:
            return None
        return [_div(c, d) if c else 0 for c in dsol]

    return solve


def dense_brackets(mats, labels=None):
    """from_matrices' bracket table before its solves became sparse: each
    commutator a dense m^2-vector for dense_column_solver, with the same errors."""
    m, n = len(mats[0]), len(mats)
    mats = [[[_coeff(x) for x in row] for row in M] for M in mats]
    solve = dense_column_solver([[x for row in M for x in row] for M in mats])
    if solve is None:
        raise ValueError("matrices are linearly dependent")
    labels = labels or [f"x{i}" for i in range(n)]
    rows = [[[(t, x) for t, x in enumerate(row) if x] for row in M] for M in mats]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm = [0] * (m * m)
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for r, row in enumerate(rows[a]):
                    for s, x in row:
                        for t, y in rows[b][s]:
                            comm[r * m + t] += sign * x * y
            sol = solve(comm)
            if sol is None:
                raise ValueError(
                    f"span is not closed under commutator at pair ({labels[i]},{labels[j]})")
            row = {k: c for k, c in enumerate(sol) if c}
            if row:
                brackets[(i, j)] = row
    return brackets


def fraction_trace_dual(L):
    """X = sum_j x_j M_j^dual with tr(M_i^dual M_j) = delta_ij, in Fraction:
    the trace dual before it came to be read as (D, Y = D X) in int."""
    if L.matrices is None:
        raise ValueError("algebra has no matrix realization")
    n = L.n
    m = len(L.matrices[0])
    at: dict = {}
    for i, M in enumerate(L.matrices):
        for r, row in enumerate(M):
            for s, x in enumerate(row):
                if x:
                    at.setdefault((r, s), []).append((i, x))
    T = [[0] * n for _ in range(n)]
    for (r, s), here in at.items():
        for j, y in at.get((s, r), ()):
            for i, x in here:
                T[i][j] += x * y
    Tinv = rational_inverse(T)
    coeffs = {}
    for rs, here in at.items():
        row = coeffs[rs] = {}
        for i, x in here:
            for j, c in enumerate(Tinv[i]):
                if c:
                    row[j] = row.get(j, 0) + c * x
    X = [[Polynomial.zero(n)] * m for _ in range(m)]
    for (r, s), row in coeffs.items():
        X[r][s] = Polynomial.linear(n, row)
    return X


def volume_dual(f):
    """The full-sides reference A = f / omega: division of a form by the
    volume form, the multivector with coefficient sgn(I, complement(I)) * f_I
    at the complementary index set."""
    n = f.n
    out = {}
    for idx, p in f.terms.items():
        comp = tuple(i for i in range(n) if i not in idx)
        out[comp] = p if shuffle_sign(idx, comp) > 0 else -p
    return MultiVector(n, n - f.degree, out)


# (id(pi), k) -> (pi, wedge^k pi); pi is kept so that its id is not reused
_POWERS = {}


def cached_wedge_power(pi, k):
    """The full-sides reference B = wedge^k pi, built once per bivector and
    power: a bivector is immutable, and the builtin cases share one."""
    key = id(pi), k
    if key not in _POWERS:
        _POWERS[key] = pi, wedge_power(pi, k)
    return _POWERS[key][1]


def proportionality(a, b):
    """The full-sides reference for KostantReport.certificate: decide
    q1 * a = q2 * b with coprime polynomial factors by cross-multiplying
    every coefficient pair of two multivectors built in full."""
    if a.is_zero or b.is_zero:
        raise ValueError("proportionality needs two nonzero multivectors")
    if a.n != b.n or a.degree != b.degree:
        raise ValueError("multivectors live in different spaces")
    if set(a.terms) != set(b.terms):
        return ProportionalityCertificate(proportional=False)
    base = min(a.terms)
    q1, q2 = _coprime_ratio(a.terms[base], b.terms[base])
    # a_I * b_base == a_base * b_I is a_I * q1 == q2 * b_I after dividing by the gcd
    for idx in sorted(a.terms):
        if a.terms[idx] * q1 != q2 * b.terms[idx]:
            return ProportionalityCertificate(proportional=False)
    return ProportionalityCertificate(proportional=True, q1=q1, q2=q2)


def reference_scaled_values(polys, point):
    """polyring._scaled_values by its formula before it walked packed fields:
    each public monomial's value is a math.prod of a_v^e, times D^(K - k)."""
    polys = list(polys)
    d = math.lcm(1, *(Fraction(c).denominator for p in polys for c in p.terms.values()))
    ratios = [Fraction(v).as_integer_ratio() for v in point]
    big = math.lcm(*(q for _, q in ratios))
    a = [u * (big // q) for u, q in ratios]
    top = max([0] + [p.degree() for p in polys])
    values = []
    for p in polys:
        total = 0
        for mono, c in p.as_dict().items():
            k = sum(e for _, e in mono)
            total += int(c * d) * big ** (top - k) * math.prod(a[v] ** e for v, e in mono)
        values.append(total)
    return values, d * big ** top


class GuardedReport(KostantReport):
    """KostantReport with its minor as it was: the pivots' pair only when
    B_I != 0, else the pair at generic_rank's I."""

    @functools.cached_property
    def _minor(self):
        if self.pivots is not None:
            a_i, b_i = _regularity_minor(self.pi, self.casimirs, self.pivots)
            if b_i:
                return a_i, b_i
        n, ell = self.pi.n, len(self.casimirs)
        if ell < n and not (ell == self.index and all(
                not F.is_zero and semi_invariant_weight(F, self.pi) == [0] * n
                for F in self.casimirs)):
            return None
        a_i, b_i = _regularity_minor(self.pi, self.casimirs,
                                     self.pi.generic_rank[1] if ell < n else ())
        return (a_i, b_i) if a_i else None


def full_jacobian_regularity(pi, casimirs):
    """analysis.regularity as it was: its point proof ranks the full l x n
    Jacobian at x0, evaluated by reference_scaled_values, in place of the
    one l x l minor A_I(x0), and its report is a GuardedReport."""
    casimirs = list(casimirs)
    n, ell = pi.n, len(casimirs)
    pivot = _pivot_point(pi, ell)
    if pivot:
        values, _ = reference_scaled_values([F.diff(j) for F in casimirs for j in range(n)],
                                            pivot[1])
        if (rational_rank([values[i * n:i * n + n] for i in range(ell)]) == ell
                and all(semi_invariant_weight(F, pi) == [0] * n for F in casimirs)):
            return GuardedReport(pi, casimirs, ell, pivot[0])
    return GuardedReport(pi, casimirs, n - pi.generic_rank[0], None)


def graded_tops_minor(pi, ell, w, t_degrees):
    """(A~_I, B~_I) at _pivot_point's I: the parts of weighted degree
    sum(t_degrees) - w(J) and w(I) of the parent's B_I = A_I.  The z2 tops
    equality read these two parts before it came to read sum d' alone."""
    index_set, _ = _pivot_point(pi, ell)
    parts = _graded(pi.n, [wedge_power_coefficient(pi, index_set)], w)[0][0]
    w_i, zero = sum(w[i] for i in index_set), Polynomial.zero(pi.n)
    return parts.get(sum(t_degrees) - w.total + w_i, zero), parts.get(w_i, zero)


def expanded_normalize(L, gens):
    """invariants._normalize_to_regularity's expanded path as it was: the pair
    (A_I, B_I) at _pivot_point's I, expanded whole, then c = _ratio(B_I, A_I);
    gens[0] is scaled by c in place.  Its scales on sp6, so7 and sl5 took
    seconds each."""
    pi = lie_poisson_bivector(L)
    pivot = _pivot_point(pi, len(gens))
    if pivot is None:
        raise ValueError("degenerate generator set")
    A, B = _regularity_minor(pi, gens, pivot[0])
    scale = _ratio(B, A)
    if scale is None:
        raise ValueError("generator differentials are not proportional to the wedge power")
    gens[0] = gens[0] * scale
    return scale


class OutOfTime(Exception):
    """primitive_prs_gcd ran past its time limit."""


def primitive_prs_gcd(a, b, seconds=2.0):
    """The monic gcd of nonzero a, b by the primitive PRS that polyring's gcd
    ran before its subresultant PRS: after every pseudo-remainder (one lc(g)
    factor per reduction step) the remainder's content in the main variable
    is divided out, itself a gcd of the same kind.  Raises OutOfTime after
    the given seconds (a real-time interval timer), so a case that it cannot
    finish in useful time is left out, not waited for."""

    def pseudo_rem(f, g, v):
        dg = _uni_degree(g, v)
        lg = _uni_leading(g, v, dg)
        r = f
        while not r.is_zero:
            dr = _uni_degree(r, v)
            if dr < dg:
                break
            lr = _uni_leading(r, v, dr)
            shift = Polynomial._raw(r.n, {_pack(r.n, ((v, dr - dg),)): 1})
            r = r * lg - g * lr * shift
        return r

    def content_primitive(p, v):
        content = gcd_many(_as_univariate(p, v).values())
        return content, (p if content.is_constant else poly_div_exact(p, content))

    def rec(a, b):
        if len(a.terms) == 1 or len(b.terms) == 1:
            return Polynomial._raw(a.n, {_monomial_gcd([*a.terms, *b.terms], a.n): 1})
        v = _main_variable(a, b)
        ca, pa = content_primitive(a, v)
        cb, pb = content_primitive(b, v)
        cg = rec(ca, cb)
        f, g = (pa, pb) if _uni_degree(pa, v) >= _uni_degree(pb, v) else (pb, pa)
        while not g.is_zero:
            r = pseudo_rem(f, g, v)
            if not r.is_zero:
                _, r = content_primitive(r, v)
            f, g = g, r
        _, f = content_primitive(f, v)
        return cg * f

    def gcd_many(polys):
        g = None
        for c in sorted(polys, key=lambda p: len(p.terms)):
            g = c if g is None else rec(g, c)
            if g.is_constant:
                return Polynomial.const(c.n, 1)
        return poly_monic(g)

    def expire(*_):
        raise OutOfTime

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return gcd_many([a, b])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def planted_gcd_cases(seed=5, count=40):
    """count pairs (a g, b g) of seeded random polynomials a, b, g of degree
    at most 3 in 4 to 15 variables, with a, b, g nonzero: a planted common
    factor g, and the gcd's cofactors a, b."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(4, 15)
        a, b, g = (random_polynomial(rng, n, max_degree=3, max_terms=4, allow_zero=False)
                   for _ in range(3))
        if a and b and g:
            cases.append((a * g, b * g))
    return cases


def reference_is_semisimple(M) -> bool:
    """The semisimplicity test builders._is_semisimple_matrix replaced: the
    squarefree part of det(t I - M), by a univariate gcd and an exact
    division, must annihilate M."""
    m = len(M)
    t = Polynomial.variable(1, 0)
    p = poly_det_cofactor([[t - Polynomial.const(1, x) if i == j else -x
                            for j, x in enumerate(row)] for i, row in enumerate(M)])
    g = multivariate_gcd(p, p.diff(0))
    q = p if g.is_constant else poly_div_exact(p, g)
    coeffs = {(mono[0][1] if mono else 0): c for mono, c in q.as_dict().items()}
    acc, power = zero_matrix(m), identity_matrix(m)
    for e in range(max(coeffs) + 1):
        c = coeffs.get(e, 0)
        if c:
            acc = [[a + c * x for a, x in zip(ra, rx)] for ra, rx in zip(acc, power)]
        power = mat_mul(power, M)
    return all(x == 0 for row in acc for x in row)
