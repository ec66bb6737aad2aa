"""Symmetric-invariant generators and the degree-reduction machinery.

Generators for the classical algebras come from the characteristic
polynomial of the generic matrix X = sum_j x_j M_j^dual written against the
trace-dual basis, so that each coefficient is an honest central element of
the Lie-Poisson structure.  X is built as the int Y = D X (linalg._int_inverse),
so linalg's memoised int engine has no denominator of X to clear: a minor
sum or Pfaffian of degree k in Y is divided by D^k once per coefficient.  The
first generator is rescaled once so the set satisfies the regularity
equality  dF_1 ^ ... ^ dF_l / omega = wedge^{(n-l)/2} pi  on the nose,
by a scale read at a nilpotent point whose certificate proves the whole
equality; no wedge power and no minor is built here.  Later triangular
modifications leave it untouched.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .contract import ContractionWeights, t_degree
from .exterior import (MultiVector, pfaffian, point_ranks, shuffle_sign,
                       wedge_power_coefficient)
from .lie import LieAlgebra, lie_poisson_bivector
from .linalg import (_echelon, _int_inverse, _int_pfaffian, _principal_minor_sums,
                     poly_det_cofactor, solve_exact)
from .polyring import (Polynomial, _accumulate, _integral_terms, _partials, _ratio,
                       _scaled_values, poly_compose, poly_rename)

_ZERO = Fraction(0)


class GeneratorSet(Record):
    """Homogeneous central generators in ascending degree, jointly normalized."""

    def __init__(self, algebra: LieAlgebra, gens: list, normalization: Fraction):
        self._set(locals())

    @property
    def degrees(self):
        return [g.degree() for g in self.gens]

    def __len__(self):
        return len(self.gens)


class _Casimirs(list):
    """Nonzero Casimirs of pi (None: of none), so proved by their construction;
    graded is (weights, each one's (t-degree, top) at them) or None."""

    def __init__(self, pi: MultiVector | None, polys, graded: tuple | None = None):
        super().__init__(polys)
        self.pi, self.proved, self.graded = pi, tuple(self), graded


def _casimirs_of(polys):
    """The pi of polys if a _Casimirs set, unchanged since made, else None."""
    return polys.pi if isinstance(polys, _Casimirs) and tuple(polys) == polys.proved else None


def _graded_of(polys, w: ContractionWeights):
    """The pairs of polys if a _Casimirs set graded at w, unchanged since made, else None."""
    graded = polys.graded if isinstance(polys, _Casimirs) and tuple(polys) == polys.proved else None
    return list(graded[1]) if graded and graded[0] == w.weights else None


def semi_invariant_weight(h: Polynomial, pi: MultiVector):
    """Per-coordinate eigenvalues when {x_j, h} is a rational multiple of h for
    every j under the bivector pi, or None when h is not a semi-invariant.

    h is a Casimir of pi exactly when the weight is [0] * pi.n.  Every row
    {x_j, h} = sum_l pi_jl dh/dx_l is accumulated in one pass over pi's
    terms, in int: h and pi are scaled by their common denominators, which
    changes no ratio {x_j, h} / h."""
    if h.is_zero:
        raise ValueError("the zero polynomial is not a semi-invariant")
    if h.n != pi.n:
        raise ValueError(f"ring dimension mismatch: {h.n} vs {pi.n}")
    return _weight(_int_partials(h), pi)


def _int_partials(h: Polynomial):
    """(scaled, partials): h scaled to int by its common denominator, and
    the term maps of the n partial derivatives of that, from one pass.  The
    same partials serve the bracket {x_j, h} and analysis.regularity's
    Jacobian."""
    _, (terms,) = _integral_terms([h])
    partials = _partials(terms, h.n)
    return Polynomial._raw(h.n, terms), [partials.get(l, {}) for l in range(h.n)]


def _weight(h_partials, pi: MultiVector):
    """semi_invariant_weight of a nonzero h of pi's ring, from _int_partials(h)."""
    h, partials = h_partials
    n = pi.n
    # pi's int term maps and their denominator, from its one Pfaffian engine
    engine = pi._engine
    degree = engine.top + h.degree()
    rows = [{} for _ in range(n)]
    for (a, b), t in engine.a.items():
        _accumulate(rows[a], t, partials[b], False, n, degree)
        _accumulate(rows[b], t, partials[a], True, n, degree)
    out = []
    for row in rows:
        br = {m: c for m, c in row.items() if c}      # d * {x_j, h}, d = engine.d, h scaled to int
        lam = _ratio(Polynomial._raw(n, br), h) if br else _ZERO
        if lam is None:
            return None
        out.append(lam / engine.d if br else _ZERO)
    return out


def _trace_dual_generic_matrix(L: LieAlgebra):
    """(D, Y = D X) for X = sum_j x_j M_j^dual, tr(M_i^dual M_j) = delta_ij, and
    an int D > 0 making Y int; the Gram matrix T is read as d T^-1 (_int_inverse)."""
    if L.matrices is None:
        raise ValueError("algebra has no matrix realization")
    n = L.n
    m = len(L.matrices[0])
    # at[r, s]: the pairs (i, M_i[r][s]) with M_i[r][s] != 0
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
    pivots, d, Tinv = _int_inverse(T)
    if pivots[-1] >= n:
        raise ValueError("matrix is singular")
    # the dual of M_j is sum_i Tinv[i][j] M_i / d, so d X[r][s] has
    # coefficient sum_i Tinv[i][j] M_i[r][s] at x_j
    coeffs = {}
    for rs, here in at.items():
        row = coeffs[rs] = {}
        for i, x in here:
            for j, c in enumerate(Tinv[i]):
                if c:
                    row[j] = row.get(j, 0) + c * x
    e = math.lcm(*(c.denominator for row in coeffs.values() for c in row.values()))
    Y = [[Polynomial.zero(n)] * m for _ in range(m)]
    for (r, s), row in coeffs.items():
        Y[r][s] = Polynomial.linear(n, {j: int(c * e) for j, c in row.items()} if e > 1 else row)
    return d * e, Y


def char_invariants(L: LieAlgebra) -> GeneratorSet:
    """Generators of the Poisson centre for a built-in sl/so/sp algebra,
    proved Casimirs of L's bivector (_Casimirs).  When from_matrices built L,
    X spans L, tr(X M_i) = x_i and {x_j, x_i} = tr(X [M_j, M_i]) = tr([X, M_j]
    M_i), so {x_j, F} = d/ds F((1 - sZ) X (1 + sZ)) at s = 0, Z = M_j.  That
    keeps det(lambda - X), so each principal-minor sum, rescaled or not.
    pfaffian checks SX skew, so SZ is; S (1 - sZ) X (1 + sZ) = A SX A^T for
    A = 1 - sSZS: Pf gains det A = 1 - s tr(S SZ) + O(s^2), S SZ has trace 0.
    The engine reads the int Y = D X: e_k(Y) = D^k e_k(X) and Pf(SY) =
    D^l Pf(SX) are divided once; SY is skew exactly when SX is, as D > 0.
    On a hand-built L the normalisation checks each F instead.  It proves
    A = B at a nilpotent point, and the list is marked again (_Casimirs)
    once F_1 is scaled: every set returned is proved."""
    if L.family is None:
        raise ValueError("char_invariants needs a classical family tag")
    kind, size = L.family
    if kind not in ("sl", "sp", "so"):
        raise ValueError(f"unsupported family {kind!r}")
    D, Y = _trace_dual_generic_matrix(L)
    # sl: minors of every degree >= 2; sp, so: the even ones, except that
    # so(2l) has the Pfaffian in place of the degree-2l minor
    pf = kind == "so" and size % 2 == 0
    minor_sum = _principal_minor_sums(Y)
    gens = [minor_sum(d) for d in range(2, size - 1 if pf else size + 1, 1 if kind == "sl" else 2)]
    if pf:
        # S @ Y, S the anti-diagonal identity, is skew on the so realization
        gens.append(pfaffian(Y[::-1]))
    gens = [Polynomial._collect(L.n, g.terms, D ** g.degree()) for g in gens]
    gens.sort(key=lambda g: g.degree())
    gens = _Casimirs(L.bivector, gens) if L._commutator else gens
    scale = _normalize_to_regularity(L, gens)
    return GeneratorSet(algebra=L, gens=_Casimirs(L.bivector, gens), normalization=scale)


def _regularity_minor(pi: MultiVector, gens, index_set):
    """(A_I, B_I): the coefficients at the index set I of both sides of
    dF_1^...^dF_l / omega = wedge^k pi, k = (n - l)/2, built from minors:
    A_I = sgn(J, I) det(dF_i/dx_j, j in J) for J the complement of I (1 when
    l = 0), and B_I = k! Pf(pi_I)."""
    n = pi.n
    complement = tuple(j for j in range(n) if j not in index_set)
    B = wedge_power_coefficient(pi, index_set)
    A = (poly_det_cofactor([[g.diff(j) for j in complement] for g in gens])
         if gens else Polynomial.const(n, 1))
    if shuffle_sign(complement, index_set) < 0:
        A = -A
    return A, B


def _pivot_point(pi: MultiVector, ell: int):
    """(I, x0): the pivots I of pi's matrix at the first seeded point x0
    (point_ranks) of rank n - l, or None; regularity's proof stands on it,
    and a second read is a memo hit."""
    return next(((pivots, point) for rank, pivots, point in point_ranks(pi)
                 if rank == pi.n - ell), None)


def _nilpotent_point(L: LieAlgebra):
    """xi_j = tr(Y M_j) for _upper's Y: a nilpotent point for classical L."""
    return tuple(sum(c * M[s][r] for (r, s), c in _upper(len(M))) for M in L.matrices)


@functools.lru_cache(maxsize=None)
def _upper(m: int) -> tuple:
    """((r, s), Y_rs), r < s, of a seeded int Y, its entries distinct and > 0."""
    pairs = [(r, s) for r in range(m) for s in range(r + 1, m)]
    return tuple(zip(pairs, random.Random(20240917).sample(range(1, m * m), len(pairs))))


def _perfect(L: LieAlgebra) -> bool:
    """Whether each basis vector is a multiple of one bracket, so [L, L] = L."""
    return len({next(iter(row)) for row in L.brackets.values() if len(row) == 1}) == L.n


def _normalize_to_regularity(L: LieAlgebra, gens) -> Fraction:
    """Rescale the first generator so dF_1^...^dF_l / omega equals the wedge power.

    A = c B is Kostant's theorem; F_1 is scaled by 1/c = B_I(xi) / A_I(xi)
    at xi = _nilpotent_point(L), k = (n - l)/2, once (b) rank pi(xi) = n - l,
    with pivots I; each F is a Casimir of pi, proved (_Casimirs) or checked
    as in analysis.regularity; (a) sum(deg F_i - 1) = k; (c) A_I(xi) != 0;
    (b') xi is in im pi(xi); (d) [L, L] = L.  A failed step raises, in that
    order.  Proof: (b), (c) close regularity's proof at xi, so l is the
    index and A = (A_I / B_I) B with B_I(xi) != 0.  (1) For c = q2 / q1 in
    lowest terms, q1 | B_J for all J, so q1 | p = content(wedge^k pi) (Ooms
    and Van den Bergh, J. Algebra 323 (2010)).  (2) Hamiltonian fields keep
    pi, so X_j(p) = lambda_j p for a character lambda, 0 by (d): p is a
    Casimir.  (3) A Casimir q homogeneous of degree e has grad q(xi) in
    ker pi(xi), orthogonal to im pi(xi), which holds xi by (b'): e q(xi) =
    grad q(xi) . xi = 0.  (4) p(xi) != 0 as B_I(xi) != 0, so p = 1, q1 is a
    unit, and deg A <= sum(deg F_i - 1) = deg B makes q2 a number.
    V's partials are of the F_i scaled to int by d (_integral_terms): s holds d.
    """
    pi = lie_poisson_bivector(L)
    n, ell, k = L.n, len(gens), (L.n - len(gens)) // 2
    # [pi(xi) | xi], pi(xi)_ij = sum_t c_ij^t xi_t off the bracket table
    xi = _nilpotent_point(L)
    aug = [[0] * n + [x] for x in xi]
    for (i, j), row in L.brackets.items():
        aug[i][j] = v = sum(c * xi[t] for t, c in row.items())
        aug[j][i] = -v
    _, pivots = _echelon(aug)
    outside = pivots[-1:] == [n]                        # xi's own column is a pivot
    pivots = pivots[:len(pivots) - outside]
    if len(pivots) != n - ell:                                          # (b)
        raise ValueError("degenerate generator set")
    cols = [j for j in range(n) if j not in pivots]
    dg, maps = _integral_terms(gens)
    values, s = _scaled_values([Polynomial._raw(n, ps.get(j, {})) for ps in
                                (_partials(t, n, cols) for t in maps) for j in cols], xi)
    s *= dg                                     # values = s (dF_i/dx_j)(xi), int
    # det V, V = s (dF_i/dx_j)(xi) for j in J, is +-Pf([[0, V], [-V^T, 0]])
    block = [[0] * ell + values[i * ell:i * ell + ell] for i in range(ell)]
    block += [[-values[i * ell + j] for i in range(ell)] + [0] * ell for j in range(ell)]
    det = _int_pfaffian(block) * (-1 if ell // 2 % 2 else 1)
    if (not det or sum(F.degree() - 1 for F in gens) != k                 # (c), (a)
            or _casimirs_of(gens) is not pi
            and any(_weight(_int_partials(F), pi) != [0] * n for F in gens)):
        raise ValueError("generator differentials are not proportional to the wedge power")
    if outside or not _perfect(L):                                      # (b'), (d)
        raise ValueError("no nilpotent-point certificate: xi outside im pi(xi), "
                         "or [L, L] = L not shown")
    # A_I(xi) = sgn(J, I) det / s^l and B_I(xi) = k! Pf(d pi_I(xi)) / d^k
    block = [[aug[i][j] for j in pivots] for i in pivots]
    d = math.lcm(*(x.denominator for row in block for x in row))
    pf = _int_pfaffian([[int(d * x) for x in row] for row in block])
    scale = Fraction(shuffle_sign(tuple(cols), tuple(pivots)) * math.factorial(k) * pf * s ** ell,
                     det * d ** k)
    gens[0] = gens[0] * scale
    return scale


def _exponents(degs, target):
    """The tuples e with sum(d * x) == target, in lexicographic order: each
    exponent's range is bounded by the degree still left, and a tuple is
    built only once its degree is met."""
    if not degs:
        return [()] if target == 0 else []
    return [(x,) + rest for x in range(target // degs[0] + 1)
            for rest in _exponents(degs[1:], target - degs[0] * x)]


def membership_linear(h: Polynomial, gens: Sequence[Polynomial],
                      profile: tuple | None = None):
    """Write h as a polynomial in the given homogeneous generators.

    The candidate monomials in the generators are those whose composed total
    degree matches deg h; when profile = (aux degrees, target) is given, the
    composed auxiliary degree must match as well.  Returns the combination as
    a Polynomial in len(gens) variables, or None when no combination exists.
    """
    if h.is_zero:
        raise ValueError("membership of the zero polynomial is trivial")
    if not h.is_homogeneous() or any(not g.is_homogeneous() for g in gens):
        raise ValueError("membership needs homogeneous input and generators")
    degs = [g.degree() for g in gens]
    if any(d <= 0 for d in degs):
        raise ValueError("generators must be nonconstant")
    target = h.degree()
    exposants = [e for e in _exponents(degs, target)
                 if profile is None or sum(a * x for a, x in zip(profile[0], e)) == profile[1]]
    if not exposants:
        return None
    products = []
    for e in exposants:
        prod = Polynomial.const(h.n, 1)
        for g, x in zip(gens, e):
            if x:
                prod = prod * g ** x
        products.append(prod)
    monomials = set(h.terms)
    for prod in products:
        monomials.update(prod.terms)
    monomials = sorted(monomials)
    columns = [[prod.terms.get(m, _ZERO) for m in monomials] for prod in products]
    targetv = [h.terms.get(m, _ZERO) for m in monomials]
    sol = solve_exact(columns, targetv)
    if sol is None:
        return None
    return Polynomial(len(gens), {tuple((i, x) for i, x in enumerate(e) if x): c
                                  for e, c in zip(exposants, sol)})


def t_degree_reduction(gens: GeneratorSet, w: ContractionWeights) -> GeneratorSet:
    """Lower the t-degrees by subtracting polynomial combinations of the others.

    A generator is replaced by itself minus P(other generators) whenever its
    highest component equals P evaluated on the others' highest components
    with a matching degree and t-degree budget.  Each substitution is
    triangular and invertible, so the new set generates the same centre; the
    total t-degree strictly drops, so the loop terminates.  A proved set
    (_Casimirs) stays one: F_j - P(others) is a polynomial in Casimirs.
    It is one int composition (poly_compose) of y_j - P(y_others) at F.  The
    list returned carries each one's (t-degree, top) at w (_Casimirs.graded).
    """
    current = list(gens.gens)
    graded = [t_degree(g, w) for g in current]      # (t-degree, top) of each, kept
    order = sorted(range(k := len(current)), key=lambda i: current[i].degree())
    changed = True
    while changed:
        changed = False
        for j in order:
            others = [i for i in order if i != j]
            dj, topj = graded[j]
            P = membership_linear(topj, [graded[i][1] for i in others],
                                  profile=([graded[i][0] for i in others], dj))
            if P is None or P.is_zero:
                continue
            Q = Polynomial.variable(k, j) - poly_rename(P, dict(enumerate(others)), k)
            replacement = poly_compose(Q, current)
            if replacement.is_zero:
                raise ValueError("reduction annihilated a generator; set is dependent")
            graded[j] = t_degree(replacement, w)
            if graded[j][0] >= dj:
                raise AssertionError("reduction did not lower the t-degree")
            current[j] = replacement
            changed = True
    current = _Casimirs(_casimirs_of(gens.gens), current, (w.weights, tuple(graded)))
    return GeneratorSet(algebra=gens.algebra, gens=current,
                        normalization=gens.normalization)
