"""Multivectors and differential forms with polynomial coefficients.

Both live over the same index machinery: a degree-k element maps strictly
increasing index tuples of length k to Polynomial coefficients.  MultiVector
holds wedge products of coordinate derivations, Form holds wedge products of
coordinate differentials; the two kinds never mix in a wedge.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

from .linalg import _echelon, _Pfaffians
from .polyring import Polynomial, _accumulate, _div, _integral_terms, _partials, _scaled_values


def _merge_signed(a: tuple, b: tuple):
    """Merge two disjoint sorted index tuples; returns (merged, sign)."""
    # each entry of b jumps over the entries of a above it
    la = len(a)
    inv = 0
    for x in b:
        inv += la - bisect_right(a, x)
    return tuple(sorted(a + b)), -1 if inv & 1 else 1


def shuffle_sign(front: tuple, back: tuple) -> int:
    """Sign of the permutation sorting the concatenation front + back."""
    _, s = _merge_signed(front, back)
    return s


class MultiVector:
    """Degree-k alternating tensor of derivations with Polynomial coefficients."""

    __slots__ = ("n", "degree", "terms", "__dict__")

    def __init__(self, n: int, degree: int, terms=None):
        if not 0 <= degree <= n:
            raise ValueError(f"degree {degree} out of range for n={n}")
        self.n = n
        self.degree = degree
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for idx, p in items:
                idx = tuple(idx)
                if len(idx) != degree or any(i >= n or i < 0 for i in idx):
                    raise ValueError(f"bad index set {idx} for degree {degree}, n={n}")
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"index set {idx} must be strictly increasing")
                if not isinstance(p, Polynomial):
                    p = Polynomial.const(n, p)
                if not p.is_zero:
                    clean[idx] = clean[idx] + p if idx in clean else p
        self.terms = {k: v for k, v in clean.items() if not v.is_zero}

    @classmethod
    def _raw(cls, n, degree, terms):
        mv = object.__new__(cls)
        mv.n = n
        mv.degree = degree
        mv.terms = terms
        return mv

    @classmethod
    def unit(cls, n: int):
        """The scalar 1 viewed in degree 0."""
        return cls._raw(n, 0, {(): Polynomial.const(n, 1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @functools.cached_property
    def generic_rank(self):
        """(2k, I): the rank of this bivector pi's matrix over the field of
        rational functions, and an index set I of that size with
        Pf(pi_I) != 0; computed on first read and kept.

        Start: pi has rank r at the first seeded point (point_ranks) with
        pivots I, |I| = r, so pi_II is invertible there and Pf(pi_I) != 0.
        Climb: while pi_II is invertible, pi = [[pi_II, B], [-B^T, C]] has
        rank |I| + rank S for the skew Schur complement
        S = C + B^T pi_II^-1 B, and Pf(pi_{I+{j,m}}) = +-Pf(pi_I) S_jm for j,
        m outside I.  So rank pi = |I| exactly when all C(n - |I|, 2) of
        those Pfaffians vanish; otherwise one is nonzero and I grows by its
        pair.  Every Pfaffian comes from pi's one memoised engine.  The memo
        is set by one assignment, so threads sharing pi can at worst compute
        it twice.
        """
        pf = self._engine
        r, pivots, _ = next(point_ranks(self))
        if len(pivots) != r or not pf.terms(pivots):
            raise AssertionError("wedge-power rank disagrees with point evaluation")
        rows = set(pivots)
        while pair := next((jm for jm in itertools.combinations(
                sorted(set(range(self.n)) - rows), 2)
                if pf.terms(tuple(sorted(rows.union(jm))))), None):
            rows.update(pair)
        return len(rows), tuple(sorted(rows))

    @functools.cached_property
    def top_power(self):
        """(k, wedge^k pi) for the last nonzero wedge power of this bivector pi,
        computed on first read and kept.

        The coefficient of wedge^j pi at an index set I of size 2j is
        j! Pf(pi_I), so k is half of generic_rank, which proves it.  Each
        coefficient is read off pi's one engine, at every I of size 2k among
        the rows pi's support meets: a row outside it is zero, so no nonzero
        Pfaffian meets it.
        """
        k = self.generic_rank[0] // 2
        pf = self._engine
        rows = sorted({i for ij in self.terms for i in ij})
        out = {}
        for idx in itertools.combinations(rows, 2 * k):
            if t := pf.terms(idx):
                out[idx] = _power_coefficient(self.n, t, k, pf.d)
        return k, MultiVector._raw(self.n, 2 * k, out)

    @functools.cached_property
    def _engine(self) -> _Pfaffians:
        """The one memoised Pfaffian engine on this bivector's matrix."""
        if self.degree != 2:
            raise ValueError("wedge powers need a bivector")
        return _Pfaffians(self.terms, self.n)

    @functools.cached_property
    def _ranks(self) -> dict:
        """point_ranks' kept triples, by seeded point."""
        return {}

    def coefficient(self, idx) -> Polynomial:
        return self.terms.get(tuple(idx), Polynomial.zero(self.n))

    def scale(self, factor) -> "MultiVector":
        if isinstance(factor, Polynomial):
            out = {}
            for idx, p in self.terms.items():
                q = p * factor
                if not q.is_zero:
                    out[idx] = q
            return type(self)._raw(self.n, self.degree, out)
        c = Fraction(factor)
        if not c:
            return type(self)._raw(self.n, self.degree, {})
        return type(self)._raw(self.n, self.degree,
                               {idx: p * c for idx, p in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("mismatched degree or ring dimension")
        out = dict(self.terms)
        for idx, p in other.terms.items():
            q = out.get(idx)
            q = p if q is None else q + p
            if q.is_zero:
                out.pop(idx, None)
            else:
                out[idx] = q
        return type(self)._raw(self.n, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.degree, self.terms) == (other.n, other.degree, other.terms)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, k={self.degree}, {len(self.terms)} terms)"

    def to_pairs(self, names):
        """Serialization: (index-set, polynomial string) pairs in lex index order."""
        from .polyring import poly_to_str
        out = []
        for idx in sorted(self.terms):
            out.append(("^".join(names[i] for i in idx) if idx else "1",
                        poly_to_str(self.terms[idx], names)))
        return out


class Form(MultiVector):
    """Degree-k differential form with Polynomial coefficients."""


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product of two elements of the same kind.

    Each operand's common denominator is pulled out first, so the products
    run in int arithmetic and the result is divided once per coefficient.
    """
    if type(a) is not type(b):
        raise TypeError(f"cannot wedge {type(a).__name__} with {type(b).__name__}")
    if a.n != b.n:
        raise ValueError("ring dimension mismatch")
    k = a.degree + b.degree
    if k > a.n:
        raise ValueError(f"wedge degree {k} exceeds dimension {a.n}")
    n = a.n
    acc: dict = {}
    da, a_maps = _integral_terms(a.terms.values())
    db, b_maps = _integral_terms(b.terms.values())
    b_items = [(idx, frozenset(idx), tb) for idx, tb in zip(b.terms, b_maps)]
    for ia, ta in zip(a.terms, a_maps):
        sa = frozenset(ia)
        for ib, sb, tb in b_items:
            if sa & sb:
                continue
            merged, sign = _merge_signed(ia, ib)
            bucket = acc.get(merged)
            if bucket is None:
                bucket = acc[merged] = {}
            _accumulate(bucket, ta, tb, sign < 0, n)
    out = {}
    for idx, bucket in acc.items():
        p = Polynomial._collect(n, bucket, da * db)
        if p:
            out[idx] = p
    return type(a)._raw(n, k, out)


def wedge_power(pi: MultiVector, k: int) -> MultiVector:
    """k-fold wedge of a bivector with itself, computed afresh each call."""
    if pi.degree != 2:
        raise ValueError("wedge powers need a bivector")
    if k < 0:
        raise ValueError("negative wedge power")
    if 2 * k > pi.n:
        raise ValueError(f"wedge power 2k={2 * k} exceeds dimension {pi.n}")
    power = MultiVector.unit(pi.n)
    for j in range(k):
        power = pi if j == 0 else wedge(power, pi)
        if power.is_zero:
            return type(pi)._raw(pi.n, 2 * k, {})
    return power


def differential(p: Polynomial) -> Form:
    """The 1-form dF = sum_i (dF/dx_i) dx_i, its partials from one pass."""
    partials = _partials(p.terms, p.n)
    return Form._raw(p.n, 1, {(i,): Polynomial._raw(p.n, partials[i]) for i in sorted(partials)})


def point_ranks(pi: MultiVector):
    """(rank, pivot columns, point) of pi's matrix at each of three seeded
    rational points, the same on every call, evaluated only as far as the
    caller iterates.  Each triple is reduced once per bivector and kept in
    its _ranks dict; threads sharing pi can at worst reduce one twice.

    Each rank is a lower bound on the rank of pi at a generic point.  The
    pivot columns I index a nonsingular principal minor: when columns I span
    the column space of a skew matrix M, so do rows I, and M_II is invertible.
    """
    kept = pi._ranks
    for t, point in enumerate(_seeded_points(pi.n)):
        if t not in kept:
            _, pivots = _echelon(_scaled_matrix_at(pi, point)[0])
            kept[t] = len(pivots), tuple(pivots), point
        yield kept[t]


@functools.lru_cache(maxsize=None)
def _seeded_points(n: int) -> tuple:
    """The three seeded rational points of point_ranks in dimension n, drawn
    once per n; tuples, so sharing them is safe."""
    rng = random.Random(20240917)
    return tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
                 for _ in range(3))


def wedge_power_coefficient(pi: MultiVector, idx) -> Polynomial:
    """The coefficient of wedge^k pi at the index set idx (|idx| = 2k), read
    off pi's one engine as k! Pf(pi_idx) without building the power."""
    idx = tuple(idx)
    if len(idx) % 2:
        raise ValueError("a wedge power of a bivector has even degree")
    if list(idx) != sorted(set(idx)) or not all(0 <= i < pi.n for i in idx):
        raise ValueError(f"bad index set {idx} for n={pi.n}")
    pf = pi._engine
    return _power_coefficient(pi.n, pf.terms(idx), len(idx) // 2, pf.d)


def _power_coefficient(n: int, t: dict, k: int, d: int) -> Polynomial:
    """k! Pf(pi_I), the coefficient of wedge^k pi at an I of size 2k, read in
    one pass off t = d^k Pf(pi_I), the engine's int term map with no zeros."""
    f, dk = math.factorial(k), d ** k
    if dk == 1:
        return Polynomial._raw(n, {m: c * f for m, c in t.items()})
    return Polynomial._raw(n, {m: _div(c * f, dk) for m, c in t.items()})


def _scaled_matrix_at(pi: MultiVector, point):
    """(scale * M, scale): the bivector's matrix M at a rational point times
    one positive int scale, every entry an int (polyring._scaled_values)."""
    n = pi.n
    mat = [[0] * n for _ in range(n)]
    values, scale = _scaled_values(pi.terms.values(), point)
    for (i, j), v in zip(pi.terms, values):
        if v:
            mat[i][j] = v
            mat[j][i] = -v
    return mat, scale


def schouten_square(pi: MultiVector) -> MultiVector:
    """The trivector [pi, pi] in coordinates; zero exactly when pi is Poisson,
    as every pi is when n < 3, where there is no triple.

    Coefficient at i<j<k:
        sum_l  pi_{li} d_l pi_{jk} - pi_{lj} d_l pi_{ik} + pi_{lk} d_l pi_{ij}

    Each product pi_{la} d_l pi_{bc} lands at the sorted triple of a, b, c,
    negated when a sorts in the middle.  It runs on pi's int term maps,
    scaled by their common denominator d; each coefficient is divided by d^2.
    """
    n = pi.n
    d, maps = _integral_terms(pi.terms.values())
    # every product has total degree at most 2 deg pi - 1, bounded once here
    degree = 2 * max((p.degree() for p in pi.terms.values()), default=0) - 1
    # row[l]: (a, t, negative) for each entry pi_{la} = -t if negative else t;
    # grad[l]: (b, c, d_l pi_{bc}) for b < c
    row, grad = {}, {}
    for (b, c), t in zip(pi.terms, maps):
        row.setdefault(b, []).append((c, t, False))
        row.setdefault(c, []).append((b, t, True))
        for l, tl in _partials(t, n).items():
            grad.setdefault(l, []).append((b, c, tl))
    acc: dict = {}
    for l, grads in sorted(grad.items()):
        for a, ta, negative in row.get(l, ()):
            for b, c, tb in grads:
                if a == b or a == c:
                    continue
                middle = b < a < c
                idx = (b, a, c) if middle else (a, b, c) if a < b else (b, c, a)
                _accumulate(acc.setdefault(idx, {}), ta, tb, negative != middle, n, degree)
    return MultiVector._raw(n, 3, {idx: Polynomial._collect(n, acc[idx], d * d)
                                   for idx in sorted(acc) if any(acc[idx].values())})


def pfaffian(matrix):
    """Pfaffian of an antisymmetric even-size matrix of numbers or
    Polynomials, from the memoised int engine linalg._Pfaffians; 1 when
    the matrix is empty."""
    m = len(matrix)
    if m % 2:
        raise ValueError("Pfaffian needs even size")
    for i in range(m):
        if len(matrix[i]) != m:
            raise ValueError("matrix must be square")
        if matrix[i][i]:
            raise ValueError("matrix is not antisymmetric (nonzero diagonal)")
        for j in range(i + 1, m):
            if matrix[i][j] != -matrix[j][i]:
                raise ValueError(f"matrix is not antisymmetric at ({i},{j})")
    return _Pfaffians.of_matrix(matrix)([tuple(range(m))])
