"""One-parameter contractions of polynomial Poisson bivectors.

A contraction is driven by a nonnegative integer weight per coordinate.  The
family of automorphisms scales x_i by t^{w_i}; pulling the bivector back
gives, for a monomial M in the coefficient at the pair (i, j), the t-power

    w_i + w_j - (weighted degree of M).

This is an integer grading of the bivector: the deformed bivector pi_t is
kept as {t-power: part}.  The contraction is valid when no power is
negative, and the limit is the grade-0 part.
"""

from __future__ import annotations

from ._record import Frozen, Record
from .exterior import MultiVector
from .lie import LieAlgebra, lie_poisson_bivector
from .polyring import Polynomial, _graded


class ContractionWeights(Frozen):
    """Nonnegative integer weight per basis vector."""

    def __init__(self, weights: tuple):
        for i, w in enumerate(weights):
            try:
                ok = w >= 0 and w == int(w)
            except (TypeError, ValueError, OverflowError):      # a str, None, inf
                ok = False
            if not ok:
                raise ValueError(f"weight {w!r} at position {i} is not a nonnegative integer")
        self.__dict__["weights"] = tuple(int(w) for w in weights)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    @property
    def total(self) -> int:
        """Degree in t of the determinant of the scaling map."""
        return sum(self.weights)


class ContractionResult(Record):
    def __init__(self, pi_t: dict, valid: bool, weights: ContractionWeights,
                 original: MultiVector, pi_tilde: MultiVector | None = None,
                 offending: tuple | None = None, contracted: LieAlgebra | None = None):
        # pi_t: t-power -> MultiVector part; offending: (index pair, most
        # negative t-power); contracted: read off pi_tilde when linear
        self._set(locals())


def contract(pi: MultiVector, w: ContractionWeights, labels=None) -> ContractionResult:
    """Pull the bivector back along the weight scaling and take the t -> 0 limit."""
    if pi.degree != 2:
        raise ValueError("contract expects a bivector")
    ws = w.weights
    parts, top = _graded(pi.n, pi.terms.values(), ws)
    grades: dict = {}
    offending = None        # the first pair in index order with a negative power, at its lowest
    for idx, by_degree in zip(pi.terms, parts):
        shift = ws[idx[0]] + ws[idx[1]]
        for d, part in by_degree.items():
            k = shift - d
            grades.setdefault(k, {})[idx] = part
            if k < 0 and (offending is None or (idx, k) < offending):
                offending = (idx, k)
    pi_t = {k: MultiVector._raw(pi.n, 2, terms) for k, terms in grades.items()}
    if offending:
        return ContractionResult(pi_t=pi_t, valid=False, weights=w, original=pi,
                                 offending=offending)
    tilde = pi_t.get(0, MultiVector._raw(pi.n, 2, {}))
    contracted = None
    # a Lie algebra needs linear rows; an affine pi may keep a constant in its limit
    brackets = {idx: p.linear_coefficients() for idx, p in tilde.terms.items()}
    if top <= 1 and None not in brackets.values():
        use_labels = list(labels) if labels is not None else [f"x{i}" for i in range(pi.n)]
        # the limit keeps tilde as its bivector, so it has one top wedge power
        contracted = LieAlgebra._with_bivector(use_labels, brackets, tilde)
    return ContractionResult(pi_t=pi_t, valid=True, weights=w, original=pi,
                             pi_tilde=tilde, contracted=contracted)


def contract_algebra(L: LieAlgebra, w: ContractionWeights) -> ContractionResult:
    """Contraction of a Lie algebra through its Lie-Poisson bivector."""
    return contract(lie_poisson_bivector(L), w, labels=L.labels)


def t_degree(h: Polynomial, w: ContractionWeights):
    """(degree in t, highest component) of h under the weight scaling x -> t^w x."""
    if h.is_zero:
        raise ValueError("t-degree of the zero polynomial is undefined")
    parts = _graded(h.n, [h], w.weights)[0][0]
    d = max(parts)
    return d, parts[d]

