"""Constructions of the classical algebras sl, so, sp and the symmetric pairs.

so_m is realized as matrices skew-symmetric about the anti-diagonal and
sp_2n via the skew form with anti-diagonal blocks, so that in every case the
Borel subalgebra consists of upper triangular matrices.  A family builder
lists only its positive root vectors and a Cartan basis; _chevalley derives
the rest from those matrices: every root's simple-root coefficients, the f
matrices, the highest root and its marks.  Root vectors are labeled by the
expansion of their root in simple roots: e12 sits at the root a1 + a2, e112
at 2*a1 + a2, and so on.

The symmetric pairs form one table, _PAIRS: a row keyed by the pair id holds
the parent builder, an involution on the parent's matrices and the Cartan
subspace as sums of basis labels.  symmetric_pair validates every row on
construction.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul

from ._record import Record
from .contract import ContractionWeights
from .lie import LieAlgebra, RootData, centralizer_in_span, from_matrices, subalgebra_from_vectors
from .linalg import identity_matrix, mat_mul, rational_rank, zero_matrix

BUILTIN_ALGEBRAS = ("sl2", "sl3", "sl4", "sp4", "so4", "so5", "so6")
FEIGIN_ALGEBRAS = ("sl2", "sl3", "sl4", "sp4", "so5", "so6")


def _unit(m, i, j):
    M = zero_matrix(m)
    M[i][j] = 1
    return M


def _add(*mats):
    m = len(mats[0])
    out = zero_matrix(m)
    for M in mats:
        for i in range(m):
            for j in range(m):
                if M[i][j]:
                    out[i][j] += M[i][j]
    return out


def _neg(M):
    return [[-x for x in row] for row in M]


def _scale(M, c):
    return [[c * x for x in row] for row in M]


def _root_label(prefix: str, coeffs) -> str:
    return prefix + "".join(str(i + 1) * c for i, c in enumerate(coeffs))


def _value(h, E, r, c):
    """The value at h of E's root, read at E's nonzero entry (r, c): [h, E] = value * E."""
    return sum(h[r][k] * E[k][c] - E[r][k] * h[k][c] for k in range(len(E))) // E[r][c]


def _transpose_bracket(E):
    """[E, E^T] from E's nonzero entries."""
    nz = [(i, j, x) for i, row in enumerate(E) for j, x in enumerate(row) if x]
    H = zero_matrix(len(E))
    for i, j, x in nz:
        for k, l, y in nz:
            if j == l:
                H[i][k] += x * y
            if i == k:
                H[j][l] -= x * y
    return H


def _chevalley(name, emats, cartans):
    """(matrices, labels, root data) of the basis made of the positive root
    vectors emats, the Cartan basis cartans and the matching negative root
    vectors, in Chevalley order.

    Each root is read as its values on the h's, at its vector's first nonzero
    entry.  The simple roots are the positive roots that are no sum of two,
    ordered by that entry; every other root's simple-root coefficients come
    from adding simple roots one height at a time.  f is E^T scaled so that
    the root takes 2 on [E, f].  The unique root of greatest height, when all
    its coefficients are nonzero, is the highest root and gives the marks.
    """
    rank = len(cartans)
    firsts = [next((r, c) for r, row in enumerate(E) for c, x in enumerate(row) if x)
              for E in emats]
    roots = [tuple(_value(h, E, r, c) for h in cartans) for E, (r, c) in zip(emats, firsts)]
    where = {a: k for k, a in enumerate(roots)}
    sums = {tuple(map(add, a, b)) for a in roots for b in roots}
    simple = sorted((k for k, a in enumerate(roots) if a not in sums), key=firsts.__getitem__)
    coeffs = {k: tuple(int(t == i) for t in range(rank)) for i, k in enumerate(simple)}
    level = simple
    while level:
        up = []
        for k in level:
            for i, s in enumerate(simple):
                j = where.get(tuple(map(add, roots[k], roots[s])))
                if j is not None and j not in coeffs:
                    coeffs[j] = tuple(c + (t == i) for t, c in enumerate(coeffs[k]))
                    up.append(j)
        level = up
    if len(simple) != rank or len(coeffs) != len(roots):
        raise ValueError(f"{name}: the root vectors are not a positive system for the Cartan basis")
    # by height, then left-heavy coefficient order
    order = sorted(coeffs, key=lambda k: (sum(coeffs[k]), tuple(-c for c in coeffs[k])))
    fmats = []
    for k in order:
        E, (r, c) = emats[k], firsts[k]
        v = _value(_transpose_bracket(E), E, r, c)
        if 2 % v:
            raise ValueError(f"{name}: f of a root vector needs a non-integral scale of E^T")
        fmats.append([[2 // v * x for x in col] for col in zip(*E)])
    npos = len(order)
    labels = ([_root_label("e", coeffs[k]) for k in order] + [f"h{i + 1}" for i in range(rank)]
              + [_root_label("f", coeffs[k]) for k in order])
    if name == "sl2":
        labels = ["e", "h", "f"]
    slot = {k: p for p, k in enumerate(order)}
    heights = [sum(coeffs[k]) for k in order]
    top = coeffs[order[-1]]
    marks = top if heights.count(heights[-1]) == 1 and all(top) else None
    rd = RootData(rank=rank, simple_e=tuple(slot[k] for k in simple),
                  simple_f=tuple(npos + rank + slot[k] for k in simple),
                  cartan=tuple(range(npos, npos + rank)), positive=tuple(range(npos)),
                  negative=tuple(range(npos + rank, 2 * npos + rank)),
                  highest=None if marks is None else npos - 1, marks=marks)
    return [emats[k] for k in order] + list(cartans) + fmats, labels, rd


def _assemble(name, family, emats, cartans):
    """The algebra of _chevalley's basis, with its root data."""
    mats, labels, rd = _chevalley(name, emats, cartans)
    return from_matrices(mats, labels=labels, root_data=rd, name=name, family=family)


def _build_sl(nn: int) -> LieAlgebra:
    emats = [_unit(nn, i, j) for i in range(nn) for j in range(i + 1, nn)]
    cartans = [_add(_unit(nn, i, i), _neg(_unit(nn, i + 1, i + 1))) for i in range(nn - 1)]
    return _assemble(f"sl{nn}", ("sl", nn), emats, cartans)


def _build_so(m: int) -> LieAlgebra:
    rank = m // 2

    def F(i, j):
        # E_ij - E_{j'i'} with k' = m+1-k (1-based); indices here are 0-based
        return _add(_unit(m, i, j), _neg(_unit(m, m - 1 - j, m - 1 - i)))

    # roots e_i - e_j and e_i + e_j for i < j, and e_i when m is odd
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    emats = [F(i, j) for i, j in pairs] + [F(i, m - 1 - j) for i, j in pairs]
    cartans = [_add(F(i, i), _neg(F(i + 1, i + 1))) for i in range(rank - 1)]
    if m % 2:
        emats += [F(i, rank) for i in range(rank)]
        cartans.append(_scale(F(rank - 1, rank - 1), 2))
    else:
        cartans.append(_add(F(rank - 2, rank - 2), F(rank - 1, rank - 1)))
    return _assemble(f"so{m}", ("so", m), emats, cartans)


def _build_sp(m: int) -> LieAlgebra:
    return _assemble(f"sp{m}", ("sp", m), *_sp_roots(m))


def _sp_roots(m: int):
    """The positive root vectors and the Cartan basis of sp_m."""
    nn = m // 2

    def F(i, j):
        # E_ij -+ E_{j'i'} with k' = m+1-k: minus when i and j lie in the same half
        sign = -1 if (i < nn) == (j < nn) else 1
        return _add(_unit(m, i, j), _scale(_unit(m, m - 1 - j, m - 1 - i), sign))

    # roots e_i - e_j and e_i + e_j for i < j, and 2 e_i
    pairs = [(i, j) for i in range(nn) for j in range(i + 1, nn)]
    emats = ([F(i, j) for i, j in pairs] + [F(i, m - 1 - j) for i, j in pairs]
             + [_unit(m, i, m - 1 - i) for i in range(nn)])
    cartans = [_add(F(i, i), _neg(F(i + 1, i + 1))) for i in range(nn - 1)]
    cartans.append(F(nn - 1, nn - 1))
    return emats, cartans


def build_classical(kind: str, size: int) -> LieAlgebra:
    """Build sl(size), so(size) or sp(size) with Chevalley labels and root data.

    Sizes are capped at dimension 15, where every verb is tested and timed.
    Past it, the index is still proved in seconds (sp6, n = 21: about 3 s),
    but the full top wedge power that fsi reads is out of reach.
    """
    if kind == "sl":
        if size < 2 or size * size - 1 > 15:
            raise ValueError(f"unsupported sl size {size}")
        return _build_sl(size)
    if kind == "so":
        if size < 4 or size * (size - 1) // 2 > 15:
            raise ValueError(f"unsupported so size {size}")
        return _build_so(size)
    if kind == "sp":
        if size < 2 or size % 2 or size * (size + 1) // 2 > 15:
            raise ValueError(f"unsupported sp size {size}")
        return _build_sp(size)
    raise ValueError(f"unknown classical type {kind!r}")


def builtin_algebra(name: str) -> LieAlgebra:
    if name not in BUILTIN_ALGEBRAS:
        raise ValueError(f"unknown builtin algebra {name!r}; choose from {BUILTIN_ALGEBRAS}")
    kind, size = name[:2], int(name[2:])
    return build_classical(kind, size)


def borel_decomposition(L: LieAlgebra) -> ContractionWeights:
    """Weights 0 on the Borel part (Cartan and positive roots), 1 on the rest."""
    rd = L.root_data
    if rd is None:
        raise ValueError("algebra has no root data")
    return ContractionWeights(tuple(int(i in rd.negative) for i in range(L.n)))


# ---------------------------------------------------------------------------
# symmetric pairs
# ---------------------------------------------------------------------------

class SymmetricPair(Record):
    """A Z2-graded split of a parent algebra with supplied Cartan subspace."""

    def __init__(self, pair_id: str, parent: LieAlgebra, g0: tuple, g1: tuple,
                 cartan_subspace: list,          # sparse coordinate vectors inside g1
                 centralizer_alg: LieAlgebra,    # l = centralizer of the Cartan subspace in g0
                 weights: ContractionWeights):
        self._set(locals())


def _is_semisimple_matrix(M) -> bool:
    """Whether M, rational, is diagonalisable over C (ranks over Q are over C):
    (1) I, M, ..., M^(m-1), flattened, have rank sum k_i, the degree of the
    minimal polynomial prod_i (t - lambda_i)^(k_i) over the s distinct
    eigenvalues; (2) the Hankel matrix tr(M^(i+j)), i, j < m, is V^T diag(a) V
    for V_li = lambda_l^i, of rank s (Vandermonde, s <= m), and multiplicities
    a_l > 0, so it has rank s.  They agree iff each k_i = 1: M is diagonalisable."""
    m = len(M)
    powers = list(accumulate([M] * (m - 1), mat_mul, initial=identity_matrix(m)))
    # tr(M^k) = tr(M^a M^b), a + b = k, a, b < m: rows of M^a by columns of M^b
    traces = [sum(sum(map(mul, row, col)) for row, col in zip(
        powers[min(k, m - 1)], zip(*powers[max(k - m + 1, 0)]))) for k in range(2 * m - 1)]
    hankel = [traces[i:i + m] for i in range(m)]
    return rational_rank([sum(P, []) for P in powers]) == rational_rank(hankel)


def is_z2_grading(L: LieAlgebra, g0) -> bool:
    """Whether the basis indices g0 and their complement g1 split L as a
    Z2-grading: [g_a, g_b] lies in g_{a+b} for every bracket of basis vectors."""
    in0 = set(g0)
    return all(((i in in0) == (j in in0)) == (k in in0)
               for (i, j), targets in L.brackets.items() for k in targets)


def _adapted_sl4_basis():
    """Basis of sl4 adapted to the fixed-point subalgebra sp4: sp4's
    Chevalley basis, with no sp4 algebra built, then five spanning g1."""
    sp_mats, sp_labels, _ = _chevalley("sp4", *_sp_roots(4))
    g1_mats = [
        _add(_unit(4, 0, 1), _unit(4, 2, 3)),
        _add(_unit(4, 1, 0), _unit(4, 3, 2)),
        _add(_unit(4, 0, 2), _neg(_unit(4, 1, 3))),
        _add(_unit(4, 2, 0), _neg(_unit(4, 3, 1))),
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    ]
    return from_matrices(sp_mats + g1_mats, labels=sp_labels + [f"v{i + 1}" for i in range(5)],
                         name="sl4_adapted", family=("sl", 4))


def _diagonal(*d):
    """The involution M -> D M D with D = diag(d), d = +-1."""
    def sigma(M):
        return [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(M)]
    return sigma


def _sp4_form(M):
    """The involution M -> J M^T J, J the skew form of sp4: it fixes sp4 in sl4.
    J is g_r at (r, 3 - r), g = (1, 1, -1, -1): entry (r, s) is g_r g_(3-s) M[3-s][3-r]."""
    g = (1, 1, -1, -1)
    return [[g[r] * g[3 - s] * M[3 - s][3 - r] for s in range(4)] for r in range(4)]


# pair id -> (parent builder, involution on the parent's matrices, Cartan
# subspace as sums of basis labels); a new pair is one more row
_PAIRS = {
    "sl2_so2": (lambda: build_classical("sl", 2), _diagonal(1, -1), [("e", "f")]),
    "sp4_sp2sp2": (lambda: build_classical("sp", 4), _diagonal(1, -1, -1, 1), [("e1", "f1")]),
    "so4_gl2": (lambda: build_classical("so", 4), _diagonal(1, 1, -1, -1), [("e2", "f2")]),
    "sl4_sp4": (_adapted_sl4_basis, _sp4_form, [("v5",)]),
}
Z2_PAIRS = tuple(_PAIRS)


def symmetric_pair(pair_id: str) -> SymmetricPair:
    """Build the catalog pair whose row in _PAIRS is keyed by pair_id.

    The involution splits the parent's basis into g0 (fixed) and g1 (negated).
    Every row is validated on construction: each basis vector is homogeneous,
    the split is a Z2-grading, and the supplied Cartan subspace is abelian,
    consists of semisimple matrices, and is its own centralizer inside g1.
    """
    if pair_id not in _PAIRS:
        raise ValueError(f"unknown symmetric pair {pair_id!r}; choose from {Z2_PAIRS}")
    build, sigma, cartan = _PAIRS[pair_id]
    L = build()
    g0, g1 = [], []
    for i, M in enumerate(L.matrices):
        img = sigma(M)
        if img == M:
            g0.append(i)
        elif img == _neg(M):
            g1.append(i)
        else:
            raise ValueError(f"catalog error: basis vector {L.labels[i]} of {pair_id} "
                             f"is not homogeneous under the involution")
    g0, g1 = tuple(g0), tuple(g1)
    c = [{L.label_index(label): 1 for label in labels} for labels in cartan]

    if not is_z2_grading(L, g0):
        raise ValueError(f"catalog error: {pair_id} split is not a Z2-grading")
    for a in range(len(c)):
        for b in range(a + 1, len(c)):
            if L.bracket_vectors(c[a], c[b]):
                raise ValueError(f"catalog error: Cartan subspace of {pair_id} not abelian")
    for vec in c:
        if not _is_semisimple_matrix(L.matrix_of(vec)):
            raise ValueError(f"catalog error: Cartan subspace of {pair_id} not semisimple")
    cent1 = centralizer_in_span(L, c, g1)
    if len(cent1) != len(c):
        raise ValueError(f"catalog error: Cartan subspace of {pair_id} is not maximal")
    cent0 = centralizer_in_span(L, c, g0)
    l_alg = subalgebra_from_vectors(L, cent0,
                                    labels=[f"l{i}" for i in range(len(cent0))])
    return SymmetricPair(pair_id=pair_id, parent=L, g0=g0, g1=g1, cartan_subspace=c,
                         centralizer_alg=l_alg,
                         weights=ContractionWeights(tuple(int(i in g1) for i in range(L.n))))
