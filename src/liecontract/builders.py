"""Constructions of the classical algebras sl, so, sp and the symmetric pairs.

so_m is realized as matrices skew-symmetric about the anti-diagonal and
sp_2n via the skew form with anti-diagonal blocks, so that in every case the
Borel subalgebra consists of upper triangular matrices.  Root vectors are
labeled by the expansion of their root in simple roots: e12 sits at the root
a1 + a2, e112 at 2*a1 + a2, and so on.

The symmetric pairs form one table, _PAIRS: a row keyed by the pair id holds
the parent builder, an involution on the parent's matrices and the Cartan
subspace as sums of basis labels.  symmetric_pair validates every row on
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contract import ContractionWeights
from .lie import LieAlgebra, RootData, centralizer_in_span, from_matrices, subalgebra_from_vectors
from .linalg import identity_matrix, mat_mul, poly_det_cofactor, zero_matrix
from .polyring import Polynomial, multivariate_gcd, poly_div_exact

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


def _sort_positive(roots):
    # by height, then left-heavy coefficient order
    return sorted(roots, key=lambda rc: (sum(rc[0]), tuple(-c for c in rc[0])))


def _assemble(name, family, rank, pos_roots, cartans, marks):
    """Common assembly: pos_roots is a list of (coeff-tuple, e-matrix, f-matrix)."""
    pos_sorted = _sort_positive(pos_roots)
    labels = []
    mats = []
    for coeffs, emat, _ in pos_sorted:
        labels.append(_root_label("e", coeffs))
        mats.append(emat)
    for i, hmat in enumerate(cartans):
        labels.append(f"h{i + 1}")
        mats.append(hmat)
    for coeffs, _, fmat in pos_sorted:
        labels.append(_root_label("f", coeffs))
        mats.append(fmat)
    npos = len(pos_sorted)
    positive = tuple(range(npos))
    cartan = tuple(range(npos, npos + rank))
    negative = tuple(range(npos + rank, npos + rank + npos))
    simple_e = []
    simple_f = []
    for i in range(rank):
        unit = tuple(1 if j == i else 0 for j in range(rank))
        k = next(p for p, (coeffs, _, _) in enumerate(pos_sorted) if tuple(coeffs) == unit)
        simple_e.append(positive[k])
        simple_f.append(negative[k])
    highest = None
    if marks is not None:
        k = next(p for p, (coeffs, _, _) in enumerate(pos_sorted) if tuple(coeffs) == tuple(marks))
        highest = positive[k]
    if name == "sl2":
        labels = ["e", "h", "f"]
    rd = RootData(rank=rank, simple_e=tuple(simple_e), simple_f=tuple(simple_f),
                  cartan=cartan, positive=positive, negative=negative,
                  highest=highest, marks=tuple(marks) if marks is not None else None)
    return from_matrices(mats, labels=labels, root_data=rd, name=name, family=family)


def _build_sl(nn: int) -> LieAlgebra:
    rank = nn - 1
    pos = []
    for i in range(nn):
        for j in range(i + 1, nn):
            coeffs = tuple(1 if i <= t < j else 0 for t in range(rank))
            pos.append((coeffs, _unit(nn, i, j), _unit(nn, j, i)))
    cartans = [_add(_unit(nn, i, i), _neg(_unit(nn, i + 1, i + 1))) for i in range(rank)]
    marks = tuple([1] * rank)
    return _assemble(f"sl{nn}", ("sl", nn), rank, pos, cartans, marks)


def _so_basis_F(m, i, j):
    # E_ij - E_{j'i'} with k' = m+1-k (1-based); indices here are 0-based
    ip, jp = m - 1 - i, m - 1 - j
    return _add(_unit(m, i, j), _neg(_unit(m, jp, ip)))


def _build_so(m: int) -> LieAlgebra:
    rank = m // 2
    odd = m % 2 == 1
    pos = []
    # e_i - e_j roots, 0-based block indices i < j < rank
    for i in range(rank):
        for j in range(i + 1, rank):
            coeffs = tuple(1 if i <= t < j else 0 for t in range(rank))
            pos.append((coeffs, _so_basis_F(m, i, j), _so_basis_F(m, j, i)))
    if odd:
        mid = rank  # 0-based middle column
        # short roots e_i = a_i + ... + a_{rank-1}
        for i in range(rank):
            coeffs = tuple(1 if t >= i else 0 for t in range(rank))
            emat = _so_basis_F(m, i, mid)
            fmat = _scale(_so_basis_F(m, mid, i), 2)
            pos.append((coeffs, emat, fmat))
        # e_i + e_j = (a_i+...+a_{j-1}) + 2(a_j+...+a_{rank-1})
        for i in range(rank):
            for j in range(i + 1, rank):
                coeffs = tuple((1 if i <= t < j else 0) + (2 if t >= j else 0)
                               for t in range(rank))
                jp = m - 1 - j
                pos.append((coeffs, _so_basis_F(m, i, jp), _so_basis_F(m, jp, i)))
        cartans = []
        for i in range(rank - 1):
            cartans.append(_add(_so_basis_F(m, i, i), _neg(_so_basis_F(m, i + 1, i + 1))))
        cartans.append(_scale(_so_basis_F(m, rank - 1, rank - 1), 2))
        marks = tuple([1] + [2] * (rank - 1)) if rank >= 2 else (1,)
    else:
        # e_i + e_j roots of so_{2l}; the last simple root is e_{l-2} + e_{l-1}
        for i in range(rank):
            for j in range(i + 1, rank):
                coeffs = [0] * rank
                if j == rank - 1:
                    for t in range(i, rank - 2):
                        coeffs[t] += 1
                    coeffs[rank - 1] += 1
                else:
                    for t in range(i, j):
                        coeffs[t] += 1
                    for t in range(j, rank - 2):
                        coeffs[t] += 2
                    coeffs[rank - 2] += 1
                    coeffs[rank - 1] += 1
                jp = m - 1 - j
                pos.append((tuple(coeffs), _so_basis_F(m, i, jp), _so_basis_F(m, jp, i)))
        cartans = []
        for i in range(rank - 1):
            cartans.append(_add(_so_basis_F(m, i, i), _neg(_so_basis_F(m, i + 1, i + 1))))
        cartans.append(_add(_so_basis_F(m, rank - 2, rank - 2), _so_basis_F(m, rank - 1, rank - 1)))
        if rank >= 4:
            marks = tuple([1] + [2] * (rank - 3) + [1, 1])
        elif rank == 3:
            marks = (1, 1, 1)
        else:
            marks = None  # so4 is not simple
    return _assemble(f"so{m}", ("so", m), rank, pos, cartans, marks)


def _build_sp(m: int) -> LieAlgebra:
    if m % 2:
        raise ValueError("sp needs even size")
    nn = m // 2
    rank = nn

    def sgn(i):  # 0-based
        return 1 if i < nn else -1

    def F(i, j):
        ip, jp = m - 1 - i, m - 1 - j
        M = _unit(m, i, j)
        if sgn(i) * sgn(j) > 0:
            M = _add(M, _neg(_unit(m, jp, ip)))
        else:
            M = _add(M, _unit(m, jp, ip))
        return M

    pos = []
    for i in range(nn):
        for j in range(i + 1, nn):
            coeffs = tuple(1 if i <= t < j else 0 for t in range(rank))
            pos.append((coeffs, F(i, j), F(j, i)))
    # e_i + e_j = a_i+...+a_{j-1} + 2 a_j + ... + 2 a_{n-2}... ending with a_n once
    for i in range(nn):
        for j in range(i + 1, nn):
            coeffs = [0] * rank
            for t in range(i, j):
                coeffs[t] += 1
            for t in range(j, nn - 1):
                coeffs[t] += 2
            coeffs[nn - 1] += 1
            jp = m - 1 - j
            pos.append((tuple(coeffs), _add(_unit(m, i, jp), _unit(m, j, m - 1 - i)),
                        _add(_unit(m, jp, i), _unit(m, m - 1 - i, j))))
    # 2 e_i = 2 a_i + ... + 2 a_{n-1} + a_n
    for i in range(nn):
        coeffs = tuple((2 if i <= t < nn - 1 else 0) + (1 if t == nn - 1 else 0)
                       for t in range(rank))
        ip = m - 1 - i
        pos.append((coeffs, _unit(m, i, ip), _unit(m, ip, i)))
    cartans = []
    for i in range(nn - 1):
        cartans.append(_add(F(i, i), _neg(F(i + 1, i + 1))))
    cartans.append(F(nn - 1, nn - 1))
    marks = tuple([2] * (rank - 1) + [1])
    return _assemble(f"sp{m}", ("sp", m), rank, pos, cartans, marks)


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
    w = [0] * L.n
    for i in rd.negative:
        w[i] = 1
    return ContractionWeights(tuple(w))


# ---------------------------------------------------------------------------
# symmetric pairs
# ---------------------------------------------------------------------------

@dataclass
class SymmetricPair:
    """A Z2-graded split of a parent algebra with supplied Cartan subspace."""

    pair_id: str
    parent: LieAlgebra
    g0: tuple
    g1: tuple
    cartan_subspace: list          # sparse coordinate vectors inside g1
    centralizer_alg: LieAlgebra    # l = centralizer of the Cartan subspace in g0
    weights: ContractionWeights


def _char_poly_1var(M):
    """det(t*I - M) as a Polynomial in one variable."""
    t = Polynomial.variable(1, 0)
    return poly_det_cofactor([[t - Polynomial.const(1, x) if i == j else -x
                               for j, x in enumerate(row)] for i, row in enumerate(M)])


def _is_semisimple_matrix(M) -> bool:
    """Squarefree part of the characteristic polynomial must annihilate M."""
    m = len(M)
    if m == 0:
        return True
    p = _char_poly_1var(M)
    dp = p.diff(0)
    g = multivariate_gcd(p, dp)
    q = p if g.is_constant else poly_div_exact(p, g)
    coeffs = {(mono[0][1] if mono else 0): c for mono, c in q.as_dict().items()}
    deg = max(coeffs)
    acc = zero_matrix(m)
    power = identity_matrix(m)
    for e in range(deg + 1):
        c = coeffs.get(e, 0)
        if c:
            acc = _add(acc, _scale(power, c))
        if e < deg:
            power = mat_mul(power, M)
    return all(all(x == 0 for x in row) for row in acc)


def is_z2_grading(L: LieAlgebra, g0) -> bool:
    """Whether the basis indices g0 and their complement g1 split L as a
    Z2-grading: [g_a, g_b] lies in g_{a+b} for every bracket of basis vectors."""
    in0 = set(g0)
    return all(((i in in0) == (j in in0)) == (k in in0)
               for (i, j), targets in L.brackets.items() for k in targets)


def _adapted_sl4_basis():
    """Basis of sl4 adapted to the fixed-point subalgebra sp4."""
    sp = build_classical("sp", 4)
    g1_mats = [
        _add(_unit(4, 0, 1), _unit(4, 2, 3)),
        _add(_unit(4, 1, 0), _unit(4, 3, 2)),
        _add(_unit(4, 0, 2), _neg(_unit(4, 1, 3))),
        _add(_unit(4, 2, 0), _neg(_unit(4, 3, 1))),
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    ]
    return from_matrices(list(sp.matrices) + g1_mats,
                         labels=list(sp.labels) + [f"v{i + 1}" for i in range(5)],
                         name="sl4_adapted", family=("sl", 4))


def _diagonal(*d):
    """The involution M -> D M D with D = diag(d), d = +-1."""
    def sigma(M):
        return [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(M)]
    return sigma


def _sp4_form(M):
    """The involution M -> J M^T J, J the skew form of sp4: it fixes sp4 in sl4."""
    J = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    return mat_mul(mat_mul(J, [list(col) for col in zip(*M)]), J)


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
    w = [0] * L.n
    for i in g1:
        w[i] = 1
    return SymmetricPair(pair_id=pair_id, parent=L, g0=g0, g1=g1, cartan_subspace=c,
                         centralizer_alg=l_alg, weights=ContractionWeights(tuple(w)))
