"""Lie algebras given by structure constants, with optional matrix realizations.

A LieAlgebra stores the bracket sparsely as [x_i, x_j] = sum_k c[i,j][k] x_k
for i < j; antisymmetry is built into the storage.  Numbers are ints when
integral and Fractions otherwise, as polynomial coefficients are.  Instances
are immutable after construction, so every operation here is a pure
function.  Derived data (the bivector, the Jacobi verdict read off its
Schouten square, and through the bivector its rank and top wedge power) is
computed on first use and kept; `from_matrices` sets the verdict at
construction, where it is proved.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from ._record import Frozen
from .exterior import MultiVector, schouten_square
from .linalg import _reduced, column_solver, flatten
from .polyring import Polynomial, _coeff, _div


class JacobiError(ValueError):
    """The bracket table fails the Jacobi identity: a failed check, not bad input."""


class RootData(Frozen):
    """Chevalley bookkeeping: which basis slots are roots, which are Cartan."""

    def __init__(self, rank: int,
                 simple_e: tuple,          # indices of e_1..e_l
                 simple_f: tuple,          # indices of f_1..f_l
                 cartan: tuple,            # indices of h_1..h_l
                 positive: tuple,          # all positive root vector indices (simple first)
                 negative: tuple,          # matching negative root vector indices
                 highest: int | None = None,     # index of a highest-root vector
                 marks: tuple | None = None):    # coefficients of the highest root
        self._set(locals())


class LieAlgebra:
    _commutator = False         # True from from_matrices: the bracket is the matrix commutator

    def __init__(self, labels: Sequence[str], brackets: dict,
                 matrices=None, root_data: RootData | None = None,
                 name: str | None = None):
        self.n = len(labels)
        self.labels = list(labels)
        if len(set(self.labels)) != self.n:
            repeated = next(a for i, a in enumerate(self.labels) if a in self.labels[:i])
            raise ValueError(f"basis label {repeated!r} is repeated; labels must be distinct")
        if matrices is not None and len(matrices) != self.n:
            raise ValueError(f"{len(matrices)} matrices for {self.n} labels")
        _square_size(matrices or [])
        clean: dict = {}
        for (i, j), targets in brackets.items():
            if not 0 <= i < j < self.n:
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < n")
            row = {}
            for k, c in targets.items():
                if not 0 <= k < self.n:
                    raise ValueError(f"bracket pair ({i},{j}) has target {k}; "
                                     f"targets must satisfy 0 <= k < {self.n}")
                c = _coeff(c)
                if c:
                    row[k] = c
            if row:
                clean[(i, j)] = row
        if root_data is not None:
            rd = root_data
            highest = () if rd.highest is None else (rd.highest,)
            for k in (*rd.simple_e, *rd.simple_f, *rd.cartan, *rd.positive, *rd.negative,
                      *highest):
                if not 0 <= k < self.n:
                    raise ValueError(f"root data index {k} must satisfy 0 <= k < {self.n}")
            marks = () if rd.marks is None else ("marks",)
            for field in ("simple_e", "simple_f", "cartan", *marks):
                size = len(getattr(rd, field))
                if size != rd.rank:
                    raise ValueError(f"root data {field} has length {size}; rank is {rd.rank}")
            if len(rd.positive) != len(rd.negative):
                raise ValueError(f"root data positive has length {len(rd.positive)} and "
                                 f"negative has length {len(rd.negative)}; they must match")
        self.brackets = clean
        self.matrices = matrices
        self.root_data = root_data
        self.name = name

    @classmethod
    def _with_bivector(cls, labels, brackets: dict, pi: MultiVector) -> LieAlgebra:
        """The algebra of the rows read off the linear bivector pi, kept as its
        bivector; the rows are canonical as pi's terms, so only labels are checked."""
        L = cls(labels, {})
        if L.n != pi.n:
            raise ValueError(f"{L.n} labels for a bivector in {pi.n} variables")
        L.brackets = brackets
        L.__dict__["bivector"] = pi
        return L

    @cached_property
    def bivector(self) -> MultiVector:
        """The linear bivector with coefficient sum_k c_ij^k x_k at each pair
        i < j; zero when n < 2, where there is no pair."""
        # the bracket table is canonical: pairs i < j, nonzero rows and coefficients
        return MultiVector._raw(self.n, 2, {
            (i, j): Polynomial.linear(self.n, targets)
            for (i, j), targets in self.brackets.items()})

    @cached_property
    def _jacobi(self):
        return (True, None) if self._commutator else jacobi_check(self)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.labels == other.labels and self.brackets == other.brackets
                and self.matrices == other.matrices and self.root_data == other.root_data)

    __hash__ = None

    def __repr__(self):
        return f"LieAlgebra({self.name or 'anon'}, dim={self.n})"

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown basis label {label!r}") from None

    def bracket_pair(self, i: int, j: int) -> dict:
        """[x_i, x_j] as a sparse coordinate vector, any i, j."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket_vectors(self, u: dict, v: dict) -> dict:
        """Bracket of two coordinate vectors (sparse dicts index -> coefficient)."""
        out: dict = {}
        for i, ci in u.items():
            if not ci:
                continue
            for j, cj in v.items():
                if not cj:
                    continue
                for k, c in self.bracket_pair(i, j).items():
                    val = out.get(k, 0) + ci * cj * c
                    if val:
                        out[k] = val
                    else:
                        out.pop(k, None)
        return out

    def matrix_of(self, vec: dict):
        """Matrix of the coordinate vector vec (index -> coefficient) in the
        algebra's matrix realisation."""
        size = len(self.matrices[0])
        M = [[0] * size for _ in range(size)]
        for i, c in vec.items():
            if c:
                Mi = self.matrices[i]
                for r in range(size):
                    for s in range(size):
                        if Mi[r][s]:
                            M[r][s] += c * Mi[r][s]
        return M


def _square_size(mats) -> int:
    """m for a list of m x m matrices, else ValueError: both constructors' rule."""
    m = len(mats[0]) if mats else 0
    if any(len(M) != m or any(len(row) != m for row in M) for M in mats):
        raise ValueError("all matrices must be square of equal size")
    return m


def from_matrices(mats, labels=None, root_data=None, name=None) -> LieAlgebra:
    """Extract structure constants from matrices closed under commutator, each
    commutator summed from nonzero entries into a sparse target {r * m + t: x}.

    The algebra carries one mark, _commutator, off which its Jacobi verdict
    True and char_invariants' Casimir proof are read: `column_solver` refuses dependent matrices and accepts a commutator only
    when its combination of the matrices equals it exactly, so x -> sum x_i M_i
    is an injective bracket map into gl_m, whose commutator satisfies Jacobi
    by associativity."""
    if not mats:
        raise ValueError("need at least one matrix")
    m = _square_size(mats)
    mats = [[[_coeff(x) for x in row] for row in M] for M in mats]
    n = len(mats)
    solve = column_solver([flatten(M) for M in mats])
    if solve is None:
        raise ValueError("matrices are linearly dependent")
    if labels is None:
        labels = [f"x{i}" for i in range(n)]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} matrices")
    # rows[a][s]: the nonzero (column, entry) pairs of row s of matrix a
    rows = [[[(t, x) for t, x in enumerate(row) if x] for row in M] for M in mats]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm: dict = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for r, row in enumerate(rows[a]):
                    rm = r * m
                    for s, x in row:
                        x *= sign
                        for t, y in rows[b][s]:
                            comm[rm + t] = comm.get(rm + t, 0) + x * y
            sol = solve(comm)
            if sol is None:
                raise ValueError(
                    f"span is not closed under commutator at pair ({labels[i]},{labels[j]})")
            if sol:
                brackets[(i, j)] = sol
    L = LieAlgebra(labels, brackets, matrices=mats, root_data=root_data, name=name)
    L._commutator = True
    return L


def jacobi_check(L: LieAlgebra):
    """(True, None) when the Jacobi identity holds, else (False, first bad
    triple).  For the linear bivector the Schouten square's coefficient at
    i < j < k is the Jacobiator of x_i, x_j, x_k, so the least triple in its
    support is the first that fails.  It always squares; `from_matrices`
    needs no square, its bracket being a commutator of independent matrices."""
    bad = schouten_square(L.bivector).terms
    return (False, min(bad)) if bad else (True, None)


def lie_poisson_bivector(L: LieAlgebra) -> MultiVector:
    """L's bivector, behind the Jacobi gate: JacobiError unless L's bracket
    satisfies the Jacobi identity.  The verdict is kept per algebra: True from
    `from_matrices`, where the matrix commutator proves it, else `jacobi_check`'s."""
    ok, triple = L._jacobi
    if not ok:
        raise JacobiError(f"Jacobi identity fails at triple {triple}")
    return L.bivector


def algebra_index(L: LieAlgebra) -> int:
    """Dimension minus the generic rank of the structure matrix, proved by
    MultiVector.generic_rank: a seeded point's pivots I give a nonzero
    principal Pfaffian, and I stops growing exactly when every Pfaffian on
    I and one more pair vanishes, the Schur complement of pi_II being zero."""
    return L.n - L.bivector.generic_rank[0]


def subalgebra_from_vectors(L: LieAlgebra, vectors, labels=None) -> LieAlgebra:
    """Subalgebra spanned by coordinate vectors (closure verified by exact solve)."""
    vecs = [dict(v) for v in vectors]
    m = len(vecs)
    if labels is None:
        labels = [f"y{i}" for i in range(m)]
    if len(labels) != m:
        raise ValueError(f"{len(labels)} labels for {m} vectors")
    solve = column_solver([[v.get(i, 0) for i in range(L.n)] for v in vecs]) if m else None
    if m and solve is None:
        raise ValueError("spanning vectors are linearly dependent")
    brackets = {}
    for a in range(m):
        for b in range(a + 1, m):
            sol = solve(L.bracket_vectors(vecs[a], vecs[b]))
            if sol is None:
                raise ValueError("span is not closed under the bracket")
            if sol:
                brackets[(a, b)] = sol
    mats = [L.matrix_of(v) for v in vecs] if L.matrices is not None and m else None
    return LieAlgebra(labels, brackets, matrices=mats)


def centralizer_in_span(L: LieAlgebra, fixed, span_indices) -> list:
    """Vectors in the span of the given basis indices commuting with every
    fixed coordinate vector; returned as sparse coordinate dicts."""
    span = list(span_indices)
    fixed = [dict(f) for f in fixed]
    rows = []
    for f in fixed:
        cols = []
        for s in span:
            w = L.bracket_vectors(f, {s: 1})
            cols.append([w.get(i, 0) for i in range(L.n)])
        for coord in range(L.n):
            row = [cols[a][coord] for a in range(len(span))]
            if any(row):
                rows.append(row)
    # exact kernel of the constraint matrix: reduced row r is rows[r] / rows[r][pivots[r]]
    rows, pivots = _reduced(rows)
    basis = []
    for c in range(len(span)):
        if c in pivots:
            continue
        vec = {span[c]: 1}
        for row, c2 in zip(rows, pivots):
            if row[c]:
                vec[span[c2]] = _div(-row[c], row[c2])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# algebra file format
# ---------------------------------------------------------------------------

def algebra_to_text(L: LieAlgebra, weights=None) -> str:
    lines = []
    lines.append(f"name: {L.name or 'anon'}")
    lines.append(f"labels: {' '.join(L.labels)}")
    for (i, j) in sorted(L.brackets):
        for k in sorted(L.brackets[(i, j)]):
            lines.append(f"bracket: {i} {j} {k} {L.brackets[(i, j)][k]}")
    if L.matrices is not None:
        lines.append(f"matsize: {len(L.matrices[0])}")
        for M in L.matrices:
            lines.append("matrix: " + " ".join(str(x) for x in flatten(M)))
    if L.root_data is not None:
        for field, value in zip(RootData._fields, L.root_data._values()):
            if value is not None:
                text = value if isinstance(value, int) else " ".join(map(str, value))
                lines.append(f"{field}: {text}")
    if weights is not None:
        lines.append("weights: [" + ",".join(str(w) for w in weights) + "]")
    return "\n".join(lines) + "\n"


def _number(kind, text: str, lineno: int, key: str):
    """kind(text) for kind int or Fraction, or a ValueError naming the line."""
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ValueError(f"line {lineno}: zero denominator in {text!r}") from None
    except ValueError:
        what = "an integer" if kind is int else "a rational number"
        raise ValueError(f"line {lineno}: {key} needs {what}, got {text.strip()!r}") from None


def algebra_from_text(text: str):
    """Parse the algebra file format; returns (LieAlgebra, weights or None)."""
    name = None
    labels = None
    bracket_lines = []
    matsize = None
    matrix_rows = []
    rd_fields: dict = {}
    weights = None
    seen = set()            # the keys read once; bracket and matrix lines repeat
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, _, val = line.partition(":")
        key = key.strip()
        val = val.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        if key not in ("bracket", "matrix"):
            seen.add(key)
        if key == "name":
            name = val
        elif key == "labels":
            labels = val.split()
        elif key == "bracket":
            parts = val.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: bracket needs 'i j k coefficient'")
            bracket_lines.append((*(_number(int, x, lineno, key) for x in parts[:3]),
                                  _number(Fraction, parts[3], lineno, key)))
        elif key == "matsize":
            matsize = _number(int, val, lineno, key)
            if matsize < 1:
                raise ValueError(f"line {lineno}: matsize must be at least 1, got {matsize}")
        elif key == "matrix":
            matrix_rows.append([_number(Fraction, x, lineno, key) for x in val.split()])
        elif key in ("rank", "highest"):
            rd_fields[key] = _number(int, val, lineno, key)
        elif key in RootData._fields:
            rd_fields[key] = tuple(_number(int, x, lineno, key) for x in val.split())
        elif key == "weights":
            body = val.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise ValueError(f"line {lineno}: weights must look like [0,0,1]")
            entries = body[1:-1].split(",") if body[1:-1].strip() else []
            if any(not x.strip() for x in entries):
                raise ValueError(f"line {lineno}: weights has an empty entry in {body}")
            weights = [_number(int, x, lineno, key) for x in entries]
            if any(w < 0 for w in weights):
                raise ValueError(f"line {lineno}: weights entries must be nonnegative")
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if labels is None:
        raise ValueError("missing 'labels' line")
    brackets: dict = {}
    for i, j, k, c in bracket_lines:
        brackets.setdefault((i, j), {})[k] = brackets.get((i, j), {}).get(k, 0) + c
    matrices = None
    if matrix_rows:
        if matsize is None:
            raise ValueError("matrix lines need a matsize line")
        matrices = []
        for row in matrix_rows:
            if len(row) != matsize * matsize:
                raise ValueError("matrix line has the wrong number of entries")
            matrices.append([row[r * matsize:(r + 1) * matsize] for r in range(matsize)])
    root_data = None
    if rd_fields:
        # the fields without a default are required
        required = RootData._fields[:-len(RootData.__init__.__defaults__)]
        missing = next((f for f in required if f not in rd_fields), None)
        if missing:
            raise ValueError(f"incomplete root data block: missing {missing}")
        root_data = RootData(**rd_fields)
    if weights is not None and len(weights) != len(labels):
        raise ValueError("weights length must match the basis size")
    L = LieAlgebra(labels, brackets, matrices=matrices, root_data=root_data, name=name)
    return L, weights
