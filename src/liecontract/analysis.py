"""High-level verification: regularity equalities, degree laws, and the
consolidated suites for the Borel-split and symmetric-split contractions.

Reports are plain records (_record.Record, no dataclasses, so a cold start
stays short) whose payloads are JSON-safe; polynomial values are rendered
against the relevant basis labels at construction time so the output is
byte-deterministic.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .builders import SymmetricPair, borel_decomposition, is_z2_grading, symmetric_pair
from .contract import ContractionWeights, contract_algebra, t_degree
from .exterior import Form, MultiVector, _seeded_points, differential, wedge
from .invariants import (GeneratorSet, _Casimirs, _casimirs_of, _graded_of, _int_partials,
                         _pivot_point, _regularity_minor, _weight, char_invariants,
                         semi_invariant_weight, t_degree_reduction)
from .lie import LieAlgebra, algebra_index
from .linalg import rational_rank
from .polyring import (Polynomial, _ratio, _scaled_values, multivariate_gcd, poly_div_exact,
                       poly_rename, poly_to_str)


class ProportionalityCertificate(Record):
    """Coprime q1, q2 with q1 * A = q2 * B, when the sides are proportional."""

    def __init__(self, proportional: bool, q1: Polynomial | None = None,
                 q2: Polynomial | None = None):
        self._set(locals())

    @property
    def constant_ratio(self) -> bool:
        return (self.proportional and self.q1 is not None and self.q1.is_constant
                and self.q2 is not None and self.q2.is_constant)


def _coprime_ratio(a: Polynomial, b: Polynomial):
    """Coprime (q1, q2) with q1 * a = q2 * b for nonzero a, b, scaled so that
    q1 has leading coefficient 1: the one form of the ratio a / b.  When
    a = c * b for a number c (polyring._ratio), that is (1, c) with no gcd
    taken."""
    c = _ratio(a, b)
    if c is not None:
        return Polynomial.const(a.n, 1), Polynomial.const(a.n, c)
    g = multivariate_gcd(a, b)
    q1, q2 = poly_div_exact(b, g), poly_div_exact(a, g)
    _, lead = q1.leading()
    return q1 * (1 / lead), q2 * (1 / lead)


def _form_of_differentials(polys, n: int) -> Form:
    """dg_1 ^ ... ^ dg_k for at most n polynomials; the unit 0-form for k = 0."""
    form = Form.unit(n)
    for g in polys:
        form = wedge(form, differential(g))
    return form


def _jacobian_rank(rows, point) -> int:
    """The rank at a rational point of a matrix of partials of the F, rows of
    _int_partials' term maps of any one width: each F scaled to int,
    evaluated at the point and scaled again, all in int; each scaling keeps
    the rank."""
    width = len(rows[0]) if rows else 0
    values, _ = _scaled_values([Polynomial._raw(len(point), t) for row in rows for t in row],
                               point)
    return rational_rank([values[i * width:i * width + width] for i in range(len(rows))])


class KostantReport(Record):
    """regularity's verdict.  pivots is the pivot set I of the seeded point
    that proved the index, None when pi's generic rank gave it; equal
    (A == B) and the certificate (q1 * A = q2 * B) are made on first read
    from one coefficient pair (A_I, B_I), never from wedge^k pi.
    """

    def __init__(self, pi: MultiVector, casimirs: list, index: int, pivots: tuple | None):
        self._set(locals())

    @cached_property
    def form(self) -> Form:
        """dF_1 ^ ... ^ dF_l, built on first read: by independent when no
        point proves A != 0, and by _tops_content when its minor and points
        do not prove p = 1."""
        return _form_of_differentials(self.casimirs, self.pi.n)

    @cached_property
    def independent(self) -> bool:
        """A != 0: the pivots, or the F's Jacobian of rank l at a seeded
        point, prove it; the form is built only when neither does."""
        if self.pivots is not None:
            return True
        rows = [_int_partials(F)[1] for F in self.casimirs]
        return (any(_jacobian_rank(rows, x) == len(rows) for x in _seeded_points(self.pi.n))
                or not self.form.is_zero)

    @cached_property
    def _minor(self):
        """(A_I, B_I) with B_I != 0 and A = (A_I / B_I) B, at the pivots or
        at generic_rank's I; None when A = 0 or A is not proportional to B.
        At the pivots B_I != 0 needs no test: the proof gives A = c B, B != 0,
        and B_I = 0 would give A_I = 0 (A_I B_J = A_J B_I), not A_I(x0) != 0."""
        if self.pivots is not None:
            return _regularity_minor(self.pi, self.casimirs, self.pivots)
        n, ell = self.pi.n, len(self.casimirs)
        # the proof needs l == n (I = (), B = 1) or l == index with every F a
        # nonzero Casimir, proved or checked; then B_I != 0, and A_I == 0 iff A == 0
        if ell < n and not (ell == self.index and (_casimirs_of(self.casimirs) is self.pi or all(
                not F.is_zero and semi_invariant_weight(F, self.pi) == [0] * n
                for F in self.casimirs))):
            return None
        a_i, b_i = _regularity_minor(self.pi, self.casimirs,
                                     self.pi.generic_rank[1] if ell < n else ())
        return (a_i, b_i) if a_i else None

    @cached_property
    def equal(self) -> bool:
        return self._minor is not None and self._minor[0] == self._minor[1]

    @cached_property
    def certificate(self) -> ProportionalityCertificate:
        if self._minor is not None:
            return ProportionalityCertificate(True, *_coprime_ratio(*self._minor))
        n, ell = self.pi.n, len(self.casimirs)
        # B = wedge^k pi vanishes exactly when 2k exceeds pi's generic rank
        if not self.independent or 2 * ((n - ell) // 2) > self.pi.generic_rank[0]:
            raise ValueError("proportionality needs two nonzero multivectors")
        if (n - ell) % 2:
            raise ValueError("multivectors live in different spaces")
        return ProportionalityCertificate(False)

    @property
    def is_kostant_type(self) -> bool:
        return self.certificate.constant_ratio


def regularity(pi: MultiVector, casimirs) -> KostantReport:
    """The index of pi, and A = dF_1^...^dF_l / omega against B = wedge^k pi,
    k = (n - l)/2, for polynomials F_1..F_l offered as Casimirs of pi.

    The index is proved at the first seeded point x0 (_pivot_point) where pi
    has rank n - l, with pivots I, which gives index <= l.  Each F is a
    Casimir: proved so for this pi by its construction (invariants._Casimirs),
    else checked, semi_invariant_weight(F, pi) == [0] * n.  So dF(x) lies in
    ker pi(x), and A_I = +-det(dF_i/dx_j, j outside I) is nonzero at x0, read
    off those l * l partials alone: the dF are independent at generic x,
    so index >= l, and A != 0.  On the dense open set U where rank
    pi(x) = n - l and the dF_i(x) are independent, they span ker pi(x).
    There B(x) is a nonzero decomposable 2k-vector spanning im pi(x), and
    A(x) is one spanning ann ker pi(x) = im pi(x).  So A(x) = c(x) B(x),
    and A_I B_J = A_J B_I on U, hence as polynomials, for all index sets
    I, J.  B_I = 0 would give A_I = 0 at a J with B_J != 0, so
    A = (A_I / B_I) B: q1 and q2 come from (A_I, B_I) alone, and A == B
    exactly when A_I == B_I.  The full Jacobian would close the proof no
    more often: of rank l at x0, with Casimir F's, it puts x0 in U, so
    A_I(x0) = c(x0) B_I(x0) != 0 at the pivots.  Else the index is
    n less pi's generic rank (MultiVector.generic_rank), which gives an I
    with B_I != 0 (I = () when l = n).  When l is the index and each F is
    a nonzero Casimir, the proof above holds at that I, where A_I = 0 only
    when A = 0, since A_I B_J = A_J B_I.  Otherwise A and B are not
    proportional.  Conversely to the proof, A = c B with A != 0 and index
    l makes A(x) span im pi(x) = ann ker pi(x), so each dF(x) lies in
    ker pi(x) and each F is a Casimir.  An index other than l with k >= 1
    gives B = 0, or a decomposable A against a wedge^k pi that is not.
    For l = n (k = 0) both are scalars, B = 1, and any A != 0 is
    proportional.  An F of another ring than pi's, or l > n, is rejected
    before any point is evaluated.
    """
    casimirs = casimirs if (proved := _casimirs_of(casimirs) is pi) else list(casimirs)
    n, ell = pi.n, len(casimirs)
    for F in casimirs:
        if F.n != n:
            raise ValueError(f"ring dimension mismatch: {F.n} vs {n}")
    if ell > n:
        raise ValueError(f"more polynomials than variables: {ell} > {n}")
    if pivot := _pivot_point(pi, ell):
        # the Casimir checks read the partials whose columns J give A_I(x0)
        parts = [_int_partials(F) for F in casimirs]
        cols = [j for j in range(n) if j not in pivot[0]]
        if (_jacobian_rank([[ps[j] for j in cols] for _, ps in parts], pivot[1]) == ell
                and (proved or all(_weight(h, pi) == [0] * n for h in parts))):
            return KostantReport(pi, casimirs, ell, pivot[0])
    return KostantReport(pi, casimirs, n - pi.generic_rank[0], None)


def kostant_check(gens, pi: MultiVector, ell: int) -> KostantReport:
    """Regularity test: dF_1 ^ ... ^ dF_l / omega against wedge^{(n-l)/2} pi."""
    rep = regularity(pi, gens.gens if isinstance(gens, GeneratorSet) else gens)
    if len(rep.casimirs) != ell or ell != rep.index:
        raise ValueError(f"need exactly index-many generators: count={len(rep.casimirs)}, "
                         f"ell={ell}, index={rep.index}")
    if not rep.independent:
        raise ValueError("generators are algebraically dependent")
    return rep


class FundamentalSemiInvariant(Record):
    def __init__(self, p: Polynomial):
        self._set(locals())


def fundamental_semiinvariant(pi: MultiVector, ell: int) -> FundamentalSemiInvariant:
    """Extract the divisor p with  wedge^{(n-l)/2} pi = p * R,  content(R) = 1,
    for l the index of pi: wedge^{(n-l)/2} pi is pi's kept top power."""
    index = pi.n - pi.generic_rank[0]
    if ell != index:
        raise ValueError(f"ell={ell} is not the index {index}")
    return _content(pi.top_power[1])


def _content(b: MultiVector) -> FundamentalSemiInvariant:
    """p, the monic gcd of b's coefficients: b = p * R with content(R) = 1."""
    return FundamentalSemiInvariant(multivariate_gcd(*b.terms.values()))


def _tops_content(limit: KostantReport) -> Polynomial:
    """p = content(dF_1 ^ ... ^ dF_l) for the report's F, with no l-form
    built when (1) and (2) prove p = 1; else p is _content(form).p.
    (1) Rows of the F's int partials, sparsest support first: row b takes
    the lowest column j_b outside the supports of rows 1..b-1 whose partial
    is one term.  Row a is zero at every later j_b, so the l x l block on
    J = {j_b} is triangular and A_J = +-c x^m, its diagonal's product: p
    divides x^m.  A row with no such column leaves the form's gcd.
    (2) For each x_v in m, y is the first seeded point with its zeros set
    to 1 and y_v = 0; the Jacobian of rank l at y gives some A_J'(y) != 0,
    and p divides A_J', so x_v does not divide p.  If every x_v passes,
    p = 1; a failed point test leaves the form's gcd, never a wrong p.
    """
    n = limit.pi.n
    rows = sorted((_int_partials(F)[1] for F in limit.casimirs),
                  key=lambda ps: sum(map(bool, ps)))
    used, diagonal = set(), []
    for ps in rows:
        j = next((j for j in range(n) if j not in used and len(ps[j]) == 1), None)
        if j is None:
            break
        diagonal.append(Polynomial._raw(n, ps[j]))
        used.update(j for j in range(n) if ps[j])
    else:
        y = [x or 1 for x in _seeded_points(n)[0]]
        if all(_jacobian_rank(rows, y[:v] + [0] + y[v + 1:]) == len(rows)
               for v in sorted(set().union(*(d.variables() for d in diagonal)))):
            return Polynomial.const(n, 1)
    return _content(limit.form).p


# ---------------------------------------------------------------------------
# degree trichotomy report
# ---------------------------------------------------------------------------

class ContrDegReport(Record):
    def __init__(self, ok: bool, error: str | None, index_original: int | None = None,
                 index_contracted: int | None = None, index_preserved: bool | None = None,
                 degrees: list | None = None, t_degrees: list | None = None,
                 sum_t_degrees: int | None = None, weight_total: int | None = None,
                 classification: str | None = None, independent: bool | None = None,
                 kostant_with_limit: bool | None = None,
                 good_generating_system: bool | None = None):
        self._set(locals())

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items()}


def _contraction(L: LieAlgebra, gens, w: ContractionWeights):
    """(res, pairs, limit): L contracted at w, each generator's (t-degree, top)
    and regularity on pi~ against the tops; (res, None, None) if invalid.
    A t_degree_reduction list graded at w gives its pairs (invariants._graded_of).
    Tops of proved Casimirs of pi (invariants._Casimirs) are ones of pi~:
    pi_jl at t-power k >= 0 has weighted degree w_j + w_l - k, and dF/dx_l
    at most D - w_l (D = F's t-degree), so {x_j, F^top} under pi~ is the
    part of weighted degree w_j + D of sum_l pi_jl dF/dx_l = {x_j, F} = 0."""
    res = contract_algebra(L, w)
    if not res.valid:
        return res, None, None
    pairs = _graded_of(gens, w) or [t_degree(g, w) for g in gens]
    tops, proved = [top for _, top in pairs], _casimirs_of(gens) is res.original
    return res, pairs, regularity(res.pi_tilde, _Casimirs(res.pi_tilde, tops) if proved else tops)


def _tops_equal(res, pairs, limit: KostantReport) -> bool:
    """A~ == B~ from _contraction on char_invariants' generators, reduced or
    not: sum d' == w.total once the limit's proof closes at pivots I~, else
    limit.equal.  Proof (README has the steps): char_invariants proves A = B,
    the unit triangular reduction keeps it, and A~ = (A~_I~ / B~_I~) B~ for
    A~_I~, B~_I~ the (sum d' - w(J~))- and w(I~)-parts of B_I~, both nonzero."""
    total = sum(d for d, _ in pairs)
    return total == res.weights.total if limit.pivots is not None else limit.equal


def contr_deg_report(gens: GeneratorSet, w: ContractionWeights) -> ContrDegReport:
    """Classify a contraction against the degree law for the invariant set."""
    L = gens.algebra
    ell = len(gens)
    res, pairs, limit = _contraction(L, gens.gens, w)
    if not res.valid:
        idx, pw = res.offending
        pair = f"({L.labels[idx[0]]},{L.labels[idx[1]]})"
        return ContrDegReport(ok=False, error=f"invalid contraction: t^{pw} at pair {pair}")
    ind0 = algebra_index(L)
    if ind0 != ell:
        return ContrDegReport(ok=False, error=f"generator count {ell} differs from index {ind0}")
    indices = {"index_original": ind0, "index_contracted": limit.index}
    if ind0 != limit.index:
        return ContrDegReport(ok=False, index_preserved=False, **indices,
                              error="index is not preserved; the degree law does not apply")
    t_degrees = [d for d, _ in pairs]
    total = sum(t_degrees)
    law = {**indices, "index_preserved": True, "degrees": [g.degree() for g in gens.gens],
           "t_degrees": t_degrees, "sum_t_degrees": total, "weight_total": w.total,
           "independent": limit.independent}
    if total < w.total:
        error = "degree-law violation: sum of t-degrees below the weight total"
        return ContrDegReport(ok=False, error=error, **law)
    if total == w.total:
        ok = limit.independent and limit.equal
        error = "equality case must give independent tops satisfying the equality"
        return ContrDegReport(ok=ok, error=None if ok else error, **law,
                              classification="equality", kostant_with_limit=limit.equal,
                              good_generating_system=limit.independent)
    ok = not limit.independent
    error = "strict case must give dependent highest components"
    return ContrDegReport(ok=ok, error=None if ok else error, **law, classification="strict",
                          good_generating_system=False)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

class Clause(Record):
    def __init__(self, name: str, ok: bool, data: dict | None = None):
        data = {} if data is None else data        # a fresh dict per clause
        self._set(locals())


class SuiteReport(Record):
    def __init__(self, suite: str, target: str, clauses: list):
        self._set(locals())

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def as_dict(self):
        return {"suite": self.suite, "target": self.target, "ok": self.ok,
                "clauses": [{"name": c.name, "ok": c.ok, "data": c.data}
                            for c in self.clauses]}


def feigin_suite(L: LieAlgebra) -> SuiteReport:
    """Borel-split contraction checks for a built-in simple algebra.

    Clauses: (a) index of the contraction, (b) t-degree drop of each
    generator, (c) exact regularity equality for the highest components,
    read off the t-degree sum (_tops_equal),
    (d) the fundamental semi-invariant against the simple-root marks: when
    (c) holds, p = content(A) is read off the tops (_tops_content), with no
    l-form built once a minor and its points prove p = 1; else off the
    limit's top power,
    (e) 2l independent semicentre generators and the derived-algebra index,
    (f) the semicentre proportionality constant.
    """
    rd = L.root_data
    if rd is None or rd.marks is None or rd.highest is None:
        raise ValueError("Borel-split suite needs root data with highest-root marks")
    ell = rd.rank
    names = L.labels
    gens = char_invariants(L)
    res, pairs, limit = _contraction(L, gens.gens, borel_decomposition(L))
    clauses = [Clause("index_of_contraction", limit.index == ell,
                      {"computed": limit.index, "expected": ell})]

    drops = [g.degree() - d for g, (d, _) in zip(gens.gens, pairs)]
    clauses.append(Clause("t_degree_drop", all(x == 1 for x in drops),
                          {"degrees": gens.degrees, "t_degrees": [d for d, _ in pairs]}))

    equal = _tops_equal(res, pairs, limit)
    clauses.append(Clause("kostant_equality_for_tops", equal, {}))
    # n - l is even, so wedge^{(n-l)/2} pi~ vanishes exactly when the index exceeds l
    if limit.index > ell:
        clauses.append(Clause("fundamental_semiinvariant", False,
                              {"reason": "wedge power vanished"}))
        return SuiteReport(suite="feigin", target=L.name or "anon", clauses=clauses)

    # A == B: p is the content of A = wedge^k pi~, read off the tops (_tops_content)
    fsi = _tops_content(limit) if equal else fundamental_semiinvariant(res.pi_tilde, ell).p
    expected = Polynomial.const(L.n, 1)
    for fi, r in zip(rd.simple_f, rd.marks):
        expected = expected * Polynomial.variable(L.n, fi) ** (r - 1)
    clauses.append(Clause("fundamental_semiinvariant", fsi == expected,
                          {"computed": poly_to_str(fsi, names),
                           "expected": poly_to_str(expected, names)}))

    # g' is closed in the limit, so its bivector is pi~ on its pairs (poly_rename
    # raises on a Cartan variable); the semicentre generators are its Casimirs,
    # so regularity proves its index and p' * A = c * B (q1 == p', q2 == c)
    semis = limit.casimirs[:-1]                 # the tops but the last
    semis.extend(Polynomial.variable(L.n, fi) for fi in rd.simple_f)
    semis.append(Polynomial.variable(L.n, rd.highest))
    keep = sorted(list(rd.positive) + list(rd.negative))
    idx_map = {old: new for new, old in enumerate(keep)}
    pi_prime = MultiVector._raw(len(keep), 2, {
        (idx_map[i], idx_map[j]): poly_rename(p, idx_map, len(keep))
        for (i, j), p in res.pi_tilde.terms.items() if i in idx_map and j in idx_map})
    derived = regularity(pi_prime, [poly_rename(hh, idx_map, len(keep)) for hh in semis])
    clauses.append(Clause("semicentre_generators",
                          derived.independent and derived.index == 2 * ell,
                          {"count": len(semis), "cartan_free": True,
                           "independent": derived.independent,
                           "derived_index": derived.index, "expected_index": 2 * ell}))

    if not derived.independent:
        clauses.append(Clause("semicentre_proportionality", False,
                              {"reason": "left side vanished"}))
    else:
        cert = derived.certificate
        ok = (cert.proportional and cert.q2.is_constant
              and cert.q1 == poly_rename(fsi, idx_map, len(keep)))
        data = {"constant": str(cert.q2.constant_value())} if ok else {}
        clauses.append(Clause("semicentre_proportionality", ok, data))

    return SuiteReport(suite="feigin", target=L.name or "anon", clauses=clauses)


def z2_suite(pair: SymmetricPair | str) -> SuiteReport:
    """Symmetric-pair contraction checks: grading, the Borel-dimension
    identity, index preservation, and the good-generating-system verdict
    after t-degree reduction.  The parent's index is l = len(gens), proved by
    char_invariants' certificate; regularity decides the limit's, from
    _contraction, ggs and feigin's pipeline, on the reduced set.  The tops
    equality is feigin's rule, _tops_equal."""
    if isinstance(pair, str):
        pair = symmetric_pair(pair)
    L = pair.parent
    clauses = []

    clauses.append(Clause("z2_grading", is_z2_grading(L, pair.g0),
                          {"dim_g0": len(pair.g0), "dim_g1": len(pair.g1)}))

    gens = char_invariants(L)
    ell = len(gens)
    l_alg = pair.centralizer_alg
    rk_l = algebra_index(l_alg)
    dim_b = (L.n + ell) // 2
    dim_b_l = (l_alg.n + rk_l) // 2
    clauses.append(Clause("borel_dimension_identity",
                          dim_b == len(pair.g1) + dim_b_l,
                          {"dim_b": dim_b, "dim_g1": len(pair.g1), "dim_b_l": dim_b_l}))

    reduced = t_degree_reduction(gens, pair.weights)
    res, pairs, limit = _contraction(L, reduced.gens, pair.weights)
    if not res.valid:
        clauses.append(Clause("contraction_valid", False, {}))
        return SuiteReport(suite="z2", target=pair.pair_id, clauses=clauses)
    tds = [d for d, _ in pairs]
    clauses.append(Clause("index_of_contraction", limit.index == ell,
                          {"computed": limit.index, "expected": ell}))

    clauses.append(Clause("reduced_degree_sum",
                          sum(tds) == len(pair.g1) == pair.weights.total,
                          {"t_degrees": tds, "dim_g1": len(pair.g1)}))
    clauses.append(Clause("tops_independent", limit.independent, {}))
    clauses.append(Clause("kostant_equality_for_tops", _tops_equal(res, pairs, limit), {}))
    clauses.append(Clause("codim2_note", True,
                          {"note": "centre generation certified through the recorded "
                                   "codimension-2 property of the contracted algebra"}))
    return SuiteReport(suite="z2", target=pair.pair_id, clauses=clauses)
