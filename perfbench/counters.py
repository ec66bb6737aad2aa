"""Work counters taken at layer boundaries during the traced run.

Each hook runs outside the span it belongs to (see spans.make_wrapper), so
the cost of counting is not charged to the layer being measured.
"""

from __future__ import annotations

from fractions import Fraction


def term_products(a, b) -> int:
    """Coefficient-term products a wedge must form: the sum of
    len(pa.terms) * len(pb.terms) over index pairs that do not overlap.
    Depends only on the inputs, not on how wedge is implemented."""
    b_items = [(frozenset(ib), len(pb.terms)) for ib, pb in b.terms.items()]
    total = 0
    for ia, pa in a.terms.items():
        sa = frozenset(ia)
        na = len(pa.terms)
        total += na * sum(nb for sb, nb in b_items if not sa & sb)
    return total


def coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return abs(int(c)).bit_length()


def poly_bits(p) -> int:
    return max((coeff_bits(c) for c in p.terms.values()), default=0)


def value_key(mv) -> int:
    """Hash of a multivector's value: equal values give equal keys."""
    return hash((type(mv).__name__, mv.n, mv.degree,
                 frozenset((idx, frozenset(p.terms.items()))
                           for idx, p in mv.terms.items())))


class Counters:
    """Counts for one traced pass; per-job state resets when the job changes."""

    def __init__(self, rec):
        self.rec = rec
        self.wedge_calls = 0
        self.term_products = 0
        self.terms_out = 0
        self.repeats = 0
        self.chain_starts_max = 0
        self.max_coeff_bits = 0
        self.membership_calls = 0
        self.membership_hits = 0
        self._job = None
        self._seen = set()
        self._starts = {}
        self._keys = {}

    def _job_state(self):
        job = self.rec.current_job()
        if job != self._job:
            self._job = job
            self._seen = set()
            self._starts = {}
            self._keys = {}

    def _key(self, mv):
        hit = self._keys.get(id(mv))
        if hit is None or hit[0] is not mv:
            hit = self._keys[id(mv)] = (mv, value_key(mv))
        return hit[1]

    def wedge(self, args, kwargs):
        a, b = args[0], args[1]
        self._job_state()
        self.wedge_calls += 1
        self.term_products += term_products(a, b)
        ka, kb = self._key(a), self._key(b)
        if (ka, kb) in self._seen:
            self.repeats += 1
        self._seen.add((ka, kb))
        if a.degree == 2 and ka == kb:
            # wedge(pi, pi) is the first step of pi's wedge-power chain
            n = self._starts[ka] = self._starts.get(ka, 0) + 1
            self.chain_starts_max = max(self.chain_starts_max, n)

        def after(out):
            self.terms_out += sum(len(p.terms) for p in out.terms.values())
            self.max_coeff_bits = max(self.max_coeff_bits,
                                      max((poly_bits(p) for p in out.terms.values()),
                                          default=0))
        return after

    def char_invariants(self, args, kwargs):
        def after(gs):
            self.max_coeff_bits = max(self.max_coeff_bits,
                                      max((poly_bits(g) for g in gs.gens), default=0))
        return after

    def membership_linear(self, args, kwargs):
        self.membership_calls += 1

        def after(result):
            self.membership_hits += result is not None
        return after

    def hooks(self):
        return {"exterior.wedge": self.wedge,
                "invariants.char_invariants": self.char_invariants,
                "invariants.membership_linear": self.membership_linear}
