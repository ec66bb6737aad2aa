"""The package's records against the dataclasses they replaced.

The 11 records are plain classes on `_record.Record`, so that importing the
package does not load `dataclasses`.  `Parent` keeps a copy of the dataclass
definitions they replaced, fields and record methods only, and each record
must agree with its copy: constructor parameters and defaults, the order
of its attributes, `as_dict()`, `==`, `hash` and `repr`, immutability of
the two frozen records, and a fresh `Clause.data` per clause.
"""

import dataclasses
import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import pytest

from conftest import cached_builtin
from liecontract import analysis
from liecontract.analysis import regularity
from liecontract.builders import SymmetricPair
from liecontract.contract import ContractionResult, ContractionWeights
from liecontract.invariants import GeneratorSet, char_invariants
from liecontract.lie import RootData, lie_poisson_bivector


class Parent:
    @dataclass
    class ProportionalityCertificate:
        proportional: bool
        q1: Optional[object] = None
        q2: Optional[object] = None

    @dataclass
    class KostantReport:
        pi: object
        casimirs: list
        index: int
        pivots: Optional[tuple]

    @dataclass
    class FundamentalSemiInvariant:
        p: object

    @dataclass
    class ContrDegReport:
        ok: bool
        error: Optional[str]
        index_original: Optional[int] = None
        index_contracted: Optional[int] = None
        index_preserved: Optional[bool] = None
        degrees: Optional[list] = None
        t_degrees: Optional[list] = None
        sum_t_degrees: Optional[int] = None
        weight_total: Optional[int] = None
        classification: Optional[str] = None
        independent: Optional[bool] = None
        kostant_with_limit: Optional[bool] = None
        good_generating_system: Optional[bool] = None

        def as_dict(self):
            return {k: v for k, v in self.__dict__.items()}

    @dataclass
    class Clause:
        name: str
        ok: bool
        data: dict = field(default_factory=dict)

    @dataclass
    class SuiteReport:
        suite: str
        target: str
        clauses: list

        def as_dict(self):
            return {"suite": self.suite, "target": self.target,
                    "ok": all(c.ok for c in self.clauses),
                    "clauses": [{"name": c.name, "ok": c.ok, "data": c.data}
                                for c in self.clauses]}

    @dataclass(frozen=True)
    class ContractionWeights:
        weights: tuple

        def __post_init__(self):
            for i, w in enumerate(self.weights):
                try:
                    ok = w >= 0 and w == int(w)
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise ValueError(f"weight {w!r} at position {i} is not a nonnegative integer")
            object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @dataclass
    class ContractionResult:
        pi_t: dict
        valid: bool
        weights: object
        original: object
        pi_tilde: Optional[object] = None
        offending: Optional[tuple] = None
        contracted: Optional[object] = None

    @dataclass(frozen=True)
    class RootData:
        rank: int
        simple_e: tuple
        simple_f: tuple
        cartan: tuple
        positive: tuple
        negative: tuple
        highest: Optional[int] = None
        marks: Optional[tuple] = None

    @dataclass
    class GeneratorSet:
        algebra: object
        gens: list
        normalization: Fraction

    @dataclass
    class SymmetricPair:
        pair_id: str
        parent: object
        g0: tuple
        g1: tuple
        cartan_subspace: list
        centralizer_alg: object
        weights: object


RECORDS = {cls.__name__: cls for cls in (
    analysis.ProportionalityCertificate, analysis.KostantReport,
    analysis.FundamentalSemiInvariant, analysis.ContrDegReport, analysis.Clause,
    analysis.SuiteReport, ContractionWeights, ContractionResult, RootData, GeneratorSet,
    SymmetricPair)}
FROZEN = {"ContractionWeights", "RootData"}


def pairs():
    return [(cls, getattr(Parent, name)) for name, cls in RECORDS.items()]


def sample_args(ref, shift=0):
    """Distinct hashable values for every field; tuples of ints for the weights."""
    if ref is Parent.ContractionWeights:
        return {"weights": (shift, 1, 2)}
    return {f.name: (f.name, shift) for f in dataclasses.fields(ref)}


def test_every_record_has_a_reference_copy():
    assert sorted(RECORDS) == sorted(n for n in vars(Parent) if not n.startswith("_"))
    for new, _ in pairs():
        assert not dataclasses.is_dataclass(new)


@pytest.mark.parametrize("new,ref", pairs(), ids=list(RECORDS))
def test_constructor_parameters_and_defaults(new, ref):
    got = list(inspect.signature(new).parameters.values())
    want = list(inspect.signature(ref).parameters.values())
    assert [(p.name, p.kind) for p in got] == [(p.name, p.kind) for p in want]
    for g, w in zip(got, want):
        if ref is Parent.Clause and g.name == "data":
            assert g.default is None       # for the default factory, see below
        else:
            assert g.default == w.default


@pytest.mark.parametrize("new,ref", pairs(), ids=list(RECORDS))
def test_fields_order_eq_hash_and_repr(new, ref):
    args, other = sample_args(ref), sample_args(ref, shift=1)
    a, b, c = new(**args), new(**args), new(**other)
    ra, rb, rc = ref(**args), ref(**args), ref(**other)
    assert list(vars(a)) == list(vars(ra)) == [f.name for f in dataclasses.fields(ref)]
    assert new._fields == tuple(vars(ra))
    assert [getattr(a, f) for f in vars(ra)] == [getattr(ra, f) for f in vars(ra)]
    assert (a == b, a == c, a != c) == (ra == rb, ra == rc, ra != rc) == (True, False, True)
    # a record never equals its dataclass copy or a tuple of its fields
    assert a != ra and a.__eq__(ra) is NotImplemented
    assert a != tuple(args.values())
    assert repr(a) == repr(ra).replace("Parent.", "", 1)
    if new.__name__ in FROZEN:
        assert hash(a) == hash(b) == hash(ra)
        assert len({a, b, c}) == 2
    else:
        for x in (a, ra):
            with pytest.raises(TypeError):
                hash(x)
        a.extra_check = 1                  # a plain record takes attributes
        assert a == b


def test_records_of_two_classes_never_compare_equal():
    # the same field values, as dataclasses of two classes compare
    assert Parent.GeneratorSet(1, 2, 3) != Parent.SuiteReport(1, 2, 3)
    assert GeneratorSet(1, 2, 3) != analysis.SuiteReport(1, 2, 3)
    assert not GeneratorSet(1, 2, 3) == analysis.SuiteReport(1, 2, 3)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment(name):
    new, ref = RECORDS[name], getattr(Parent, name)
    args = sample_args(ref)
    for x in (new(**args), ref(**args)):
        field_name = next(iter(args))
        with pytest.raises(AttributeError):
            setattr(x, field_name, 5)
        with pytest.raises(AttributeError):
            setattr(x, "other", 5)
        with pytest.raises(AttributeError):
            delattr(x, field_name)
        assert getattr(x, field_name) == args[field_name]


def test_weights_are_validated_and_normalized_alike():
    new, ref = ContractionWeights, Parent.ContractionWeights
    for good in ([0, 1, 2], (3.0, 0), (True, False), (Fraction(4, 2),), ()):
        assert new(good).weights == ref(good).weights
        assert all(type(w) is int for w in new(good).weights)
    for bad in ([-1], [0.5], ["1"], [None], [float("inf")], [float("nan")], [1j]):
        with pytest.raises(ValueError) as got:
            new(bad)
        with pytest.raises(ValueError) as want:
            ref(bad)
        assert str(got.value) == str(want.value)


def test_clauses_never_share_data():
    a, b = analysis.Clause("x", True), analysis.Clause("x", True)
    assert a.data == {} and a.data is not b.data
    a.data["k"] = 1
    assert b.data == {} and a != b
    given = {"k": 2}
    assert analysis.Clause("y", False, given).data is given
    assert analysis.Clause("y", False, data=given) == analysis.Clause("y", False, {"k": 2})


def test_as_dict_keys_follow_the_fields():
    args = {"ok": True, "error": None, "index_original": 2, "degrees": [2, 3]}
    new, ref = analysis.ContrDegReport(**args), Parent.ContrDegReport(**args)
    new.classification = ref.classification = "equality"
    assert list(new.as_dict().items()) == list(ref.as_dict().items())
    clauses = [analysis.Clause("a", True, {"n": 1}), analysis.Clause("b", False)]
    ref_clauses = [Parent.Clause("a", True, {"n": 1}), Parent.Clause("b", False)]
    report = analysis.SuiteReport("feigin", "sl3", clauses)
    assert report.as_dict() == Parent.SuiteReport("feigin", "sl3", ref_clauses).as_dict()
    assert report.ok is False


def test_kostant_report_caches_apart_from_its_fields():
    L = cached_builtin("sl3")
    pi = lie_poisson_bivector(L)
    gens = char_invariants(L).gens
    a, b = regularity(pi, gens), regularity(pi, gens)
    assert a == b
    assert a.equal is True and "equal" in vars(a) and "equal" not in vars(b)
    assert a == b and a._values() == (pi, gens, 2, a.pivots)
    assert a.is_kostant_type and a.certificate == b.certificate
