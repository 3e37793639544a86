"""The exported result and parameter records behave as values.

Each record is immutable, equal to a record built from the same fields and
unequal to one with a field changed, hashable by value when its fields are,
and its repr is pinned.
"""

from fractions import Fraction

import pytest

import schreierkit
from schreierkit import (
    DfjpNormResult,
    Family,
    GaugeBracket,
    GaugeProblem,
    InclusionReport,
    LPResult,
    NormingSpec,
    OrdinalCNF,
    PigeonholeReport,
    SparseVector,
    SpreadingResult,
    SymbolicSet,
    TParams,
    TransversalReport,
    UniformTraceResult,
)

FAM = Family([(1, 2)])
X = SparseVector({1: 1})
LP_FIELDS = ("optimal", [Fraction(1, 2)], Fraction(1, 2), [Fraction(-1)], [], Fraction(1, 2), (1, 0))
LP = LPResult(*LP_FIELDS)
BRACKET = GaugeBracket(Fraction(1, 3), Fraction(1, 3), 2)
PAIRS = (((7, 5, 2, 3), (7, 6, 2, 3)),)

# record type -> (fields, a field changed, hashable, repr)
RECORDS = {
    OrdinalCNF: (
        (((1, 2), (0, 3)),), (((1, 2),),), True,
        "OrdinalCNF(terms=((1, 2), (0, 3)))",
    ),
    InclusionReport: (
        (True, 4, None, (1, 2, 3)), (True, 3, None, (1, 2, 3)), True,
        "InclusionReport(ok=True, shift=4, counterexample=None, window=(1, 2, 3))",
    ),
    LPResult: (
        LP_FIELDS, ("infeasible", None, None, None, None, None, (1, 0)), False,
        "LPResult(status='optimal', x=[Fraction(1, 2)], objective=Fraction(1, 2), "
        "dual_ub=[Fraction(-1, 1)], dual_eq=[], dual_objective=Fraction(1, 2), pivots=(1, 0))",
    ),
    NormingSpec: (
        (FAM,), (Family([(1,)]),), False,
        "NormingSpec(base_family=Family([{1,2}], n=1, hereditary=None))",
    ),
    SpreadingResult: (
        (Fraction(1, 2), [Fraction(1)], LP), (Fraction(1), [Fraction(1)], LP), False,
        f"SpreadingResult(value=Fraction(1, 2), coefficients=[Fraction(1, 1)], lp={LP!r})",
    ),
    GaugeProblem: (
        (X, 2, FAM), (X, 3, FAM), False,
        "GaugeProblem(x=SparseVector({1: 1}), level=2, family=Family([{1,2}], n=1, "
        "hereditary=None), tolerance=Fraction(1, 1073741824))",
    ),
    GaugeBracket: (
        (Fraction(1, 3), Fraction(1, 3), 2), (Fraction(0), Fraction(1, 3), 2), True,
        "GaugeBracket(lo=Fraction(1, 3), hi=Fraction(1, 3), level=2)",
    ),
    DfjpNormResult: (
        ((BRACKET,), Fraction(1, 9), Fraction(1, 6), Fraction(1, 18), 2),
        ((), Fraction(1, 9), Fraction(1, 6), Fraction(1, 18), 2), True,
        f"DfjpNormResult(brackets=({BRACKET!r},), powered_lo=Fraction(1, 9), "
        "powered_hi=Fraction(1, 6), tail_powered=Fraction(1, 18), p=2)",
    ),
    UniformTraceResult: (
        ("found", (1, 3), 7), ("absent", None, 7), True,
        "UniformTraceResult(status='found', witness=(1, 3), nodes_visited=7)",
    ),
    TParams: (
        (Fraction(1, 2), 5, {4: 2, 5: 2}), (Fraction(1, 2), 5, {4: 2, 5: 3}), False,
        "TParams(lam=Fraction(1, 2), window_max=5, radices={4: 2, 5: 2})",
    ),
    SymbolicSet: (
        ((4, 5, 6, 7), {7: PAIRS}), ((4, 5, 6, 7), {}), False,
        f"SymbolicSet(u=(4, 5, 6, 7), constraints={{7: {PAIRS!r}}})",
    ),
    PigeonholeReport: (
        (True, True, (), (2, 3), (4, 2, 3), (5, 6, 7)), (False, True, (), None, None, None), True,
        "PigeonholeReport(empty=True, preconditions_ok=True, failures=(), positions=(2, 3), "
        "clique_slice=(4, 2, 3), clique=(5, 6, 7))",
    ),
    TransversalReport: (
        ((0, 2), (((0, 1), (4, 5, 6, 7)),), 1), ((0,), (), 1), True,
        "TransversalReport(selected=(0, 2), covered=(((0, 1), (4, 5, 6, 7)),), bound=1)",
    ),
}


def test_every_exported_record_is_listed():
    exported = {getattr(schreierkit, name) for name in schreierkit.__all__}
    records = {cls for cls in exported if isinstance(cls, type) and hasattr(cls, "__match_args__")}
    assert records == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_immutable_values_with_stable_reprs(cls):
    fields, changed, hashable, text = RECORDS[cls]
    rec = cls(*fields)
    assert rec == cls(*fields)
    assert rec != cls(*changed)
    assert repr(rec) == text
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    if hashable:
        assert hash(rec) == hash(cls(*fields))
        assert len({rec, cls(*fields), cls(*changed)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(rec)


def test_records_keep_their_properties_and_defaults():
    assert LP.optimal and not LPResult(*RECORDS[LPResult][1]).optimal
    assert BRACKET.width == 0
    assert GaugeProblem(X, 2, FAM).tolerance == Fraction(1, 2**30)
    assert OrdinalCNF() == OrdinalCNF.from_int(0) and OrdinalCNF().is_zero
    assert OrdinalCNF(((1, 1), (0, 2))).predecessor() == OrdinalCNF(((1, 1), (0, 1)))
    assert UniformTraceResult("found", (1,), 1).found
    assert SymbolicSet(*RECORDS[SymbolicSet][0]).piece_constraints(7) == PAIRS


def test_validated_records_refuse_bad_fields():
    for terms in (((1, 0),), ((-1, 1),), ((0, 1), (1, 1)), ((1, 1), (1, 1))):
        with pytest.raises(ValueError):
            OrdinalCNF(terms)
    with pytest.raises(ValueError, match="level"):
        GaugeProblem(X, -1, FAM)
    for tolerance in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="tolerance"):
            GaugeProblem(X, 1, FAM, tolerance)
    assert GaugeProblem(X, 0, FAM, Fraction(1, 3)).tolerance == Fraction(1, 3)
