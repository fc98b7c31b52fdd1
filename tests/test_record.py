"""The package's value records behave as the frozen dataclasses they replace.

``SPECS`` lists each record type with the declaration it had as a
``@dataclass(frozen=True)``: its fields in order, their defaults, and the
fields declared ``compare=False``.  A frozen dataclass built from that
declaration inside the test is the reference for repr, equality and hash.
"""

from __future__ import annotations

import dataclasses

import pytest

from lieworkbench import catalog, cohomology, dsl, liealg, linsolve, runner
from lieworkbench import scalars, suite
from lieworkbench.record import Record

# type: (fields, defaults, fields declared compare=False)
SPECS = {
    linsolve.RrefResult: ("rows pivot_cols assumptions", {}, ()),
    linsolve.LinearSolveResult: (
        "status solution rank rank_augmented assumptions", {}, ()),
    cohomology.CoboundaryOutcome: (
        "status psi rank rank_augmented assumptions witness obstruction",
        {"witness": None, "obstruction": None}, ()),
    cohomology.CohomologyReport: (
        "kernel_dim image_dim quotient_dim parameter_assumptions", {}, ()),
    cohomology.Cochain2Comparison: ("equal lines mismatches", {}, ()),
    dsl.Num: ("value", {}, ()),
    dsl.Name: ("ident", {}, ()),
    dsl.Neg: ("operand", {}, ()),
    dsl.BinOp: ("op left right", {}, ()),
    dsl.ParamDecl: ("names line", {"line": 0}, ("line",)),
    dsl.BracketDecl: ("left right rhs line", {"line": 0}, ("line",)),
    dsl.AlgebraDecl: ("name basis brackets line", {"line": 0}, ("line",)),
    dsl.TensorDecl: ("name expr algebra line", {"algebra": None, "line": 0},
                     ("line",)),
    dsl.CochainDecl: ("name parity algebra entries line", {"line": 0},
                      ("line",)),
    dsl.CheckDecl: ("kind args line", {"line": 0}, ("line",)),
    dsl.WorkbenchFile: ("statements", {}, ()),
    dsl.Slot: ("kind what clause", {"clause": None}, ()),
    dsl.Choice: ("words taker slot", {}, ()),
    dsl._Token: ("kind text line col", {}, ()),
    runner.RunOptions: ("order assume_nonzero",
                        {"order": runner.DEFAULT_ORDER, "assume_nonzero": ()},
                        ()),
    runner.CheckResult: ("label status details elapsed", {"elapsed": 0.0},
                         ("elapsed",)),
    suite.CriterionResult: ("number title ok lines", {}, ()),
    liealg.JacobiReport: ("ok witness residual triples_checked", {}, ()),
    scalars.TruncationOrder: ("degree graded", {}, ()),
    catalog.TranscriptionLine: (
        "label formula condition instances nonzero unsatisfiable", {}, ()),
    catalog.MuPrimeTranscription: (
        "N algebra lines conflicts jacobi compatible_with_standard_dual",
        {}, ()),
    catalog.CatalogEntry: ("name kind provenance make algebra",
                           {"algebra": None}, ()),
}

# For a type whose __post_init__ checks its values: valid sample values, and
# for each field a valid variant in which that field differs.
VALID = {
    cohomology.CohomologyReport: ((3, 1, 2, ("h",)), [
        (4, 1, 3, ("h",)), (3, 2, 1, ("h",)), (4, 1, 3, ("h",)),
        (3, 1, 2, ("xi",))]),
    scalars.TruncationOrder: ((2, frozenset({"xi"})), [
        (3, frozenset({"xi"})), (2, frozenset({"h"}))]),
}

TYPES = sorted(SPECS, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def _fields(cls) -> list[str]:
    return SPECS[cls][0].split()


def _values(cls) -> tuple:
    if cls in VALID:
        return VALID[cls][0]
    return tuple(f"v{i}" for i in range(len(_fields(cls))))


def _changed(cls, index: int) -> tuple:
    """The sample values with field ``index`` changed, still valid."""
    if cls in VALID:
        return VALID[cls][1][index]
    values = list(_values(cls))
    values[index] = "changed"
    return tuple(values)


def _reference(cls):
    """The frozen dataclass the parent declared for ``cls``."""
    fields, defaults, uncompared = SPECS[cls]
    specs = []
    for name in fields.split():
        options = {"compare": name not in uncompared}
        if name in defaults:
            options["default"] = defaults[name]
        specs.append((name, object, dataclasses.field(**options)))
    ref = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    ref.__qualname__ = cls.__qualname__
    return ref


def test_every_record_type_is_listed():
    modules = (catalog, cohomology, dsl, liealg, linsolve, runner, scalars,
               suite)
    found = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, Record)
             and value is not Record}
    assert found == set(SPECS)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__qualname__)
def test_repr_matches_the_frozen_dataclass(cls):
    values = _values(cls)
    assert repr(cls(*values)) == repr(_reference(cls)(*values))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__qualname__)
def test_positional_keyword_and_default_construction_agree(cls):
    fields, defaults, _ = SPECS[cls]
    names, values = fields.split(), _values(cls)
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert repr(keyword) == repr(positional) and keyword == positional
    for name, value in zip(names, values):
        assert getattr(positional, name) == value
    required = {n: v for n, v in zip(names, values) if n not in defaults}
    bare = cls(**required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    assert repr(bare) == repr(_reference(cls)(**required))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__qualname__)
def test_equality_and_hash_ignore_exactly_the_uncompared_fields(cls):
    fields, _, uncompared = SPECS[cls]
    ref = _reference(cls)
    base = cls(*_values(cls))
    assert base == cls(*_values(cls))
    assert hash(base) == hash(cls(*_values(cls)))
    for index, name in enumerate(fields.split()):
        other = cls(*_changed(cls, index))
        ref_equal = ref(*_values(cls)) == ref(*_changed(cls, index))
        assert (other == base) == ref_equal == (name in uncompared), name
        if name in uncompared:
            assert hash(other) == hash(base)
    assert base != _reference(cls)(*_values(cls))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__qualname__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*_values(cls))
    for name in (*_fields(cls), "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, "x")
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == repr(cls(*_values(cls)))


def test_construction_rejects_wrong_arguments():
    with pytest.raises(TypeError):
        dsl.Slot("algebra")
    with pytest.raises(TypeError):
        dsl.Slot("algebra", "an algebra name", None, "extra")
    with pytest.raises(TypeError):
        dsl.Slot("algebra", "an algebra name", colour="red")
    with pytest.raises(TypeError):
        dsl.Slot("algebra", "an algebra name", kind="tensor")


def test_a_class_variable_is_not_a_field():
    choice = dsl.Choice(("a",), "b", None)
    assert repr(choice) == "Choice(words=('a',), taker='b', slot=None)"
    assert choice.kind == "word"
    with pytest.raises(TypeError):
        dsl.Choice(("a",), "b", None, "word")


def test_post_init_still_validates_and_normalises():
    with pytest.raises(ValueError, match="inconsistent"):
        cohomology.CohomologyReport(3, 1, 1, ())
    with pytest.raises(ValueError, match="negative"):
        cohomology.CohomologyReport(1, 2, -1, ())
    with pytest.raises(ValueError, match="non-negative"):
        scalars.TruncationOrder(-1, frozenset())
    order = scalars.TruncationOrder(2, {"xi"})
    assert order.graded == frozenset({"xi"})
    assert isinstance(order.graded, frozenset)
    assert order == scalars.TruncationOrder(2, frozenset({"xi"}))
