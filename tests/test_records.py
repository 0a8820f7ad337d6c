"""The value semantics of the frozen records: equality, hashing, repr, immutability."""

import dataclasses

import pytest

from twobeam import (
    CircuitAst,
    CoherencyMatrix,
    Element2,
    InterpolationParams,
    JonesVector,
    StateClass,
    StokesVector,
    Transform4,
    evaluate,
    parse,
)
from twobeam.circuit import Stage

IDENTITY16 = [1.0 if i % 5 == 0 else 0.0 for i in range(16)]

# (factory, the same value built again, a different value, its repr)
RECORDS = [
    (
        lambda: StokesVector(1, 0, 0, 0),
        lambda: StokesVector(1.0, 0.0, 0.0, 0.0),
        lambda: StokesVector(1, 1, 0, 0),
        "StokesVector(s0=1.0, s1=0.0, s2=0.0, s3=0.0)",
    ),
    (
        lambda: JonesVector(1, 2j),
        lambda: JonesVector(1 + 0j, 2j),
        lambda: JonesVector(2j, 1),
        "JonesVector(psi1=(1+0j), psi2=2j)",
    ),
    (
        lambda: Element2(1, 0, 0, 1),
        lambda: Element2(1.0, 0j, 0.0, 1 + 0j),
        lambda: Element2(1, 1, 0, 1),
        "Element2(alpha=(1+0j), beta=0j, gamma=0j, delta=(1+0j))",
    ),
    (
        lambda: CoherencyMatrix(1, 0.5, 0.25j),
        lambda: CoherencyMatrix(1.0, 0.5, 0.25j),
        lambda: CoherencyMatrix(1, 0.5, -0.25j),
        "CoherencyMatrix(s11=1.0, s22=0.5, s12=0.25j)",
    ),
    (
        lambda: InterpolationParams(0.5, 1),
        lambda: InterpolationParams(0.5, 1.0, 0.8421052631578947),
        lambda: InterpolationParams(0.5, -1),
        "InterpolationParams(alpha=0.5, u=1.0, w=0.8421052631578947)",
    ),
    (
        lambda: StateClass("impure", 0.75, 0.5),
        lambda: StateClass("impure", 0.75, 0.5),
        lambda: StateClass("pure", 0.75),
        "StateClass(tag='impure', invariant_norm=0.75, eta_to_standard=0.5)",
    ),
    (
        lambda: Stage("rotate", (("theta", 1.0),), 1, 1),
        lambda: Stage("rotate", (("theta", 1.0),), 1, 1),
        lambda: Stage("rotate", (("theta", 2.0),), 1, 1),
        "Stage(name='rotate', params=(('theta', 1.0),), line=1, col=1)",
    ),
    (
        lambda: parse("rotate(theta=1)"),
        lambda: parse("rotate(theta=1.0)"),
        lambda: parse("rotate(theta=1); rotate(theta=1)"),
        "CircuitAst(stages=(Stage(name='rotate', params=(('theta', 1.0),), line=1, col=1),))",
    ),
]


@pytest.mark.parametrize("make, same, other, text", RECORDS)
def test_records_compare_field_by_field(make, same, other, text):
    a, b, c = make(), same(), other()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert repr(a) == text


@pytest.mark.parametrize("make, same, other, text", RECORDS)
def test_records_require_the_same_type(make, same, other, text):
    a = make()

    class Twin(type(a)):
        pass

    twin = Twin(*vars(a).values())
    assert a != twin and twin != a
    assert a != tuple(vars(a).values())
    assert repr(twin) == Twin.__qualname__ + text[len(type(a).__name__) :]


@pytest.mark.parametrize("make, same, other, text", RECORDS)
def test_records_refuse_assignment_and_deletion(make, same, other, text):
    a = make()
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


def test_stage_equality_and_hash_ignore_location():
    a = Stage("phase", (("phi", 0.5),), 1, 1)
    b = Stage("phase", (("phi", 0.5),), 7, 3)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert CircuitAst((a,)) == CircuitAst((b,))
    assert hash(CircuitAst((a,))) == hash(CircuitAst((b,)))


def test_transform4_compares_by_identity():
    a, b = Transform4(IDENTITY16), Transform4(IDENTITY16)
    assert a.entries == b.entries
    assert a != b and a == a
    assert len({a, b}) == 2


def test_defaults_keywords_and_match_args():
    assert StokesVector.__match_args__ == ("s0", "s1", "s2", "s3")
    assert Stage.__match_args__ == ("name", "params", "line", "col")
    assert Transform4(IDENTITY16).lorentz is False
    assert Transform4(entries=IDENTITY16, lorentz=True).lorentz is True
    assert Stage("rotate", (("theta", 1.0),)).line == 0
    assert InterpolationParams(alpha=1.0, u=0.5).w == 1.0
    with pytest.raises(TypeError):
        StokesVector(1, 0, 0)
    with pytest.raises(TypeError):
        StokesVector(1, 0, 0, 0, s4=0)


def test_evaluate_keeps_each_element_on_its_stage():
    ast = parse("rotate(theta=0.3); decohere(lambda=0.1); squeeze(eta=0.2)")
    evaluate(ast, StokesVector(1, 0.5, 0, 0))
    rotate, decohere, squeeze = ast.stages
    assert "_element" in vars(rotate) and "_element" in vars(squeeze)
    assert "_element" not in vars(decohere)
    kept = vars(rotate)["_element"]
    evaluate(ast, StokesVector(1, 0, 0.5, 0))
    assert vars(rotate)["_element"] is kept
    assert rotate == Stage("rotate", (("theta", 0.3),))


def test_dataclasses_functions_read_the_records():
    s = StokesVector(1, 0.5, 0, 0)
    assert dataclasses.is_dataclass(s) and dataclasses.is_dataclass(StateClass)
    assert dataclasses.replace(s, s1=0.25) == StokesVector(1, 0.25, 0, 0)
    assert dataclasses.asdict(s) == {"s0": 1.0, "s1": 0.5, "s2": 0.0, "s3": 0.0}
    fields = [(f.name, f.compare, f.default) for f in dataclasses.fields(Stage)]
    missing = dataclasses.MISSING
    assert fields == [("name", True, missing), ("params", True, missing), ("line", False, 0),
                      ("col", False, 0)]
    report = evaluate(parse("rotate(theta=0.3)"), s)
    relabeled = dataclasses.replace(report.final_classification, tag="pure")
    changed = dataclasses.replace(report, final_classification=relabeled)
    assert changed.final_classification.tag == "pure" and changed.stages == report.stages
    with pytest.raises(AttributeError):
        changed.final_stokes = s
