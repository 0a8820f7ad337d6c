"""The value semantics of the frozen records: equality, hashing, repr, immutability."""

import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import twobeam
from twobeam import (
    CircuitAst,
    CoherencyMatrix,
    Element2,
    InterpolationParams,
    JonesVector,
    NonFiniteError,
    PhysicsError,
    SimulationReport,
    StateClass,
    StokesVector,
    Transform4,
    evaluate,
    parse,
)
from twobeam import circuit
from twobeam.circuit import Stage
from twobeam.states import _FirstRead, _Record

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
    assert Transform4.__match_args__ == ("entries",)
    assert Transform4(entries=IDENTITY16).lorentz is True
    with pytest.raises(TypeError):
        Transform4(IDENTITY16, lorentz=True)
    assert Stage("rotate", (("theta", 1.0),)).line == 0
    assert InterpolationParams(alpha=1.0, u=0.5).w == 1.0
    with pytest.raises(TypeError):
        StokesVector(1, 0, 0)
    with pytest.raises(TypeError):
        StokesVector(1, 0, 0, 0, s4=0)


def test_evaluate_keeps_nothing_on_a_stage():
    """Contract: a Stage keeps its four fields and nothing else, whichever
    path reads its numbers: the compile, the fold of a Jones or a Stokes
    input, at unit intensity or at 1e-160, or the stage loop of a read of
    records; and what the AST keeps is outside its compared fields, so
    ==, hash and repr see the circuit alone. Observed through vars() of
    the public records."""
    ast = parse("rotate(theta=0.3); decohere(lambda=0.1); squeeze(eta=0.2); phase(phi=0.4)")
    for inp in (JonesVector(1, 0.5j), StokesVector(1, 0.5, 0, 0), StokesVector(1e-160, 5e-161, 0, 0)):
        report = evaluate(ast, inp)
        assert len(report.stages) == 4
        assert [list(vars(st)) for st in ast.stages] == [["name", "params", "line", "col"]] * 4
    fresh = CircuitAst(ast.stages)
    assert ast == fresh and hash(ast) == hash(fresh) and repr(ast) == repr(fresh)
    assert ast.stages[0] == Stage("rotate", (("theta", 0.3),))


def test_concurrent_first_evaluations_keep_one_segment_tuple(monkeypatch):
    """Contract: threads that race to compile one AST all fold through one
    segment tuple, the one stored first, and later evaluations compile
    nothing. Hooks: circuit._compile, held at a barrier until both threads
    have compiled, and circuit._fold, recording the tuple each folds."""
    compile_, fold = circuit._compile, circuit._fold
    barrier, built, folded = threading.Barrier(2, timeout=30), [], []

    def compile_both(stages):
        segments = compile_(stages)
        built.append(segments)
        barrier.wait()
        return segments

    monkeypatch.setattr(circuit, "_compile", compile_both)
    monkeypatch.setattr(circuit, "_fold", lambda segments, *entries: folded.append(segments)
                        or fold(segments, *entries))
    text = "rotate(theta=0.3); squeeze(eta=0.5); decohere(lambda=0.2); phase(phi=0.4); atten(eta1=0.1, eta2=0.3)"
    ast, inp = parse(text), StokesVector(1.0, 0.3, 0.2, 0.1)
    reports = [None, None]
    threads = [threading.Thread(target=lambda i=i: reports.__setitem__(i, evaluate(ast, inp)))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 2 and built[0] is not built[1] and built[0] == built[1]
    assert len(folded) == 2 and folded[0] is folded[1] and any(folded[0] is segments for segments in built)
    evaluate(ast, inp)
    assert len(built) == 2 and folded[2] is folded[0]
    monkeypatch.undo()
    assert reports[0] == reports[1] == evaluate(parse(text), inp)


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


def record_classes():
    """Every _Record subclass in the package, each module run first.

    Subclasses defined elsewhere (the Twin classes above) stay listed in
    __subclasses__ until the cyclic collector frees them, so only classes
    of twobeam modules count.
    """
    for info in pkgutil.iter_modules(twobeam.__path__):
        importlib.import_module(f"twobeam.{info.name}").__name__  # a lazy module runs on first read
    pending, found = list(_Record.__subclasses__()), []
    while pending:
        cls = pending.pop()
        if cls.__module__.startswith("twobeam."):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def checked_values():
    """Valid values, one per field, of each record class."""
    report = evaluate(parse("rotate(theta=0.3)"), StokesVector(1, 0.5, 0, 0))
    stage = Stage("rotate", (("theta", 0.3),), 2, 5)
    return {
        JonesVector: (1 + 0j, 2j),
        Element2: (1 + 0j, 0j, 0j, 1 + 0j),
        CoherencyMatrix: (1.0, 1.0, 0.5j),
        StokesVector: (1.0, 0.5, 0.0, 0.0),
        Transform4: (tuple(IDENTITY16),),
        StateClass: ("impure", 0.75, 0.5),
        InterpolationParams: (0.5, 1.0, 0.8),
        Stage: tuple(vars(stage).values()),
        CircuitAst: ((stage,),),
        SimulationReport: tuple(getattr(report, f) for f in SimulationReport.__match_args__),
    }


def test_checked_builds_the_record_without_its_hook(monkeypatch):
    """Contract: a record class's _checked, the constructor for values the
    library has checked already, stores what __init__ stores without
    running __post_init__, and takes exactly one value per field. Hooks:
    _checked itself, on every _Record subclass of the package."""
    values = checked_values()
    assert set(record_classes()) == set(values)
    hooks = []
    for cls in values:
        if hasattr(cls, "__post_init__"):
            hook = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, hook=hook: hooks.append(self) or hook(self))
    for cls, args in values.items():
        del hooks[:]
        record = cls._checked(*args)
        assert hooks == []
        built = cls(*args)
        assert len(hooks) == hasattr(cls, "__post_init__")
        assert type(record) is cls and vars(record) == vars(built) and repr(record) == repr(built)
        if cls is not Transform4:  # which compares by identity
            assert record == built
        with pytest.raises(TypeError):
            cls._checked(*args[:-1])
        with pytest.raises(TypeError):
            cls._checked(*args, args[-1])


# Per class, valid values of 0 or 1 for its fields annotated float or
# complex, and the class and message its checks give a non-finite one.
CONVERTED = {
    JonesVector: ((1, 0), NonFiniteError, "Jones amplitudes must be finite"),
    Element2: ((1, 0, 0, 1), NonFiniteError, "element entries must be finite"),
    CoherencyMatrix: ((1, 1, 0), NonFiniteError, "coherency entries must be finite"),
    StokesVector: ((1, 1, 0, 0), NonFiniteError, "Stokes components must be finite"),
    InterpolationParams: ((1, 0), PhysicsError, "alpha and u must be finite"),
    StateClass: (("pure", 0), None, None),  # no check: its number is stored as given
}


def converted_fields(cls):
    return [(i, t) for i, t in enumerate(cls.__annotations__.values()) if t is float or t is complex]


def test_constructors_convert_fields_annotated_float_or_complex():
    """Contract: a record's constructor stores each field annotated float
    or complex converted to exactly that class, and rejects a non-finite
    one with its class's message. Hook: _Record, to list every record
    class of the package."""
    assert {cls for cls in record_classes() if converted_fields(cls)} == set(CONVERTED)
    for cls, (values, error, message) in CONVERTED.items():
        for i, t in converted_fields(cls):
            v = values[i]
            forms = [v, float(v), bool(v), str(v), f"{v}e0", np.int64(v), np.float64(v), np.float32(v),
                     np.bool_(v)] + [np.complex128(v)] * (t is complex)
            for form in forms:
                stored = getattr(cls(*values[:i], form, *values[i + 1:]), cls.__match_args__[i])
                assert type(stored) is t and stored == v, (cls, i, form)
            for bad in ("one", None, [v]):
                with pytest.raises(Exception) as caught:
                    t(bad)
                with pytest.raises(type(caught.value), match=f"^{re.escape(str(caught.value))}$"):
                    cls(*values[:i], bad, *values[i + 1:])
            for nonfinite in (math.inf, -math.inf, math.nan, "nan", "-inf"):
                args = (*values[:i], nonfinite, *values[i + 1:])
                if error is None:
                    assert type(getattr(cls(*args), cls.__match_args__[i])) is t
                    continue
                with pytest.raises(error) as caught:
                    cls(*args)
                assert type(caught.value) is error and str(caught.value) == message


def run_python(code):
    """stdout of a fresh interpreter running code, with the package importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(twobeam.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_checked_is_compiled_on_its_first_call():
    """Contract: a record class's _checked and its dataclass view are built
    on their first read, once per class, and kept on it; importing the
    package builds neither. Hooks: _Record, _FirstRead and _checked."""
    class Pair(_Record):
        x: float
        y: complex

    class Twin(Pair):
        pass

    stub = Pair.__dict__["_checked"]
    assert type(stub) is _FirstRead and "_checked" not in Twin.__dict__
    with pytest.raises(TypeError):
        Twin._checked(1.0)
    compiled = Pair.__dict__["_checked"]
    assert type(compiled) is classmethod and "_checked" not in Twin.__dict__
    twin = Twin._checked(1, 2)
    assert type(twin) is Twin and vars(twin) == {"x": 1, "y": 2} and type(twin.x) is int
    assert Pair.__dict__["_checked"] is compiled and Twin._checked.__func__ is compiled.__func__
    with pytest.raises(TypeError):
        Pair._checked(1.0, 2j, 3j)
    assert vars(Pair(1, 2)) == {"x": 1.0, "y": 2 + 0j}
    # The dataclass view likewise: built on the first read, from a subclass
    # or an instance too, and kept on the declaring class.
    assert type(Pair.__dict__["__dataclass_fields__"]) is _FirstRead
    assert [f.name for f in dataclasses.fields(Twin(1, 2))] == ["x", "y"]
    view = Pair.__dict__["__dataclass_fields__"]
    assert type(view) is dict and "__dataclass_fields__" not in Twin.__dict__
    assert Twin.__dataclass_fields__ is view and dataclasses.fields(Pair)[0] is view["x"]
    # Importing the package builds no record's _checked or dataclass view.
    code = ("import twobeam, twobeam.circuit, twobeam.cli, twobeam.decoherence, twobeam.littlegroup\n"
            "from twobeam.states import _FirstRead, _Record\n"
            "pending, found = _Record.__subclasses__(), []\n"
            "while pending:\n"
            "    cls = pending.pop(); pending.extend(cls.__subclasses__())\n"
            "    found += [(cls.__name__, name) for name in ('_checked', '__dataclass_fields__')\n"
            "              if type(cls.__dict__[name]) is not _FirstRead]\n"
            "print(found)")
    assert run_python(code) == "[]\n"


def test_dataclass_views_are_built_once_per_class():
    # Counts make_dataclass calls by class name in a fresh process, over
    # repeated fields, replace and asdict calls and the asdict of a report
    # of 1200 stages, whose records hold 2400 coherency matrices.
    code = """
import collections, dataclasses, json
made = collections.Counter()
make = dataclasses.make_dataclass
dataclasses.make_dataclass = lambda name, *a, **k: made.update([name]) or make(name, *a, **k)
from twobeam import StokesVector, JonesVector, evaluate, parse
from twobeam.circuit import Stage
s = StokesVector(1, 0.5, 0, 0)
for _ in range(3):
    dataclasses.fields(Stage), dataclasses.fields(s), dataclasses.asdict(JonesVector(1, 2j))
    assert dataclasses.replace(s, s1=0.25) == StokesVector(1, 0.25, 0, 0)
ast = parse("; ".join(["rotate(theta=0.3)", "decohere(lambda=0.01)", "squeeze(eta=0.2)"] * 400))
for _ in range(2):
    report = evaluate(ast, JonesVector(1, 0.5j))
    assert len(dataclasses.asdict(report)["stages"]) == 1200
    dataclasses.replace(report, circuit_format="again")
print(json.dumps(made))
"""
    made = json.loads(run_python(code))
    assert set(made) >= {"Stage", "StokesVector", "JonesVector", "CoherencyMatrix", "SimulationReport",
                         "StateClass"}
    assert set(made.values()) == {1}, made
