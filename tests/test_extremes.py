"""bench/extremes.py's two claims, on a seeded slice of its circuits and on
named cases: evaluate rejects no circuit whose exact final s0 lies in
[1e-150, 1e150], and every result it accepts is within the running bound.
No state below the normal floats is accepted, so no result has lost
precision to underflow, which the bound does not cover. The script's own
circuits, oracle and outcome are used, with bench/ on sys.path; its draws
reach no squeeze whose own entries overflow, which it leaves out."""

import importlib.util
import itertools
from pathlib import Path

import mpmath
import pytest

import twobeam

ROOT = Path(__file__).resolve().parent.parent
INPUT_UNDERFLOWS = "PhysicsError: evaluation requires positive input intensity (it underflows to zero)"


@pytest.fixture
def extremes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("extremes", ROOT / "bench" / "extremes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def claimed(extremes, text, stages, kind, values):
    """The outcome of a circuit, once both claims hold for it."""
    got = extremes.outcome(twobeam, text, kind, values)
    want, bound = extremes.oracle(stages, kind, values)
    if isinstance(got, str):
        low, high = extremes.WINDOW
        assert not low <= want[0] <= high, (text, kind, values, got)
    else:
        assert max(abs(mpmath.mpf(g) - w) for g, w in zip(got, want)) <= bound, (text, kind, values)
    return got


def test_a_seeded_slice_keeps_both_claims(extremes):
    # Circuits 600 to 799 of the script's default seed. Five of them, 692
    # among them, pass through a state below the normal floats, whose
    # results lose precision to underflow and where a gate reads noise.
    drawn = itertools.islice(extremes.circuits(44, 800), 600, None)
    outcomes = [claimed(extremes, *circuit[1:]) for circuit in drawn]
    assert 0 < sum(isinstance(got, str) for got in outcomes) < len(outcomes)


def test_states_below_the_normal_floats_are_named_as_underflow(extremes):
    # Circuit 692 of seed 44, whose exact s0 is 2.5e-323, and a Jones input
    # of intensity 1e-320 through a rotation, whose gate would read rounding
    # noise, and through decohere, which keeps the intensity.
    *_, circuit692 = extremes.circuits(44, 693)
    assert claimed(extremes, *circuit692[1:]) == (
        "CircuitSemanticError: 1:58: stage atten: beam attenuated to zero intensity (underflow)")
    for text, name, value in (("rotate(theta=0.3)", "rotate", 0.3), ("decohere(lambda=0.1)", "decohere", 0.1)):
        assert claimed(extremes, text, [(name, (value,))], "jones", (1e-160 + 0j, 0j)) == INPUT_UNDERFLOWS
