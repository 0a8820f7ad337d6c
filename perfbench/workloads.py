"""The benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with a single client: the next
operation starts when the previous one has returned (in cli-mix, when
the child process has exited). Inputs derive from the seed alone and
the program receives only the generated circuit text and states. The
generators draw every parameter from the stated ranges and never drop
a draw, so a draw the program cannot handle shows up as a failure.

The oracle applies closed-form 4x4 Stokes matrices, written here from
the conventions in the README, and shares no code with the package:

* rotate(theta) rotates (s1, s2) by theta; split(ratio) is the rotation
  that keeps `ratio` of beam 1's intensity in beam 1;
* phase(phi) acts on (s2, s3) as [[cos phi, sin phi], [-sin phi, cos phi]];
* squeeze(eta) is a boost of rapidity eta in the (s0, s1) plane;
* atten(eta1, eta2) is e^-(eta1+eta2) (the scalar squared) times the
  boost of rapidity eta2 - eta1;
* decohere(lambda) is diag(1, 1, e^-2 lambda, e^-2 lambda).
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from twobeam import circuit, littlegroup, states

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Agreement required between program and oracle, relative to the
# oracle's s0. Both paths round at every stage; on 2000-stage chains
# they differ by about 1e-13, so 1e-9 leaves room without hiding a
# wrong stage (a wrong sign or angle moves the result at order 1).
STOKES_RTOL = 1e-9
# Off-form residue allowed in standardize output, relative to its s0.
STANDARD_RTOL = 1e-9

ARGS = {
    "rotate": ("theta",),
    "split": ("ratio",),
    "phase": ("phi",),
    "squeeze": ("eta",),
    "atten": ("eta1", "eta2"),
    "decohere": ("lambda",),
}
COHERENT = ("rotate", "split", "phase", "squeeze", "atten")


def draw_stage(rng, kind):
    """(kind, params) with params in text order, from the stated ranges."""
    if kind in ("rotate", "phase"):
        return kind, (rng.uniform(-math.pi, math.pi),)
    if kind == "split":
        return kind, (rng.random(),)
    if kind == "squeeze":
        return kind, (rng.uniform(-1.0, 1.0),)
    if kind == "atten":
        return kind, (rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))
    return kind, (rng.uniform(0.0, 1.0),)


def circuit_text(stages):
    return ";\n".join(
        f"{kind}({', '.join(f'{a}={v!r}' for a, v in zip(ARGS[kind], params))})"
        for kind, params in stages
    )


def draw_stokes(rng, pure):
    """s0 in [0.5, 2]; isotropic direction; degree of polarization 1 or U[0, 1)."""
    s0 = rng.uniform(0.5, 2.0)
    x, y, z = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    r = s0 * (1.0 if pure else rng.random()) / math.sqrt(x * x + y * y + z * z)
    return (s0, r * x, r * y, r * z)


def draw_jones(rng):
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)), complex(
        rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    )


def jones_stokes(psi1, psi2):
    """Stokes vector of amplitudes, with s12 = conj(psi1) psi2."""
    i1, i2, s12 = abs(psi1) ** 2, abs(psi2) ** 2, psi1.conjugate() * psi2
    return np.array([i1 + i2, i1 - i2, 2.0 * s12.real, 2.0 * s12.imag])


def _boost(eta, k=1.0):
    ch, sh = k * math.cosh(eta), k * math.sinh(eta)
    return [[ch, sh, 0.0, 0.0], [sh, ch, 0.0, 0.0], [0.0, 0.0, k, 0.0], [0.0, 0.0, 0.0, k]]


def _rotation(c, s):
    return [[1.0, 0.0, 0.0, 0.0], [0.0, c, -s, 0.0], [0.0, s, c, 0.0], [0.0, 0.0, 0.0, 1.0]]


def stage_matrix(kind, params):
    """Closed-form 4x4 Stokes matrix of one stage."""
    p = params[0]
    if kind == "rotate":
        m = _rotation(math.cos(p), math.sin(p))
    elif kind == "split":
        m = _rotation(2.0 * p - 1.0, -2.0 * math.sqrt(p * (1.0 - p)))
    elif kind == "phase":
        c, s = math.cos(p), math.sin(p)
        m = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, c, s], [0.0, 0.0, -s, c]]
    elif kind == "squeeze":
        m = _boost(p)
    elif kind == "atten":
        m = _boost(params[1] - p, math.exp(-(p + params[1])))
    elif kind == "decohere":
        k = math.exp(-2.0 * p)
        m = np.diag([1.0, 1.0, k, k])
    else:
        raise ValueError(f"unknown stage {kind!r}")
    return np.array(m, dtype=float)


def oracle_stokes(stages, s):
    """Fold the stage matrices over a Stokes vector, first stage first."""
    s = np.asarray(s, dtype=float)
    for kind, params in stages:
        s = stage_matrix(kind, params) @ s
    return s


def oracle_matrix(stages):
    m = np.eye(4)
    for kind, params in stages:
        m = stage_matrix(kind, params) @ m
    return m


def oracle_tag(s):
    norm = s[0] ** 2 - s[1] ** 2 - s[2] ** 2 - s[3] ** 2
    band = states.CLASSIFY_TOL * s[0] ** 2
    if norm < -band:
        return "non-physical"
    return "pure" if norm <= band else "impure"


def _vec(s):
    return (s.s0, s.s1, s.s2, s.s3)


def stokes_error(got, want, tag_got, tag_want):
    """None if a final Stokes vector and its tag match the oracle."""
    err = max(abs(g - w) for g, w in zip(_vec(got), want)) / want[0]
    if not err <= STOKES_RTOL:
        return f"final Stokes differs from the oracle by {err:.3e} of s0"
    if tag_got != tag_want:
        return f"classification {tag_got!r}, oracle says {tag_want!r}"
    return None


def standard_form_error(std, tag):
    """None if standardize gave (c,0,0,0) for impure or c(1,1,0,0) for pure."""
    v = _vec(std)
    if tag == "impure":
        off = max(abs(v[1]), abs(v[2]), abs(v[3]))
    else:
        off = max(abs(v[0] - v[1]), abs(v[2]), abs(v[3]))
    if not (v[0] > 0.0 and off <= STANDARD_RTOL * v[0]):
        return f"standardize output {v} is not the {tag} standard form"
    return None


class Workload:
    """One closed-loop client; subclasses define the operation."""

    name = ""
    why = ""
    sizes = {}
    # Untraced runs attempt a fixed number of operations, this many per
    # second of --seconds: the rate of operations, with their inputs and
    # checks, on the reference machine.
    ops_per_second = 1.0
    # Traced runs repeat a fixed number of operations, so that calls per
    # operation repeat exactly; this many per second of --seconds.
    trace_ops_per_second = 1.0

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)

    def trace_ops(self, seconds):
        return max(2, int(seconds * self.trace_ops_per_second))

    def traced_op(self, tracer, op_id, inp):
        return tracer.run_op(op_id, self.op, inp)

    def warm_up(self, cases):
        """Run untimed operations; a refusal by the program is reported, not fatal."""
        for case in cases:
            try:
                self.op(case)
            except (ValueError, ArithmeticError) as exc:
                print(f"warm-up operation failed: {exc}", file=sys.stderr)


class LongChainCase(NamedTuple):
    text: str
    jones: states.JonesVector
    want: np.ndarray
    tag: str


class LongChain(Workload):
    name = "long-chain"
    why = (
        "per-stage cost of circuit.parse, the circuit.evaluate loop and states "
        "validation dominates, with the Jones track live through every stage"
    )
    ops_per_second = 6.2
    trace_ops_per_second = 1.0

    def __init__(self, seed, workdir, stages=2000):
        super().__init__(seed, workdir)
        self.stages = stages
        self.sizes = {
            "stages_per_circuit": stages,
            "stage_kinds": "uniform over rotate, split(ratio in [0,1]), phase, "
            "squeeze(|eta| <= 1), atten(eta1, eta2 in [0, 0.05])",
            "operation": "parse a fresh circuit, evaluate it from a Jones input",
        }

    def setup(self):
        self.warm_up([self.make_input(-1)])

    def make_input(self, i):
        rng = self.rng
        stages = [draw_stage(rng, rng.choice(COHERENT)) for _ in range(self.stages)]
        psi = draw_jones(rng)
        want = oracle_stokes(stages, jones_stokes(*psi))
        return LongChainCase(circuit_text(stages), states.JonesVector(*psi), want, oracle_tag(want))

    def op(self, case):
        return circuit.evaluate(circuit.parse(case.text), case.jones)

    def check(self, case, report):
        c = report.final_classification
        return stokes_error(report.final_stokes, case.want, c.tag, case.tag)


class SweepCase(NamedTuple):
    stokes: states.StokesVector
    want: np.ndarray
    tag: str


class StateSweep(Workload):
    name = "state-sweep"
    why = (
        "one parsed 16-stage circuit with decohere stages, many short evaluate "
        "calls from Stokes inputs: per-call cost and the decoherence path dominate"
    )
    warmup = 200
    sizes = {
        "stages_per_circuit": 16,
        "stage_kinds": "every 4th stage decohere(lambda in [0, 1]); the others "
        "uniform over rotate, split, phase, squeeze(|eta| <= 1), atten(<= 0.05)",
        "operation": "evaluate one Stokes input, then classify and standardize "
        "the output; inputs alternate pure and impure (polarization U[0,1))",
        "warmup_operations": warmup,
    }
    ops_per_second = 1450.0
    trace_ops_per_second = 150.0

    def setup(self):
        rng = self.rng
        kinds = ["decohere" if k % 4 == 3 else rng.choice(COHERENT) for k in range(16)]
        stages = [draw_stage(rng, k) for k in kinds]
        self.ast = circuit.parse(circuit_text(stages))
        self.matrix = oracle_matrix(stages)
        self.warm_up(self.make_input(i) for i in range(self.warmup))

    def make_input(self, i):
        s = draw_stokes(self.rng, pure=i % 2 == 0)
        want = self.matrix @ np.array(s)
        return SweepCase(states.StokesVector(*s), want, oracle_tag(want))

    def op(self, case):
        report = circuit.evaluate(self.ast, case.stokes)
        cls = littlegroup.classify(report.final_stokes)
        _, std = littlegroup.standardize(report.final_stokes)
        return report, cls, std

    def check(self, case, out):
        report, cls, std = out
        c = report.final_classification
        return (
            stokes_error(report.final_stokes, case.want, c.tag, case.tag)
            or (None if cls.tag == case.tag else f"classify gave {cls.tag!r}")
            or standard_form_error(std, case.tag)
        )


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def _det1_matrix(rng):
    """Row-major rotation * diag(e^s, e^-s) * rotation, s in [-1, 1]."""
    a, b = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    s = rng.uniform(-1.0, 1.0)

    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    return (rot(a) @ np.diag([math.exp(s), math.exp(-s)]) @ rot(b)).ravel()


class CliCase(NamedTuple):
    slot: int
    argv: tuple


class CliMix(Workload):
    name = "cli-mix"
    why = (
        "one python -m twobeam.cli process per operation: interpreter start, "
        "numpy import, argparse and report output dominate"
    )
    sizes = {
        "stages_per_circuit": 8,
        "operation": "one child process, run until it exits",
        "mix": "cycle of simulate --format=json (Jones input), simulate "
        "--format=text (Stokes input), classify, lift, littlegroup "
        "closed-form family, littlegroup conjugated rotation, decompose "
        "iwasawa, decompose wigner",
    }
    ops_per_second = 5.2
    trace_ops_per_second = 1.6

    def trace_ops(self, seconds):
        return 8 * max(1, round(seconds * self.trace_ops_per_second / 8))

    def setup(self):
        rng = self.rng
        stages = [draw_stage(rng, rng.choice(tuple(ARGS))) for _ in range(8)]
        text = circuit_text(stages)
        path = self.workdir / "circuit.txt"
        path.write_text(text + "\n")
        rel = os.path.relpath(path, ROOT)
        psi = draw_jones(rng)
        report = circuit.evaluate(circuit.parse(text), states.JonesVector(*psi))
        self.final_stokes = list(_vec(report.final_stokes))
        jones = _csv([psi[0].real, psi[0].imag, psi[1].real, psi[1].imag])
        element = rng.choice(("rotate theta", "phase phi", "squeeze eta"))
        self.argvs = [
            ("simulate", rel, f"--in=jones:{jones}", "--format=json"),
            ("simulate", rel, f"--in=stokes:{_csv(draw_stokes(rng, False))}", "--format=text"),
            ("classify", _csv(draw_stokes(rng, rng.random() < 0.5)), "--format=json"),
            ("lift", f"{element}={rng.uniform(-1.0, 1.0)!r}", "--format=json"),
            ("littlegroup", f"--alpha={rng.random()!r}", f"--u={rng.uniform(-2.0, 2.0)!r}",
             "--format=json"),
            ("littlegroup", f"--theta={rng.uniform(-math.pi, math.pi)!r}",
             f"--eta={rng.uniform(-1.0, 1.0)!r}", "--format=json"),
            ("decompose", "iwasawa", f"--matrix={_csv(_det1_matrix(rng))}", "--format=json"),
            ("decompose", "wigner", f"--matrix={_csv(_det1_matrix(rng))}", "--format=json"),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # The warm-up outputs are the references for byte-identity.
        self.reference = [self.op(CliCase(k, a))[1] for k, a in enumerate(self.argvs)]

    def make_input(self, i):
        k = i % len(self.argvs)
        return CliCase(k, self.argvs[k])

    def _run(self, cmd):
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=60)
        return done.returncode, done.stdout

    def op(self, case):
        return self._run([sys.executable, "-m", "twobeam.cli", *case.argv])

    def traced_op(self, tracer, op_id, case):
        spans = self.workdir / f"spans-{op_id}.npz"
        out = self._run([sys.executable, str(HERE / "tracechild.py"), str(spans), *case.argv])
        with np.load(spans) as z:
            tracer.absorb(list(z["names"]), z["start"], z["end"], z["name"], z["parent"], op_id)
        spans.unlink()
        return out

    def check(self, case, out):
        code, stdout = out
        if code != 0:
            return f"{case.argv[0]} exited with {code}"
        if stdout != self.reference[case.slot]:
            return f"{case.argv[0]} output differs from an identical earlier invocation"
        if "--format=json" not in case.argv:
            return None
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return f"{case.argv[0]} printed invalid JSON: {exc}"
        if doc.get("schema_version") != "report-v1" or doc.get("command") != case.argv[0]:
            return f"{case.argv[0]} output is not a report-v1 {case.argv[0]} envelope"
        if case.slot == 0 and doc["results"]["final_stokes"] != self.final_stokes:
            return "simulate final_stokes differs from the in-process evaluate result"
        return None


WORKLOADS = {w.name: w for w in (LongChain, StateSweep, CliMix)}
