"""Output differential of the `twobeam` command line between two revisions.

    python3 bench/differential.py --parent HEAD~1
    python3 bench/differential.py --parent A --change B

Each side runs from a fresh copy in a temporary directory, made as
bench/record.py makes it: the parent revision (and --change, when
given) exported with `git archive`, and without --change a copy of the
working tree. A fixed seeded list of `twobeam` argument vectors covers
all five subcommands in both formats, with and without --tol, Jones and
Stokes inputs at intensities from 1e-100 to 1e100, and circuit files
with comments, `deg`, atten's arguments in either order, decohere,
chains that overflow or underflow, and invalid text. After those come
the two-word `--matrix` spelling with a negative first entry,
conjugated rotations with |eta| up to 300 (4x4 products whose entries
reach cosh(300)^2), and `decompose wigner` of sigma = 20
recompositions. Last come `simulate` vectors for the per-stage gate of
the evaluator: pure inputs against squeeze(eta=+-20...40), lambda up to
50, an atten that underflows to zero and a squeeze that overflows
mid-chain, from Jones and Stokes inputs at intensities 1e-300 and 1e300.
After them come 500-stage circuit files drawn like the others, so some
atten stages name eta2 first; the last file has a malformed stage near
its end. Each runs from a Jones and a Stokes input, in both formats.
Three fixed vectors come next, after the seeded ones, so those are drawn
as before: two spacelike Stokes inputs that the light cone passes
under their --tol (the default, and 0.05) and the coherency gate does
not, and `decompose iwasawa` of the sigma = 20 recomposition
r(0.3) diag(e^20, e^-20) r(0.4). Vectors appended after them leave
those draws as they are: `simulate` from inputs whose intensity
underflows to zero (`jones:1e-200,0,0,0`, `stokes:5e-324,0,0,0`) and
from dark ones; a circuit of three decohere stages around a squeeze of
eta = 20, from Stokes inputs on the light cone, just past it within the
coherency gate's slack, and at intensities 1e-300 and 1e300, in both
formats; both decompositions of the singular 1e6,1e6,1e6,1e6; `simulate`
of atten(eta1=2000, eta2=0), whose exponents lie too far apart for a
factored e^-(eta1+eta2)/2 squeezer(eta2 - eta1), from a Jones and a
Stokes input in both formats, and its `lift`; the older `lift`
spelling with a `deg` word, 'rotate theta=30 deg'; `simulate` of
squeeze(eta=400); rotate(theta=0.3); squeeze(eta=-400), whose state
overflows inside that one coherent segment, from a unit Stokes input in
both formats; and a circuit with runs of decohere stages between short
coherent runs, from Stokes and Jones inputs at intensities 1e-300 and
1e300, in both formats; and a nine-stage circuit of two decohere stages
between coherent runs, from StokesVector(1, 0.3, -0.5, 0.6) and from
that input times 2^-520, below the segments' range, so that one report
is folded and the other runs the stage loop, in both formats.
Each circuit file is written once into one temporary
directory, so the circuit_path a report echoes is the same on both
sides. Each side runs every vector in-process through `cli.main`, in
one child interpreter.

Every invocation whose exit code, stdout or stderr differs is printed
with both sides' output; the exit status is 1 if any differ, else 0.
Standard library only.
"""

import argparse
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from record import copy_worktree, export  # bench/ is the script's directory, so on sys.path

SEED = 15

# Run in each side's checkout: the argument vectors come in on stdin, and
# [exit code, stdout, stderr] per vector goes out as one JSON list.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, "src")
from twobeam import cli
outcomes = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an outcome to compare
            code = f"raised {type(exc).__name__}: {exc}"
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump(outcomes, sys.stdout)
"""

GAPS = ("", " ", "\n", " # note\n", "\n# two\n# lines\n", "\t", "\r\n")
BAD_STAGES = (
    "decohere(lambda=-0.5)", "rotate(theta=1", "twist(theta=1)", "atten(eta1=1, eta1=2)",
    "split(ratio=1.5)", "rotate(theta=1e400)", "phase(phi=0.1 rad)", "squeeze(eta=1 deg)",
    "atten(eta2=0.3)", "split(ratio=0.5, theta=1)", "rotate(theta=0.5,)", "phase(phi=٣)",
)


def number(rng, x):
    return rng.choice((repr(x), f"{x:.3e}", f"{x:+.6f}", f"{x:.2f}"))


def stage(rng):
    """One valid stage: every kind, deg angles, split's ratio, atten in either order."""
    kind = rng.choice(("rotate", "split", "phase", "atten", "squeeze", "decohere"))
    if kind == "split" and rng.random() < 0.4:
        return f"split(ratio={number(rng, rng.random())})"
    if kind in ("rotate", "split", "phase"):
        key = "phi" if kind == "phase" else "theta"
        if rng.random() < 0.3:
            return f"{kind}({key}={number(rng, rng.uniform(-180.0, 180.0))}{rng.choice(GAPS)}deg)"
        return f"{kind}({key}={number(rng, rng.uniform(-4.0, 4.0))})"
    if kind == "atten":
        args = [f"eta{i}{rng.choice(GAPS)}={number(rng, rng.uniform(0.0, 2.0))}" for i in (1, 2)]
        if rng.random() < 0.5:
            args.reverse()
        return f"atten({', '.join(args)})"
    if kind == "squeeze":
        return f"squeeze(eta={number(rng, rng.uniform(-2.0, 2.0))})"
    return f"decohere(lambda={number(rng, rng.uniform(0.0, 3.0))})"


def circuit_text(rng, kind):
    stages = [stage(rng) for _ in range(rng.randint(1, 8))]
    if kind == "overflow":
        extreme = rng.choice(("squeeze(eta=300)", "squeeze(eta=-300)", "atten(eta1=400, eta2=400)"))
        stages.insert(rng.randrange(len(stages) + 1), "; ".join([extreme] * rng.randint(2, 5)))
    elif kind == "bad":
        stages.insert(rng.randrange(len(stages) + 1), rng.choice(BAD_STAGES))
    text = rng.choice(GAPS) + ";".join(rng.choice(GAPS) + s + rng.choice(GAPS) for s in stages)
    if kind == "mutated":
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(";(),=#x-.e") + text[i + rng.randrange(2):]
    return text + rng.choice(("", ";", "# trailing comment"))


def direction(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v)) or 1.0
    return [x / n for x in v]


def stokes(rng):
    """s0 from 1e-100 to 1e100, degree of polarization mostly within [0, 1]."""
    s0 = 10.0 ** rng.randint(-100, 100) * rng.uniform(0.5, 2.0)
    p = rng.choice((0.0, 1.0, 1.0 + 1e-12, 1.5, rng.random(), rng.random()))
    return [s0] + [s0 * p * x for x in direction(rng)]


def reals(values):
    return ",".join(repr(x) for x in values)


def input_spec(rng):
    if rng.random() < 0.5:
        scale = 10.0 ** (rng.randint(-100, 100) / 2)
        return "jones:" + reals(scale * rng.gauss(0.0, 1.0) for _ in range(4))
    return "stokes:" + reals(stokes(rng))


def det1(rng):
    """Row-major entries of r(t) d(s) [[1, h], [0, 1]], of unit determinant."""
    t, s, h = rng.uniform(-math.pi, math.pi), rng.uniform(-10.0, 10.0), rng.uniform(-3.0, 3.0)
    c, sn, e = math.cos(t), math.sin(t), math.exp(s)
    return [c * e, c * e * h - sn / e, sn * e, sn * e * h + c / e]


def wigner(a, sigma, b):
    """Row-major entries of r(a) diag(e^sigma, e^-sigma) r(b), with r(t) the rotation
    [[cos t, -sin t], [sin t, cos t]]: a Wigner recomposition."""
    ca, sa, cb, sb, e = math.cos(a), math.sin(a), math.cos(b), math.sin(b), math.exp(sigma)
    return [ca * e * cb - sa / e * sb, -ca * e * sb - sa / e * cb,
            sa * e * cb + ca / e * sb, ca / e * cb - sa * e * sb]


# Unit-determinant matrices whose factors reach the float range, singular
# or overflowing determinants, and malformed lists.
EDGE_MATRICES = (
    "1e-300,1e300,0,1e300", "1e-300,1e308,0,1e300", "1.5e308,0,1.5e308,6.666666666666667e-309",
    "1e300,1e300,1e300,1e300", "2,0,0,1", "1,0,0", "1,0,0,1", "0,-1,1,0", "-1,0,0,-1",
)
# Circuits for the per-stage gate: squeezes of |eta| 20 to 40 on pure
# inputs, lambda up to 50, an atten that underflows a unit beam to zero
# and a second squeeze(eta=400) that overflows it mid-chain.
GATE_CIRCUITS = (
    "squeeze(eta=20)", "squeeze(eta=-20)", "squeeze(eta=40)", "squeeze(eta=-40)",
    "rotate(theta=0.7); squeeze(eta=30); phase(phi=-1.1); squeeze(eta=-35)",
    "decohere(lambda=50)", "rotate(theta=0.4); decohere(lambda=20); squeeze(eta=3); decohere(lambda=35)",
    "phase(phi=0.3); atten(eta1=400, eta2=400); rotate(theta=1)",
    "split(ratio=0.3); squeeze(eta=400); phase(phi=0.7); squeeze(eta=400); rotate(theta=0.2)",
    "atten(eta1=40, eta2=0.5); decohere(lambda=12.5); squeeze(eta=-25)",
)
# decohere stages on states on the light cone, or past it within the
# coherency gate's slack, and at intensities 1e-300 and 1e300.
DECOHERE_CIRCUIT = "decohere(lambda=0.5); squeeze(eta=20); decohere(lambda=3); rotate(theta=1); decohere(lambda=0)"
DECOHERE_INPUTS = (
    "stokes:1,1.000000000001,0,0", "stokes:1,0.6,0.8000000000001,0",
    "stokes:1e-300,6e-301,8e-301,0", "stokes:1e300,-6e299,0,8e299",
)
# An atten whose factored form overflows: squeezer(-2000) needs e^1000.
FAR_ATTEN = "atten(eta1=2000, eta2=0)"
# One coherent segment inside which the state overflows, at its third stage;
# and runs of decohere stages between coherent runs.
SEGMENT_OVERFLOW = "squeeze(eta=400); rotate(theta=0.3); squeeze(eta=-400)"
DECOHERE_RUNS = ("decohere(lambda=0.2); decohere(lambda=0.7); rotate(theta=0.5); squeeze(eta=1.5); "
                 "decohere(lambda=2); decohere(lambda=0.1); decohere(lambda=5); phase(phi=0.3); "
                 "split(ratio=0.4); atten(eta1=0.2, eta2=0.1); decohere(lambda=1)")
DECOHERE_RUNS_INPUTS = (
    "stokes:1e-300,3e-301,-4e-301,5e-301", "stokes:1e300,-3e299,4e299,5e299",
    "jones:6e-151,-2e-151,5e-151,4e-151", "jones:6e149,-2e149,5e149,4e149",
)
# Coherent runs between decohere stages, from an input the fold takes and
# from the same input scaled exactly below the segments' range.
TWO_PATHS = ("rotate(theta=0.3); squeeze(eta=0.7); phase(phi=1.1); decohere(lambda=0.2); "
             "rotate(theta=-0.9); squeeze(eta=-0.4); atten(eta1=0.1, eta2=0.3); "
             "decohere(lambda=0.1); phase(phi=0.5)")
TWO_PATHS_INPUT = (1.0, 0.3, -0.5, 0.6)
LIFT_SPECS = (
    "rotate(theta=0.3)", "phase(phi=-1.2)", "squeeze(eta=0.6)", "squeeze eta=0.6", "rotate theta=2",
    "split(ratio=0.25)", "split(theta=30 deg)", "atten(eta1=0.2, eta2=0.5)",
    "atten(eta2=0.5, eta1=0.2)", "decohere(lambda=1)", "squeeze(eta=800)", "twist(theta=1)",
    "rotate(theta=1); phase(phi=2)", "phase",
)


def vectors(rng, circuit_dir):
    """The argument vectors; writes their circuit files under circuit_dir."""
    paths = []
    for i, kind in enumerate(["valid"] * 150 + ["overflow"] * 30 + ["bad"] * 30 + ["mutated"] * 30):
        path = circuit_dir / f"c{i:03d}.circ"
        path.write_text(circuit_text(rng, kind), encoding="utf-8")
        paths.append(str(path))
    paths.append(str(circuit_dir / "missing.circ"))

    def fmt():
        return ["--format", rng.choice(("json", "text"))]

    def tol():  # the default two times in three
        return rng.choice(([], [], ["--tol", rng.choice(("1e-3", "1e-12", "1e-15", "0.05"))]))

    out = []
    for i in range(360):
        out.append(["simulate", paths[i % len(paths)], "--in", input_spec(rng), *fmt(), *tol()])
    for _ in range(100):
        out.append(["classify", reals(stokes(rng)), *fmt(), *tol()])
    out += [["classify", "1,2,3", *fmt()], ["classify", "1,0,0,0", "--tol", "-1"]]
    for spec in LIFT_SPECS * 4:
        out.append(["lift", spec, *fmt()])
    for _ in range(60):
        if rng.random() < 0.5:
            args = ["--alpha", repr(rng.choice((0.0, 1.0, rng.random()))), "--u", repr(rng.uniform(-3, 3))]
        else:
            args = ["--theta", repr(rng.uniform(-4, 4)), "--eta", repr(rng.choice((rng.uniform(-3, 3), 800.0)))]
        out.append(["littlegroup", *rng.choice((args, args, args[:2], args + ["--u", "1"])), *fmt()])
    for kind in ("iwasawa", "wigner"):
        for _ in range(45):
            # one word, which every revision parses; two-word vectors come last
            out.append(["decompose", kind, f"--matrix={reals(det1(rng))}", *fmt()])
        for matrix in EDGE_MATRICES:
            out.append(["decompose", kind, f"--matrix={matrix}", *fmt()])
    for kind in ("iwasawa", "wigner"):
        for _ in range(10):
            m = det1(rng)  # -m has det 1 too
            m = m if m[0] < 0.0 else [-x for x in m]
            out.append(["decompose", kind, "--matrix", reals(m), *fmt()])
        out.append(["decompose", kind, "--matrix", "-1,0,0,-1", *fmt()])
    for _ in range(20):
        eta = rng.choice((rng.uniform(-300.0, 300.0), rng.uniform(-30.0, 30.0), 300.0, -300.0))
        out.append(["littlegroup", "--theta", repr(rng.uniform(-4.0, 4.0)), "--eta", repr(eta), *fmt()])
    for _ in range(10):
        m = wigner(rng.uniform(-math.pi, math.pi), 20.0, rng.uniform(-math.pi, math.pi))
        out.append(["decompose", "wigner", f"--matrix={reals(m)}", *fmt()])
    for i, text in enumerate(GATE_CIRCUITS):
        path = circuit_dir / f"gate{i}.circ"
        path.write_text(text, encoding="utf-8")
        specs = ["stokes:1.0,-1.0,0.0,0.0", "stokes:" + reals([1.0, *direction(rng)])]
        for s0 in (1e-300, 1e300):
            p = rng.choice((0.0, 1.0, rng.random()))
            specs.append("stokes:" + reals([s0] + [s0 * p * x for x in direction(rng)]))
            # a pure beam: unit amplitudes scaled to intensity s0
            amplitudes = direction(rng) + [rng.gauss(0.0, 1.0)]
            n = math.sqrt(sum(x * x for x in amplitudes))
            specs.append("jones:" + reals(math.sqrt(s0) * x / n for x in amplitudes))
        for spec in specs:
            out.append(["simulate", str(path), "--in", spec, *fmt()])
    for i in range(3):
        stages = [stage(rng) for _ in range(500)]
        if i == 2:
            stages[-rng.randint(2, 5)] = rng.choice(BAD_STAGES)
        path = circuit_dir / f"long{i}.circ"
        path.write_text(";\n".join(stages), encoding="utf-8")
        jones = "jones:" + reals(rng.gauss(0.0, 1.0) for _ in range(4))
        p = rng.random()
        for spec in (jones, "stokes:" + reals([1.0] + [p * x for x in direction(rng)])):
            out += [["simulate", str(path), "--in", spec, "--format", f] for f in ("json", "text")]
    path = circuit_dir / "spacelike.circ"
    path.write_text("rotate(theta=0.3)", encoding="utf-8")
    out.append(["simulate", str(path), "--in", "stokes:1,1.00000000001,0,0"])
    out.append(["simulate", str(path), "--in", "stokes:1,1.01,0,0", "--tol", "0.05"])
    out.append(["decompose", "iwasawa", f"--matrix={reals(wigner(0.3, 20.0, 0.4))}", "--format", "json"])
    for spec in ("jones:1e-200,0,0,0", "stokes:5e-324,0,0,0", "jones:0,0,0,0", "stokes:0,0,0,0"):
        out.append(["simulate", str(path), "--in", spec])
    path = circuit_dir / "decohere.circ"
    path.write_text(DECOHERE_CIRCUIT, encoding="utf-8")
    for spec in DECOHERE_INPUTS:
        out += [["simulate", str(path), "--in", spec, "--format", f] for f in ("json", "text")]
    out += [["decompose", kind, "--matrix=1e6,1e6,1e6,1e6"] for kind in ("iwasawa", "wigner")]
    path = circuit_dir / "atten.circ"
    path.write_text(FAR_ATTEN, encoding="utf-8")
    for spec in ("jones:0,0,1,0", "stokes:2,0.5,0.5,0.5"):
        out += [["simulate", str(path), "--in", spec, "--format", f] for f in ("json", "text")]
    out += [["lift", FAR_ATTEN], ["lift", "rotate theta=30 deg"]]
    path = circuit_dir / "segment_overflow.circ"
    path.write_text(SEGMENT_OVERFLOW, encoding="utf-8")
    out += [["simulate", str(path), "--in", "stokes:1,0.3,0.2,0.1", "--format", f] for f in ("json", "text")]
    path = circuit_dir / "decohere_runs.circ"
    path.write_text(DECOHERE_RUNS, encoding="utf-8")
    for spec in DECOHERE_RUNS_INPUTS:
        out += [["simulate", str(path), "--in", spec, "--format", f] for f in ("json", "text")]
    path = circuit_dir / "two_paths.circ"
    path.write_text(TWO_PATHS, encoding="utf-8")
    for scale in (0, -520):
        spec = "stokes:" + reals(math.ldexp(x, scale) for x in TWO_PATHS_INPUT)
        out += [["simulate", str(path), "--in", spec, "--format", f] for f in ("json", "text")]
    return out


def run_side(checkout, argvs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=checkout, input=json.dumps(argvs),
        capture_output=True, text=True, env=env,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the child in {checkout} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", default=None, help="git revision (default: this working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = export(args.parent, tmp / "parent")
        change = export(args.change, tmp / "change") if args.change else copy_worktree(tmp / "change")
        (tmp / "circuits").mkdir()
        argvs = vectors(random.Random(SEED), tmp / "circuits")
        outcomes = zip(run_side(parent, argvs), run_side(change, argvs))
        differ = 0
        for argv_, (old, new) in zip(argvs, outcomes):
            if old != new:
                differ += 1
                print(f"$ twobeam {shlex.join(argv_)}")
                for field, a, b in zip(("exit", "stdout", "stderr"), old, new):
                    if a != b:
                        print(f"  {field} parent: {a!r}\n  {field} change: {b!r}")
    print(f"{differ} of {len(argvs)} invocations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
