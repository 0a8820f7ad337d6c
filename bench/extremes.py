"""Seeded search of extreme circuits: what evaluate rejects though the exact
result is representable, and how far what it accepts is from exact.

    python3 bench/extremes.py
    python3 bench/extremes.py --parent HEAD --circuits 500

The script draws --circuits seeded circuits of 2 to 6 stages, each kind
equally likely: rotate and phase angles in [-pi, pi], split ratios in
[0, 1], squeeze |eta| <= 1200, atten exponents in [0, 700] and decohere
lambda in [0, 5]. Even-numbered circuits run from a seeded Jones input,
odd-numbered ones from a seeded Stokes input, pure or partly polarized,
of intensity 0.5 to 2.

The oracle is written here from the README's conventions and shares no
code with the package: each stage's closed-form 4x4 Stokes matrix in
mpmath, at 20 + 2 sum|eta| / ln 10 digits, so that a boost's
cancellation leaves 20. The bound is the running bound of
tests/test_fold_accuracy.py: each component errs by at most
2 sqrt 2 gamma_13 (sum_k G_k size_k + size_n), size_k the exact s0 after
stage k and G_k the 2-norm of the product of the Stokes matrices of the
stages after k.

It prints the counts of accepted and rejected circuits, the worst
accepted error as a fraction of the bound where the exact final s0 is a
normal float, the count and worst ratio of accepted circuits whose exact
s0 is subnormal (the bound has no underflow term, and such a result has
lost precision to it), and every rejection whose
exact final s0 lies in [1e-150, 1e150], leaving out circuits with a
squeeze whose own entries e^(|eta|/2) overflow (none at |eta| <= 1200).
With --parent, a git revision exported as bench/record.py exports it or
a directory holding src/twobeam, it also evaluates every circuit with
that package and lists each whose outcome differs: accepted, or the
error's class and message. It sets no pass/fail gate.
"""

import argparse
import math
import random
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np

from ab import load  # bench/ is the script's directory, so on sys.path
from record import ROOT, export

KINDS = ("rotate", "split", "phase", "atten", "squeeze", "decohere")
U = sys.float_info.epsilon / 2
WINDOW = (1e-150, 1e150)


def draw_stage(rng):
    """(text, name, canonical parameters) of a random stage."""
    kind = rng.choice(KINDS)
    if kind in ("rotate", "phase"):
        value = rng.uniform(-math.pi, math.pi)
        return f"{kind}({'theta' if kind == 'rotate' else 'phi'}={value!r})", kind, (value,)
    if kind == "split":
        ratio = rng.random()
        return f"split(ratio={ratio!r})", kind, (-2.0 * math.acos(math.sqrt(ratio)),)
    if kind == "squeeze":
        eta = rng.uniform(-1200.0, 1200.0)
        return f"squeeze(eta={eta!r})", kind, (eta,)
    if kind == "atten":
        eta1, eta2 = rng.uniform(0.0, 700.0), rng.uniform(0.0, 700.0)
        return f"atten(eta1={eta1!r}, eta2={eta2!r})", kind, (eta1, eta2)
    lam = rng.uniform(0.0, 5.0)
    return f"decohere(lambda={lam!r})", kind, (lam,)


def draw_input(rng, jones):
    """("jones", (psi1, psi2)) or ("stokes", (s0, s1, s2, s3))."""
    if jones:
        return "jones", tuple(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2))
    s0 = rng.uniform(0.5, 2.0)
    x, y, z = (rng.gauss(0.0, 1.0) for _ in range(3))
    r = s0 * rng.choice((1.0, rng.random())) / math.sqrt(x * x + y * y + z * z)
    return "stokes", (s0, r * x, r * y, r * z)


def stokes_matrix(mp, name, p):
    """The 4x4 Stokes matrix of a stage with canonical parameters p, in mp.

    A rotation by theta turns (s1, s2) by theta; a phase shift by phi
    turns (s2, s3) by -phi; squeeze(eta) is a boost of rapidity eta in
    the (s0, s1) plane; atten(eta1, eta2) is e^-(eta1 + eta2) times the
    boost of rapidity eta2 - eta1; decohere(lambda) scales s2 and s3 by
    e^-2 lambda.
    """
    one, zero = mp.mpf(1), mp.mpf(0)
    if name in ("rotate", "split", "phase"):
        c, s = mp.cos(p[0]), mp.sin(p[0])
        if name == "phase":
            return mp.matrix([[one, zero, zero, zero], [zero, one, zero, zero],
                              [zero, zero, c, s], [zero, zero, -s, c]])
        return mp.matrix([[one, zero, zero, zero], [zero, c, -s, zero],
                          [zero, s, c, zero], [zero, zero, zero, one]])
    if name == "decohere":
        k = mp.exp(-2 * mp.mpf(p[0]))
        return mp.diag([one, one, k, k])
    eta, k = (mp.mpf(p[0]), one) if name == "squeeze" else (
        mp.mpf(p[1]) - mp.mpf(p[0]), mp.exp(-(mp.mpf(p[0]) + mp.mpf(p[1]))))
    ch, sh = k * mp.cosh(eta), k * mp.sinh(eta)
    return mp.matrix([[ch, sh, zero, zero], [sh, ch, zero, zero],
                      [zero, zero, k, zero], [zero, zero, zero, k]])


def input_stokes(mp, kind, values):
    if kind == "stokes":
        return mp.matrix([mp.mpf(x) for x in values])
    p1, p2 = (mp.mpc(x) for x in values)
    i1, i2, s12 = abs(p1) ** 2, abs(p2) ** 2, mp.conj(p1) * p2
    return mp.matrix([i1 + i2, i1 - i2, 2 * s12.real, 2 * s12.imag])


def oracle(stages, kind, values):
    """(the exact final Stokes vector, the bound of every component)."""
    mp = mpmath.mp.clone()
    mp.dps = 20 + math.ceil(2 * sum(abs(x) for name, p in stages if name in ("squeeze", "atten") for x in p)
                            / math.log(10))
    v = input_stokes(mp, kind, values)
    sizes = [v[0]]
    for name, p in stages:
        v = stokes_matrix(mp, name, p) * v
        sizes.append(v[0])
    low = mpmath.mp.clone()
    low.dps = 20
    later, gains = low.eye(4), [low.mpf(1)]
    for name, p in reversed(stages):  # G_k: the largest singular value, of the product scaled into floats
        later = later * stokes_matrix(low, name, p)
        big = max(abs(x) for x in later)
        scaled = np.array([[float(later[i, j] / big) for j in range(4)] for i in range(4)])
        gains.append(big * float(np.linalg.svd(scaled, compute_uv=False)[0]))
    terms = sum(g * s for g, s in zip(gains[::-1], sizes)) + sizes[-1]
    n = 13
    return list(v), 2 * mp.sqrt(2) * n * U / (1 - n * U) * terms


def outcome(package, text, kind, values):
    """The final Stokes vector evaluate returns, or the error's "Class: message"."""
    state = (package.JonesVector if kind == "jones" else package.StokesVector)(*values)
    try:
        report = package.evaluate(package.parse(text), state)
    except (package.CircuitError, package.PhysicsError) as err:
        return f"{type(err).__name__}: {err}"
    s = report.final_stokes
    return s.s0, s.s1, s.s2, s.s3


def circuits(seed, n):
    rng = random.Random(seed)
    for i in range(n):
        drawn = [draw_stage(rng) for _ in range(rng.randint(2, 6))]
        kind, values = draw_input(rng, i % 2 == 0)
        yield i, "; ".join(text for text, _, _ in drawn), [(name, p) for _, name, p in drawn], kind, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--circuits", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=44)
    parser.add_argument("--parent", default=None,
                        help="git revision, or a directory holding src/twobeam, to list changed outcomes against")
    args = parser.parse_args(argv)

    change = load(ROOT / "src" / "twobeam", "twobeam_change")
    with tempfile.TemporaryDirectory() as tmp:
        parent = None
        if args.parent is not None:
            checkout = Path(args.parent)
            if not (checkout / "src" / "twobeam").is_dir():
                checkout = export(args.parent, Path(tmp) / "parent")
            parent = load(checkout / "src" / "twobeam", "twobeam_parent")
        accepted, rejected, missed, changed, worst, subnormal = 0, 0, [], [], (0.0, None), []
        for i, text, stages, kind, values in circuits(args.seed, args.circuits):
            got = outcome(change, text, kind, values)
            if parent is not None:
                old = outcome(parent, text, kind, values)
                if isinstance(old, str) != isinstance(got, str) or isinstance(got, str) and old != got:
                    changed.append((i, text, kind, values, old, got))
            want, bound = oracle(stages, kind, values)
            if isinstance(got, str):
                rejected += 1
                overflows = any(name == "squeeze" and abs(p[0]) / 2 > math.log(sys.float_info.max)
                                for name, p in stages)
                if WINDOW[0] <= want[0] <= WINDOW[1] and not overflows:
                    missed.append((i, text, kind, values, got, want[0]))
                continue
            accepted += 1
            ratio = float(max(abs(mpmath.mpf(g) - w) for g, w in zip(got, want)) / bound)
            if want[0] < sys.float_info.min:
                subnormal.append(ratio)
            elif ratio > worst[0]:
                worst = (ratio, (i, text, kind, values))

    print(f"extremes: {args.circuits} circuits of 2-6 stages, seed {args.seed}: "
          f"{accepted} accepted, {rejected} rejected")
    print(f"worst accepted error / bound, exact s0 normal: {worst[0]:.3e}" + (
        f" (circuit {worst[1][0]}: {worst[1][1]} from {worst[1][2]}:{worst[1][3]})" if worst[1] else ""))
    print(f"accepted with a subnormal exact s0: {len(subnormal)}, worst error / bound "
          f"{max(subnormal, default=0.0):.3e}, {sum(r > 1.0 for r in subnormal)} past the bound")
    print(f"rejections with exact s0 in [{WINDOW[0]:g}, {WINDOW[1]:g}]: {len(missed)}")
    for i, text, kind, values, got, s0 in missed:
        print(f"  circuit {i}: {text} from {kind}:{values}: {got} (exact s0 {mpmath.nstr(s0, 6)})")
    if parent is not None:
        print(f"outcomes changed against {args.parent}: {len(changed)}")
        for i, text, kind, values, old, new in changed:
            show = [o if isinstance(o, str) else "accepted" for o in (old, new)]
            print(f"  circuit {i}: {text} from {kind}:{values}: {show[0]} -> {show[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
