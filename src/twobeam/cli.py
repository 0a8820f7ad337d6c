"""Command line front end.

Subcommands: simulate, classify, lift, littlegroup, decompose. Every
subcommand takes --format json|text (default text), --out to write the
report to a file, and --tol to override the classification tolerance.

Exit codes: 0 success, 2 argument or parse errors, 3 semantic or
physicality errors. JSON reports are byte-identical for identical
invocations: keys are emitted in fixed order and floats with 17
significant digits. The envelope is versioned "report-v1".
"""

import argparse
import json
import math
import sys

import numpy as np

from .states import (
    CLASSIFY_TOL,
    JonesVector,
    PhysicsError,
    StokesVector,
    lift,
    metric_defect,
)
from .elements import rotator4
from .littlegroup import (
    InterpolationParams,
    classify,
    closed_form_family,
    conjugated_rotation,
    f1,
    family_metric_defect,
)
from .decoherence import iwasawa_decompose, iwasawa_recompose, wigner_decompose, wigner_recompose
from .circuit import (
    STAGES,
    CircuitError,
    CircuitSemanticError,
    CircuitSyntaxError,
    evaluate,
    parse,
    unparse,
)

__all__ = ["main"]

SCHEMA_VERSION = "report-v1"

# The lift fixes the action of a phase shifter on (s2, s3); quoted 4x4
# forms with the opposite rotation sense amount to phi -> -phi.
PHASE_SIGN_WARNING = (
    "phase sign convention: the induced 4x4 action rotates (s2, s3) by "
    "[[cos phi, sin phi], [-sin phi, cos phi]]; sources quoting the opposite "
    "sense correspond to phi -> -phi"
)


def _fmt(x):
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return f"{x:.17g}"


def _emit_json(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_emit_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _matrix_rows(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _matrix_lines(m, indent="  "):
    return [indent + "[" + ", ".join(_fmt(x) for x in row) + "]" for row in _matrix_rows(m)]


def _stokes_list(s):
    return [s.s0, s.s1, s.s2, s.s3]


def _stokes_text(s):
    return "(" + ", ".join(_fmt(x) for x in _stokes_list(s)) + ")"


def _jones_list(j):
    return [j.psi1.real, j.psi1.imag, j.psi2.real, j.psi2.imag]


def _class_dict(c):
    return {
        "tag": c.tag,
        "invariant_norm": c.invariant_norm,
        "eta_to_standard": c.eta_to_standard,
    }


def _purity_dict(p):
    return {
        "trace": p.trace,
        "trace_sq": p.trace_sq,
        "det": p.det,
        "degree_of_polarization": p.degree_of_polarization,
    }


def _parse_input_spec(spec):
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError("input spec must be 'jones:re1,im1,re2,im2' or 'stokes:s0,s1,s2,s3'")
    try:
        vals = [float(p) for p in rest.split(",")]
    except ValueError:
        raise ValueError(f"bad number in input spec '{spec}'") from None
    if kind == "jones":
        if len(vals) != 4:
            raise ValueError("jones input takes four reals: re1,im1,re2,im2")
        return JonesVector(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    if kind == "stokes":
        if len(vals) != 4:
            raise ValueError("stokes input takes four reals: s0,s1,s2,s3")
        return StokesVector(vals[0], vals[1], vals[2], vals[3])
    raise ValueError(f"unknown input kind '{kind}' (use jones or stokes)")


def _lift_stage(spec):
    """The stage of a one-element lift spec and its matrix k^2 lift(G).

    The spec is circuit text, or the older 'squeeze eta=0.6' spelling,
    which is rewritten to 'squeeze(eta=0.6)' first. Every rejection is
    a plain ValueError, because the spec is a command-line argument.
    """
    text = spec
    if "(" not in spec and spec.strip():
        name, *args = spec.split()
        text = f"{name}({', '.join(args)})"
    try:
        stages = parse(text).stages
    except CircuitError as err:
        raise ValueError(err.message) from None
    coherent = ", ".join(name for name, kind in STAGES.items() if kind.action)
    if len(stages) != 1:
        raise ValueError(f"lift takes one element ({coherent}), got {len(stages)} stages")
    stage = stages[0]
    action = STAGES[stage.name].action
    if action is None:
        raise ValueError(f"{stage.name} is a channel, not an element; lift takes {coherent}")
    try:
        k, g = action(*[value for _, value in stage.params])
        return stage, k * k * lift(g).m
    except PhysicsError as err:
        raise ValueError(f"{stage.name}: {err}") from None
    except OverflowError:
        raise ValueError(f"{stage.name}: element entries overflowed") from None


def _deliver(args, command, inputs, results, warnings, lines):
    if args.format == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "results": results,
            "warnings": list(warnings),
        }
        text = _emit_json(envelope) + "\n"
    else:
        body = list(lines) + [f"warning: {w}" for w in warnings]
        text = "\n".join(body) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _check_tol(args):
    if not math.isfinite(args.tol) or args.tol <= 0.0:
        raise ValueError("--tol must be a positive finite number")


def _stage_dict(r):
    return {
        "stage": r.stage,
        "params": {k: v for k, v in r.params},
        "stokes_before": _stokes_list(r.stokes_before),
        "stokes_after": _stokes_list(r.stokes_after),
        "coherency_after": {
            "s11": r.coherency_after.s11,
            "s22": r.coherency_after.s22,
            "s12": [r.coherency_after.s12.real, r.coherency_after.s12.imag],
        },
        "purity_after": _purity_dict(r.purity_after),
        "classification_after": _class_dict(r.classification_after),
    }


def _cmd_simulate(args):
    _check_tol(args)
    with open(args.circuit) as fh:
        text = fh.read()
    ast = parse(text)
    state = _parse_input_spec(args.input_spec)
    report = evaluate(ast, state, tol=args.tol)
    canonical = unparse(ast)
    warnings = [PHASE_SIGN_WARNING] if any(s.name == "phase" for s in ast.stages) else []

    results = {
        "circuit_format": report.circuit_format,
        "circuit": canonical,
        "stages": [_stage_dict(r) for r in report.stages],
        "final_stokes": _stokes_list(report.final_stokes),
        "final_jones": _jones_list(report.final_jones) if report.final_jones else None,
        "final_purity": _purity_dict(report.final_purity),
        "final_classification": _class_dict(report.final_classification),
    }
    inputs = {"circuit_path": args.circuit, "input": args.input_spec, "tol": args.tol}

    lines = [f"circuit: {canonical}"]
    if report.input_jones is not None:
        lines.append("input jones: " + ", ".join(_fmt(x) for x in _jones_list(report.input_jones)))
    lines.append(f"input stokes: {_stokes_text(report.input_stokes)}")
    for i, r in enumerate(report.stages, 1):
        ptxt = ", ".join(f"{k}={_fmt(v)}" for k, v in r.params)
        lines.append(
            f"stage {i}: {r.stage}({ptxt}) -> stokes {_stokes_text(r.stokes_after)} "
            f"[{r.classification_after.tag}]"
        )
    if report.final_jones is not None:
        lines.append("final jones: " + ", ".join(_fmt(x) for x in _jones_list(report.final_jones)))
    lines.append(f"final stokes: {_stokes_text(report.final_stokes)}")
    cls = report.final_classification
    tail = "" if cls.eta_to_standard is None else f" (eta_to_standard={_fmt(cls.eta_to_standard)})"
    lines.append(f"final classification: {cls.tag}{tail}")
    p = report.final_purity
    lines.append(
        f"final purity: trace_sq={_fmt(p.trace_sq)} det={_fmt(p.det)} "
        f"degree_of_polarization={_fmt(p.degree_of_polarization)}"
    )
    return _deliver(args, "simulate", inputs, results, warnings, lines)


def _cmd_classify(args):
    _check_tol(args)
    try:
        vals = [float(p) for p in args.stokes.split(",")]
    except ValueError:
        raise ValueError(f"bad number in stokes '{args.stokes}'") from None
    if len(vals) != 4:
        raise ValueError("classify takes four comma-separated reals: s0,s1,s2,s3")
    s = StokesVector(vals[0], vals[1], vals[2], vals[3])
    c = classify(s, tol=args.tol)
    results = _class_dict(c)
    results["relative_norm"] = c.invariant_norm / s.s0**2
    inputs = {"stokes": _stokes_list(s), "tol": args.tol}
    lines = [
        f"classification: {c.tag}",
        f"invariant norm: {_fmt(c.invariant_norm)}",
        f"relative norm: {_fmt(results['relative_norm'])}",
        "eta to standard: "
        + ("none" if c.eta_to_standard is None else _fmt(c.eta_to_standard)),
    ]
    return _deliver(args, "classify", inputs, results, [], lines)


def _cmd_lift(args):
    _check_tol(args)
    stage, m = _lift_stage(args.element)
    defect = metric_defect(m)
    warnings = [PHASE_SIGN_WARNING] if stage.name == "phase" else []
    results = {
        "element": stage.name,
        "params": dict(stage.params),
        "matrix": _matrix_rows(m),
        "metric_defect": defect,
    }
    inputs = {"element": args.element, "tol": args.tol}
    ptxt = ", ".join(f"{k}={_fmt(v)}" for k, v in stage.params)
    lines = [f"element: {stage.name} ({ptxt})", "matrix:"]
    lines += _matrix_lines(m)
    lines.append(f"metric defect: {_fmt(defect)}")
    return _deliver(args, "lift", inputs, results, warnings, lines)


def _cmd_littlegroup(args):
    _check_tol(args)
    closed = args.alpha is not None or args.u is not None
    conj = args.theta is not None or args.eta is not None
    if closed and conj:
        raise ValueError("give either --alpha and --u, or --theta and --eta, not both")
    if closed:
        if args.alpha is None or args.u is None:
            raise ValueError("closed-form mode needs both --alpha and --u")
        params = InterpolationParams(args.alpha, args.u)
        t = closed_form_family(params)
        defect = family_metric_defect(params)
        results = {
            "mode": "closed-form-family",
            "alpha": params.alpha,
            "u": params.u,
            "w": params.w,
            "matrix": _matrix_rows(t.m),
            "metric_defect": defect,
            "lorentz": bool(t.lorentz),
        }
        if params.alpha == 1.0:
            results["f1_residual"] = float(np.abs(t.m - f1(params.u).m).max())
        elif params.alpha == 0.0:
            theta = -2.0 * math.atan(params.u / 2.0)
            results["rotator_residual"] = float(np.abs(t.m - rotator4(theta).m).max())
        lines = [
            "mode: closed-form-family",
            f"alpha: {_fmt(params.alpha)}",
            f"u: {_fmt(params.u)}",
            f"w: {_fmt(params.w)}",
            "matrix:",
        ]
        lines += _matrix_lines(t.m)
        lines.append(f"metric defect: {_fmt(defect)}")
        lines.append(f"lorentz: {'yes' if t.lorentz else 'no'}")
        if "f1_residual" in results:
            lines.append(f"f1 residual: {_fmt(results['f1_residual'])}")
        if "rotator_residual" in results:
            lines.append(f"rotator residual: {_fmt(results['rotator_residual'])}")
        inputs = {"alpha": args.alpha, "u": args.u, "tol": args.tol}
        return _deliver(args, "littlegroup", inputs, results, [], lines)
    if args.theta is None or args.eta is None:
        raise ValueError("give --alpha and --u, or --theta and --eta")
    t = conjugated_rotation(args.theta, args.eta)
    defect = metric_defect(t.m)
    fixed = np.array([math.cosh(args.eta), math.sinh(args.eta), 0.0, 0.0])
    residual = float(np.abs(t.m @ fixed - fixed).max())
    results = {
        "mode": "conjugated-rotation",
        "theta": args.theta,
        "eta": args.eta,
        "matrix": _matrix_rows(t.m),
        "metric_defect": defect,
        "fixed_vector_residual": residual,
    }
    inputs = {"theta": args.theta, "eta": args.eta, "tol": args.tol}
    lines = [
        "mode: conjugated-rotation",
        f"theta: {_fmt(args.theta)}",
        f"eta: {_fmt(args.eta)}",
        "matrix:",
    ]
    lines += _matrix_lines(t.m)
    lines.append(f"metric defect: {_fmt(defect)}")
    lines.append(f"fixed vector residual: {_fmt(residual)}")
    return _deliver(args, "littlegroup", inputs, results, [], lines)


def _cmd_decompose(args):
    _check_tol(args)
    try:
        vals = [float(p) for p in args.matrix.split(",")]
    except ValueError:
        raise ValueError(f"bad number in matrix '{args.matrix}'") from None
    if len(vals) != 4:
        raise ValueError("matrix takes four reals, row-major: m00,m01,m10,m11")
    m = np.array([[vals[0], vals[1]], [vals[2], vals[3]]])
    if args.kind == "iwasawa":
        f = iwasawa_decompose(m)
        residual = float(np.abs(iwasawa_recompose(f) - m).max())
        results = {
            "kind": "iwasawa",
            "angle": f.angle,
            "exponent": f.exponent,
            "shear": f.shear,
            "residual": residual,
        }
        lines = [
            "kind: iwasawa",
            f"angle: {_fmt(f.angle)}",
            f"exponent: {_fmt(f.exponent)}",
            f"shear: {_fmt(f.shear)}",
            f"residual: {_fmt(residual)}",
        ]
    else:
        f = wigner_decompose(m)
        residual = float(np.abs(wigner_recompose(f) - m).max())
        results = {
            "kind": "wigner",
            "axis_angle": f.axis_angle,
            "squeeze_exponent": f.squeeze_exponent,
            "residual_rotation": f.residual_rotation,
            "wigner_angle": f.wigner_angle,
            "residual": residual,
        }
        lines = [
            "kind: wigner",
            f"axis angle: {_fmt(f.axis_angle)}",
            f"squeeze exponent: {_fmt(f.squeeze_exponent)}",
            f"residual rotation: {_fmt(f.residual_rotation)}",
            f"wigner angle: {_fmt(f.wigner_angle)}",
            f"residual: {_fmt(residual)}",
        ]
    inputs = {"kind": args.kind, "matrix": vals, "tol": args.tol}
    return _deliver(args, "decompose", inputs, results, [], lines)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--out", default=None, help="write the report to this file")
    common.add_argument(
        "--tol", type=float, default=CLASSIFY_TOL, help="classification tolerance (relative to s0^2)"
    )

    parser = argparse.ArgumentParser(
        prog="twobeam",
        description="Two-beam interferometer algebra: simulate circuits, classify states, "
        "lift elements to Stokes transforms, and factor 2x2 maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run a circuit file on an input state")
    p.add_argument("circuit", help="path to a circuit text file")
    p.add_argument(
        "--in",
        dest="input_spec",
        required=True,
        help="input state: jones:re1,im1,re2,im2 or stokes:s0,s1,s2,s3",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", parents=[common], help="classify a Stokes vector")
    p.add_argument("stokes", help="four comma-separated reals: s0,s1,s2,s3")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lift", parents=[common], help="4x4 Stokes transform of an element")
    p.add_argument(
        "element", help="one coherent stage, e.g. 'squeeze(eta=0.6)' or 'squeeze eta=0.6'"
    )
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser(
        "littlegroup", parents=[common], help="bridge-family or conjugated-rotation matrix"
    )
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.set_defaults(func=_cmd_littlegroup)

    p = sub.add_parser("decompose", parents=[common], help="factor a det-1 real 2x2 matrix")
    p.add_argument("kind", choices=("iwasawa", "wigner"))
    p.add_argument("--matrix", required=True, help="four reals, row-major: m00,m01,m10,m11")
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except CircuitSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CircuitSemanticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (PhysicsError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
