"""Command line front end.

Subcommands: simulate, classify, lift, littlegroup, decompose. Every
subcommand takes --format json|text (default text) and --out to write the
report to a file; simulate and classify, the two that classify states,
also take --tol to override the classification tolerance. The text
report of every subcommand but simulate is its JSON results, one
`label: value` line per key in the same order.

Exit codes: 0 success, 2 argument or parse errors, 3 semantic or
physicality errors. JSON reports are byte-identical for identical
invocations: keys are emitted in fixed order and floats with 17
significant digits. The envelope is versioned "report-v1".
"""

import argparse
import json
import math
import re
import sys

from . import circuit, decoherence, elements, littlegroup
from .states import (
    CLASSIFY_TOL,
    JonesVector,
    PhysicsError,
    StokesVector,
    _lift,
    metric_defect,
    relative_norm,
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
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_emit_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _matrix_rows(entries):
    return [list(entries[i : i + 4]) for i in (0, 4, 8, 12)]


def _max_diff(xs, ys):
    return max(abs(x - y) for x, y in zip(xs, ys))


def _stokes_list(s):
    return [s.s0, s.s1, s.s2, s.s3]


def _stokes_text(s):
    return "(" + ", ".join(_fmt(x) for x in _stokes_list(s)) + ")"


def _jones_list(j):
    return [j.psi1.real, j.psi1.imag, j.psi2.real, j.psi2.imag]


def _reals(text, count, what, shape):
    """The comma-separated reals of text, checked to number count.

    what names the text in the bad-number message and shape is the
    message for a wrong count.
    """
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"bad number in {what}") from None
    if len(vals) != count:
        raise ValueError(shape)
    return vals


_INPUT_KINDS = {
    "jones": ("re1,im1,re2,im2", lambda a, b, c, d: JonesVector(complex(a, b), complex(c, d))),
    "stokes": ("s0,s1,s2,s3", StokesVector),
}


def _input_state(spec):
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError("input spec must be 'jones:re1,im1,re2,im2' or 'stokes:s0,s1,s2,s3'")
    fields, make = _INPUT_KINDS.get(kind, (None, None))
    unknown = f"unknown input kind '{kind}' (use jones or stokes)"
    shape = f"{kind} input takes four reals: {fields}" if make else unknown
    # a bad number is reported before an unknown kind
    vals = _reals(rest, 4, f"input spec '{spec}'", shape)
    if make is None:
        raise ValueError(unknown)
    return make(*vals)


def _lift_stage(spec):
    """The stage of a one-element lift spec, the lift entries of its Jones matrix and their metric defect.

    The spec is circuit text, or the older 'squeeze eta=0.6' spelling,
    which is rewritten to 'squeeze(eta=0.6)' first; there a bare 'deg'
    word is the unit of the argument before it. Every rejection is a
    plain ValueError, because the spec is a command-line argument.
    """
    text = spec
    if "(" not in spec and spec.strip():
        name, *words = spec.split()
        args = []
        for word in words:
            if word == "deg" and args:
                args[-1] += " deg"
            else:
                args.append(word)
        text = f"{name}({', '.join(args)})"
    try:
        stages = circuit.parse(text).stages
    except circuit.CircuitError as err:
        raise ValueError(err.message) from None
    coherent = ", ".join(name for name, kind in circuit.STAGES.items() if kind.action)
    if len(stages) != 1:
        raise ValueError(f"lift takes one element ({coherent}), got {len(stages)} stages")
    stage = stages[0]
    if circuit.STAGES[stage.name].action is None:
        raise ValueError(f"{stage.name} is a channel, not an element; lift takes {coherent}")
    try:
        m = _lift(*circuit._action(stage))
        return stage, m, metric_defect(m)
    except PhysicsError as err:
        raise ValueError(f"{stage.name}: {err}") from None


def _text_value(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, str):
        return value
    return _fmt(value)


def _text_lines(results):
    """The text report: one `label: value` line per key of results.

    A matrix is printed as an indented block of rows and a params dict
    is appended to the line before it, as `element: name (k=v, ...)`.
    """
    lines = []
    for key, value in results.items():
        if key == "params":
            lines[-1] += " (" + ", ".join(f"{k}={_fmt(v)}" for k, v in value.items()) + ")"
        elif key == "matrix":
            lines.append("matrix:")
            lines += ["  [" + ", ".join(_fmt(x) for x in row) + "]" for row in value]
        else:
            label = "classification" if key == "tag" else key.replace("_", " ")
            lines.append(f"{label}: {_text_value(value)}")
    return lines


def _deliver(args, command, inputs, results, warnings=(), lines=None):
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
        body = (_text_lines(results) if lines is None else lines) + [f"warning: {w}" for w in warnings]
        text = "\n".join(body) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write report to '{args.out}': {err.strerror or err}") from None
    else:
        sys.stdout.write(text)
    return 0


def _stage_dict(r, before, after, cls):
    return {
        "stage": r.stage,
        "params": {k: v for k, v in r.params},
        "stokes_before": _stokes_list(before),
        "stokes_after": _stokes_list(after),
        "coherency_after": {
            "s11": r.coherency_after.s11,
            "s22": r.coherency_after.s22,
            "s12": [r.coherency_after.s12.real, r.coherency_after.s12.imag],
        },
        "purity_after": r.purity_after._asdict(),
        "classification_after": vars(cls),
    }


def _cmd_simulate(args):
    # utf-8-sig: a byte-order mark some editors write is not circuit text
    try:
        with open(args.circuit, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as err:
        raise ValueError(f"cannot read circuit file '{args.circuit}': {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        bad = f"byte 0x{err.object[err.start]:02x} is not UTF-8"
        raise ValueError(f"cannot read circuit file '{args.circuit}': {bad}") from None
    ast = circuit.parse(text)
    state = _input_state(args.input_spec)
    report = circuit.evaluate(ast, state, tol=args.tol)
    canonical = circuit.unparse(ast)
    warnings = [PHASE_SIGN_WARNING] if any(s.name == "phase" for s in ast.stages) else []
    inputs = {"circuit_path": args.circuit, "input": args.input_spec, "tol": args.tol}
    # Each Stokes vector is read once: a stage's before is the previous stage's after.
    stokes = [report.input_stokes, *(r.stokes_after for r in report.stages)]
    classes = [circuit._classify_at(*row, args.tol) for row in zip(ast.stages, stokes[1:])]

    if args.format == "json":
        results = {
            "circuit_format": report.circuit_format,
            "circuit": canonical,
            "stages": [_stage_dict(*row) for row in zip(report.stages, stokes, stokes[1:], classes)],
            "final_stokes": _stokes_list(report.final_stokes),
            "final_jones": _jones_list(report.final_jones) if report.final_jones else None,
            "final_purity": report.final_purity._asdict(),
            "final_classification": vars(report.final_classification),
        }
        return _deliver(args, "simulate", inputs, results, warnings)

    # The text summary also shows the input state, which results do not hold.
    lines = [f"circuit: {canonical}"]
    if report.input_jones is not None:
        lines.append("input jones: " + ", ".join(_fmt(x) for x in _jones_list(report.input_jones)))
    lines.append(f"input stokes: {_stokes_text(report.input_stokes)}")
    for i, (r, after, cls) in enumerate(zip(report.stages, stokes[1:], classes), 1):
        ptxt = ", ".join(f"{k}={_fmt(v)}" for k, v in r.params)
        lines.append(f"stage {i}: {r.stage}({ptxt}) -> stokes {_stokes_text(after)} [{cls.tag}]")
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
    return _deliver(args, "simulate", inputs, None, warnings, lines)


def _cmd_classify(args):
    shape = "classify takes four comma-separated reals: s0,s1,s2,s3"
    s = StokesVector(*_reals(args.stokes, 4, f"stokes '{args.stokes}'", shape))
    results = {**vars(littlegroup.classify(s, tol=args.tol)), "relative_norm": relative_norm(s)}
    return _deliver(args, "classify", {"stokes": _stokes_list(s), "tol": args.tol}, results)


def _cmd_lift(args):
    stage, m, defect = _lift_stage(args.element)
    warnings = [PHASE_SIGN_WARNING] if stage.name == "phase" else []
    results = {
        "element": stage.name,
        "params": dict(stage.params),
        "matrix": _matrix_rows(m),
        "metric_defect": defect,
    }
    return _deliver(args, "lift", {"element": args.element}, results, warnings)


def _cmd_littlegroup(args):
    closed = args.alpha is not None or args.u is not None
    conj = args.theta is not None or args.eta is not None
    if closed and conj:
        raise ValueError("give either --alpha and --u, or --theta and --eta, not both")
    if closed:
        if args.alpha is None or args.u is None:
            raise ValueError("closed-form mode needs both --alpha and --u")
        params = littlegroup.InterpolationParams(args.alpha, args.u)
        t = littlegroup.closed_form_family(params)
        results = {
            "mode": "closed-form-family",
            "alpha": params.alpha,
            "u": params.u,
            "w": params.w,
            "matrix": _matrix_rows(t.entries),
            "metric_defect": littlegroup.family_metric_defect(params),
            "lorentz": t.lorentz,
        }
        if params.alpha == 1.0:
            results["f1_residual"] = _max_diff(t.entries, littlegroup.f1(params.u).entries)
        elif params.alpha == 0.0:
            theta = -2.0 * math.atan(params.u / 2.0)
            results["rotator_residual"] = _max_diff(t.entries, elements.rotator4(theta).entries)
        return _deliver(args, "littlegroup", {"alpha": args.alpha, "u": args.u}, results)
    if args.theta is None or args.eta is None:
        raise ValueError("give --alpha and --u, or --theta and --eta")
    t = littlegroup.conjugated_rotation(args.theta, args.eta)
    rows = _matrix_rows(t.entries)
    fixed = (math.cosh(args.eta), math.sinh(args.eta), 0.0, 0.0)
    image = [sum(x * y for x, y in zip(row, fixed)) for row in rows]
    results = {
        "mode": "conjugated-rotation",
        "theta": args.theta,
        "eta": args.eta,
        "matrix": rows,
        "metric_defect": metric_defect(t),
        "fixed_vector_residual": _max_diff(image, fixed),
    }
    return _deliver(args, "littlegroup", {"theta": args.theta, "eta": args.eta}, results)


def _cmd_decompose(args):
    shape = "matrix takes four reals, row-major: m00,m01,m10,m11"
    vals = _reals(args.matrix, 4, f"matrix '{args.matrix}'", shape)
    m = (vals[:2], vals[2:])
    if args.kind == "iwasawa":
        f = decoherence.iwasawa_decompose(m)
        results = {"kind": "iwasawa", "angle": f.angle, "exponent": f.exponent, "shear": f.shear}
    else:
        f = decoherence.wigner_decompose(m)
        results = {
            "kind": "wigner",
            "axis_angle": f.axis_angle,
            "squeeze_exponent": f.squeeze_exponent,
            "residual_rotation": f.residual_rotation,
            "wigner_angle": f.wigner_angle,
        }
    results["residual"] = _max_diff(f.entries, vals)
    return _deliver(args, "decompose", {"kind": args.kind, "matrix": vals}, results)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--out", default=None, help="write the report to this file")
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument(
        "--tol", type=float, default=CLASSIFY_TOL, help="classification tolerance (relative to s0^2)"
    )

    parser = argparse.ArgumentParser(
        prog="twobeam",
        description="Two-beam interferometer algebra: simulate circuits, classify states, "
        "lift elements to Stokes transforms, and factor 2x2 maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[tolerant], help="run a circuit file on an input state")
    p.add_argument("circuit", help="path to a circuit text file")
    p.add_argument(
        "--in",
        dest="input_spec",
        required=True,
        help="input state: jones:re1,im1,re2,im2 or stokes:s0,s1,s2,s3",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", parents=[tolerant], help="classify a Stokes vector")
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
    # argparse's negative-number pattern, a private attribute, matches one number only
    # and would take "-1,0,0,-1" for an option; here any "-digit" word is a value.
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        tol = getattr(args, "tol", CLASSIFY_TOL)
        if not math.isfinite(tol) or tol <= 0.0:
            raise ValueError("--tol must be a positive finite number")
        return args.func(args)
    except (ValueError, OSError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        # Read off the error, so that an exit does not run `circuit`.
        return getattr(err, "exit_code", 3 if isinstance(err, OverflowError) else 2)


if __name__ == "__main__":
    sys.exit(main())
