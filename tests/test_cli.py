import json
import math
import warnings

import numpy as np
import pytest

from twobeam import f1, phase4, rotator4, split_angle, squeeze4
from twobeam.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out), out


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "1,1,0,0")
    assert code == 0
    assert "classification: pure" in out


def test_classify_json_schema(capsys):
    doc, raw = run_json(capsys, "classify", "1,1,0,0")
    assert doc["schema_version"] == "report-v1"
    assert doc["command"] == "classify"
    assert doc["results"]["tag"] == "pure"
    assert doc["results"]["eta_to_standard"] is None
    assert doc["inputs"]["stokes"] == [1, 1, 0, 0]
    assert doc["warnings"] == []


def test_classify_impure_eta(capsys):
    doc, _ = run_json(capsys, "classify", "1,0,0.6,0")
    assert doc["results"]["tag"] == "impure"
    assert abs(doc["results"]["eta_to_standard"] - math.atanh(0.6)) < 1e-12


def test_classify_non_physical_reported(capsys):
    doc, _ = run_json(capsys, "classify", "1,2,0,0")
    assert doc["results"]["tag"] == "non-physical"


def test_classify_tol_override(capsys):
    doc, _ = run_json(capsys, "classify", "1,0.99999,0,0")
    assert doc["results"]["tag"] == "impure"
    doc, _ = run_json(capsys, "classify", "1,0.99999,0,0", "--tol", "1e-3")
    assert doc["results"]["tag"] == "pure"


def test_json_determinism(capsys):
    _, first = run_json(capsys, "classify", "0.7,0.1,0.2,0.3")
    _, second = run_json(capsys, "classify", "0.7,0.1,0.2,0.3")
    assert first == second
    assert f"{0.7:.17g}" in first  # 17 significant digits throughout


def test_lift_squeeze(capsys):
    doc, _ = run_json(capsys, "lift", "squeeze eta=0.6")
    m = doc["results"]["matrix"]
    assert abs(m[0][0] - math.cosh(0.6)) < 1e-15
    assert abs(m[0][1] - math.sinh(0.6)) < 1e-15
    assert m[2][2] == 1.0 and m[3][3] == 1.0
    assert doc["results"]["metric_defect"] < 1e-12
    assert doc["warnings"] == []


def test_lift_phase_carries_sign_warning(capsys):
    doc, _ = run_json(capsys, "lift", "phase phi=0.5")
    assert len(doc["warnings"]) == 1
    assert "sign convention" in doc["warnings"][0]
    m = doc["results"]["matrix"]
    assert abs(m[2][3] - math.sin(0.5)) < 1e-12
    assert abs(m[3][2] + math.sin(0.5)) < 1e-12


def test_lift_bad_spec(capsys):
    code, out, err = run(capsys, "lift", "twist k=1")
    assert code == 2
    assert "unknown element" in err
    code, out, err = run(capsys, "lift", "squeeze")
    assert code == 2
    code, out, err = run(capsys, "lift", "squeeze eta=0.6 eta=0.7")
    assert code == 2


def results_text(raw):
    """The results object of a JSON report, as printed."""
    return raw[raw.index('"results":') : raw.index(',"warnings":')]


def assert_plain_error(code, out, err, exit_code):
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "(34" not in err and "Warning" not in err


def test_lift_both_spellings_match_closed_forms(capsys):
    for name, arg, closed in (
        ("rotate", "theta", rotator4),
        ("phase", "phi", phase4),
        ("squeeze", "eta", squeeze4),
    ):
        for x in (-2.5, 0.0, 0.3, 1.7):
            old, old_raw = run_json(capsys, "lift", f"{name} {arg}={x!r}")
            new, new_raw = run_json(capsys, "lift", f"{name}({arg}={x!r})")
            assert results_text(old_raw) == results_text(new_raw)
            assert old["results"]["element"] == name
            assert old["results"]["params"] == {arg: x}
            m = np.array(new["results"]["matrix"])
            assert np.abs(m - closed(x).m).max() < 1e-12


def test_lift_atten_is_scaled_boost(capsys):
    for a, b in ((0.0, 0.0), (0.2, 0.5), (1.1, 0.3)):
        old, old_raw = run_json(capsys, "lift", f"atten eta1={a!r} eta2={b!r}")
        new, new_raw = run_json(capsys, "lift", f"atten(eta1={a!r}, eta2={b!r})")
        assert results_text(old_raw) == results_text(new_raw)
        assert new["results"]["params"] == {"eta1": a, "eta2": b}
        expected = math.exp(-(a + b)) * squeeze4(b - a).m
        assert np.abs(np.array(new["results"]["matrix"]) - expected).max() < 1e-12
        assert new["warnings"] == []


def test_lift_split_is_rotate(capsys):
    for r in (0.0, 0.25, 0.5, 0.9, 1.0):
        old, old_raw = run_json(capsys, "lift", f"split ratio={r!r}")
        new, new_raw = run_json(capsys, "lift", f"split(ratio={r!r})")
        assert results_text(old_raw) == results_text(new_raw)
        rot, _ = run_json(capsys, "lift", f"rotate(theta={split_angle(r)!r})")
        assert new["results"]["matrix"] == rot["results"]["matrix"]
        assert new["results"]["params"] == {"theta": split_angle(r)}


def test_lift_text_shows_params(capsys):
    code, out, err = run(capsys, "lift", "atten(eta1=0.5, eta2=0.25)")
    assert code == 0, err
    assert out.startswith("element: atten (eta1=0.5, eta2=0.25)\nmatrix:\n")


def test_lift_rejections_exit_2(capsys):
    for spec, words in (
        ("decohere(lambda=0.3)", "channel"),
        ("decohere lambda=0.3", "channel"),
        ("rotate(theta=1); phase(phi=2)", "got 2 stages"),
        ("split ratio=1.5", "ratio must lie in [0, 1]"),
        ("squeeze(eta=1 deg)", "'deg' does not apply"),
        ("atten(eta1=-1, eta2=0)", "eta1 must be nonnegative"),
        ("twist(k=1)", "unknown element 'twist' (one of rotate, split,"),
        ("", "expected stage name"),
    ):
        code, out, err = run(capsys, "lift", spec)
        assert_plain_error(code, out, err, 2)
        assert words in err, (spec, err)


def test_lift_overflow_is_plain(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in ("squeeze eta=800", "squeeze(eta=400)", "squeeze(eta=1e300)"):
            code, out, err = run(capsys, "lift", spec)
            assert_plain_error(code, out, err, 2)


def test_classify_overflow_is_plain(capsys):
    code, out, err = run(capsys, "classify", "1e160,1e160,0,0")
    assert_plain_error(code, out, err, 3)
    assert "too large to square" in err


def test_classify_tiny_intensity(capsys):
    # s0^2 underflows to 0: neither the class nor the relative norm may
    # depend on it
    doc, _ = run_json(capsys, "classify", "1e-200,0,0,0")
    assert doc["results"]["tag"] == "impure"
    assert doc["results"]["eta_to_standard"] == 0.0
    assert doc["results"]["relative_norm"] == 1.0
    doc, _ = run_json(capsys, "classify", "1e-200,0.6e-200,0.8e-200,0")
    assert doc["results"]["tag"] == "pure"
    assert abs(doc["results"]["relative_norm"]) < 1e-15


def test_littlegroup_overflow_is_plain(capsys):
    code, out, err = run(capsys, "littlegroup", "--theta", "1", "--eta", "800")
    assert_plain_error(code, out, err, 3)
    assert "overflowed" in err and "math range error" not in err


def render(doc):
    """The text report that the JSON report doc stands for, line by line."""

    def text(value):
        if value is None:
            return "none"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, str):
            return value
        return f"{float(value):.17g}"

    lines = []
    for key, value in doc["results"].items():
        if key == "params":
            lines[-1] += " (" + ", ".join(f"{k}={text(v)}" for k, v in value.items()) + ")"
        elif key == "matrix":
            lines.append("matrix:")
            lines += ["  [" + ", ".join(text(x) for x in row) + "]" for row in value]
        else:
            label = "classification" if key == "tag" else key.replace("_", " ")
            lines.append(f"{label}: {text(value)}")
    return "\n".join(lines + [f"warning: {w}" for w in doc["warnings"]]) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "1,0,0.6,0"),
        ("classify", "1,0.6,0.8,0"),
        ("classify", "1,2,0,0"),
        ("lift", "atten(eta1=0.5, eta2=0.25)"),
        ("lift", "phase phi=0.5"),
        ("littlegroup", "--alpha", "1", "--u", "0.5"),
        ("littlegroup", "--alpha", "0", "--u", "0.5"),
        ("littlegroup", "--alpha", "0.5", "--u", "0.3"),
        ("littlegroup", "--theta", "0.4", "--eta", "0.9"),
        ("decompose", "iwasawa", "--matrix", "2,0,0,0.5"),
        ("decompose", "wigner", "--matrix", "1.25,-0.5,0.5,0.6"),
    ],
)
def test_text_report_renders_json_results(capsys, argv):
    _, raw = run_json(capsys, *argv)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    # every number is a float in results; "-0" must stay -0.0
    assert out == render(json.loads(raw, parse_int=float))


def test_classify_text_follows_json_order(capsys):
    code, out, _ = run(capsys, "classify", "1,0,0.6,0")
    assert code == 0
    assert out == (
        "classification: impure\n"
        "invariant norm: 0.64000000000000001\n"
        "eta to standard: 0.69314718055994529\n"
        "relative norm: 0.64000000000000001\n"
    )


def test_tol_only_where_it_is_read(tmp_path, capsys):
    for argv in (
        ("lift", "rotate(theta=1)"),
        ("littlegroup", "--alpha", "0.5", "--u", "1"),
        ("littlegroup", "--theta", "0.5", "--eta", "1"),
        ("decompose", "iwasawa", "--matrix", "2,0,0,0.5"),
    ):
        code, out, err = run(capsys, *argv, "--tol", "1e-3")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --tol" in err
        doc, _ = run_json(capsys, *argv)
        assert "tol" not in doc["inputs"]
    path = write_circuit(tmp_path, "rotate(theta=0.3)")
    for argv in (("simulate", path, "--in", "jones:1,0,0,0"), ("classify", "1,0.5,0,0")):
        doc, _ = run_json(capsys, *argv, "--tol", "1e-3")
        assert doc["inputs"]["tol"] == 1e-3
        code, out, err = run(capsys, *argv, "--tol", "nan")
        assert_plain_error(code, out, err, 2)
        assert "--tol must be a positive finite number" in err


def test_littlegroup_f1_endpoint(capsys):
    doc, _ = run_json(capsys, "littlegroup", "--alpha", "1", "--u", "0.5")
    m = np.array(doc["results"]["matrix"])
    assert np.abs(m - f1(0.5).m).max() < 1e-12
    assert doc["results"]["metric_defect"] < 1e-12
    assert doc["results"]["lorentz"] is True
    assert doc["results"]["f1_residual"] < 1e-12


def test_littlegroup_interior_flags_non_lorentz(capsys):
    doc, _ = run_json(capsys, "littlegroup", "--alpha", "0.5", "--u", "0.3")
    assert doc["results"]["lorentz"] is False
    assert abs(doc["results"]["metric_defect"] - 0.022493803664271745) < 1e-12


def test_littlegroup_conjugated(capsys):
    doc, _ = run_json(capsys, "littlegroup", "--theta", "0.4", "--eta", "0.9")
    assert doc["results"]["mode"] == "conjugated-rotation"
    assert doc["results"]["metric_defect"] < 1e-10
    assert doc["results"]["fixed_vector_residual"] < 1e-10


def test_littlegroup_argument_rules(capsys):
    code, _, err = run(capsys, "littlegroup", "--alpha", "1")
    assert code == 2
    code, _, err = run(capsys, "littlegroup", "--alpha", "1", "--u", "1", "--theta", "1")
    assert code == 2
    code, _, err = run(capsys, "littlegroup", "--alpha", "2", "--u", "1")
    assert code == 3  # out of domain


def test_decompose_iwasawa(capsys):
    doc, _ = run_json(capsys, "decompose", "iwasawa", "--matrix", "2,0,0,0.5")
    assert abs(doc["results"]["exponent"] - math.log(2)) < 1e-12
    assert doc["results"]["residual"] < 1e-12


def test_decompose_wigner(capsys):
    doc, _ = run_json(capsys, "decompose", "wigner", "--matrix", "1.25,-0.5,0.5,0.6")
    r = doc["results"]
    assert r["residual"] < 1e-12
    assert r["squeeze_exponent"] >= 0
    assert abs(r["wigner_angle"] - (r["axis_angle"] + r["residual_rotation"])) < 1e-15


def test_decompose_rejects_non_unimodular(capsys):
    code, _, err = run(capsys, "decompose", "iwasawa", "--matrix", "2,0,0,1")
    assert code == 3
    assert "determinant" in err


def test_decompose_bad_matrix(capsys):
    code, _, err = run(capsys, "decompose", "iwasawa", "--matrix", "1,0,0")
    assert code == 2


def write_circuit(tmp_path, text):
    path = tmp_path / "bench.circ"
    path.write_text(text)
    return str(path)


def test_simulate_text(tmp_path, capsys):
    path = write_circuit(tmp_path, "rotate(theta=60 deg); decohere(lambda=20)")
    code, out, err = run(capsys, "simulate", path, "--in", "jones:1,0,0,0")
    assert code == 0
    assert "final classification: impure" in out
    assert "eta_to_standard" in out


def test_simulate_json_reduction(tmp_path, capsys):
    chi = 2.0
    path = write_circuit(tmp_path, f"rotate(theta={chi}); decohere(lambda=20)")
    doc, _ = run_json(capsys, "simulate", path, "--in", "jones:1,0,0,0")
    results = doc["results"]
    assert results["circuit_format"] == "circuit-v1"
    assert results["final_classification"]["tag"] == "impure"
    expected = 0.5 * math.log((1 + math.cos(chi)) / (1 - math.cos(chi)))
    assert abs(results["final_classification"]["eta_to_standard"] - expected) < 1e-6
    assert results["final_jones"] is None
    assert len(results["stages"]) == 2
    assert results["stages"][0]["classification_after"]["tag"] == "pure"


def test_simulate_jones_track_reported(tmp_path, capsys):
    path = write_circuit(tmp_path, "rotate(theta=90 deg)")
    doc, _ = run_json(capsys, "simulate", path, "--in", "jones:1,0,0,0")
    j = doc["results"]["final_jones"]
    assert abs(j[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(j[2] - 1 / math.sqrt(2)) < 1e-12
    assert doc["results"]["final_stokes"][2] == pytest.approx(1.0, abs=1e-12)


def test_simulate_stokes_input(tmp_path, capsys):
    path = write_circuit(tmp_path, "squeeze(eta=0.4)")
    doc, _ = run_json(capsys, "simulate", path, "--in", "stokes:1,0,0,0")
    assert doc["results"]["final_jones"] is None
    assert abs(doc["results"]["final_stokes"][0] - math.cosh(0.4)) < 1e-12


def test_simulate_phase_warning(tmp_path, capsys):
    path = write_circuit(tmp_path, "phase(phi=0.5)")
    doc, _ = run_json(capsys, "simulate", path, "--in", "jones:1,0,1,0")
    assert any("sign convention" in w for w in doc["warnings"])
    path = write_circuit(tmp_path, "rotate(theta=0.5)")
    doc, _ = run_json(capsys, "simulate", path, "--in", "jones:1,0,1,0")
    assert doc["warnings"] == []


def test_simulate_determinism(tmp_path, capsys):
    path = write_circuit(tmp_path, "rotate(theta=0.3); phase(phi=0.7); squeeze(eta=0.2)")
    _, first = run_json(capsys, "simulate", path, "--in", "jones:0.6,0,0.8,0")
    _, second = run_json(capsys, "simulate", path, "--in", "jones:0.6,0,0.8,0")
    assert first == second


def test_simulate_out_file(tmp_path, capsys):
    path = write_circuit(tmp_path, "rotate(theta=0.3)")
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "simulate", path, "--in", "jones:1,0,0,0", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "simulate"


def test_simulate_reads_utf8_and_names_file_errors(tmp_path, capsys):
    # The circuit file is UTF-8 whatever the locale, and a byte-order mark
    # is not part of the text.
    text = "# \u03bb is spelled lambda\nrotate(theta=0.3); decohere(lambda=0.2)\n"
    plain, bom = tmp_path / "plain.circ", tmp_path / "bom.circ"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    docs = [run_json(capsys, "simulate", str(p), "--in", "jones:1,0,0,0")[0] for p in (plain, bom)]
    assert docs[0]["results"] == docs[1]["results"]

    missing = str(tmp_path / "missing.circ")
    latin = tmp_path / "latin.circ"
    latin.write_bytes("# caf\u00e9\nrotate(theta=0.3)\n".encode("latin-1"))
    for argv, message in (
        ((missing,), f"cannot read circuit file '{missing}': No such file or directory"),
        ((str(latin),), f"cannot read circuit file '{latin}': byte 0xe9 is not UTF-8"),
        ((str(tmp_path),), f"cannot read circuit file '{tmp_path}': Is a directory"),
        ((str(plain), "--out", str(tmp_path)), f"cannot write report to '{tmp_path}': Is a directory"),
    ):
        code, out, err = run(capsys, "simulate", *argv, "--in", "jones:1,0,0,0")
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_simulate_reads_each_stokes_vector_once(tmp_path, capsys, monkeypatch, fmt):
    # 8 stages: the input and final vectors plus one per stage, for either format.
    import twobeam.circuit as circuit

    calls = []
    convert = circuit.stokes_from_coherency
    monkeypatch.setattr(circuit, "stokes_from_coherency", lambda c: calls.append(c) or convert(c))
    path = write_circuit(tmp_path, "rotate(theta=0.3); decohere(lambda=0.1); phase(phi=0.2); " * 2
                         + "squeeze(eta=0.4); atten(eta1=0.1, eta2=0.2)")
    code, out, err = run(capsys, "simulate", path, "--in", "jones:1,0,0.5,0.5", "--format", fmt)
    assert (code, err) == (0, "") and out
    assert len(calls) == 10


def test_simulate_exit_codes(tmp_path, capsys):
    empty = write_circuit(tmp_path, "")
    code, _, err = run(capsys, "simulate", empty, "--in", "jones:1,0,0,0")
    assert code == 2
    assert "expected stage name" in err

    code, _, err = run(capsys, "simulate", str(tmp_path / "missing.circ"), "--in", "jones:1,0,0,0")
    assert code == 2

    good = write_circuit(tmp_path, "rotate(theta=0.5)")
    code, _, err = run(capsys, "simulate", good, "--in", "stokes:1,2,0,0")
    assert code == 3
    assert "spacelike" in err

    code, _, err = run(capsys, "simulate", good, "--in", "jones:1,0")
    assert code == 2

    code, _, err = run(capsys, "simulate", good, "--in", "fourier:1,0,0,0")
    assert code == 2

    bad = write_circuit(tmp_path, "decohere(lambda=-2)")
    code, _, err = run(capsys, "simulate", bad, "--in", "jones:1,0,0,0")
    assert code == 3
    assert "lambda must be nonnegative" in err

    overflow = write_circuit(tmp_path, "squeeze(eta=1e300)")
    code, _, err = run(capsys, "simulate", overflow, "--in", "jones:1,0,0,0")
    assert code == 3


def test_simulate_tiny_intensity(tmp_path, capsys):
    # the purity report must not divide by an s0^2 that underflowed
    path = write_circuit(tmp_path, "rotate(theta=0.3); squeeze(eta=0.2); decohere(lambda=0.1)")
    doc, _ = run_json(capsys, "simulate", path, "--in", "stokes:1e-200,0,0,0")
    assert doc["results"]["final_purity"]["trace_sq"] == pytest.approx(0.5, abs=0.1)
    assert doc["results"]["final_classification"]["tag"] == "impure"
    code, out, err = run(capsys, "simulate", path, "--in", "stokes:1e-200,2e-200,0,0")
    assert_plain_error(code, out, err, 3)
    assert "spacelike" in err


def test_bad_tol(capsys):
    code, _, err = run(capsys, "classify", "1,0,0,0", "--tol", "-1")
    assert code == 2


def test_argparse_level_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_simulate_tiny_spacelike_reports_relative_norm(tmp_path, capsys):
    path = write_circuit(tmp_path, "rotate(theta=0.3)")
    code, out, err = run(capsys, "simulate", path, "--in", "stokes:1e-200,2e-200,0,0")
    assert_plain_error(code, out, err, 3)
    assert err == "error: non-physical Stokes vector (spacelike): relative_norm = -3.000e+00\n"
