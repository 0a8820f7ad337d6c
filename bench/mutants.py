"""Mutation check of the contract tests: each mutant, one small edit to the
package, must make at least one test fail.

    python3 bench/mutants.py

The working tree is copied to a temporary directory as bench/record.py
copies it (tracked and untracked files, not ignored ones). Each mutant in
the table names the tests it was checked against, TESTS where it names
none; all of them are run there once unchanged, and must pass. Then, for
each mutant in MUTANTS in turn, the script replaces its old text, which
must occur exactly once in its file, by its new text, runs the mutant's
tests on that copy with pytest, and restores the file.
Bytecode writing is off, so no run reads another's cached module.

It prints one line per mutant: "killed" with the ids of the tests that
failed, or "survived". A mutant counts as killed only when pytest
reports failed tests (status 1); any other status, such as a mutant
that does not import or collect, stops the script with status 2, as do
failing unchanged tests. It exits with status 1 if any mutant survived.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from record import copy_worktree  # bench/ is the script's directory, so on sys.path


TESTS = (
    "tests/test_differential.py",
    "tests/test_records.py",
    "tests/test_reference_chain.py",
    "tests/test_fold_accuracy.py",
    "tests/test_bench_ab.py::test_traffic_counts_entries_of_every_workload",
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple = TESTS


CIRCUIT = "src/twobeam/circuit.py"
STATES = "src/twobeam/states.py"
DECOHERENCE = "src/twobeam/decoherence.py"
_RETURN_REPORT = """final_classification=_classify_at(stages[-1] if stages else None, final_stokes, tol),
    )
    return report"""
_MEMO = 'vars(ast).get("_segments") or vars(ast).setdefault("_segments", _compile(ast.stages))'
_FOLD = "_fold(_segments(ast), *walked[0], psi)"
_NUMBERS = "return (STAGES[stage.name].action or decoherence._decay)(*map(_value, stage.params))"

MUTANTS = (
    # Racing threads each fold through the segments they compiled.
    Mutant("segments-race", CIRCUIT, _MEMO,
           'vars(ast).get("_segments") or (s := _compile(ast.stages), vars(ast).update(_segments=s))[0]'),
    # A segment whose gate fails raises from the fold instead of deferring to the stage loop.
    Mutant("fold-gate-uncaught", CIRCUIT, "except (OverflowError, PhysicsError):  # a gate's failure",
           "except OverflowError:  # a gate's failure"),
    Mutant("product-reversed", CIRCUIT, "q = m if p is None else _mul2(m, p)", "q = m if p is None else _mul2(p, m)"),
    # A long chain's product goes wrong past its 1000th stage only: a rotation's angle negated there.
    Mutant("rotation-negated-late", CIRCUIT, "    for stage in run:\n        m = _action(stage)\n",
           "    for i, stage in enumerate(run):\n        m = _action(stage)\n"
           "        m = _rotator(-_value(*stage.params)) if i >= 1000 and stage.name == 'rotate' else m\n"),
    # A product's columns are never rescaled, so a prefix product can go subnormal or overflow.
    Mutant("product-no-rescale", CIRCUIT,
           "if not (_BAND_MIN <= abs(a) + abs(c) <= _BAND_MAX and _BAND_MIN <= abs(b) + abs(d) <= _BAND_MAX):",
           "if False:"),
    # The fold drops the state's power of two, or a Jones input's.
    Mutant("fold-exponent-dropped", CIRCUIT, "            if e:\n                s11, s22, s12 = math.ldexp(",
           "            if False:\n                s11, s22, s12 = math.ldexp("),
    Mutant("jones-exponent-dropped", CIRCUIT, "psi = _ldexp(p1, e), _ldexp(p2, e)", "psi = p1, p2"),
    # A Jones input through a circuit without decohere goes down the stage loop.
    Mutant("jones-down-the-stage-loop", CIRCUIT, f"folded = {_FOLD}", f"folded = None if input_jones else {_FOLD}"),
    Mutant("last-record-a-copy", CIRCUIT, "matrices = [first, *between, self.final_coherency]",
           "matrices = [first, *between, CoherencyMatrix._checked(*vars(self.final_coherency).values())]"),
    Mutant("no-segment-memo", CIRCUIT, _MEMO, "_compile(ast.stages)"),
    Mutant("stage-memo", CIRCUIT, _NUMBERS, f'return vars(stage).setdefault("_numbers", {_NUMBERS[7:]})'),
    Mutant("records-eager", CIRCUIT, _RETURN_REPORT, _RETURN_REPORT.replace("return", "report.stages\n    return")),
    Mutant("final-purity-eager", CIRCUIT, _RETURN_REPORT,
           _RETURN_REPORT.replace("return", "report.final_purity\n    return")),
    # The AST keeps its first fold's result, so a report depends on what it evaluated before.
    Mutant("fold-result-memo", CIRCUIT, _FOLD, f'vars(ast).setdefault("_fold", {_FOLD})'),
    # The stage loop, which records reads run, goes through the public channel and element.
    Mutant("decohere-through-channel", CIRCUIT, "s12 = complex(step * s12.real, step * s12.imag)",
           "s12 = decoherence.decohere_channel(CoherencyMatrix._checked(s11, s22, s12), _value(*stage.params)).s12"),
    # The coherent step both take goes through the public conjugate, its element built from the constants.
    Mutant("conjugate-through-element", CIRCUIT, "s11, s22, s12 = _conjugated(s11, s22, s12, step)",
           "s11, s22, s12 = (c := conjugate(CoherencyMatrix._checked(s11, s22, s12), ((step[8], step[10]), "
           "(step[9].conjugate(), step[11].conjugate())))).s11, c.s22, c.s12"),
    # The underflow rule back at zero: a state below the normal floats is accepted, after a coherent
    # stage or segment, or as the input.
    Mutant("step-underflow-at-zero", CIRCUIT, "if s11 + s22 < _TRACE_MIN:", "if s11 + s22 <= 0.0:",
           ("tests/test_reference_chain.py", "tests/test_extremes.py")),
    Mutant("input-underflow-at-zero", CIRCUIT, "if first.trace < _TRACE_MIN:", "if first.trace <= 0.0:",
           ("tests/test_differential.py", "tests/test_extremes.py")),
    # An evaluate from a Jones input compiles the circuit again.
    Mutant("jones-recompiles", CIRCUIT, _FOLD,
           "_fold(_compile(stages) if input_jones else _segments(ast), *walked[0], psi)"),
    # A hand-built CircuitAst without one of its value checks, which the stage actions no longer make.
    Mutant("ast-unknown-name", CIRCUIT, "if kind is None:\n", "if False:\n",
           ("tests/test_circuit.py", "tests/test_differential.py")),
    Mutant("ast-finiteness", CIRCUIT, """                    if not math.isfinite(value):
                        raise OverflowError
""", """                    float(value)
""", ("tests/test_circuit.py", "tests/test_differential.py")),
    Mutant("ast-nonnegative", CIRCUIT, "if value < 0.0 and key in kind.nonnegative:", "if False:",
           ("tests/test_circuit.py", "tests/test_differential.py")),
    # decohere_channel without the check it took over from the action it shares with the stage.
    Mutant("channel-nonnegative", DECOHERENCE, """    if lam < 0.0:
        raise PhysicsError("lambda must be nonnegative")
""", "", ("tests/test_decoherence.py", "tests/test_elements.py")),
    # The gates' slacks, loosened: states just outside them must still be rejected.
    Mutant("psd-slack", STATES, "if det < -1e-12 * size**2:", "if det < -1e-10 * size**2:", ("tests/test_states.py",)),
    Mutant("hermitian-slack", STATES, "if herm > 1e-12 * scale:", "if herm > 1e-9 * scale:", ("tests/test_states.py",)),
)


def failures(tree, tests):
    """pytest's exit status on tests in tree, and the ids of the tests that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, failed


def main():
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_worktree(Path(tmp) / "tree")
        status, failed = failures(tree, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if status != 0:
            print(f"the unchanged tests fail (pytest status {status}): {', '.join(failed)}", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            path = tree / mutant.path
            source = path.read_text()
            if source.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its old text does not occur exactly once in {mutant.path}")
            path.write_text(source.replace(mutant.old, mutant.new))
            try:
                status, failed = failures(tree, mutant.tests)
            finally:
                path.write_text(source)
            if status == 0:
                survived += 1
                print(f"survived  {mutant.name}")
            elif status == 1:
                print(f"killed    {mutant.name}: {', '.join(failed)}")
            else:
                print(f"{mutant.name}: pytest status {status}: {', '.join(failed)}", file=sys.stderr)
                return 2
            sys.stdout.flush()
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
