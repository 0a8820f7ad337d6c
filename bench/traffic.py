"""Function traffic of perfbench's workloads: the entries into each package
function, and the lines of it that no workload runs.

    python3 bench/traffic.py
    python3 bench/traffic.py --parent HEAD
    python3 bench/traffic.py --parent ../other-checkout --ops 5 --stages 50

The package is this working tree's `src/twobeam`, or with --parent that
of a git revision, exported as bench/record.py exports it, or of a
directory that holds `src/twobeam`. perfbench/workloads.py is bound to
it as bench/ab.py binds it, so each workload runs its own setup,
untraced, with the given seed. Then the script runs a few of its
operations under sys.settrace, with a tracer that follows only code in
the package's files: --ops long-chain and state-sweep operations, and
CliMix's eight argument vectors once each, through the package's
`cli.main` in process, with its output captured. Every operation's
output is checked with the workload's own check, and a failure stops
the script.

For each function compiled from the package's files, in file and line
order, the script prints how many times each workload entered it and
the statement lines that no workload ran ("-" where every one ran).
Module and class bodies, which run on import, are not listed, nor are
the functions the records compile at run time, whose code has no file.
A generator is entered again on each resumption. The script sets no
pass/fail gate.
"""

import argparse
import collections
import contextlib
import dis
import importlib
import inspect
import io
import os
import sys
import tempfile
import types
from pathlib import Path

from ab import workloads_of  # bench/ is the script's directory, so on sys.path
from record import ROOT, export

WORKLOADS = ("long-chain", "state-sweep", "cli-mix")


def functions(package):
    """The code objects of the functions in package's files, in file and line order."""
    found = []

    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found.append(const)
                walk(const)

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return sorted(found, key=lambda code: (code.co_filename, code.co_firstlineno))


def statements(code):
    """The lines of code's instructions after its first RESUME, which ends the
    prologue that runs on the def line."""
    instructions = list(dis.get_instructions(code))
    start = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME") + 1
    return {ins.positions.lineno for ins in instructions[start:]} - {None}


def key(code):
    return code.co_filename, code.co_firstlineno, code.co_qualname


def traced(prefix, op, case, entries, ran):
    """op(case) under sys.settrace: count entries per function in files under prefix, and collect their lines run."""

    def local(frame, event, arg):
        if event == "line":
            ran[key(frame.f_code)].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        entries[key(frame.f_code)] += 1
        return local

    sys.settrace(enter)
    try:
        return op(case)
    finally:
        sys.settrace(None)


def operations(module, name, args, workdir):
    """The workload after its setup, the cases to trace and the function running one."""
    sizes = {"long-chain": {"stages": args.stages}}.get(name, {})
    workload = module.WORKLOADS[name](args.seed, workdir, **sizes)
    workload.setup()
    if name != "cli-mix":
        return workload, [workload.make_input(i) for i in range(args.ops)], workload.op
    cli = importlib.import_module(module.circuit.__name__.rpartition(".")[0] + ".cli")

    def op(case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with contextlib.chdir(ROOT):  # the argument vectors name the circuit file from ROOT
                code = cli.main(list(case.argv))
        return code, out.getvalue().encode()

    return workload, [workload.make_input(i) for i in range(len(workload.argvs))], op


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default=None,
                        help="git revision, or a directory holding src/twobeam (default: this tree)")
    parser.add_argument("--ops", type=int, default=20,
                        help="traced long-chain and state-sweep operations")
    parser.add_argument("--stages", type=int, default=200, help="stages per long chain")
    parser.add_argument("--seed", type=int, default=701)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        checkout = ROOT if args.parent is None else Path(args.parent).resolve()
        if not (checkout / "src" / "twobeam").is_dir():
            checkout = export(args.parent, Path(tmp) / "parent")
        package = checkout / "src" / "twobeam"
        module = workloads_of(checkout, "traced")
        entries = {name: collections.Counter() for name in WORKLOADS}
        ran = collections.defaultdict(set)
        for name in WORKLOADS:
            workload, cases, op = operations(module, name, args, tmp)
            for case in cases:
                error = workload.check(case, traced(f"{package}{os.sep}", op, case, entries[name], ran))
                if error:
                    raise SystemExit(f"{name}: {error}")
        codes = functions(package)

    names = [f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes]
    width = max(map(len, names))
    print(f"{'function':<{width}}  {'  '.join(WORKLOADS)}  lines no workload ran")
    for name, code in zip(names, codes):
        counts = "  ".join(f"{entries[w][key(code)]:>{len(w)}}" for w in WORKLOADS)
        print(f"{name:<{width}}  {counts}  {spans(sorted(statements(code) - ran[key(code)]))}")
    return 0


def spans(lines):
    """Sorted line numbers as "3-5, 9", or "-" for none."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in runs) or "-"


if __name__ == "__main__":
    sys.exit(main())
