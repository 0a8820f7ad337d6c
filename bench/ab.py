"""Interleaved A/B of perfbench's workloads: in process, or per CLI call.

    python3 bench/ab.py --parent HEAD
    python3 bench/ab.py --parent ../other-checkout --rounds 60
    python3 bench/ab.py --parent HEAD --mode cli-mix
    python3 bench/ab.py --parent HEAD --mode batch --states 100
    python3 bench/ab.py --parent HEAD --mode simulate-long
    python3 bench/ab.py --parent HEAD --mode jones-reused --states 50

The parent side is a git revision, exported with `git archive` into a
temporary directory as bench/record.py exports it, or a directory that
holds `src/twobeam`. The change side is this working tree's `src/twobeam`.

The default mode, in-process, runs the long-chain and state-sweep
operations. Both packages load into one process, as `twobeam_parent` and
`twobeam_change`: the package's imports are relative, and its __init__
registers its submodules under its own __name__. Each side runs
perfbench's own StateSweep and LongChain workloads:
perfbench/workloads.py is loaded once per side, with its `twobeam`
import bound to that side's package, so the A/B runs exactly perfbench's
setup, seeded inputs and operation. Both sides take the same seed, so
they draw the same inputs. Every warm-up operation is checked against
the workload's oracle, and a failure stops the script.

Each round times one block of each workload's operations per side with
time.process_time, so another process on the host costs neither side,
after a gc.collect(); the side that runs first alternates from round to
round. Per workload the script prints the median and quartiles over rounds of the ratio parent
CPU time / change CPU time (above 1: the change is faster), the rounds
the change won, and the median time per operation of each side. It
sets no pass/fail gate. bench/record.py stays the record for a BENCH
file; this script resolves a few percent, which sequential perfbench
runs on a drifting host do not.

The cli-mix mode runs CliMix's eight argument vectors, from perfbench's
own setup with the given seed, as `python -m twobeam.cli` children, one
side's `src` on PYTHONPATH, each side from a copy of its `src` without a
`__pycache__`. A round runs each vector on both sides in turn, the
first side alternating from round to round, and times each side's eight
children in child CPU time (resource.getrusage). Every output is checked
with CliMix's own check, as perfbench checks one tree: against the bytes
of that side's own first run, and the JSON simulate report against that
side's in-process evaluate, so a change that alters printed digits can be
timed. It prints the same summary line for cli-mix.

The batch mode times one parsed circuit of 1000 stages, drawn with
perfbench's own stage generators, three of them decohere at seeded
places, evaluated from --states seeded Stokes inputs (perfbench's
draw_stokes, alternately pure and impure), in process as above. Every
input is checked once against perfbench's oracle before the rounds.
It shows the gain of folding a circuit's segments, per state, on a
circuit far longer than state-sweep's, which no perfbench workload
evaluates from Stokes inputs. It prints the same summary line for
batch, one operation per state.

The jones-reused mode times one parsed circuit of --stages stages, drawn
as perfbench's long-chain draws its circuits, evaluated from --states
seeded Jones inputs (perfbench's draw_jones), in process as above: the
AST is reused, so it is compiled once, before the rounds. Every input
is checked once against perfbench's oracle. It prints the same summary
line for jones-reused, one operation per input.

The simulate-long mode times the command line's simulate on one
--stages-stage circuit, drawn as perfbench's long-chain draws its
circuits and written to a file, in process: each side's
cli.main(["simulate", FILE, "--in=...", "--format", FORMAT]) with its
stdout going to a StringIO, as above. It runs four operations, from a
seeded Jones input and a seeded Stokes input, each in json and text, and
prints one summary line for each, one simulate per block. Every output
is checked once before the rounds: the exit status, and the final
classification, and in json the final Stokes vector, against perfbench's
oracle. No perfbench workload runs simulate on a long circuit; this
mode measures the report's cost there.
"""

import argparse
import contextlib
import functools
import gc
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record import ROOT, SIDES, export, quartiles  # bench/ is the script's directory, so on sys.path

WORKLOADS = ("state-sweep", "long-chain")
BATCH_STAGES, BATCH_DECOHERES = 1000, 3


def load(path, name):
    """The module or package (a directory's __init__.py) at path, imported as name."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workloads_of(checkout, side):
    """perfbench.workloads with its `twobeam` import bound to checkout's package."""
    package = load(Path(checkout) / "src" / "twobeam", f"twobeam_{side}")
    saved = sys.modules.get("twobeam")
    sys.modules["twobeam"] = package
    try:
        return load(ROOT / "perfbench" / "workloads.py", f"workloads_{side}")
    finally:
        if saved is None:
            del sys.modules["twobeam"]
        else:
            sys.modules["twobeam"] = saved


def operations(module, seed, workdir, sizes):
    """{workload: (a function running its block of operations, their count)}."""
    ops = {}
    for name in WORKLOADS:
        workload = module.WORKLOADS[name](seed, workdir, **sizes[name][1])
        workload.setup()
        cases = [workload.make_input(i) for i in range(sizes[name][0])]
        for case in cases:  # warm-up, untimed and checked
            error = workload.check(case, workload.op(case))
            if error:
                raise SystemExit(f"{module.__name__} {name}: {error}")

        def block(op=workload.op, cases=cases):
            for case in cases:
                op(case)

        ops[name] = block, len(cases)
    return ops


def cpu_time(block):
    gc.collect()  # each block starts from an empty young generation, whichever side ran before
    start = time.process_time()
    block()
    return time.process_time() - start


def reused_block(module, seed, n, mode, stages, decoheres, jones):
    """(a function evaluating n seeded inputs through one parsed circuit, n), with module's
    package: the circuit's stages drawn with perfbench's generators, decoheres of them decohere
    at seeded places; the inputs Jones (perfbench's draw_jones) or Stokes (its draw_stokes,
    alternately pure and impure). Every input's result is checked against module's oracle first."""
    rng = random.Random(seed)
    kinds = [rng.choice(module.COHERENT) for _ in range(stages)]
    for i in rng.sample(range(stages), decoheres):
        kinds[i] = "decohere"
    drawn = [module.draw_stage(rng, kind) for kind in kinds]
    ast, matrix = module.circuit.parse(module.circuit_text(drawn)), module.oracle_matrix(drawn)
    if jones:
        psis = [module.draw_jones(rng) for _ in range(n)]
        inputs, cases = [module.jones_stokes(*psi) for psi in psis], [module.states.JonesVector(*psi) for psi in psis]
    else:
        inputs = [module.draw_stokes(rng, pure=i % 2 == 0) for i in range(n)]
        cases = [module.states.StokesVector(*s) for s in inputs]
    evaluate = module.circuit.evaluate
    for s, case in zip(inputs, cases):
        want = matrix @ module.np.array(s)
        report = evaluate(ast, case)
        error = module.stokes_error(report.final_stokes, want, report.final_classification.tag,
                                    module.oracle_tag(want))
        if error:
            raise SystemExit(f"{module.__name__} {mode}: {error}")

    def block():
        for case in cases:
            evaluate(ast, case)

    return block, n


def interleaved(ops, rounds):
    """{workload: ({side: CPU time per round}, operations per block)}: each round times each
    workload's block once per side, the side that runs first alternating."""
    times = {w: {side: [] for side in SIDES} for w in ops["change"]}
    for k in range(rounds):
        for workload in ops["change"]:
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                times[workload][side].append(cpu_time(ops[side][workload][0]))
    return {w: (times[w], n) for w, (_, n) in ops["change"].items()}


def in_process(parent, args, tmp):
    """{workload: ({side: CPU time per round}, operations per block)} of the in-process workloads."""
    sizes = {"state-sweep": (args.states, {}), "long-chain": (args.chains, {"stages": args.stages})}
    ops = {side: operations(workloads_of(checkout, side), args.seed, tmp, sizes)
           for side, checkout in zip(SIDES, (parent, ROOT))}
    return interleaved(ops, args.rounds)


def reused(parent, args, tmp):
    """{mode: ({side: CPU time per round}, inputs per block)} of the batch or jones-reused mode."""
    sizes = {"batch": (BATCH_STAGES, BATCH_DECOHERES, False), "jones-reused": (args.stages, 0, True)}[args.mode]
    ops = {side: {args.mode: reused_block(workloads_of(checkout, side), args.seed, args.states, args.mode, *sizes)}
           for side, checkout in zip(SIDES, (parent, ROOT))}
    return interleaved(ops, args.rounds)


def simulate_once(main, argv):
    """main(argv)'s exit status and what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def simulate_long(parent, args, tmp):
    """{"simulate-long INPUT FORMAT": ({side: CPU time per round}, 1)}: one in-process simulate of
    the long circuit per block, from a Jones and a Stokes input, in json and text."""
    modules = {side: workloads_of(checkout, side) for side, checkout in zip(SIDES, (parent, ROOT))}
    draw = modules["change"]  # the perfbench generators, the same file on both sides
    rng = random.Random(args.seed)
    stages = [draw.draw_stage(rng, rng.choice(draw.COHERENT)) for _ in range(args.stages)]
    path = Path(tmp) / "long-chain.txt"
    path.write_text(draw.circuit_text(stages) + "\n")
    psi, s = draw.draw_jones(rng), draw.draw_stokes(rng, pure=False)
    inputs = {
        "jones": ((psi[0].real, psi[0].imag, psi[1].real, psi[1].imag), draw.jones_stokes(*psi)),
        "stokes": (s, s),
    }
    ops = {side: {} for side in SIDES}
    for side, module in modules.items():
        main = importlib.import_module(f"twobeam_{side}.cli").main
        for name, (values, stokes) in inputs.items():
            want = draw.oracle_stokes(stages, stokes)
            tag = draw.oracle_tag(want)
            for fmt in ("json", "text"):
                argv = ["simulate", str(path), f"--in={name}:{','.join(map(repr, values))}", "--format", fmt]
                status, out = simulate_once(main, argv)
                if status != 0:
                    error = f"simulate exited with {status}"
                elif fmt == "json":
                    results = json.loads(out)["results"]
                    error = module.stokes_error(module.states.StokesVector(*results["final_stokes"]), want,
                                                results["final_classification"]["tag"], tag)
                else:
                    error = None if f"final classification: {tag}" in out else "text final classification"
                if error:
                    raise SystemExit(f"{side} simulate-long {name} {fmt}: {error}")
                block = functools.partial(simulate_once, main, argv)
                ops[side][f"simulate-long {name} {fmt}"] = block, 1
    return interleaved(ops, args.rounds)


def child_cpu(argv, path):
    """The user and system CPU time of `python -m twobeam.cli argv` with path on PYTHONPATH,
    and its (exit code, stdout)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-m", "twobeam.cli", *argv], cwd=ROOT, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(path)), timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, (done.returncode, done.stdout)


def cli_mix(parent, args, tmp):
    """{"cli-mix": ({side: child CPU time per round}, commands per round)}."""
    paths, workloads = {}, {}
    for side, checkout in zip(SIDES, (parent, ROOT)):
        paths[side] = Path(tmp) / f"src-{side}"
        shutil.copytree(Path(checkout) / "src" / "twobeam", paths[side] / "twobeam",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # The same argument vectors and circuit file on both sides; the in-process
        # final Stokes vector from this side's package, the references from its CLI.
        workload = workloads[side] = workloads_of(checkout, side).WORKLOADS["cli-mix"](args.seed, tmp)
        workload.setup()
        workload.reference = [child_cpu(argv, paths[side])[1][1] for argv in workload.argvs]
    cases = [workload.make_input(i) for i in range(len(workload.argvs))]
    times = {side: [] for side in SIDES}
    for k in range(args.rounds):
        spent = dict.fromkeys(SIDES, 0.0)
        for case in cases:
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                cpu, out = child_cpu(case.argv, paths[side])
                error = workloads[side].check(case, out)
                if error:
                    raise SystemExit(f"{side} cli-mix: {error}")
                spent[side] += cpu
        for side in SIDES:
            times[side].append(spent[side])
    return {"cli-mix": (times, len(cases))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision, or a directory holding src/twobeam")
    parser.add_argument("--mode", choices=("in-process", "cli-mix", "batch", "simulate-long", "jones-reused"),
                        default="in-process")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--states", type=int, default=400,
                        help="state-sweep operations, or batch or jones-reused inputs, per block")
    parser.add_argument("--chains", type=int, default=4, help="long-chain operations per block")
    parser.add_argument("--stages", type=int, default=2000,
                        help="stages per long chain, or of simulate-long's or jones-reused's circuit")
    parser.add_argument("--seed", type=int, default=701)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(args.parent)
        if not (parent / "src" / "twobeam").is_dir():
            parent = export(args.parent, Path(tmp) / "parent")
        modes = {"in-process": in_process, "cli-mix": cli_mix, "batch": reused, "simulate-long": simulate_long,
                 "jones-reused": reused}
        results = modes[args.mode](parent, args, tmp)
    what = "child CPU time" if args.mode == "cli-mix" else "CPU time"
    unit, scale = ("ms", 1e3) if args.mode in ("cli-mix", "simulate-long") else ("us", 1e6)
    for workload, (times, n) in results.items():
        ratios = [p / c for p, c in zip(times["parent"], times["change"])]
        q1, median, q3 = quartiles(ratios)
        won = sum(r > 1.0 for r in ratios)
        per_op = {side: scale * statistics.median(times[side]) / n for side in SIDES}
        print(f"{workload}: parent/change {what} median {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
              f"change faster in {won} of {len(ratios)} rounds; per op {per_op['parent']:.1f} {unit} "
              f"parent, {per_op['change']:.1f} {unit} change ({n} ops per block)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
