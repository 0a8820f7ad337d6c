"""Paired A/B runs of the perfbench workloads, written to BENCH_<n>.json.

    python3 bench/record.py --parent HEAD~1 --out BENCH_7.json
    python3 bench/record.py --parent A --change B --out rerun.json

Each side runs from a fresh copy in a temporary directory: the parent
revision (and --change, when given) exported with `git archive`, and
without --change a copy of the working tree that holds this script,
the files `git ls-files -co --exclude-standard` lists (tracked and
untracked, not ignored, less those deleted from the working tree). So
neither side starts with a warm `__pycache__` or from another path.
For each workload the script then runs `perfbench/run.py --trace 0` on
the parent and on the change in alternation, for every workload of
BENCHMARK.json and for its `run_seconds`: ten pairs, pair k with seed
701 + k on both sides, and the side that runs first alternates from
pair to pair, so that a drift in the host's speed biases neither side.

The output holds, per workload and side, the median and interquartile
range of each end-to-end metric of BENCHMARK.json, the summed
attempted/failed counts and the context line of the first run; and per
metric the median and quartiles of the paired change/parent ratio,
with the number of pairs in which the change was better. It also
records sys.version and PYTHONDONTWRITEBYTECODE, which both sides
inherit: with bytecode writing off, every cli-mix child compiles the
package from source, which moves cli-mix by about 20%. It uses the
standard library only and sets no pass/fail gate. A revision git cannot
read ends this script, and bench/ab.py, bench/differential.py and
bench/traffic.py, which export through it, with git's own message and
exit status 2.
"""

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = tuple(701 + k for k in range(10))


def run_git(*args):
    """The stdout bytes of git args, run in ROOT. If git fails, its own
    message goes to stderr and the script exits with status 2."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(2)
    return done.stdout


def git(*args):
    return run_git(*args).decode().strip()


def export(rev, into):
    """Write the committed files of rev under into, as git archive gives them."""
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=run_git("archive", rev), check=True)
    return into


def copy_worktree(into):
    """Copy the working tree's tracked and untracked, not ignored, files under into."""
    into.mkdir()
    for name in git("ls-files", "-z", "-co", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file may be deleted from the tree
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    return into


def run_once(checkout, workload, seed, seconds):
    """The context line and the result line of one perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    context = next(line[len("context "):] for line in lines if line.startswith("context "))
    return json.loads(context), json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metrics):
    """Per-side medians and IQRs, and the paired change/parent ratios."""
    out = {}
    for side in SIDES:
        results = [run[side] for run in runs]
        summary = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "context": runs[0][f"{side}_context"],
            "metrics": {},
        }
        for name, spec in metrics.items():
            q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            summary["metrics"][name] = {"median": median, "iqr": q3 - q1, "unit": spec["unit"]}
        out[side] = summary
    out["ratio"] = {}
    for name, spec in metrics.items():
        ratios = [
            run["change"]["metrics"][name]["value"] / run["parent"]["metrics"][name]["value"]
            for run in runs
        ]
        better = sum((r > 1.0) if spec["better"] == "higher" else (r < 1.0) for r in ratios)
        q1, median, q3 = quartiles(ratios)
        out["ratio"][name] = {"median": median, "q1": q1, "q3": q3, "change_better_pairs": better}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", default=None, help="git revision (default: this working tree)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    def values(result):
        return {name: result["metrics"][name]["value"] for name in metrics}
    change = git("rev-parse", args.change) if args.change else f"working tree of {git('rev-parse', 'HEAD')}"
    record = {
        "command": "python3 bench/record.py " + shlex.join(sys.argv[1:] if argv is None else argv),
        "parent": git("rev-parse", args.parent),
        "change": change,
        "pairs": len(SEEDS),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "python": sys.version,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": export(args.parent, Path(tmp) / "parent")}
        change_dir = Path(tmp) / "change"
        sides["change"] = export(args.change, change_dir) if args.change else copy_worktree(change_dir)
        for workload in [w["name"] for w in bench["workloads"]]:
            runs = []
            for k, seed in enumerate(SEEDS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    context, result = run_once(sides[side], workload, seed, seconds)
                    run[f"{side}_context"], run[side] = context, result
                    ops = result["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {ops:.4g} ops/s", file=sys.stderr)
                runs.append(run)
            entry = summarize(runs, metrics)
            entry["runs"] = [
                {"seed": r["seed"], "first": r["first"], **{side: values(r[side]) for side in SIDES}}
                for r in runs
            ]
            record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
