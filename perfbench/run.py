"""Benchmark of the twobeam package: three closed-loop workloads.

    python3 perfbench/run.py --workload long-chain --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): long-chain, state-sweep, cli-mix.

--trace 0 measures the end-to-end metrics with tracing off. It runs
a fixed number of operations: --seconds times the workload's nominal
rate on the reference machine (a 2-core x86-64 host), and at least
MIN_OPS, so that the 90th percentile has ten samples beyond it. For
each it makes the next seeded input, times the operation, then checks
the output. The count does not depend on how fast the host happens to
be, so a seed fixes exactly which inputs a run attempts, and
"attempted" and "failed" repeat from run to run. ops_per_s counts completed
operations per second of operation time; the latencies are over
completed operations. setup_s is the median of SETUP_SAMPLES set-ups,
this process's own and the rest in fresh interpreters, each covering
the imports, input generation, the one-time parse and the warm-up.
The result line carries ops_per_s, latency_p90_ms, setup_s and
peak_rss_mb; latency_p50_ms and error_rate are printed above it.

An operation fails when the program raises or an output fails its
check; failures are counted, never retried. "failed" in the result
counts both, and "correct" is false when any output was wrong.

--trace 1 runs a fixed number of operations (set by --seconds) untraced
and the same operations traced, and reports per-layer calls and
self time per operation, the interpreter and import cost of the CLI,
and traced over untraced throughput.

Human-readable lines come first; the last line of standard output is
the JSON result. Spans of a traced run are written to
.perfbench/spans-<workload>.npz in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_OPS = 110
MAX_MEASURE_S = 120.0
SETUP_SAMPLES = 5
CHILD_SAMPLES = 7
TRACE_BLOCKS = 10
# One BLAS thread: the benchmark runs one client and starts no more
# threads than the two cores of the reference machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Tally:
    """Latencies of completed operations and (kind, message) of failed ones."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failures = []

    def add(self, seconds, failure):
        self.attempted += 1
        if failure is None:
            self.latencies.append(seconds)
        else:
            self.failures.append(failure)

    def merge(self, other):
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failures += other.failures

    def wrong(self):
        return sum(kind == "wrong" for kind, _ in self.failures)

    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def attempt(workload, case, op):
    """Run and check one operation; return (seconds, failure or None).

    A failure is ("raised", message) when the program refused the input
    with an exception and ("wrong", message) when an output failed a check.
    """
    t0 = time.perf_counter()
    try:
        out = op(case)
    except Exception as exc:  # the program's failure is a counted result
        return time.perf_counter() - t0, ("raised", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    wrong = workload.check(case, out)
    return seconds, None if wrong is None else ("wrong", wrong)


def run_ops(workload, seconds):
    """Operations in one untraced run: about `seconds` on the reference machine."""
    return max(MIN_OPS, round(seconds * workload.ops_per_second))


def measure(workload, n):
    """Attempt operations 0 .. n-1; stop the benchmark if they overrun MAX_MEASURE_S."""
    tally = Tally()
    start = time.perf_counter()
    for i in range(n):
        tally.add(*attempt(workload, workload.make_input(i), workload.op))
        if time.perf_counter() - start > MAX_MEASURE_S:
            sys.exit(f"error: {i + 1} of {n} operations took over {MAX_MEASURE_S:g} s")
    return tally


def setup_probe(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.splitlines()[-1])


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(workload, args, own_setup_s):
    tally = measure(workload, run_ops(workload, args.seconds))
    lat = tally.latencies
    if not lat:
        return tally, None, {}
    rss = peak_rss_mb()
    setups = [own_setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    # Printed, not in the result line: the median lands in whichever of
    # the host's fast and slow speed phases holds most of a run, so it
    # jumps between runs by more than any usable bound.
    shown = {"latency_p50_ms": (statistics.median(lat) * 1e3, "ms")}
    return tally, metrics, shown


def child_ms(code):
    """Median wall time of a fresh interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CHILD_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def trace_pair(workload, n, spans):
    """Run the first n operations untraced and traced, in alternating blocks.

    Alternating TRACE_BLOCKS times spreads both kinds over the same stretch
    of the run, so a change in the host's speed biases neither.
    """
    import tracer

    cases = list(enumerate(workload.make_input(i) for i in range(n)))
    size = max(1, n // TRACE_BLOCKS)
    plain, traced = Tally(), Tally()
    for start in range(0, n, size):
        block = cases[start:start + size]
        for _, case in block:
            plain.add(*attempt(workload, case, workload.op))
        with tracer.instrument(spans):
            for i, case in block:
                traced.add(*attempt(workload, case, lambda c: workload.traced_op(spans, i, c)))
    return plain, traced


def layer_metrics(spans, n):
    """Calls and self time per operation of every traced layer."""
    import tracer

    totals = spans.totals()
    metrics = {}
    for name in tracer.LAYER_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls_per_op"] = (calls / n, "count")
        metrics[f"{name}.self_us_per_op"] = (self_s * 1e6 / n, "us")
    return metrics


def per_layer(workload, args):
    import tracer

    n = workload.trace_ops(args.seconds)
    spans = tracer.Tracer()
    plain, traced = trace_pair(workload, n, spans)
    spans.dump(OUT / f"spans-{workload.name}.npz")
    metrics = layer_metrics(spans, n)
    interpreter = child_ms("pass")
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_ms"] = (child_ms("import twobeam.cli") - interpreter, "ms")
    if plain.latencies and traced.latencies:
        metrics["trace.overhead_ratio"] = (traced.ops_per_s() / plain.ops_per_s(), "ratio")
    else:
        metrics = None
    plain.merge(traced)
    return plain, metrics, {}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload, args):
    import numpy

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": workload.trace_ops(args.seconds) if args.trace
        else run_ops(workload, args.seconds),
        "clients": 1,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("long-chain", "state-sweep", "cli-mix"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run(args, workdir):
    t0 = time.perf_counter()
    import workloads  # first import of numpy and twobeam: part of set-up

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    print("context " + json.dumps(context(workload, args)))
    if args.trace:
        tally, metrics, shown = per_layer(workload, args)
    else:
        tally, metrics, shown = end_to_end(workload, args, setup_s)
    for kind, message in tally.failures[:5]:
        print(f"failed ({kind}): {message}", file=sys.stderr)
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    failed = len(tally.failures)
    print(f"{'error_rate':48s} {failed / tally.attempted:14.6g} "
          f"({failed} of {tally.attempted}; {tally.wrong()} wrong outputs)")
    print(json.dumps({
        "correct": tally.wrong() == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "twobeam" / "__init__.py").is_file():
        print(f"error: twobeam sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
