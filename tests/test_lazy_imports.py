"""Which modules a fresh `twobeam` process runs: submodules load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"
SUBMODULES = {f"twobeam.{m}" for m in ("states", "elements", "littlegroup", "decoherence", "circuit")}

# Runs its code, then prints as the last line of stdout the names in
# sys.modules and the subset whose module has run (a module registered
# for lazy loading is not yet a plain module).
PROBE = """
import json, runpy, sys, types
{code}
print(json.dumps({{
    "registered": sorted(sys.modules),
    "ran": sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType),
}}))
"""

RUN_CLI = """
sys.argv = ["twobeam", *{argv!r}]
try:
    runpy.run_module("twobeam.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == {code}, stop.code
"""


def probe(code):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    return set(found["registered"]), set(found["ran"])


def test_cli_import_registers_every_submodule_without_numpy():
    registered, ran = probe("import twobeam.cli")
    assert SUBMODULES <= registered
    assert "numpy" not in registered


NOT_DECOMPOSE = {"twobeam.circuit", "twobeam.littlegroup", "twobeam.elements"}


@pytest.mark.parametrize(
    "argv, code, idle",
    [
        (["decompose", "iwasawa", "--matrix=1,0,0,1"], 0, NOT_DECOMPOSE),
        (["decompose", "wigner", "--matrix=1,0,0,2"], 3, NOT_DECOMPOSE),
        (["classify", "1,0.5,0,0", "--format=json"], 0, {"twobeam.circuit"}),
        (["classify", "1,x,0,0"], 2, NOT_DECOMPOSE | {"twobeam.decoherence"}),
        (["classify", "0,0,0,0"], 3, {"twobeam.circuit"}),
        (["littlegroup", "--alpha=0.5", "--u=1"], 0, {"twobeam.circuit"}),
        (["littlegroup", "--theta=0.5", "--eta=1", "--format=json"], 0, {"twobeam.circuit"}),
        (["lift", "rotate theta=1", "--format=json"], 0, {"twobeam.littlegroup", "twobeam.decoherence"}),
    ],
)
def test_commands_run_only_the_modules_they_use(argv, code, idle):
    registered, ran = probe(RUN_CLI.format(argv=argv, code=code))
    assert SUBMODULES <= registered
    assert not idle & ran
    assert "numpy" not in registered
    assert "dataclasses" not in registered


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", str(DATA / "psd_rounding_chain.txt"), "--in=stokes:1,0.5,0,0"],
        ["lift", "rotate theta=1", "--format=json"],
    ],
)
def test_no_command_imports_dataclasses(argv):
    registered, ran = probe(RUN_CLI.format(argv=argv, code=0))
    assert "twobeam.circuit" in ran
    assert "dataclasses" not in registered


# Thread A starts running `circuit` and, before the module's first line,
# lets thread B read a name from it. B must wait for A's run to finish:
# a load without a lock would show B a module with no `parse` yet.
RACE = """
import threading, time, twobeam
started = threading.Event()

def pause_at_module_start(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "<module>" and \\
            frame.f_code.co_filename.endswith("circuit.py"):
        started.set()
        time.sleep(0.2)

def first_use():
    sys.settrace(pause_at_module_start)
    twobeam.circuit.evaluate
    sys.settrace(None)

a = threading.Thread(target=first_use)
a.start()
assert started.wait(30)
assert callable(twobeam.circuit.parse)
a.join()
"""


def test_a_module_runs_once_under_a_lock_for_concurrent_first_use():
    registered, ran = probe(RACE)
    # circuit runs the modules it imports from, and reaches littlegroup
    # and decoherence only when a call uses them.
    assert SUBMODULES & ran == {"twobeam.circuit", "twobeam.states", "twobeam.elements"}


# More threads than cores touch the five modules at once, each in its own
# order, with a short switch interval: every read must succeed, and
# every module's code must run exactly once.
STRESS = """
import threading, twobeam
names = ["states.StokesVector", "elements.rotator", "littlegroup.classify",
         "decoherence.iwasawa_decompose", "circuit.parse"]
runs, failures = [], []

def count_module_runs(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "<module>" and \\
            "twobeam" in frame.f_code.co_filename:
        runs.append(frame.f_code.co_filename)

def touch(k):
    for name in names[k % 5:] + names[:k % 5]:
        module, attr = name.split(".")
        try:
            getattr(getattr(twobeam, module), attr)
        except Exception as exc:
            failures.append(f"{name}: {exc!r}")

sys.setswitchinterval(1e-6)
threading.setprofile(count_module_runs)
threads = [threading.Thread(target=touch, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads)
assert not failures, failures
assert len(runs) == len(set(runs)) == 5, runs
"""


def test_concurrent_first_use_runs_each_module_once():
    registered, ran = probe(STRESS)
    assert SUBMODULES <= ran
