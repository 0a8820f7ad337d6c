"""bench/ab.py run A/A on this working tree: in process with tiny sizes, one cli-mix round, a small
batch, a few Jones inputs through one short circuit and one short simulate-long round;
bench/traffic.py on this tree with tiny sizes; bench/mutants.py's table against src/; and a
revision git cannot read."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_runs_the_working_tree_against_itself():
    # A directory as the parent side needs no git.
    cmd = [sys.executable, str(ROOT / "bench" / "ab.py"), "--parent", str(ROOT), "--rounds", "2",
           "--states", "4", "--chains", "1", "--stages", "10"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["state-sweep", "long-chain"]
    assert all("parent/change CPU time median" in line and "of 2 rounds" in line for line in lines)
    assert "(4 ops per block)" in lines[0] and "(1 ops per block)" in lines[1]


def test_ab_cli_mix_mode_runs_one_round():
    cmd = [sys.executable, str(ROOT / "bench" / "ab.py"), "--parent", str(ROOT), "--mode", "cli-mix",
           "--rounds", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    [line] = done.stdout.splitlines()
    assert line.startswith("cli-mix: parent/change child CPU time median ")
    assert "of 1 rounds" in line and "(8 ops per block)" in line


def test_ab_batch_mode_times_states_through_one_long_circuit():
    cmd = [sys.executable, str(ROOT / "bench" / "ab.py"), "--parent", str(ROOT), "--mode", "batch",
           "--rounds", "2", "--states", "3"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    [line] = done.stdout.splitlines()
    assert line.startswith("batch: parent/change CPU time median ")
    assert "of 2 rounds" in line and "(3 ops per block)" in line


def test_ab_jones_reused_mode_times_jones_inputs_through_one_circuit():
    cmd = [sys.executable, str(ROOT / "bench" / "ab.py"), "--parent", str(ROOT), "--mode", "jones-reused",
           "--rounds", "2", "--states", "3", "--stages", "20"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    [line] = done.stdout.splitlines()
    assert line.startswith("jones-reused: parent/change CPU time median ")
    assert "of 2 rounds" in line and "(3 ops per block)" in line


def test_ab_simulate_long_mode_times_each_input_and_format():
    cmd = [sys.executable, str(ROOT / "bench" / "ab.py"), "--parent", str(ROOT), "--mode", "simulate-long",
           "--rounds", "1", "--stages", "20"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"simulate-long {name} {fmt}" for name in ("jones", "stokes") for fmt in ("json", "text")]
    assert all("parent/change CPU time median" in line and "of 1 rounds" in line for line in lines)
    assert all("ms change (1 ops per block)" in line for line in lines)


def test_traffic_counts_entries_of_every_workload():
    """Contract: no timed workload runs the stage loop or reads records
    where it need not, read from bench/traffic.py's per-workload counts."""
    cmd = [sys.executable, str(ROOT / "bench" / "traffic.py"), "--ops", "2", "--stages", "10"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:4] == ["function", "long-chain", "state-sweep", "cli-mix"]
    counts = {name: [int(count) for count in rest[:3]] for name, *rest in map(str.split, rows)}
    assert all(count > 0 for count in counts["circuit.evaluate"])
    # state-sweep evaluates one parsed circuit again and again: every op
    # folds its compiled segments, and none runs the stage loop.
    assert counts["circuit._fold"][1] > 0 and counts["circuit._walk"][1] == 0
    # No timed in-process workload reads a report's records or runs the
    # stage loop: long-chain, from Jones inputs without decohere, folds its
    # amplitudes through its one segment, so work that moves into a records
    # read or the stage loop costs them nothing.
    assert counts["circuit.SimulationReport.__getattr__"][:2] == [0, 0]
    assert counts["circuit._walk"][:2] == [0, 0]
    # Neither reads a stage's numbers through an Element2 or a decohere
    # stage through decohere_channel.
    assert counts["states._entries2"][:2] == [0, 0] and counts["decoherence.decohere_channel"][:2] == [0, 0]


def test_every_mutant_names_text_found_once_in_src(monkeypatch):
    """bench/mutants.py's table stays live: each mutant's old text occurs
    exactly once in its file under src/, and its new text differs. Runs
    no pytest child."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "bench" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutant.path.startswith("src/") and mutant.old != mutant.new, mutant.name
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name


@pytest.mark.parametrize("script", ["ab.py", "differential.py"])
def test_a_revision_git_cannot_read_ends_with_gits_message(script):
    want = subprocess.run(["git", "archive", "nosuchrev"], cwd=ROOT, capture_output=True, text=True)
    assert want.returncode != 0 and want.stderr
    cmd = [sys.executable, str(ROOT / "bench" / script), "--parent", "nosuchrev"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", want.stderr)
