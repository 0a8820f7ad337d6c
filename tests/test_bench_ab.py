"""bench/ab.py run A/A on this working tree: in process with tiny sizes, one cli-mix round and
a small batch; bench/traffic.py on this tree with tiny sizes; and a revision git cannot read."""

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


def test_traffic_counts_entries_of_every_workload():
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


@pytest.mark.parametrize("script", ["ab.py", "differential.py"])
def test_a_revision_git_cannot_read_ends_with_gits_message(script):
    want = subprocess.run(["git", "archive", "nosuchrev"], cwd=ROOT, capture_output=True, text=True)
    assert want.returncode != 0 and want.stderr
    cmd = [sys.executable, str(ROOT / "bench" / script), "--parent", "nosuchrev"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", want.stderr)
