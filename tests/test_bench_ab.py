"""bench/ab.py run A/A on this working tree: in process with tiny sizes, and one cli-mix round."""

import subprocess
import sys
from pathlib import Path

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
