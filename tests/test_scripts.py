"""The scripts under scripts/ run end to end against the library in src/."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dmsiplan

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=str(Path(dmsiplan.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout as a plain run does, so a missing flush shows
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
    )


def test_demo_walkthrough_runs():
    proc = run_script("demo_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    assert "final clock 20" in proc.stdout
    assert proc.stdout.count("decode ok") == 4


def test_regression_sweep_runs():
    proc = run_script("regression_sweep.py", "--count", "40")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    first = proc.stdout.splitlines()[0]
    assert re.fullmatch(r"40 draws agreed; 1921 candidates enumerated in \d+\.\d\ds", first), first


def test_regression_sweep_exits_quietly_when_its_reader_has_gone():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_script("regression_sweep.py", "--count", "5", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "script, option",
    [
        ("regression_sweep.py", "--seed"),
        ("regression_sweep.py", "--max-n"),
        ("regression_sweep.py", "--max-k"),
        ("regression_sweep.py", "--budget"),
        ("demo_walkthrough.py", "--budget"),
        ("demo_walkthrough.py", "--payload-seed"),
    ],
)
def test_one_value_options_are_gone(script, option):
    """Each held one value and is now a module constant; argparse refuses it."""
    proc = run_script(script, option, "1")
    assert proc.returncode == 2
    assert f"error: unrecognized arguments: {option} 1" in proc.stderr
    assert proc.stdout == ""


def _in_a_git_checkout():
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(SCRIPTS.parent), "rev-parse", "--verify", "-q", "HEAD"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return probe.returncode == 0


@pytest.mark.skipif(not _in_a_git_checkout(), reason="needs git and a checkout with commits")
def test_bench_outputs_finds_no_difference_from_head():
    """Two instances per seed of each corpus: 48 commands on the plan corpus
    and 60 on the verify-simulate one, each run against HEAD and the checkout."""
    proc = run_script("bench.py", "--outputs", "HEAD", "--count", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "0 of 108 commands differ between HEAD and the checkout\n"


def test_bench_without_a_mode_exits_2():
    proc = run_script("bench.py")
    assert proc.returncode == 2
    assert "error: --outputs REF is required" in proc.stderr
