"""The scripts under scripts/ run end to end against the library in src/."""

import json
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
    assert re.fullmatch(r"40 draws agreed; 2024 candidates enumerated in \d+\.\d\ds", first), first


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


END_TO_END = [
    metric["name"]
    for metric in json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
]
SUMMARY = re.compile(
    r"  (\S+): (\S+) \[(\S+), (\S+)\] -> (\S+) \[(\S+), (\S+)\], change better in [01]/1"
)


@pytest.mark.skipif(not _in_a_git_checkout(), reason="needs git and a checkout with commits")
def test_bench_against_head_prints_every_end_to_end_metric():
    """One short pair of perfbench runs, HEAD's src/ and the checkout's: every
    metric of BENCHMARK.json per pair and per side, both runs correct."""
    proc = run_script(
        "bench.py", "--against", "HEAD", "--workload", "plan", "--pairs", "1", "--seconds", "0.5"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "pair 1, seed 1, parent first:"
    assert [line.split(":")[0] for line in lines[1:7]] == [f"  {name}" for name in END_TO_END]
    assert re.fullmatch(
        r"HEAD \(src [0-9a-f]{16}\) -> checkout \(src [0-9a-f]{16}\), "
        r"plan, 1 pairs of 0\.5 s, seeds 1-1:", lines[7]
    ), lines[7]
    summary = [SUMMARY.fullmatch(line) for line in lines[8:]]
    assert all(summary) and [m[1] for m in summary] == END_TO_END, lines[8:]
    for pair, match in zip(lines[1:7], summary):  # one pair: each quartile is its value
        before, after = pair.split(": ")[1].split(" -> ")
        assert match.group(2, 3, 4) == (before,) * 3 and match.group(5, 6, 7) == (after,) * 3
    values = dict(zip(END_TO_END, (float(m[2]) for m in summary)))
    assert values["success_rate"] == 1 and values["ops_per_s"] > 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["--against", "HEAD"], "--against REF takes --workload W and not --outputs"),
        (["--against", "HEAD", "--workload", "plan", "--outputs", "HEAD"],
         "--against REF takes --workload W and not --outputs"),
        (["--against", "HEAD", "--workload", "plan", "--pairs", "0"],
         "--pairs must be at least 1"),
    ],
)
def test_bench_against_refuses_incomplete_options(args, message):
    proc = run_script("bench.py", *args)
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(not _in_a_git_checkout(), reason="needs git and a checkout with commits")
def test_bench_against_an_unknown_ref_exits_1_before_any_run():
    proc = run_script("bench.py", "--against", "no-such-ref", "--workload", "plan")
    assert proc.returncode == 1
    assert "error: git archive no-such-ref failed" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_against_exits_1_when_a_run_is_not_correct(tmp_path):
    """A copy of the repository whose committed `plan` exits 3: perfbench
    counts every op failed, reads "correct": false, and the pairs stop there."""
    root = SCRIPTS.parent
    for name in ("scripts", "perfbench", "src"):
        shutil.copytree(root / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    cli = tmp_path / "src" / "dmsiplan" / "cli.py"
    good = cli.read_text()
    plan = "def cmd_plan(args: argparse.Namespace) -> int:\n"
    assert plan in good
    cli.write_text(good.replace(plan, plan + "    return 3\n"))
    git = ["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "plan exits 3"]):
        subprocess.run(git + command, check=True, stdout=subprocess.DEVNULL)
    cli.write_text(good)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "bench.py"), "--against", "HEAD",
         "--workload", "plan", "--pairs", "1", "--seconds", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "error: perfbench on parent, seed 1, exited 0 with correct: False" in proc.stderr
    assert proc.stdout == ""
