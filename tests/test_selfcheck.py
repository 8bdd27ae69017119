"""The `selfcheck` oracle suite: every check passes, in the library and
through the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvg
from nvg.selfcheck import run_selfcheck


@pytest.mark.parametrize("seed", [0, 1])
def test_all_checks_pass(seed):
    results = run_selfcheck(seed)
    assert len(results) == 8
    assert len({name for name, _, _ in results}) == 8
    failed = [(name, detail) for name, ok, detail in results if not ok]
    assert failed == []


def test_cli_prints_a_pass_line_per_check():
    env = {**os.environ, "PYTHONPATH": str(Path(nvg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "nvg", "selfcheck"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines)
    assert "Traceback" not in proc.stderr
