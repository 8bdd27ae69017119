"""The `selfcheck` oracle suite: every check passes, in the library and
through the CLI, and the tokenizer check fails on a broken tokenizer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvg
from nvg import selfcheck
from nvg.grid import LatentGrid
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


def _shifted_refiners(real):
    # tokenizes each stage with the next stage's refiner
    return lambda grid, hierarchy, codebook, refiners: real(
        grid, hierarchy, codebook, refiners[1:] + refiners[:1])


def _scaled_canvas(real):
    return lambda seq, codebook, refiners: LatentGrid(1.0001 * real(seq, codebook, refiners).data)


@pytest.mark.parametrize("name, breakage", [("build_contents", _shifted_refiners),
                                            ("reconstruct", _scaled_canvas)])
def test_tokenize_reconstruct_fails_on_a_broken_tokenizer(monkeypatch, name, breakage):
    monkeypatch.setattr(selfcheck, name, breakage(getattr(selfcheck, name)))
    results = {check: ok for check, ok, _ in run_selfcheck(0)}
    assert results.pop("tokenize-reconstruct") is False
    assert all(results.values())
