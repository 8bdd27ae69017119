"""The `selfcheck` oracle suite: every check passes, in the library and
through the CLI, the tokenizer check fails on a broken tokenizer, and the
Gumbel check fails on a split that labels by score rather than canonically."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvg
from nvg import selfcheck
from nvg.grid import LatentGrid, StructureMap
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
    return lambda seq, codebook, refiners: tuple(
        LatentGrid(1.0001 * c.data) for c in real(seq, codebook, refiners))


@pytest.mark.parametrize("name, breakage", [("build_contents", _shifted_refiners),
                                            ("canvas_prefixes", _scaled_canvas)])
def test_tokenize_reconstruct_fails_on_a_broken_tokenizer(monkeypatch, name, breakage):
    monkeypatch.setattr(selfcheck, name, breakage(getattr(selfcheck, name)))
    results = {check: ok for check, ok, _ in run_selfcheck(0)}
    assert results.pop("tokenize-reconstruct") is False
    assert all(results.values())


def _top_half_gets_2j(parent_map, scores, rng):
    """The split's old rule: the higher-scoring half gets 2j, wherever the
    cluster's smallest location lies."""
    noisy = (np.asarray(scores, dtype=np.float64)
             + np.random.default_rng(rng).gumbel(size=scores.shape)).ravel()
    parent_flat = parent_map.labels.ravel()
    child = np.empty_like(parent_flat)
    half = parent_map.cluster_size // 2
    for j in range(parent_map.num_clusters):
        locs = np.flatnonzero(parent_flat == j)
        order = np.argsort(-noisy[locs], kind="stable")
        child[locs[order[:half]]] = 2 * j
        child[locs[order[half:]]] = 2 * j + 1
    return StructureMap(parent_map.stage + 1, child.reshape(parent_map.labels.shape))


def test_gumbel_check_fails_on_score_ordered_labels(monkeypatch):
    monkeypatch.setattr(selfcheck, "gumbel_balanced_split", _top_half_gets_2j)
    results = {check: ok for check, ok, _ in run_selfcheck(0)}
    assert results.pop("gumbel-balanced-split") is False
    assert all(results.values())
