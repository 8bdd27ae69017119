"""Fast self-contained oracle suite behind the `selfcheck` CLI command.

Each check re-derives its expectation independently (exhaustive enumeration,
naive rescans, closed-form integrals) rather than trusting the code under
test.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import rope_tables
from .grid import LatentGrid, StructureMap
from .hierarchy import build_hierarchy
from .pipeline import cfg_forward, cfg_schedule, top_p_schedule
from .quantize import identity_refiners, unquantized_residuals
from .structcode import decode_structure, encode_structure
from .structure_model import flow_sample, gumbel_balanced_split

__all__ = ["run_selfcheck"]


def _check_codec():
    for depth in range(9):
        for stage in range(depth + 1):
            for label in range(1 << stage):
                if decode_structure(encode_structure(label, stage, depth)) != (stage, label):
                    return False, f"roundtrip failed at ({stage}, {label}, depth {depth})"
    return True, "all 511 depth-8 pairs plus smaller depths roundtrip"


def _check_hierarchy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        grid = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        h = build_hierarchy(grid)
        for i, smap in enumerate(h.maps):
            counts = np.bincount(smap.labels.ravel(), minlength=2 ** i)
            if not np.all(counts == 64 // 2 ** i):
                return False, f"stage {i} imbalance"
        for record in h.merge_trace:
            reps = record.representatives
            alive = np.ones(len(reps), dtype=bool)
            for (i, j), dist in zip(record.pairs, record.distances):
                diff = reps[alive][:, None, :] - reps[alive][None, :, :]
                d2 = (diff * diff).sum(-1)
                np.fill_diagonal(d2, np.inf)
                if dist > d2.min() + 1e-12:
                    return False, "merge not globally minimal"
                alive[i] = alive[j] = False
    return True, "balance, nesting and greedy merges verified on 5 grids"


def _check_telescoping(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        grid = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        h = build_hierarchy(grid)
        trace = unquantized_residuals(grid, h, identity_refiners(6, 4))
        rel = np.linalg.norm(trace.residuals[-1].data) / np.linalg.norm(grid.data)
        if rel > 1e-5:
            return False, f"final residual relative norm {rel:.2e}"
    return True, "bypassed quantizer telescopes to zero on 5 grids"


def _check_rope(seed):
    # the tables and the tape op every forward uses, on 100 random tokens
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(100, 64))
    cos, sin = rope_tables(rng.integers(0, 3, size=100), rng.integers(0, 3, size=(100, 8)),
                           rng.integers(0, 16, size=(100, 2)), dtype=np.float64)
    out = ad.rope(vecs, cos, sin).data
    err = np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(vecs, axis=1)).max()
    if err > 1e-6:
        return False, f"rotation changed a norm by {err:.2e}"
    return True, "isometry holds on 100 random vectors"


def _check_schedules():
    checks = [
        (top_p_schedule(0, 8), 1.0), (top_p_schedule(8, 8), 0.5),
        (cfg_schedule(0, "content", 8), 1.0), (cfg_schedule(8, "content", 8), 3.5),
        (cfg_schedule(1, "structure", 8), 1.0), (cfg_schedule(7, "structure", 8), 2.5),
    ]
    for got, want in checks:
        if abs(got - want) > 1e-12:
            return False, f"schedule endpoint {got} != {want}"
    return True, "top-p and guidance endpoints exact"


def _check_gumbel(seed):
    rng = np.random.default_rng(seed)
    parent = StructureMap(0, np.zeros((4, 4), dtype=np.int64))
    hits = np.zeros(16)
    n = 2000
    for _ in range(n):
        child = gumbel_balanced_split(parent, np.zeros((4, 4)), rng)
        counts = np.bincount(child.labels.ravel(), minlength=2)
        if counts[0] != 8 or counts[1] != 8:
            return False, "split not balanced"
        hits += child.labels.ravel() == 0
    if np.abs(hits / n - 0.5).max() > 0.05:
        return False, "uniform scores do not split evenly"
    return True, f"{n} splits balanced; frequencies near 1/2"


def _check_flow_oracle(seed):
    rng = np.random.default_rng(seed)
    target = (2.0 * rng.integers(0, 2, size=(4, 4, 4))).astype(np.float32)

    def oracle(z, t):
        return (z - target) / t

    out = flow_sample(oracle, target, stage=2, n_steps=25, rng=seed)
    err = np.abs(out - target).max()
    if err > 1e-3:
        return False, f"oracle integration error {err:.2e}"
    return True, "closed-form velocity field integrates back to its target"


def _check_guided_flow(seed):
    # v_cond = (z - a)/t and v_null = (z - b)/t combine to (z - c)/t with
    # c = b + s (a - b), whose Euler path from t = 1 ends exactly at c
    rng = np.random.default_rng(seed)
    targets = (2.0 * rng.integers(0, 2, size=(2, 4, 4, 4))).astype(np.float32)
    a, b = targets              # class 0 aims at a, the null class 1 at b
    scale, stage, n_steps = 2.5, 2, 25
    calls = []

    def oracle(z, t):
        def rows(classes):
            calls.append(classes.tolist())
            return (z - targets[classes]) / t
        return cfg_forward(rows, 0, 1, scale)

    out = flow_sample(oracle, a, stage=stage, n_steps=n_steps, rng=seed)
    if calls != [[0, 1]] * n_steps:
        return False, f"batches {calls[:2]}... for {n_steps} guided steps"
    want = b + scale * (a - b)
    want[..., :stage - 1] = a[..., :stage - 1]
    err = np.abs(out - want).max()
    if err > 1e-3:
        return False, f"guided endpoint error {err:.2e}"
    return True, f"one [class, null] batch per step; {n_steps} steps reach the guided endpoint"


def run_selfcheck(seed: int = 0) -> list:
    """Run all checks; returns a list of (name, ok, detail)."""
    return [
        ("codec-roundtrip", *_check_codec()),
        ("hierarchy-balance-greedy", *_check_hierarchy(seed)),
        ("residual-telescoping", *_check_telescoping(seed + 1)),
        ("rope-isometry", *_check_rope(seed + 2)),
        ("schedule-endpoints", *_check_schedules()),
        ("gumbel-balanced-split", *_check_gumbel(seed + 3)),
        ("flow-oracle-integration", *_check_flow_oracle(seed + 4)),
        ("guided-flow-combination", *_check_guided_flow(seed + 5)),
    ]
