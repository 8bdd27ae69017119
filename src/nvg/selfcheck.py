"""Fast self-contained oracle suite behind the `selfcheck` CLI command.

Each check re-derives its expectation independently (read-back properties,
naive rescans, closed-form integrals) rather than trusting the code under
test. The structure-id check reads back the ids `embed_structure_map` gives
built hierarchies, the ids the generators use. The tokenize check runs the
tokenizer and the decoder with random, non-identity refiners, so a stage
mismatch or a scaled canvas shows.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import rope_tables
from .grid import Codebook, LatentGrid, StructureMap, canvas_prefixes
from .hierarchy import build_hierarchy
from .pipeline import ScheduleParams, guidance_classes, guided
from .quantize import Refiner, build_contents, identity_refiners
from .structcode import bit_rule_holds, embed_structure_map
from .structure_model import flow_sample, gumbel_balanced_split

__all__ = ["run_selfcheck"]


def _check_structure_embedding(seed):
    """The ids the generators read, on real hierarchies: per stage the pad
    count and the parent's prefix, and one distinct id per finest cluster."""
    rng = np.random.default_rng(seed)
    for _ in range(5):
        maps = build_hierarchy(LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32)))
        if not bit_rule_holds(maps, len(maps) - 1):
            return False, "a pad count or a parent prefix breaks the bit rule"
        finest = embed_structure_map(maps[-1], len(maps) - 1).reshape(64, -1)
        if np.unique(finest, axis=0).shape[0] != 64:
            return False, "two finest-stage locations share an id"
    return True, "pad counts, parent prefixes and 64 distinct finest ids on 5 grids"


def _naive_greedy_pairs(vectors):
    """Full rescan per merge: the row-major first minimum over unpaired i < j."""
    m = len(vectors)
    diff = vectors[:, None, :] - vectors[None, :, :]
    d = (diff * diff).sum(-1)
    d[np.tril_indices(m)] = np.inf
    pairs = []
    for _ in range(m // 2):
        i, j = divmod(int(np.argmin(d)), m)
        pairs.append((i, j))
        d[[i, j], :] = np.inf
        d[:, [i, j]] = np.inf
    return pairs


def _check_hierarchy(seed):
    """Balance and nesting of every map, and greediness re-derived from them:
    per stage s, the float64 means of the stage-(s+1) clusters, averaged from
    the grid, must pair up as {2j, 2j+1} under a naive full-rescan scan."""
    rng = np.random.default_rng(seed)
    for _ in range(5):
        grid = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        maps = build_hierarchy(grid)
        for i, smap in enumerate(maps):
            counts = np.bincount(smap.labels.ravel(), minlength=2 ** i)
            if not np.all(counts == 64 // 2 ** i):
                return False, f"stage {i} imbalance"
        flat = grid.data.reshape(64, 4).astype(np.float64)
        for s, fine in enumerate(maps[1:]):
            if not np.array_equal(fine.labels >> 1, maps[s].labels):
                return False, f"stage {s + 1} does not nest in stage {s}"
            order = np.argsort(fine.labels.ravel(), kind="stable")
            means = flat[order].reshape(2 ** (s + 1), -1, 4).mean(axis=1)
            if any(i % 2 or j != i + 1 for i, j in _naive_greedy_pairs(means)):
                return False, f"stage {s} merges are not globally greedy"
    return True, "balance, nesting and greedy merges verified on 5 grids"


def _check_tokenize_reconstruct(seed):
    # decoding sums the refined placements in one pass, tokenizing subtracts
    # them in another: with a random codebook and refiners the two must meet
    rng = np.random.default_rng(seed)
    centre = identity_refiners(6, 4)[0].weight
    for _ in range(5):
        grid = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        codebook = Codebook(rng.normal(size=(32, 4)).astype(np.float32))
        refiners = [Refiner(centre + 0.1 * rng.normal(size=centre.shape), 0.1 * rng.normal(size=4))
                    for _ in range(7)]
        seq, residuals = build_contents(grid, build_hierarchy(grid), codebook, refiners)
        back = canvas_prefixes(seq, codebook, refiners)[-1].data + residuals[-1].data
        rel = np.linalg.norm(back - grid.data) / np.linalg.norm(grid.data)
        if rel > 1e-5:
            return False, f"reconstruction plus final residual is off by {rel:.2e} (relative)"
    return True, "reconstruction plus final residual gives back 5 grids"


def _check_rope(seed):
    # the tables and the tape op every forward uses, on 100 random tokens
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(100, 64))
    cos, sin = rope_tables(rng.integers(0, 3, size=100), rng.integers(0, 3, size=(100, 8)),
                           rng.integers(0, 16, size=(100, 2)))
    out = ad.rope(vecs, cos, sin).data
    err = np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(vecs, axis=1)).max()
    if err > 1e-6:
        return False, f"rotation changed a norm by {err:.2e}"
    return True, "isometry holds on 100 random vectors"


def _check_schedules():
    sched = ScheduleParams()
    checks = [
        (sched.top_p(0, 8), 1.0), (sched.top_p(8, 8), 0.5),
        (sched.content_scale(0, 8), 1.0), (sched.content_scale(8, 8), 3.5),
        (sched.structure_scale(1, 8), 1.0), (sched.structure_scale(7, 8), 2.5),
    ]
    for got, want in checks:
        if abs(got - want) > 1e-12:
            return False, f"schedule endpoint {got} != {want}"
    return True, "top-p and guidance endpoints exact"


def _check_gumbel(seed):
    # canonical labels put location 0 in child 0 every time; under a uniformly
    # random halving of 16 locations, each other one joins it with
    # probability 7/15
    rng = np.random.default_rng(seed)
    parent = StructureMap(0, np.zeros((4, 4), dtype=np.int64))
    hits = np.zeros(16)
    n = 2000
    for _ in range(n):
        child = gumbel_balanced_split(parent, np.zeros((4, 4)), rng)
        counts = np.bincount(child.labels.ravel(), minlength=2)
        if counts[0] != 8 or counts[1] != 8:
            return False, "split not balanced"
        if child.labels[0, 0] != 0:
            return False, "location 0 is not in child 0"
        hits += child.labels.ravel() == 0
    if np.abs(hits[1:] / n - 7 / 15).max() > 0.05:
        return False, "uniform scores do not split evenly"
    return True, f"{n} splits balanced and canonical; frequencies near 7/15"


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
        classes = guidance_classes(0, 1, scale)
        calls.append(classes.tolist())
        return guided((z - targets[classes]) / t, scale)

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
        ("structure-embedding", *_check_structure_embedding(seed + 6)),
        ("hierarchy-balance-greedy", *_check_hierarchy(seed)),
        ("tokenize-reconstruct", *_check_tokenize_reconstruct(seed + 1)),
        ("rope-isometry", *_check_rope(seed + 2)),
        ("schedule-endpoints", *_check_schedules()),
        ("gumbel-balanced-split", *_check_gumbel(seed + 3)),
        ("flow-oracle-integration", *_check_flow_oracle(seed + 4)),
        ("guided-flow-combination", *_check_guided_flow(seed + 5)),
    ]
