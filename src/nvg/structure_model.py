"""Rectified-flow model that inpaints the hierarchical structure embedding.

The embedding grid is noised along a straight path z(t) = t*noise +
(1-t)*target; columns of already-decided stages stay clamped to their true
values at every t, so generation is an inpainting problem. The network
predicts the path velocity (noise - target) and an Euler sampler walks t from
1 to 0. A warm-started stage walks from WARM_T instead: it noises the previous
stage's prediction onto the path, the state the trainer samples at that time
(cf. SDEdit, arXiv 2108.01073). A Gumbel-perturbed top-half split turns the
predicted column into an exactly balanced child map, labelled by
`hierarchy.canonical_child` as every training map is.

`StructureModel` is an adapter on `backbone.Generator`: `Generator._embed`
does the checks, the conditioning and the rotary ids, and the adapter runs
the generator's blocks and output head over its own rows. The velocity of stage k reads the realized
stage-(k-1) map: the row's stage is that map's stage plus one, and its rotary
structure ids are that map's embedding. The rows are the class token, a
canvas run and a noised-embedding run, and the head's output on the last is
the velocity. The model is split in two passes:

- `context` runs the class token and canvas rows, which attend only among
  themselves under the class + stage conditioning. They are the same at every
  Euler step of a stage, so a stage runs them once and keeps each block's
  keys and values (`FlowContext`).
- `velocity` runs only the noised rows. They attend to every row, the cached
  keys and values first, and alone take the time term in their conditioning.

Training runs the same two passes on the tape, so the trained model and the
sampled one are the same function; `LAYOUT` names this attention layout in
structure checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Generator, time_features
# unused here; bound because perfbench's smoke test reads nvg.<model>.rope_tables
from .backbone import rope_tables  # noqa: F401
from .errors import InvariantError, NumericError
from .grid import StructureMap
from .hierarchy import canonical_child

__all__ = ["WARM_T", "LAYOUT", "noised_input", "FlowContext", "StructureModel",
           "flow_sample", "gumbel_balanced_split"]

WARM_T = 0.4    # where a warm-started flow stage starts on the path
# the attention layout structure checkpoints are tagged with: context rows
# see only context rows and take no time term (`checkpoints.load_model`)
LAYOUT = "flow-context-v1"


def noised_input(s_e_grid: np.ndarray, t: float, noise: np.ndarray,
                 known_stages: int) -> np.ndarray:
    """The noised grid z at time t: interpolate toward noise, then clamp the
    first known_stages columns to ground truth."""
    if not 0.0 <= t <= 1.0:
        raise InvariantError(f"t must lie in [0, 1], got {t}")
    s_e = np.asarray(s_e_grid, dtype=np.float32)
    noise = np.asarray(noise, dtype=np.float32)
    if noise.shape != s_e.shape:
        raise InvariantError("noise and embedding grids must share a shape")
    if not 0 <= known_stages <= s_e.shape[-1]:
        raise InvariantError("known column count out of range")
    z = np.float32(t) * noise + np.float32(1.0 - t) * s_e
    z[..., :known_stages] = s_e[..., :known_stages]
    return z


@dataclass(frozen=True, eq=False)
class FlowContext:
    """What `StructureModel.context` computes once for a flow stage and each
    of its Euler steps reads: the (B, width) class + stage conditioning
    `cond`, each block's (keys, values) of the class token and canvas rows,
    the rotary tables (B, hw, 2H, 32) of the noised rows, and the grid's
    (h, w). Its len is its batch size. `velocity` reads it and never writes
    it."""

    cond: Tensor
    keys_values: tuple
    cos: np.ndarray
    sin: np.ndarray
    grid: tuple

    def __len__(self) -> int:
        return self.cond.shape[0]


class StructureModel(Generator):
    kind = "structure"
    map_lag = 1

    def context(self, class_ids, parents, canvases,
                rng: np.random.Generator | None = None) -> FlowContext:
        """Run the context rows of a batch, the class token and the canvas,
        through every block once.

        parents: each row's realized stage-(k-1) `StructureMap` for a flow at
        stage k; canvases: (B, h, w, e). These rows attend among themselves
        under the class + stage conditioning, so they are the same at every
        Euler step of the stage. The last block builds only their keys and
        values. A given rng turns dropout on (training).
        """
        canvases = np.asarray(canvases, dtype=np.float32)
        x, cos, sin, cond = self._embed(class_ids, parents,
                                        (canvases, self.w_in_canvas, self.b_in_canvas),
                                        rotary_runs=2)
        rows = x.shape[1]
        ctx_cos, ctx_sin = cos[:, :rows], sin[:, :rows]
        *inner, last = self.blocks
        keys_values = []
        for block in inner:
            x, (keys, values) = block.forward(x, ctx_cos, ctx_sin, cond,
                                              dropout=self.config.dropout, rng=rng)
            # one-input concats copy: the views would keep the block's whole
            # projection alive for as long as the context lives
            keys_values.append((ad.concat([keys], axis=3), ad.concat([values], axis=2)))
        keys_values.append(last.keys_values(x, ctx_cos, ctx_sin, cond))
        return FlowContext(cond, tuple(keys_values), cos[:, rows:], sin[:, rows:],
                           canvases.shape[1:3])

    def velocity(self, context: FlowContext, zs, ts,
                 rng: np.random.Generator | None = None) -> Tensor:
        """Velocity prediction for a batch of flow states, shape (B, h, w, K).

        zs: (B, h, w, K) noised grids, whose first k - 1 columns are the
        parent maps' known bits; ts: one time per row. Only the noised rows
        run: in every block they attend to the context's keys and values and
        their own, under the conditioning plus the time term. A given rng
        turns dropout on (training).
        """
        b_sz = len(context)
        ts = np.asarray(ts, dtype=np.float64)
        if ts.shape != (b_sz,):
            raise InvariantError(f"need one time per row, got {ts.shape} for a context "
                                 f"of {b_sz} rows")
        zs = np.asarray(zs, dtype=np.float32)
        x = self._tokens((zs, self.w_in_struct, self.b_in_struct), b_sz, context.grid)
        t_feat = time_features(ts, self.config.width)
        cond = context.cond + (ad.matmul(Tensor(t_feat.astype(np.float32)), self.w_time)
                               + self.b_time)
        for block, prefix in zip(self.blocks, context.keys_values):
            x = block.forward(x, context.cos, context.sin, cond, dropout=self.config.dropout,
                              rng=rng, prefix=prefix)[0]
        return ad.reshape(self._head(x, cond), zs.shape)


def flow_sample(velocity_fn, s_e_grid: np.ndarray, stage: int, n_steps: int,
                rng, warm: np.ndarray | None = None) -> np.ndarray:
    """Euler-integrate the flow back to an embedding grid.

    Without `warm` the walk starts from pure noise at t = 1 and takes
    n_steps steps. With a warm grid (the previous stage's prediction) it
    starts from `noised_input(warm, WARM_T, noise, 0)` and takes
    max(1, round(WARM_T * n_steps)) steps of WARM_T / steps each. Either way
    it draws one normal grid, and the first stage-1 columns stay clamped to
    s_e_grid from the start and after every step.

    velocity_fn(z, t) is called once per step and returns the (h, w, K)
    velocity; guidance, if any, is the caller's (see `pipeline.guided`).
    A non-finite velocity raises NumericError. Returns the predicted
    full-depth grid.
    """
    if n_steps < 1:
        raise InvariantError("need at least one integration step")
    if stage < 1:
        raise InvariantError("flow sampling starts at stage 1")
    rng = np.random.default_rng(rng)
    s_e = np.asarray(s_e_grid, dtype=np.float32)
    known = stage - 1
    noise = rng.standard_normal(s_e.shape).astype(np.float32)
    if warm is None:
        t0, steps, z = 1.0, n_steps, noise
    else:
        t0, steps = WARM_T, max(1, round(WARM_T * n_steps))
        z = noised_input(warm, t0, noise, 0)
    z[..., :known] = s_e[..., :known]
    dt = t0 / steps
    for step in range(steps):
        t = t0 - step * dt
        v = velocity_fn(z, t)
        if not np.all(np.isfinite(v)):
            raise NumericError(f"non-finite flow velocity at stage {stage}, t={t:.3f}")
        z = (z - np.float32(dt) * v.astype(np.float32)).astype(np.float32)
        z[..., :known] = s_e[..., :known]
    return z


def gumbel_balanced_split(parent_map: StructureMap, scores: np.ndarray,
                          rng) -> StructureMap:
    """Split every parent cluster exactly in half by Gumbel-perturbed scores.

    Per parent label j, the half of its locations with the largest
    score + Gumbel(0, 1) noise forms one child, the rest the other; equal
    noisy scores go to the smaller row-major location first. The children
    are labelled by `canonical_child`: 2j holds j's smallest location,
    whichever half that is.
    """
    rng = np.random.default_rng(rng)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != parent_map.labels.shape:
        raise InvariantError("scores grid must match the parent map shape")
    if parent_map.cluster_size % 2:
        raise InvariantError("parent clusters must have even size to split")
    noisy = (scores + rng.gumbel(size=scores.shape)).ravel()
    n, size = parent_map.num_clusters, parent_map.cluster_size
    # row j holds parent j's locations in row-major order (the map is balanced)
    locs = np.argsort(parent_map.labels.ravel(), kind="stable").reshape(n, size)
    ranked = np.take_along_axis(locs, np.argsort(-noisy[locs], axis=1, kind="stable"), axis=1)
    top = np.empty(noisy.size, dtype=bool)
    top[ranked] = np.arange(size) < size // 2
    return canonical_child(parent_map, top)
