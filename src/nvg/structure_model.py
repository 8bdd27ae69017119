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

`StructureModel` is an adapter on `backbone.Generator`, whose one forward
does the conditioning, the rotary ids, the blocks and the output head. The
velocity of stage k reads the realized stage-(k-1) map: the row's stage is
that map's stage plus one, and its rotary structure ids are that map's
embedding. The adapter adds a time term to the conditioning and two token
runs, canvas then noised embedding; the head's output on the embedding run
is the velocity.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Generator, time_features
# unused here; bound because perfbench's smoke test reads nvg.<model>.rope_tables
from .backbone import rope_tables  # noqa: F401
from .errors import InvariantError, NumericError
from .grid import StructureMap
from .hierarchy import canonical_child

__all__ = ["WARM_T", "noised_input", "StructureModel", "flow_sample",
           "gumbel_balanced_split"]

WARM_T = 0.4    # where a warm-started flow stage starts on the path


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


class StructureModel(Generator):
    kind = "structure"
    map_lag = 1

    def velocity(self, class_ids, parents, canvases, zs, ts,
                 rng: np.random.Generator | None = None) -> Tensor:
        """Velocity prediction for a batch of flow states, shape (B, h, w, K).

        parents: each row's realized stage-(k-1) `StructureMap` for a flow
        at stage k; z's first k - 1 columns are that map's known bits. ts:
        one time per row. A given rng turns dropout on (training).
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.shape != np.shape(class_ids):
            raise InvariantError(f"need one time per row, got {ts.shape} for class ids "
                                 f"of shape {np.shape(class_ids)}")
        canvases = np.asarray(canvases, dtype=np.float32)
        zs = np.asarray(zs, dtype=np.float32)
        t_feat = time_features(ts, self.config.width)
        t_cond = ad.matmul(Tensor(t_feat.astype(np.float32)), self.w_time) + self.b_time
        out = self._forward(class_ids, parents,
                            [(canvases, self.w_in_canvas, self.b_in_canvas),
                             (zs, self.w_in_struct, self.b_in_struct)],
                            cond_extra=t_cond, rng=rng)
        return ad.reshape(out, zs.shape)


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
    velocity; guidance, if any, is the caller's (see `pipeline.cfg_forward`).
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
