"""Rectified-flow model that inpaints the hierarchical structure embedding.

The embedding grid is noised along a straight path z(t) = t*noise +
(1-t)*target; columns of already-decided stages stay clamped to their true
values at every t, so generation is an inpainting problem. The network
predicts the path velocity (noise - target) and an Euler sampler walks t from
1 to 0. A Gumbel-perturbed top-half split turns the predicted column into an
exactly balanced child map.

`StructureModel` is an adapter on `backbone.Generator`, which holds the class
and stage embeddings, the blocks and the output head. The adapter adds a time
embedding and two runs of input tokens, canvas then noised embedding; the
base head reads the velocity off the embedding run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Generator, pad_structure_ids, time_features
# unused here; bound because perfbench's smoke test reads nvg.<model>.rope_tables
from .backbone import rope_tables  # noqa: F401
from .errors import InvariantError, NumericError
from .grid import StructureMap

__all__ = ["FlowState", "noised_input", "StructureModel", "flow_sample",
           "gumbel_balanced_split"]


@dataclass(frozen=True, eq=False)
class FlowState:
    """Noised embedding grid at time t with its clamped known-column count."""

    t: float
    z: np.ndarray               # (h, w, K) float
    known_stages: int


def noised_input(s_e_grid: np.ndarray, t: float, noise: np.ndarray,
                 known_stages: int) -> FlowState:
    """Interpolate toward noise, then clamp the known columns to ground truth."""
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
    return FlowState(float(t), z, int(known_stages))


def _known_struct_ids(z: np.ndarray, known_stages: int) -> np.ndarray:
    """Integer rotary ids from the clamped prefix; later slots read as padding."""
    hw = z.shape[0] * z.shape[1]
    k = z.shape[2]
    ids = np.ones((hw, k), dtype=np.int64)
    if known_stages:
        ids[:, :known_stages] = np.rint(
            z[..., :known_stages].reshape(hw, known_stages)).astype(np.int64)
    return pad_structure_ids(ids)


class StructureModel(Generator):
    kind = "structure"

    def _make_inputs(self):
        w, e, k = self.config.width, self.config.latent_channels, self.config.last_stage
        self.w_time = self._init(w, w)
        self.b_time = self._zeros(w)
        self.w_in_canvas = self._init(e, w)
        self.b_in_canvas = self._zeros(w)
        self.w_in_struct = self._init(k, w)
        self.b_in_struct = self._zeros(w)

    def velocity(self, class_ids, stages, canvases, zs, ts, known_counts,
                 train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        """Velocity prediction for a batch of flow states, shape (B, h, w, K)."""
        class_ids = np.asarray(class_ids)
        stages = np.asarray(stages)
        canvases = np.asarray(canvases, dtype=self.dtype)
        zs = np.asarray(zs, dtype=self.dtype)
        ts = np.asarray(ts, dtype=np.float64)
        known_counts = np.asarray(known_counts)
        b_sz, h, w_grid, e = canvases.shape
        k = self.config.last_stage
        if zs.shape != (b_sz, h, w_grid, k):
            raise InvariantError(f"noised grid must be {(b_sz, h, w_grid, k)}, got {zs.shape}")
        hw = h * w_grid
        width = self.config.width

        struct_ids = np.stack([
            _known_struct_ids(zs[b], int(known_counts[b])) for b in range(b_sz)
        ])
        cos, sin = self._rope_tables(struct_ids, w_grid, runs=2)

        cls = ad.rows(self.class_emb, class_ids)
        t_feat = time_features(ts, width).astype(self.dtype)
        cond = cls + ad.rows(self.stage_emb, stages) \
            + (ad.matmul(Tensor(t_feat), self.w_time) + self.b_time)
        canvas_tok = ad.matmul(Tensor(canvases.reshape(b_sz, hw, e)),
                               self.w_in_canvas) + self.b_in_canvas
        struct_tok = ad.matmul(Tensor(zs.reshape(b_sz, hw, k)),
                               self.w_in_struct) + self.b_in_struct
        x = ad.concat([ad.reshape(cls, (b_sz, 1, width)), canvas_tok, struct_tok], axis=1)
        x = self._trunk(x, cos, sin, cond, train, rng)
        out = ad.matmul(x[:, 1 + hw:, :], self.w_head) + self.b_head
        return ad.reshape(out, (b_sz, h, w_grid, k))


def flow_sample(velocity_fn, s_e_grid: np.ndarray, stage: int, n_steps: int = 25,
                rng=None) -> np.ndarray:
    """Euler-integrate the flow from pure noise back to an embedding grid.

    velocity_fn(z, t) is called once per step and returns the (h, w, K)
    velocity; guidance, if any, is the caller's (see `pipeline.cfg_forward`).
    A non-finite velocity raises NumericError. The first stage-1 columns stay
    clamped to s_e_grid after every step. Returns the predicted full-depth
    grid.
    """
    if n_steps < 1:
        raise InvariantError("need at least one integration step")
    if stage < 1:
        raise InvariantError("flow sampling starts at stage 1")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    s_e = np.asarray(s_e_grid, dtype=np.float32)
    known = stage - 1
    z = rng.standard_normal(s_e.shape).astype(np.float32)
    z[..., :known] = s_e[..., :known]
    dt = 1.0 / n_steps
    for step in range(n_steps):
        t = 1.0 - step * dt
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
    score + Gumbel(0, 1) noise gets child label 2j, the rest 2j+1.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != parent_map.labels.shape:
        raise InvariantError("scores grid must match the parent map shape")
    if parent_map.cluster_size % 2:
        raise InvariantError("parent clusters must have even size to split")
    noisy = (scores + rng.gumbel(size=scores.shape)).ravel()
    parent_flat = parent_map.labels.ravel()
    child = np.empty_like(parent_flat)
    half = parent_map.cluster_size // 2
    for j in range(parent_map.num_clusters):
        locs = np.flatnonzero(parent_flat == j)
        order = np.argsort(-noisy[locs], kind="stable")
        child[locs[order[:half]]] = 2 * j
        child[locs[order[half:]]] = 2 * j + 1
    return StructureMap(parent_map.stage + 1, child.reshape(parent_map.labels.shape))

