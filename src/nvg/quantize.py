"""Stagewise residual quantization of a latent grid against its hierarchy.

Stage i quantizes the cluster means of the running residual, places the
chosen codebook rows back on the grid, refines them with a per-stage 3x3
convolution and subtracts the result; `build_contents` is that recursion.
`fit_codebook` fits the codebook to the locations and to the cluster means
of the same recursion with the quantizer bypassed and no refiner: each stage
subtracts its own placed means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError
from .grid import (
    Codebook,
    ContentTokens,
    LatentGrid,
    VGSequence,
    canvas_prefixes,
    cluster_average,
    place,
    quantize_nearest_batch,
)
from .hierarchy import Hierarchy, build_hierarchy

__all__ = [
    "Refiner",
    "identity_refiners",
    "build_contents",
    "reconstruct",
    "fit_codebook",
    "train_refiners",
]


def _conv_patches(data: np.ndarray) -> np.ndarray:
    """3x3 same-padding patches of an (h, w, e) grid, shape (h*w, 9*e).

    Patch channel order is (dy, dx, channel), matching a (3, 3, e, e) kernel
    reshaped to (9*e, e).
    """
    h, w, e = data.shape
    padded = np.zeros((h + 2, w + 2, e), dtype=data.dtype)
    padded[1:-1, 1:-1] = data
    blocks = [padded[dy:dy + h, dx:dx + w, :] for dy in range(3) for dx in range(3)]
    return np.concatenate(blocks, axis=2).reshape(h * w, 9 * e)


@dataclass(eq=False)
class Refiner:
    """Single 3x3 convolution over the latent channels, identity at init."""

    weight: np.ndarray  # (3, 3, e, e)
    bias: np.ndarray    # (e,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)
        if self.weight.ndim != 4 or self.weight.shape[:2] != (3, 3):
            raise InvariantError(f"refiner weight must be (3, 3, e, e), got {self.weight.shape}")
        e_in, e_out = self.weight.shape[2:]
        if e_in != e_out or self.bias.shape != (e_out,):
            raise InvariantError("refiner must map e channels to e channels")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise InvariantError("refiner parameters must be finite")

    @property
    def channels(self) -> int:
        return self.weight.shape[2]

    def apply(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float32)
        h, w, e = data.shape
        if e != self.channels:
            raise InvariantError(f"refiner expects {self.channels} channels, got {e}")
        # a non-finite result is the caller's to report, as NumericError
        with np.errstate(over="ignore", invalid="ignore"):
            flat = _conv_patches(data) @ self.weight.reshape(9 * e, e) + self.bias
        return flat.reshape(h, w, e)


def identity_refiners(last_stage: int, channels: int) -> list:
    """One identity refiner per stage 0..last_stage: centre tap eye(e), no bias."""
    weight = np.zeros((3, 3, channels, channels), dtype=np.float32)
    weight[1, 1] = np.eye(channels, dtype=np.float32)
    return [Refiner(weight.copy(), np.zeros(channels)) for _ in range(last_stage + 1)]


def build_contents(grid: LatentGrid, hierarchy: Hierarchy, codebook: Codebook,
                   refiners) -> tuple:
    """Tokenize: per stage, quantize residual cluster means, refine and subtract.

    Returns (VGSequence, residual grids R_0..R_{K+1}); R_0 is the input.
    """
    if hierarchy.maps[0].labels.shape != (grid.h, grid.w):
        raise InvariantError(f"hierarchy shape {hierarchy.maps[0].labels.shape} does not "
                             f"match grid {(grid.h, grid.w)}")
    if len(refiners) != hierarchy.last_stage + 1:
        raise InvariantError(f"need {hierarchy.last_stage + 1} refiners, got {len(refiners)}")
    if codebook.dim != grid.e:
        raise InvariantError(f"codebook dim {codebook.dim} != grid channels {grid.e}")
    residual = grid.data
    residuals = [residual]
    stages = []
    for i, smap in enumerate(hierarchy.maps):
        means = cluster_average(residual, smap)
        tokens = ContentTokens(i, quantize_nearest_batch(means, codebook))
        placed = place(codebook.vectors[tokens.indices], smap)
        residual = residual - refiners[i].apply(placed)
        residuals.append(residual)
        stages.append((tokens, smap))
    return VGSequence(tuple(stages)), tuple(LatentGrid(r) for r in residuals)


def reconstruct(seq: VGSequence, codebook: Codebook, refiners) -> LatentGrid:
    """Sum of refined stage placements over all stages."""
    return canvas_prefixes(seq, codebook, refiners)[-1]


def kmeans(data: np.ndarray, n: int, iterations: int, seed: int) -> np.ndarray:
    """Plain Lloyd k-means, deterministic under the seed.

    An empty cluster is re-seeded from the point currently farthest from its
    assigned centroid (distinct points for multiple empties).
    """
    data = np.asarray(data, dtype=np.float64)
    if n < 1:
        raise InvariantError("cluster count must be at least 1")
    if iterations < 0:
        raise InvariantError(f"iteration count must be non-negative, got {iterations}")
    if data.ndim != 2 or len(data) == 0:
        raise InvariantError("k-means needs a non-empty (m, e) matrix")
    if n > len(data):
        raise InvariantError(f"cluster count {n} exceeds {len(data)} data points")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=n, replace=False)].copy()
    prev_assign = None
    for _ in range(iterations):
        diff = data[:, None, :] - centroids[None]
        d2 = np.einsum("mnj,mnj->mn", diff, diff)
        assign_idx = np.argmin(d2, axis=1)
        own_dist = d2[np.arange(len(data)), assign_idx].copy()
        for c in range(n):
            mask = assign_idx == c
            if mask.any():
                centroids[c] = data[mask].mean(axis=0)
            else:
                far = int(np.argmax(own_dist))
                centroids[c] = data[far]
                own_dist[far] = -1.0
        if prev_assign is not None and np.array_equal(assign_idx, prev_assign):
            break
        prev_assign = assign_idx
    return centroids


def fit_codebook(grids, n: int, iterations: int = 25, seed: int = 0) -> Codebook:
    """k-means codebook over the location vectors and every stage's residual
    cluster means, from one refiner-free, quantizer-bypassed pass per grid."""
    grids = list(grids)
    if n < 1:
        raise InvariantError("codebook size must be at least 1")
    if not grids:
        raise InvariantError("cannot fit a codebook on an empty grid list")
    chunks = []
    for grid in grids:
        residual = grid.data
        chunks.append(residual.reshape(-1, grid.e))
        for smap in build_hierarchy(grid).maps:
            means = cluster_average(residual, smap)
            chunks.append(means)
            residual = residual - place(means, smap)
    data = np.concatenate(chunks, axis=0).astype(np.float64)
    if n > len(data):
        raise InvariantError(f"codebook size {n} exceeds {len(data)} training vectors")
    return Codebook(kmeans(data, n, iterations=iterations, seed=seed).astype(np.float32))


def train_refiners(grids, hierarchy_builder, codebook: Codebook, steps: int,
                   lr: float = 0.05) -> list:
    """Fit the per-stage refiners by gradient descent on the final residual.

    Token choices are treated as fixed within each step (recomputed between
    steps). The best-by-loss snapshot is returned, so the final loss never
    exceeds the identity-refiner starting point; zero steps return the
    identity refiners without a tokenize pass.
    """
    grids = list(grids)
    if not grids:
        raise InvariantError("cannot train refiners on an empty grid list")
    if steps < 0:
        raise InvariantError(f"refiner steps must be non-negative, got {steps}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise InvariantError(f"refiner lr must be finite and non-negative, got {lr}")
    last, e = grids[0].last_stage, grids[0].e
    refiners = identity_refiners(last, e)
    if steps == 0:
        return refiners
    hierarchies = [hierarchy_builder(g) for g in grids]

    best_loss, best = None, None
    scale = lr / (len(grids) * grids[0].h * grids[0].w * e)
    for step in range(steps + 1):
        if step:        # descend along the previous pass's gradient
            for i, refiner in enumerate(refiners):
                with np.errstate(over="ignore"):
                    w = (refiner.weight.reshape(9 * e, e) - scale * grad_w[i]).astype(np.float32)
                    b = (refiner.bias - scale * grad_b[i]).astype(np.float32)
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                    raise NumericError("refiner training diverged (non-finite parameters)")
                refiners[i] = Refiner(w.reshape(3, 3, e, e), b)
        # one pass per refiner set: its loss, then the gradient toward the next set
        loss = 0.0
        grad_w = [np.zeros((9 * e, e), dtype=np.float64) for _ in range(last + 1)]
        grad_b = [np.zeros(e, dtype=np.float64) for _ in range(last + 1)]
        for grid, hierarchy in zip(grids, hierarchies):
            seq, residuals = build_contents(grid, hierarchy, codebook, refiners)
            final = residuals[-1].data.astype(np.float64)
            loss += float(np.mean(final * final))
            if step == steps:
                continue
            final = final.reshape(-1, e)
            for i, (tokens, smap) in enumerate(seq.stages):
                placed = place(codebook.vectors[tokens.indices], smap)
                patches = _conv_patches(placed).astype(np.float64)
                grad_w[i] += -2.0 * (patches.T @ final)
                grad_b[i] += -2.0 * final.sum(axis=0)
        loss /= len(grids)
        if step and not np.isfinite(loss):
            raise NumericError("refiner training diverged (non-finite loss)")
        if best is None or loss < best_loss:
            best_loss = loss
            best = [(r.weight.copy(), r.bias.copy()) for r in refiners]
    return [Refiner(w, b) for w, b in best]
