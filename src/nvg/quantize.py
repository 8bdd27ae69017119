"""Stagewise residual quantization of a latent grid against its hierarchy.

Stage i quantizes the cluster means of the running residual, places the
chosen codebook rows back on the grid, refines them with a per-stage 3x3
convolution and subtracts the result; `build_contents` is that recursion.
`train_refiners` fits the refiners by alternating a tokenize pass with a
least-squares solve of the final residual for the tokens it chose.
`fit_codebook` fits the codebook to the locations and to the cluster means
of the same recursion with the quantizer bypassed and no refiner: each stage
subtracts its own placed means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError
from .grid import (
    Codebook,
    ContentTokens,
    LatentGrid,
    VGSequence,
    cluster_average,
    nearest_rows,
    place,
    quantize_nearest_batch,
)
from .hierarchy import build_hierarchy

__all__ = ["Refiner", "identity_refiners", "build_contents", "fit_codebook", "fit_vectors",
           "check_fit_options", "train_refiners", "check_refiner_options"]

RIDGE = 1.0     # the solve's pull toward the identity; 16x16 fits regressed at 1e-3


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


def build_contents(grid: LatentGrid, maps, codebook: Codebook, refiners) -> tuple:
    """Tokenize: per stage, quantize residual cluster means, refine and subtract.

    `maps` are stage-0..K maps (`build_hierarchy`'s); the VGSequence checks
    they nest. Returns (VGSequence, residual grids R_0..R_{K+1}); R_0 is the input.
    """
    if maps[0].labels.shape != (grid.h, grid.w):
        raise InvariantError(f"hierarchy shape {maps[0].labels.shape} does not "
                             f"match grid {(grid.h, grid.w)}")
    if len(refiners) != len(maps):
        raise InvariantError(f"need {len(maps)} refiners, got {len(refiners)}")
    if codebook.dim != grid.e:
        raise InvariantError(f"codebook dim {codebook.dim} != grid channels {grid.e}")
    residual = grid.data
    residuals = [residual]
    stages = []
    for i, smap in enumerate(maps):
        means = cluster_average(residual, smap)
        tokens = ContentTokens(i, quantize_nearest_batch(means, codebook))
        placed = place(codebook.vectors[tokens.indices], smap)
        residual = residual - refiners[i].apply(placed)
        if not np.all(np.isfinite(residual)):
            raise NumericError(f"residual turned non-finite after the stage-{i} refiner")
        residuals.append(residual)
        stages.append((tokens, smap))
    return VGSequence(tuple(stages)), tuple(LatentGrid(r) for r in residuals)


def kmeans(data: np.ndarray, n: int, iterations: int, seed: int) -> np.ndarray:
    """Plain Lloyd k-means, deterministic under the seed.

    Each iteration assigns every point to its nearest centroid through
    `grid.nearest_rows`, block by block, so its memory is O(m) beyond one
    distance block. Cluster c's new centroid is the mean of its points in
    index order: one stable argsort of the assignments lays each cluster's
    points out as one run, the same rows in the same order as a boolean mask
    would select. An empty cluster is re-seeded from the point currently
    farthest from its assigned centroid (distinct points for multiple
    empties).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise InvariantError("k-means needs an (m, e) matrix")
    check_fit_options(n, iterations, len(data))
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=n, replace=False)].copy()
    prev_assign = None
    for _ in range(iterations):
        assign_idx, own_dist = nearest_rows(data, centroids)
        order = np.argsort(assign_idx, kind="stable")
        ends = np.cumsum(np.bincount(assign_idx, minlength=n)).tolist()
        for c, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
            if end > start:
                centroids[c] = data[order[start:end]].mean(axis=0)
            else:
                far = int(np.argmax(own_dist))
                centroids[c] = data[far]
                own_dist[far] = -1.0
        if prev_assign is not None and np.array_equal(assign_idx, prev_assign):
            break
        prev_assign = assign_idx
    return centroids


def fit_vectors(h: int, w: int) -> int:
    """Training vectors an h x w grid gives `fit_codebook`: its hw locations
    and the 2hw - 1 cluster means of its stages."""
    return 3 * h * w - 1


def check_fit_options(size: int, iterations: int, vectors: int) -> None:
    """The one check of a codebook fit's options against its `vectors`
    training vectors; needs no data, so a caller can run it before any."""
    if vectors < 1:
        raise InvariantError("cannot fit a codebook on an empty dataset")
    if not 1 <= size <= vectors:
        raise InvariantError(f"codebook size must lie in 1..{vectors}, the training "
                             f"vectors, got {size}")
    if iterations < 0:
        raise InvariantError(f"k-means iteration count must be non-negative, got {iterations}")


def fit_codebook(grids, n: int, iterations: int = 25, seed: int = 0) -> Codebook:
    """k-means codebook over the location vectors and every stage's residual
    cluster means, from one refiner-free, quantizer-bypassed pass per grid."""
    grids = list(grids)
    check_fit_options(n, iterations, sum(fit_vectors(g.h, g.w) for g in grids))
    chunks = []
    for grid in grids:
        residual = grid.data
        chunks.append(residual.reshape(-1, grid.e))
        for smap in build_hierarchy(grid):
            means = cluster_average(residual, smap)
            chunks.append(means)
            residual = residual - place(means, smap)
    data = np.concatenate(chunks, axis=0).astype(np.float64)
    return Codebook(kmeans(data, n, iterations=iterations, seed=seed).astype(np.float32))


def check_refiner_options(steps: int) -> None:
    """The one check of `train_refiners`' options; needs no data."""
    if steps < 0:
        raise InvariantError(f"refiner steps must be non-negative, got {steps}")


def _design(seq: VGSequence, codebook: Codebook) -> np.ndarray:
    """A grid's float64 design for its fixed tokens, (hw, (K+1)(9e+1)): the
    3x3 patches of every stage's placed codebook rows, taken at once with the
    stages stacked as channels, then one ones column per stage."""
    placed = np.concatenate([place(codebook.vectors[tokens.indices], smap)
                             for tokens, smap in seq.stages], axis=2)
    patches = _conv_patches(placed.astype(np.float64))
    return np.hstack([patches, np.ones((len(patches), len(seq.stages)))])


def _solve_refiners(grids, sequences, codebook: Codebook) -> list:
    """The refiners that minimise the grids' squared final residual for fixed
    tokens, pulled toward the identity: (X^T X + RIDGE I) theta = X^T g +
    RIDGE theta_identity, summed grid by grid. theta is in `_design`'s row
    order: the kernels by (dy, dx, stage, input channel), then the biases."""
    stages, e = sequences[0].last_stage + 1, grids[0].e
    identity = np.zeros((3, 3, stages, e, e))
    identity[1, 1] = np.eye(e)
    identity = np.vstack([identity.reshape(-1, e), np.zeros((stages, e))])
    gram, moment = RIDGE * np.eye(len(identity)), RIDGE * identity
    for grid, seq in zip(grids, sequences):
        x = _design(seq, codebook)
        gram += x.T @ x
        moment += x.T @ grid.data.reshape(-1, e)
    theta = np.linalg.solve(gram, moment).astype(np.float32)
    kernels = np.moveaxis(theta[:-stages].reshape(3, 3, stages, e, e), 2, 0).copy()
    return [Refiner(k, b) for k, b in zip(kernels, theta[-stages:])]


def train_refiners(grids, hierarchy_builder, codebook: Codebook, steps: int) -> list:
    """Fit the per-stage refiners by `steps` least-squares alternations.

    Each tokenizes every grid with the current refiners and, with those
    tokens fixed, solves for the next: the final residual g - sum_i (P_i W_i
    + b_i), P_i stage i's 3x3 patches, is linear in every kernel and bias.
    RIDGE keeps the solve well posed with fewer pixels than parameters. One
    tokenize pass gives each set its loss and the next solve its tokens. The
    best-by-loss set is returned, so the loss never exceeds the identity
    refiners'; zero steps return those without a pass.
    """
    grids = list(grids)
    if not grids:
        raise InvariantError("cannot train refiners on an empty grid list")
    check_refiner_options(steps)
    refiners = identity_refiners(grids[0].last_stage, grids[0].e)
    if steps == 0:
        return refiners
    hierarchies = [hierarchy_builder(g) for g in grids]
    best_loss, best = None, None
    for step in range(steps + 1):
        loss, sequences = 0.0, []
        for grid, hierarchy in zip(grids, hierarchies):
            seq, residuals = build_contents(grid, hierarchy, codebook, refiners)
            loss += float(np.mean(residuals[-1].data.astype(np.float64) ** 2))
            sequences.append(seq)
        if best is None or loss < best_loss:
            best_loss, best = loss, refiners
        if step < steps:
            refiners = _solve_refiners(grids, sequences, codebook)
    return best
