"""Seeded synthetic latent dataset: class-colored backgrounds with smooth
Gaussian blobs plus noise. Stands in for an encoder at desk scale. The
module constants below fix the colors, blobs and noise; a `SyntheticSpec`
picks only the count, the grid shape, the classes and the seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import InvariantError
from .grid import LatentGrid, last_stage_of

__all__ = ["SyntheticSpec", "make_synthetic_dataset", "class_base_colors"]

BASE_SCALE = 2.0            # pairwise class-color separation >= this
BLOBS_MIN, BLOBS_MAX = 1, 3
BLOB_AMP = 1.5
BLOB_SIGMA = (1.0, 2.5)
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class SyntheticSpec:
    count: int
    h: int = 8
    w: int = 8
    e: int = 4
    num_classes: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise InvariantError("count must be non-negative")
        if self.num_classes < 1 or self.num_classes > 2 ** self.e:
            raise InvariantError(
                f"need 1..{2 ** self.e} classes for {self.e} channels, got {self.num_classes}"
            )
        last_stage_of(self.h, self.w)
        # float64: the two coordinate grids and the images, checked before any is built
        errors.check_alloc(8 * self.h * self.w * (2 + self.count * self.e),
                           f"a dataset of {self.count} {self.h}x{self.w}x{self.e} images",
                           "float64 arrays")


def class_base_colors(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic per-class base colors on hypercube corners, so any two
    classes sit at least BASE_SCALE apart."""
    colors = np.empty((spec.num_classes, spec.e), dtype=np.float64)
    half = BASE_SCALE / 2.0
    for c in range(spec.num_classes):
        colors[c] = [half if (c >> j) & 1 else -half for j in range(spec.e)]
    return colors


def make_synthetic_dataset(spec: SyntheticSpec) -> list:
    """List of (class_id, LatentGrid), deterministic under the spec seed.

    Classes cycle round-robin so every class is equally represented.
    """
    rng = np.random.default_rng(spec.seed)
    colors = class_base_colors(spec)
    yy, xx = np.mgrid[0:spec.h, 0:spec.w].astype(np.float64)
    out = []
    for idx in range(spec.count):
        cls = idx % spec.num_classes
        img = np.tile(colors[cls], (spec.h, spec.w, 1))
        for _ in range(int(rng.integers(BLOBS_MIN, BLOBS_MAX + 1))):
            cy = rng.uniform(0, spec.h)
            cx = rng.uniform(0, spec.w)
            sigma = rng.uniform(*BLOB_SIGMA)
            direction = rng.normal(size=spec.e)
            direction /= max(np.linalg.norm(direction), 1e-12)
            bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2))
            img += BLOB_AMP * bump[:, :, None] * direction
        img += NOISE_SIGMA * rng.standard_normal(size=img.shape)
        out.append((cls, LatentGrid(img.astype(np.float32))))
    return out
