"""Core grid and codebook types plus the placement, averaging, quantization
and running-canvas primitives shared by the tokenizer and the generators.

Array conventions used everywhere in this package:

* latent grids are float32 arrays of shape (h, w, e), row-major (y, x, channel);
* structure maps are int32 arrays of shape (h, w); the stage-i map uses labels
  0..2**i - 1 and every label covers exactly h*w / 2**i locations;
* content tokens for stage i are 2**i codebook row indices, where position j
  holds the token of cluster label j.

All functions here are pure; none mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError

__all__ = [
    "LatentGrid",
    "Codebook",
    "StructureMap",
    "ContentTokens",
    "VGSequence",
    "parent_consistent",
    "check_map_chain",
    "assign",
    "place",
    "cluster_average",
    "quantize_nearest_batch",
    "canvas_prefixes",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class LatentGrid:
    """An h x w grid of e-dimensional float32 vectors."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise InvariantError(f"latent grid must have shape (h, w, e), got {data.shape}")
        h, w, e = data.shape
        if min(h, w, e) < 1:
            raise InvariantError("latent grid dimensions must be positive")
        if not _is_power_of_two(h * w):
            raise InvariantError(f"h*w must be a power of two, got {h}x{w}")
        if not np.all(np.isfinite(data)):
            raise InvariantError("latent grid contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def e(self) -> int:
        return self.data.shape[2]

    @property
    def last_stage(self) -> int:
        """Number of pairwise halvings from single-token to per-location."""
        return (self.h * self.w).bit_length() - 1


@dataclass(frozen=True, eq=False)
class Codebook:
    """A shared table of n e-dimensional float32 vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise InvariantError(f"codebook must have shape (n, e) with n >= 1, got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise InvariantError("codebook contains non-finite values")
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class StructureMap:
    """Per-stage cluster-label grid: stage i has 2**i equal-size clusters."""

    stage: int
    labels: np.ndarray

    def __post_init__(self):
        if self.stage < 0:
            raise InvariantError("stage must be non-negative")
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise InvariantError(f"structure map must be 2-D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise InvariantError("structure map labels must be integers")
        labels = labels.astype(np.int32)
        hw = labels.size
        m = 1 << self.stage
        if hw % m:
            raise InvariantError(f"{hw} locations cannot split into {m} equal clusters")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= m:
            raise InvariantError(f"labels must lie in [0, {m}) at stage {self.stage}")
        counts = np.bincount(labels.ravel(), minlength=m)
        if not np.all(counts == hw // m):
            raise InvariantError(
                f"stage {self.stage} clusters are not equal-sized (counts {counts.tolist()})"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def h(self) -> int:
        return self.labels.shape[0]

    @property
    def w(self) -> int:
        return self.labels.shape[1]

    @property
    def num_clusters(self) -> int:
        return 1 << self.stage

    @property
    def cluster_size(self) -> int:
        return self.labels.size >> self.stage


@dataclass(frozen=True, eq=False)
class ContentTokens:
    """The 2**i codebook indices of stage i; position j belongs to label j."""

    stage: int
    indices: np.ndarray

    def __post_init__(self):
        if self.stage < 0:
            raise InvariantError("stage must be non-negative")
        indices = np.asarray(self.indices)
        if indices.ndim != 1:
            raise InvariantError("token indices must be a 1-D sequence")
        if not np.issubdtype(indices.dtype, np.integer):
            raise InvariantError("token indices must be integers")
        if indices.size != (1 << self.stage):
            raise InvariantError(
                f"stage {self.stage} needs {1 << self.stage} tokens, got {indices.size}"
            )
        if indices.size and indices.min() < 0:
            raise InvariantError("token indices must be non-negative")
        object.__setattr__(self, "indices", indices.astype(np.int32))


@dataclass(frozen=True, eq=False)
class VGSequence:
    """The full per-stage (tokens, map) decomposition of one latent grid.

    Stage i uses exactly 2**i unique tokens; maps are parent-consistent, i.e.
    label j at stage i covers exactly labels 2j and 2j+1 at stage i+1.
    """

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        for i, (tokens, _) in enumerate(stages):
            if not isinstance(tokens, ContentTokens) or tokens.stage != i:
                raise InvariantError(f"stage {i} needs ContentTokens tagged stage {i}")
        check_map_chain([smap for _, smap in stages])
        object.__setattr__(self, "stages", stages)

    @property
    def last_stage(self) -> int:
        return len(self.stages) - 1

    @property
    def h(self) -> int:
        return self.stages[0][1].h

    @property
    def w(self) -> int:
        return self.stages[0][1].w


def parent_consistent(coarse: StructureMap, fine: StructureMap) -> bool:
    """True when fine label l lies inside coarse label l >> (stage gap), the
    canonical 2j/2j+1 nesting applied once per stage between the maps."""
    return np.array_equal(fine.labels >> (fine.stage - coarse.stage), coarse.labels)


def check_map_chain(maps) -> None:
    """Raise InvariantError unless maps[i] is a stage-i StructureMap, all share
    one shape with h*w == 2**(len(maps) - 1), and each nests in the one before."""
    if not maps:
        raise InvariantError("need at least the single-cluster stage")
    for i, smap in enumerate(maps):
        if not isinstance(smap, StructureMap) or smap.stage != i:
            raise InvariantError(f"map {i} must be a StructureMap tagged stage {i}")
        if smap.labels.shape != maps[0].labels.shape:
            raise InvariantError("all structure maps must share one grid shape")
    hw = maps[0].labels.size
    if hw != 1 << (len(maps) - 1):
        raise InvariantError(f"{hw} locations need {hw.bit_length()} stages, got {len(maps)}")
    for i in range(len(maps) - 1):
        if not parent_consistent(maps[i], maps[i + 1]):
            raise InvariantError(f"stages {i} and {i + 1} are not parent-consistent")


def place(vectors: np.ndarray, smap: StructureMap) -> np.ndarray:
    """Spread one vector per cluster onto the grid: out[y, x] = vectors[label[y, x]]."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[0] != smap.num_clusters:
        raise InvariantError(
            f"need {smap.num_clusters} cluster vectors for stage {smap.stage}, "
            f"got shape {vectors.shape}"
        )
    return vectors[smap.labels]


def assign(tokens: ContentTokens, smap: StructureMap, codebook: Codebook) -> LatentGrid:
    """Place the stage's codebook rows onto the grid according to the map."""
    if tokens.stage != smap.stage:
        raise InvariantError(f"token stage {tokens.stage} != map stage {smap.stage}")
    if tokens.indices.size and int(tokens.indices.max()) >= codebook.size:
        raise InvariantError(
            f"token index {int(tokens.indices.max())} out of range for codebook of {codebook.size}"
        )
    return LatentGrid(place(codebook.vectors[tokens.indices], smap))


def cluster_average(grid, smap: StructureMap) -> np.ndarray:
    """Mean grid vector per cluster, indexed by label value; shape (2**i, e)."""
    data = grid.data if isinstance(grid, LatentGrid) else np.asarray(grid, dtype=np.float32)
    if data.shape[:2] != smap.labels.shape:
        raise InvariantError(f"grid {data.shape[:2]} and map {smap.labels.shape} disagree")
    m = smap.num_clusters
    flat = data.reshape(-1, data.shape[2])
    sums = np.zeros((m, data.shape[2]), dtype=np.float64)
    np.add.at(sums, smap.labels.ravel(), flat)
    return (sums / smap.cluster_size).astype(np.float32)


def quantize_nearest_batch(vs: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Per row of vs, the nearest codebook row index in l2; ties go to the lowest."""
    vs = np.asarray(vs, dtype=np.float32)
    if vs.ndim != 2 or vs.shape[1] != codebook.dim:
        raise InvariantError(f"batch of shape {vs.shape} does not match codebook dim {codebook.dim}")
    d = vs[:, None, :] - codebook.vectors[None, :, :]
    return np.argmin(np.einsum("mnj,mnj->mn", d, d), axis=1).astype(np.int32)


def canvas_prefixes(seq: VGSequence, codebook: Codebook, refiners) -> tuple:
    """The K+2 running canvases of a sequence, in one left-to-right pass.

    Entry i is the sum of the refined stage placements of stages < i: entry 0
    is the all-zero grid and entry K+1 the full reconstruction. Each entry
    adds one term to the one before, so prefix canvases telescope bit-exactly.
    """
    if len(refiners) != seq.last_stage + 1:
        raise InvariantError(
            f"need {seq.last_stage + 1} refiners (one per stage), got {len(refiners)}"
        )
    x = np.zeros((seq.h, seq.w, codebook.dim), dtype=np.float32)
    prefixes = [LatentGrid(x)]
    for refiner, (tokens, smap) in zip(refiners, seq.stages):
        x = x + refiner.apply(assign(tokens, smap, codebook).data)
        prefixes.append(LatentGrid(x))
    return tuple(prefixes)
