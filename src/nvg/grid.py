"""Core grid and codebook types plus the placement, averaging, quantization
and running-canvas primitives shared by the tokenizer and the generators.

Array conventions used everywhere in this package:

* latent grids are float32 arrays of shape (h, w, e), row-major (y, x, channel);
* structure maps are int32 arrays of shape (h, w); the stage-i map uses labels
  0..2**i - 1 and every label covers exactly h*w / 2**i locations;
* content tokens for stage i are 2**i codebook row indices, where position j
  holds the token of cluster label j.

All functions here are pure; none mutate their inputs.

There is one decoder step, `add_stage`, which `canvas_prefixes` and the
generator both run: it adds a stage's refined placement to a canvas, and it
alone refuses a non-finite canvas, raising NumericError with no numpy warning.

Every squared-distance computation in the package (k-means assignment,
token quantization, the hierarchy's pairing matrix) runs through one kernel,
`sq_dist_blocks`. It works in row blocks of at most SQ_DIST_BLOCK_ELEMENTS
difference elements (every block has at least one row), so its working set
is a few MB whatever the row count; `nearest_rows` keeps only each row's
argmin and its distance, O(m) memory. It alone refuses non-finite
distances: a block holding an overflow or a non-finite input raises
NumericError before any caller reads it. A block's (rows, n, e) differences
are filled in two contiguous passes, a tile of the rows and a subtract of
the flattened centres, and summed over e by one einsum on that contiguous
buffer. einsum's summation order over e depends on the buffer's layout (at
e = 4 it adds (s0+s2)+(s1+s3)), and a contiguous buffer gets the same order
as the broadcast form `einsum(d, d)` with d = rows[:, None] - centres[None]:
every distance, and with it every argmin tie, is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError

__all__ = [
    "last_stage_of",
    "LatentGrid",
    "Codebook",
    "StructureMap",
    "ContentTokens",
    "VGSequence",
    "parent_consistent",
    "assign",
    "place",
    "cluster_average",
    "quantize_nearest_batch",
    "add_stage",
    "canvas_prefixes",
    "sq_dist_blocks",
    "nearest_rows",
]

# Difference elements one distance block fills: 2 MB of float64, 64 rows
# against a 32x32 grid's 1024 4-channel vectors or 256 rows against a
# 256-row codebook.
SQ_DIST_BLOCK_ELEMENTS = 1 << 18


def last_stage_of(h: int, w: int) -> int:
    """log2(h*w), the one grid-shape rule: InvariantError unless h, w >= 1, h*w = 2^k."""
    hw = h * w
    if min(h, w) < 1 or hw & (hw - 1):
        raise InvariantError(f"h and w must be positive and h*w a power of two, got {h}x{w}")
    return hw.bit_length() - 1


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
        last_stage_of(h, w)
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
        return last_stage_of(self.h, self.w)


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
        hw = labels.size
        m = 1 << self.stage
        if hw % m:
            raise InvariantError(f"{hw} locations cannot split into {m} equal clusters")
        # range-check before the cast, so that no label wraps into range
        if int(labels.min(initial=0)) < 0 or int(labels.max(initial=0)) >= m:
            raise InvariantError(f"labels must lie in [0, {m}) at stage {self.stage}")
        labels = labels.astype(np.int32)
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
        # range-check before the cast, so that no index wraps into range
        if indices.size and int(indices.min()) < 0:
            raise InvariantError("token indices must be non-negative")
        if indices.size and int(indices.max()) > np.iinfo(np.int32).max:
            raise InvariantError("token indices must fit in int32")
        object.__setattr__(self, "indices", indices.astype(np.int32))


@dataclass(frozen=True, eq=False)
class VGSequence:
    """The full per-stage (tokens, map) decomposition of one latent grid, and
    the one check of a map chain: stage i has 2**i tokens and a stage-i map,
    all maps share one shape with h*w == 2**K, and they are parent-consistent,
    i.e. label j at stage i covers exactly labels 2j and 2j+1 at stage i+1."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise InvariantError("need at least the single-cluster stage")
        maps = [smap for _, smap in stages]
        for i, (tokens, smap) in enumerate(stages):
            if not isinstance(tokens, ContentTokens) or tokens.stage != i:
                raise InvariantError(f"stage {i} needs ContentTokens tagged stage {i}")
            if not isinstance(smap, StructureMap) or smap.stage != i:
                raise InvariantError(f"map {i} must be a StructureMap tagged stage {i}")
            if smap.labels.shape != maps[0].labels.shape:
                raise InvariantError("all structure maps must share one grid shape")
        last = last_stage_of(*maps[0].labels.shape)
        if last != len(maps) - 1:
            raise InvariantError(f"{1 << last} locations need {last + 1} stages, got {len(maps)}")
        for i in range(len(maps) - 1):
            if not parent_consistent(maps[i], maps[i + 1]):
                raise InvariantError(f"stages {i} and {i + 1} are not parent-consistent")
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
    """Mean grid vector per cluster, indexed by label value; shape (2**i, e).

    Each channel's float64 sums come from one bincount, which adds the
    members of a cluster in row-major location order, as np.add.at would.
    Raises NumericError on non-finite grid values: the sums would carry them
    on silently.
    """
    data = grid.data if isinstance(grid, LatentGrid) else np.asarray(grid, dtype=np.float32)
    if data.shape[:2] != smap.labels.shape:
        raise InvariantError(f"grid {data.shape[:2]} and map {smap.labels.shape} disagree")
    flat = data.reshape(-1, data.shape[2])
    if not np.all(np.isfinite(flat)):
        raise NumericError("cannot average non-finite grid values")
    labels = smap.labels.ravel()
    sums = np.empty((smap.num_clusters, flat.shape[1]))
    for c in range(flat.shape[1]):
        sums[:, c] = np.bincount(labels, weights=flat[:, c], minlength=smap.num_clusters)
    return (sums / smap.cluster_size).astype(np.float32)


def sq_dist_blocks(rows: np.ndarray, centres: np.ndarray, upper: bool = False):
    """Yield (r0, r1, d) over row blocks of the (m, e) `rows`: d[i, j] is the
    squared l2 distance from rows[r0 + i] to centres[j], or, when `upper`, to
    centres[r0 + j] (the columns before a block's first row are skipped).

    A block holds max(1, SQ_DIST_BLOCK_ELEMENTS // (n e)) rows, so its
    (rows, n, e) difference buffer stays under the budget unless one row
    alone is larger. The values equal the broadcast form's bit for bit (see
    the module docstring), in the inputs' common dtype. A block holding a
    non-finite distance raises NumericError instead of being yielded.
    """
    m, e = rows.shape
    step = max(1, SQ_DIST_BLOCK_ELEMENTS // max(1, len(centres) * e))
    for r0 in range(0, m, step):
        r1 = min(r0 + step, m)
        cols = centres[r0:] if upper else centres
        with np.errstate(over="ignore", invalid="ignore"):     # reported below
            diff = np.tile(rows[r0:r1], (1, len(cols)))
            np.subtract(diff, cols.reshape(-1), out=diff)
            diff = diff.reshape(r1 - r0, len(cols), e)
            block = np.einsum("ijk,ijk->ij", diff, diff)
        del diff        # freed before the next block's buffer is filled
        if not np.all(np.isfinite(block)):
            raise NumericError("squared distances overflow or meet a non-finite input")
        yield r0, r1, block


def nearest_rows(rows: np.ndarray, centres: np.ndarray) -> tuple:
    """Per row, the index of its nearest centre in squared l2 (ties go to the
    lowest index) and that squared distance, block by block: O(m) memory
    beyond one block. Raises NumericError when a distance is not finite."""
    idx = np.empty(len(rows), dtype=np.intp)
    dist = np.empty(len(rows), dtype=np.result_type(rows, centres))
    for r0, r1, d in sq_dist_blocks(rows, centres):
        best = np.argmin(d, axis=1)
        idx[r0:r1] = best
        dist[r0:r1] = d[np.arange(r1 - r0), best]
    return idx, dist


def quantize_nearest_batch(vs: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Per row of vs, the nearest codebook row index in l2; ties go to the lowest.
    A float32 distance that overflows raises NumericError (`sq_dist_blocks`)."""
    vs = np.asarray(vs, dtype=np.float32)
    if vs.ndim != 2 or vs.shape[1] != codebook.dim:
        raise InvariantError(f"batch of shape {vs.shape} does not match codebook dim {codebook.dim}")
    return nearest_rows(vs, codebook.vectors)[0].astype(np.int32)


def add_stage(canvas: np.ndarray, tokens: ContentTokens, smap: StructureMap,
              codebook: Codebook, refiner) -> np.ndarray:
    """The decoder's one step: the (h, w, e) canvas plus the stage's refined
    placement. Raises NumericError when the sum is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):     # reported below
        x = canvas + refiner.apply(assign(tokens, smap, codebook).data)
    if not np.all(np.isfinite(x)):
        raise NumericError(f"canvas turned non-finite after the stage-{smap.stage} refiner")
    return x


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
        x = add_stage(x, tokens, smap, codebook, refiner)
        prefixes.append(LatentGrid(x))
    return tuple(prefixes)
