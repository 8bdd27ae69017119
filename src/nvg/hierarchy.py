"""Balanced pairwise clustering of a latent grid into a stagewise hierarchy.

The finest stage gives every location its own cluster; each coarser stage
merges cluster pairs greedily by squared l2 distance between cluster means
until one cluster covers the grid. Labels are then rewritten into canonical
parent-child form (label j splits into 2j and 2j+1).

A stage with m clusters costs O(m^2) in practice: the i < j distance matrix
is built once, in row blocks, and each merge takes the smallest of per-row
cached minima, rescanning only the rows whose cached partner was just merged.
Ties break on the smallest (i, j), exactly as a full row-major rescan of the
matrix per merge would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError
from .grid import LatentGrid, StructureMap, check_map_chain

__all__ = [
    "MergeRecord",
    "Hierarchy",
    "greedy_pair_step",
    "build_hierarchy",
    "reindex_hierarchy",
]


@dataclass(frozen=True, eq=False)
class MergeRecord:
    """One coarsening step, kept so tests can replay and audit the greedy scan.

    representatives holds the pre-merge cluster means (working label order),
    pairs the merged index pairs in merge order, distances their squared l2
    distances at merge time.
    """

    representatives: np.ndarray
    pairs: tuple
    distances: tuple


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Canonical stage-0..K structure maps plus the merge trace that built them."""

    maps: tuple
    merge_trace: tuple = ()

    def __post_init__(self):
        maps = tuple(self.maps)
        check_map_chain(maps)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "merge_trace", tuple(self.merge_trace))

    @property
    def last_stage(self) -> int:
        return len(self.maps) - 1

    @property
    def h(self) -> int:
        return self.maps[0].h

    @property
    def w(self) -> int:
        return self.maps[0].w


# Rows of the distance matrix built per block: bounds the (rows, m, e) diff
# temporary to a few MB at m = 1024.
_DIST_BLOCK_ROWS = 64


def _pairwise_sq_dists(vectors: np.ndarray) -> np.ndarray:
    """Squared l2 distances d[i, j] for i < j; every j <= i entry is inf.

    Built in row blocks against the columns from the block's first row on.
    Each entry is the same einsum reduction over e as a whole-matrix einsum,
    so the values, and with them every tie, are bit-identical to it.
    """
    m = len(vectors)
    d = np.full((m, m), np.inf)
    for r0 in range(0, m, _DIST_BLOCK_ROWS):
        r1 = min(r0 + _DIST_BLOCK_ROWS, m)
        with np.errstate(over="ignore"):    # reported below as NumericError
            diff = vectors[r0:r1, None, :] - vectors[None, r0:, :]
            block = np.einsum("ijk,ijk->ij", diff, diff)
        if not np.all(np.isfinite(block)):
            raise NumericError("squared distances overflow to non-finite values")
        block[:, :r1 - r0][np.tri(r1 - r0, dtype=bool)] = np.inf
        d[r0:r1, r0:] = block
    return d


def _greedy_pairs(vectors: np.ndarray):
    m = len(vectors)
    if m < 2 or m % 2:
        raise InvariantError(f"greedy pairing needs an even count >= 2, got {m}")
    if not np.all(np.isfinite(vectors)):
        raise NumericError("cannot pair non-finite vectors")
    d = _pairwise_sq_dists(vectors)
    # Each live row caches its first argmin column over the live columns. The
    # first row holding the smallest cached minimum, paired with that row's
    # cached column, is the row-major first minimum of the whole masked matrix:
    # the lexicographic (i, j) tie-break. Killing a column only raises entries
    # to inf, so a row's first minimum moves only when its own cached column
    # dies; those rows alone are rescanned. A merge then costs O(m) per
    # rescanned row, and about two rows per merge are rescanned on Gaussian
    # vectors at m = 1024, so the loop is O(m^2) in practice.
    rows = np.arange(m)
    live = np.ones(m, dtype=bool)
    best_j = np.argmin(d, axis=1)
    best_d = d[rows, best_j]
    pairs = []
    dists = []
    for _ in range(m // 2):
        i = int(np.argmin(best_d))
        j = int(best_j[i])
        pairs.append((i, j))
        dists.append(float(best_d[i]))
        live[i] = live[j] = False
        best_d[i] = best_d[j] = np.inf
        d[:, i] = np.inf
        d[:, j] = np.inf
        stale = rows[live & ((best_j == i) | (best_j == j))]
        if stale.size:
            best_j[stale] = np.argmin(d[stale], axis=1)
            best_d[stale] = d[stale, best_j[stale]]
    return pairs, dists


def greedy_pair_step(vectors) -> list:
    """Disjoint index pairs chosen by repeatedly taking the globally nearest
    unpaired pair (squared l2); ties break on the smallest (i, j).

    Raises NumericError on non-finite vectors or squared distances.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise InvariantError(f"expected (m, e) vectors, got shape {v.shape}")
    pairs, _ = _greedy_pairs(v)
    return pairs


def build_hierarchy(grid: LatentGrid) -> Hierarchy:
    """Cluster the grid bottom-up, halving the cluster count per stage.

    The merged pair's representative is the mean of all member grid vectors.
    Output labels are canonical (see reindex_hierarchy); the merge trace keeps
    the working-order representatives and pair choices of every step.
    """
    h, w = grid.h, grid.w
    hw = h * w
    last = grid.last_stage
    flat = grid.data.reshape(hw, grid.e).astype(np.float64)

    raw_maps = {last: np.arange(hw, dtype=np.int32)}
    members = [np.array([i]) for i in range(hw)]
    reps = flat.copy()
    trace = []
    for stage in range(last - 1, -1, -1):
        pairs, dists = _greedy_pairs(reps)
        trace.append(MergeRecord(reps.copy(), tuple(pairs), tuple(dists)))
        labels = np.empty(hw, dtype=np.int32)
        new_members = []
        for p, (i, j) in enumerate(pairs):
            merged = np.concatenate([members[i], members[j]])
            labels[merged] = p
            new_members.append(merged)
        members = new_members
        reps = np.stack([flat[mem].mean(axis=0) for mem in members])
        raw_maps[stage] = labels
    maps = [StructureMap(i, raw_maps[i].reshape(h, w)) for i in range(last + 1)]
    return reindex_hierarchy(maps, merge_trace=tuple(trace))


def _canonical_split(parent: np.ndarray, child: np.ndarray, stage: int):
    """Canonical child labels under flat canonical stage-`stage` labels.

    child is any flat labeling that splits each parent cluster j into two
    equal halves; the half holding the smaller row-major location gets 2j,
    the other 2j+1. Returns None when some cluster does not split that way.
    """
    n = 1 << stage
    size = parent.size // n
    # parent is a balanced stage-`stage` labeling, so a stable sort lays the
    # clusters out as n rows of locations in row-major order: column 0 of each
    # row is the cluster's smallest location.
    order = np.argsort(parent, kind="stable")
    old = child[order].reshape(n, size)
    second = old != old[:, :1]
    if np.any(second.sum(axis=1) * 2 != size):
        return None
    rest = old[second].reshape(n, size // 2)
    if np.any(rest != rest[:, :1]):
        return None
    out = np.empty(parent.size, dtype=np.int32)
    out[order] = (2 * np.arange(n)[:, None] + second).ravel()
    return out


def reindex_hierarchy(h, merge_trace=None) -> Hierarchy:
    """Rewrite labels top-down into canonical 2j/2j+1 form.

    Accepts a Hierarchy or a plain sequence of per-stage StructureMaps whose
    cluster memberships are parent-consistent under any labeling. Of the two
    children of label j, the one containing the smallest row-major location
    gets label 2j. Idempotent on already-canonical hierarchies.
    """
    if isinstance(h, Hierarchy):
        maps = h.maps
        if merge_trace is None:
            merge_trace = h.merge_trace
    else:
        maps = tuple(h)
        if merge_trace is None:
            merge_trace = ()
    if not maps:
        raise InvariantError("nothing to reindex")
    grid_h, grid_w = maps[0].labels.shape
    hw = grid_h * grid_w
    for i, smap in enumerate(maps):
        if smap.stage != i or smap.labels.shape != (grid_h, grid_w):
            raise InvariantError(f"map {i} is tagged stage {smap.stage} or has a foreign shape")

    new_flat = [np.zeros(hw, dtype=np.int32)]
    for i in range(len(maps) - 1):
        child_new = _canonical_split(new_flat[i], maps[i + 1].labels.ravel(), i)
        if child_new is None:
            raise InvariantError(
                f"stage {i + 1} memberships are not parent-consistent with stage {i}"
            )
        new_flat.append(child_new)
    new_maps = tuple(
        StructureMap(i, flat.reshape(grid_h, grid_w)) for i, flat in enumerate(new_flat)
    )
    return Hierarchy(new_maps, merge_trace=merge_trace)
