"""Balanced pairwise clustering of a latent grid into a stagewise hierarchy.

The finest stage gives every location its own cluster; each coarser stage
merges cluster pairs greedily by squared l2 distance between cluster means
until one cluster covers the grid. Labels are then rewritten into canonical
parent-child form by `canonical_child`, the one labelling rule: cluster j
splits into 2j, the half holding its smallest row-major location, and 2j+1.
Sampled, forced and image-read maps are labelled by it too, and API
overrides are checked against it through `reindex_hierarchy`. A hierarchy is
its tuple of canonical maps; whether a build was greedy can be checked from
the maps and the grid alone, because each stage's clusters, averaged from
the grid, must pair up as 2j with 2j+1 under a fresh greedy scan (barring
exact distance ties, which the scan breaks by label order).

A stage's members are one (clusters, size) array of grid locations, so its
labels and cluster means come from one scatter and one gather per stage. A
stage with m clusters builds the i < j distance matrix once, in O(m^2 e),
through the package's one distance kernel, `grid.sq_dist_blocks`, whose row
blocks keep every temporary to a few MB. Only the stored matrix grows as
m^2: a grid whose 8 (hw)^2-byte matrix would pass the allocation cap (128x128
fits, 256x256 does not) is refused before anything is allocated.
The merges then pop a lazy heap of per-row cached minima, rescanning a row
only when it reaches the top with a merged (dead) partner: O((m + rescans)
log m + rescans m), a few hundred rescans at m = 1024. The matrix is never
written after it is built: a rescan masks the dead columns in its own copy
of the row. Ties break on the smallest (i, j), exactly as a full row-major
rescan of the matrix per merge would.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import errors
from .errors import InvariantError
from .grid import LatentGrid, StructureMap, sq_dist_blocks

__all__ = [
    "build_hierarchy",
    "canonical_child",
    "reindex_hierarchy",
]


def _pairwise_sq_dists(vectors: np.ndarray) -> np.ndarray:
    """Squared l2 distances d[i, j] for i < j; every j <= i entry is inf.

    Built by `grid.sq_dist_blocks` in row blocks against the columns from
    each block's first row on; the values, and with them every tie, are
    bit-identical to a whole-matrix einsum over a broadcast diff.
    """
    m = len(vectors)
    d = np.full((m, m), np.inf)
    for r0, r1, block in sq_dist_blocks(vectors, vectors, upper=True):
        block[:, :r1 - r0][np.tri(r1 - r0, dtype=bool)] = np.inf
        d[r0:r1, r0:] = block
    return d


def _greedy_pairs(vectors: np.ndarray):
    """Disjoint index pairs of float64 (m, e) vectors, chosen by repeatedly
    taking the globally nearest unpaired pair (squared l2); ties break on the
    smallest (i, j). `sq_dist_blocks` refuses non-finite vectors and distances."""
    m = len(vectors)
    if m < 2 or m % 2:
        raise InvariantError(f"greedy pairing needs an even count >= 2, got {m}")
    d = _pairwise_sq_dists(vectors)
    # A lazy min-heap of (cached row minimum, row), as exact Python floats and
    # ints. Each live row has one entry and caches its first argmin column over
    # the columns live when it was last scanned. Killing a column only raises
    # entries to inf, so a key is a lower bound on its row's minimum, and exact
    # while its column lives. A popped dead row is dropped; a row whose column
    # died is rescanned over a copy with the dead columns masked to inf, and
    # pushed back. Any other pop is the row-major first minimum of the masked
    # matrix, the (i, j) tie-break: every other row's minimum is at least its
    # key, which sorts after the popped one. d is never written. A row is
    # rescanned only on reaching the top, not once per death of its partner:
    # about 400 rescans in all on Gaussian vectors at m = 1024.
    live = np.ones(m, dtype=bool)
    best_j = np.argmin(d, axis=1).tolist()
    heap = list(zip(d[range(m), best_j].tolist(), range(m)))
    heapq.heapify(heap)
    pairs = []
    while len(pairs) < m // 2:
        _, i = heapq.heappop(heap)
        j = best_j[i]
        if not live[i]:
            continue
        if not live[j]:
            row = np.where(live, d[i], np.inf)
            best_j[i] = j = int(np.argmin(row))
            heapq.heappush(heap, (float(row[j]), i))
            continue
        pairs.append((i, j))
        live[i] = live[j] = False
    return pairs


def build_hierarchy(grid: LatentGrid) -> tuple:
    """The grid's canonical stage-0..K StructureMaps, clustered bottom-up.

    Each stage keeps its clusters' grid locations as one (clusters, size)
    array; a merged pair's row is i's members followed by j's, and its
    representative is the mean of those members' grid vectors, summed in that
    row order. Output labels are canonical (see reindex_hierarchy). Raises
    InvariantError, before allocating, when the finest stage's distance
    matrix fails `errors.check_alloc`.
    """
    h, w = grid.h, grid.w
    hw = h * w
    errors.check_alloc(8 * hw * hw, f"a {h}x{w} grid", "pairwise distances")
    last = grid.last_stage
    flat = grid.data.reshape(hw, grid.e).astype(np.float64)

    raw_maps = {last: np.arange(hw, dtype=np.int32)}
    members = np.arange(hw)[:, None]
    reps = flat
    for stage in range(last - 1, -1, -1):
        pairs = _greedy_pairs(reps)
        pi, pj = np.array(pairs).T
        members = np.concatenate([members[pi], members[pj]], axis=1)
        labels = np.empty(hw, dtype=np.int32)
        labels[members] = np.arange(len(members))[:, None]
        reps = flat[members].mean(axis=1)
        raw_maps[stage] = labels
    maps = [StructureMap(i, raw_maps[i].reshape(h, w)) for i in range(last + 1)]
    return reindex_hierarchy(maps)


def canonical_child(parent: StructureMap, halves) -> StructureMap:
    """The stage-(k+1) map that halves each cluster of the stage-k `parent`
    as the flat or (h, w) labeling `halves` does, labelled canonically: the
    half holding cluster j's smallest row-major location gets 2j, the other
    2j+1. Raises InvariantError when some cluster does not split into two
    equal halves."""
    halves = np.asarray(halves).ravel()
    if halves.size != parent.labels.size:
        raise InvariantError(f"{halves.size} child labels for {parent.labels.size} locations")
    n, size = parent.num_clusters, parent.cluster_size
    # parent is balanced, so a stable sort lays its clusters out as n rows of
    # locations in row-major order: column 0 of each row is the cluster's
    # smallest location
    order = np.argsort(parent.labels.ravel(), kind="stable")
    old = halves[order].reshape(n, size)
    second = old != old[:, :1]
    other = old[np.arange(n), second.argmax(axis=1)]
    if np.any(second.sum(axis=1) * 2 != size) or np.any(second & (old != other[:, None])):
        raise InvariantError(f"stage {parent.stage + 1} labels do not halve "
                             f"every stage-{parent.stage} cluster")
    child = np.empty(parent.labels.size, dtype=np.int32)
    child[order] = (2 * np.arange(n)[:, None] + second).ravel()
    return StructureMap(parent.stage + 1, child.reshape(parent.labels.shape))


def reindex_hierarchy(maps) -> tuple:
    """Rewrite labels top-down into canonical 2j/2j+1 form.

    Takes a sequence of per-stage StructureMaps whose cluster memberships are
    parent-consistent under any labeling, and returns the tuple of each stage
    relabelled as the `canonical_child` of the canonical stage before, so it
    nests by construction. Idempotent on already-canonical maps. Built
    hierarchies and a request's structure prefix are canonicalised here.
    """
    maps = tuple(maps)
    if not maps:
        raise InvariantError("nothing to reindex")
    shape = maps[0].labels.shape
    for i, smap in enumerate(maps):
        if smap.stage != i or smap.labels.shape != shape:
            raise InvariantError(f"map {i} is tagged stage {smap.stage} or has a foreign shape")
    new_maps = [StructureMap(0, np.zeros(shape, dtype=np.int32))]
    for smap in maps[1:]:
        new_maps.append(canonical_child(new_maps[-1], smap.labels))
    return tuple(new_maps)
