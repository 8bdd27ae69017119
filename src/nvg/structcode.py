"""The one bit rule for a location's place in the hierarchy.

A location whose stage-i label is l gets the i ancestor bits of l, most
significant first, with bit values 0 and 2, padded with 1s out to the full
depth K. The number of padding entries, K - i, reveals the stage; the bit
prefix of a child always extends its parent's. All values are small
non-negative integers, so the generators read them directly as rotary
structure ids and the flow model inpaints them as its target.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError
from .grid import StructureMap

__all__ = ["embed_structure_map", "bit_rule_holds"]

PAD = 1


def embed_structure_map(smap: StructureMap, depth: int) -> np.ndarray:
    """Per-location embeddings of one structure map, shape (h, w, depth)."""
    stage = smap.stage
    if stage > depth:
        raise InvariantError(f"map stage {stage} exceeds embedding depth {depth}")
    out = np.full((smap.h, smap.w, depth), PAD, dtype=np.int64)
    labels = smap.labels.astype(np.int64)
    for j in range(stage):
        out[:, :, j] = 2 * ((labels >> (stage - 1 - j)) & 1)
    return out


def bit_rule_holds(maps, depth: int) -> bool:
    """Whether the embeddings of a stage-0, 1, ... chain of maps read back as
    the rule says: at stage i every location has depth - i pads, and its
    first i - 1 entries are its parent's at stage i - 1."""
    embs = [embed_structure_map(smap, depth) for smap in maps]
    return (all(np.all((emb == PAD).sum(axis=-1) == depth - i) for i, emb in enumerate(embs))
            and all(np.array_equal(child[..., :i], parent[..., :i])
                    for i, (parent, child) in enumerate(zip(embs, embs[1:]))))
