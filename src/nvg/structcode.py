"""Bit-style hierarchical embedding of (stage, label) pairs.

A label at stage i is written as its i ancestor bits, most significant first,
with bit values 0 and 2, then padded with 1s out to the full depth. The
number of padding entries reveals the stage; the bit prefix of a child always
extends its parent's. All values are small non-negative integers so they can
double as rotary position ids.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError
from .grid import StructureMap

__all__ = [
    "encode_structure",
    "decode_structure",
    "embed_structure_map",
]

PAD = 1


def encode_structure(label: int, stage: int, depth: int) -> np.ndarray:
    """Depth-vector over {0, 1, 2} for a stage-`stage` label; 1s mark padding."""
    if not 0 <= stage <= depth:
        raise InvariantError(f"stage {stage} outside [0, {depth}]")
    if not 0 <= label < (1 << stage):
        raise InvariantError(f"label {label} out of range for stage {stage}")
    values = np.full(depth, PAD, dtype=np.int64)
    for j in range(stage):
        values[j] = 2 * ((label >> (stage - 1 - j)) & 1)
    return values


def decode_structure(values) -> tuple:
    """Recover (stage, label) from an embedding vector.

    Raises on malformed input: a value outside {0, 1, 2}, or a padding 1
    followed by a bit again.
    """
    v = np.asarray(values)
    if v.ndim != 1:
        raise InvariantError(f"embedding must be 1-D, got shape {v.shape}")
    if not np.issubdtype(v.dtype, np.integer):
        raise InvariantError("embedding values must be integers")
    if v.size and (v.min() < 0 or v.max() > 2):
        raise InvariantError("embedding values must lie in {0, 1, 2}")
    is_pad = v == PAD
    pad_positions = np.flatnonzero(is_pad)
    stage = int(pad_positions[0]) if pad_positions.size else int(v.size)
    if not np.all(is_pad[stage:]):
        raise InvariantError("malformed embedding: bit value after padding started")
    label = 0
    for j in range(stage):
        label += int(v[j]) << (stage - 1 - j)
    return stage, label // 2


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
