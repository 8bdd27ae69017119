"""Transformer backbone shared by the two generators.

`Generator` is the skeleton both models are built on: class and stage
embeddings, the block stack, the final modulated rmsnorm and the output head,
plus parameter access and checkpoint state. It also owns the one forward,
`Generator._forward`: it checks the class ids and the structure maps, reads
each row's stage and rotary structure ids from its map, conditions on class +
stage, prepends the class token to the token runs it is given, runs the
blocks and returns the head on the last run.
`ContentModel` and `StructureModel` add only their input and output
parameters, the token runs they pass in and the reshape of what comes out.

One block = pre-norm with scale/shift/gate modulation, a fused qkv+mlp-in
projection (7 w^2 weights), attention under structure-aware rotary ids, and a
fused proj+mlp-out projection (5 w^2), all on a residual stream. With the
3 w^2 modulation projection a block carries exactly 15 w^2 core weights, so a
depth-d model has 15 d w^2 of them; block linears are bias-free to keep that
count exact. The tests check the count from the shapes `params()` returns.

Rotary ids split the 64-dim head as 8 dims for token-kind, 2 dims for each of
8 structure levels, and 20 dims per spatial axis. Tokens sharing a cluster at
some level share that level's id, so attention sees the whole cluster tree.
`Generator._forward` reads a row's structure ids from its `StructureMap`
through the one bit rule, `structcode.embed_structure_map`; no caller builds
them. There is one rotary path: `rope_tables` turns integer ids into cos/sin
tables, `Generator._rope_tables` builds them for a whole batch in one call,
and the tape op `autodiff.rope` rotates the queries and keys with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvariantError
from .grid import StructureMap
from .structcode import PAD, embed_structure_map

__all__ = [
    "HEAD_DIM",
    "STRUCT_SLOTS",
    "ModelConfig",
    "rope_tables",
    "Block",
    "Generator",
    "time_features",
]

HEAD_DIM = 64
KIND_DIMS = 8       # token-kind sub-block (text / canvas / structure)
STRUCT_SLOTS = 8    # structure levels, 2 dims each
SPATIAL_DIMS = 20   # per spatial axis
ROPE_BASE = 10000.0


@dataclass(frozen=True)
class ModelConfig:
    """Depth-parameterized generator hyperparameters.

    kind "content": width 64 d, d heads; kind "structure": width 32 d, d/2
    heads. Either way the per-head dim is 64 and the block-core parameter
    count is 15 d width^2.
    """

    depth: int
    kind: str
    latent_channels: int
    codebook_size: int
    num_classes: int
    last_stage: int

    def __post_init__(self):
        if self.kind not in ("content", "structure"):
            raise InvariantError(f"unknown model kind {self.kind!r}")
        if min(self.depth, self.latent_channels, self.codebook_size, self.num_classes) < 1:
            raise InvariantError("depth, channel, codebook and class counts must be positive")
        if self.last_stage < 0:
            raise InvariantError("last_stage must be non-negative")
        if self.kind == "structure" and self.depth % 2:
            raise InvariantError("structure models need an even depth (heads = depth/2)")
        if self.last_stage > STRUCT_SLOTS:
            raise InvariantError(
                f"rotary layout supports at most {STRUCT_SLOTS} stages, got {self.last_stage}"
            )
        if self.width % self.heads or self.width // self.heads != HEAD_DIM:
            raise InvariantError("width/heads must give 64-dim heads")

    @property
    def width(self) -> int:
        return (64 if self.kind == "content" else 32) * self.depth

    @property
    def heads(self) -> int:
        return self.depth if self.kind == "content" else self.depth // 2

    @property
    def dropout(self) -> float:
        return 0.1 * self.depth / 24.0

    @property
    def head_channels(self) -> int:
        """Output head width: a latent vector or one embedding column per stage."""
        return self.latent_channels if self.kind == "content" else self.last_stage

    @property
    def null_class_id(self) -> int:
        return self.num_classes


def _sub_freqs(dims: int) -> np.ndarray:
    # standard geometric schedule, applied independently per sub-block
    k = np.arange(dims // 2, dtype=np.float64)
    return ROPE_BASE ** (-2.0 * k / dims)


_KIND_FREQS = _sub_freqs(KIND_DIMS)
_STRUCT_FREQS = _sub_freqs(2)            # one rotation plane per level
_SPATIAL_FREQS = _sub_freqs(SPATIAL_DIMS)


def rope_tables(kind_ids, struct_ids, spatial_ids, dtype=np.float32):
    """cos/sin tables (..., 32) of a token batch's integer rotary ids, for the
    tape-level rope op."""
    kind_ids = np.asarray(kind_ids, dtype=np.float64)
    struct_ids = np.asarray(struct_ids, dtype=np.float64)
    spatial_ids = np.asarray(spatial_ids, dtype=np.float64)
    angles = np.concatenate([
        kind_ids[..., None] * _KIND_FREQS,
        struct_ids * _STRUCT_FREQS[0],
        spatial_ids[..., 0:1] * _SPATIAL_FREQS,
        spatial_ids[..., 1:2] * _SPATIAL_FREQS,
    ], axis=-1)
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def time_features(t: np.ndarray, width: int) -> np.ndarray:
    """Sinusoidal features of scalar times in [0, 1], shape (..., width)."""
    t = np.asarray(t, dtype=np.float64)
    half = width // 2
    freqs = np.exp(-np.log(ROPE_BASE) * np.arange(half) / max(half - 1, 1))
    args = t[..., None] * freqs * 2.0 * np.pi
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


class Block:
    """One parallel attention+MLP block with modulation; 15 w^2 weights."""

    def __init__(self, width: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        self.heads = heads
        w = width
        init = lambda *shape: (0.02 * rng.standard_normal(shape)).astype(dtype)
        # zero output projection -> the block starts as the identity, while
        # the unit gate (1 + modulation) lets gradients reach it directly
        self.w_mod = Tensor(np.zeros((w, 3 * w), dtype=dtype), requires_grad=True)
        self.w_fused = Tensor(init(w, 7 * w), requires_grad=True)
        self.w_out = Tensor(np.zeros((5 * w, w), dtype=dtype), requires_grad=True)

    def params(self, prefix: str) -> dict:
        return {
            f"{prefix}.w_mod": self.w_mod,
            f"{prefix}.w_fused": self.w_fused,
            f"{prefix}.w_out": self.w_out,
        }

    def forward(self, x: Tensor, cos: np.ndarray, sin: np.ndarray, cond: Tensor,
                dropout: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
        """x: (B, L, w); cos/sin: (B, 1, L, 32); cond: (B, w) modulation input.
        Dropout applies to the block output only when an rng is given."""
        b_sz, length, w = x.shape
        heads = self.heads
        mod = ad.matmul(ad.silu(cond), self.w_mod)          # (B, 3w)
        mod = ad.reshape(mod, (b_sz, 1, 3 * w))
        scale, shift, gate = mod[:, :, 0:w], mod[:, :, w:2 * w], mod[:, :, 2 * w:3 * w]

        normed = ad.rmsnorm(x) * (1.0 + scale) + shift
        fused = ad.matmul(normed, self.w_fused)             # (B, L, 7w)
        q, k, v, m = (fused[:, :, 0:w], fused[:, :, w:2 * w],
                      fused[:, :, 2 * w:3 * w], fused[:, :, 3 * w:7 * w])

        def split_heads(t):
            return ad.transpose(ad.reshape(t, (b_sz, length, heads, HEAD_DIM)),
                                (0, 2, 1, 3))               # (B, H, L, 64)

        q = ad.rope(split_heads(q), cos, sin)
        k = ad.rope(split_heads(k), cos, sin)
        v = split_heads(v)
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(HEAD_DIM))
        attn = ad.matmul(ad.softmax(scores), v)             # (B, H, L, 64)
        attn = ad.reshape(ad.transpose(attn, (0, 2, 1, 3)), (b_sz, length, w))

        merged = ad.concat([attn, ad.silu(m)], axis=2)      # (B, L, 5w)
        out = ad.matmul(merged, self.w_out)
        if rng is not None and dropout > 0.0:
            keep = (rng.random(out.shape, dtype=np.float32) >= dropout)
            out = out * (keep.astype(out.data.dtype) / (1.0 - dropout))
        return x + (1.0 + gate) * out


class Generator:
    """Base of both generators: everything but the per-kind adapters.

    A subclass sets `kind` (and `map_lag`, when its rows read an earlier
    stage's map), creates its input and output parameters in `_make_inputs`
    and `_make_outputs`, and feeds its token runs and maps to `_forward`.
    Creation order fixes the RNG draw order: embeddings, inputs, blocks,
    final modulation and head, outputs.
    """

    kind = ""
    map_lag = 0     # a row's stage minus the stage of the map it reads

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        if config.kind != self.kind:
            raise InvariantError(f"{type(self).__name__} needs a {self.kind}-kind config")
        self.config = config
        self.dtype = dtype
        self._rng = np.random.default_rng(seed)
        w = config.width
        self.class_emb = self._init(config.num_classes + 1, w)   # last row: null condition
        self.stage_emb = self._init(config.last_stage + 1, w)
        self._make_inputs()
        self.blocks = [Block(w, config.heads, self._rng, dtype) for _ in range(config.depth)]
        self.w_final_mod = self._zeros(w, 2 * w)
        self.w_head = self._init(w, config.head_channels)
        self.b_head = self._zeros(config.head_channels)
        self._make_outputs()
        del self._rng
        self._rope_memo = None      # (key, tables) of the last _rope_tables call

    def _init(self, *shape) -> Tensor:
        return Tensor((0.02 * self._rng.standard_normal(shape)).astype(self.dtype),
                      requires_grad=True)

    def _zeros(self, *shape) -> Tensor:
        return Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)

    def _make_outputs(self):
        pass

    def params(self) -> dict:
        """Own tensors in creation order, then each block's."""
        out = {k: v for k, v in vars(self).items() if isinstance(v, Tensor)}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"block{i}"))
        return out

    def state_arrays(self) -> dict:
        return {k: v.data for k, v in self.params().items()}

    def load_state_arrays(self, arrays: dict):
        params = self.params()
        if set(arrays) != set(params):
            raise InvariantError("checkpoint parameter names do not match the model")
        for k, p in params.items():
            if arrays[k].shape != p.data.shape:
                raise InvariantError(f"checkpoint shape mismatch for {k}")
            p.data = arrays[k].astype(self.dtype)

    def _rope_tables(self, struct_ids: np.ndarray, grid_w: int, runs: int):
        """cos/sin (B, 1, L, 32) for [class] + `runs` runs of the grid tokens.

        struct_ids is (B, hw, STRUCT_SLOTS), one row per map; the class token
        reads PAD in every slot. Run s has token kind s + 1, and every run
        repeats the grid's structure and spatial ids. One `rope_tables` call
        covers the whole batch. The last result is memoized on the exact ids,
        so the Euler steps of one flow stage, which all read the same parent
        map, build the tables once. The memoized tables are read-only.
        """
        key = (struct_ids.dtype.str, struct_ids.shape, struct_ids.tobytes(), grid_w, runs)
        if self._rope_memo is not None and self._rope_memo[0] == key:
            return self._rope_memo[1]
        b_sz, hw, _ = struct_ids.shape
        yy, xx = np.divmod(np.arange(hw), grid_w)
        kind = np.concatenate([[0]] + [np.full(hw, s + 1) for s in range(runs)])
        spatial = np.concatenate([[[0, 0]]] + [np.stack([yy, xx], axis=1)] * runs)
        class_ids = np.full((b_sz, 1, STRUCT_SLOTS), PAD, dtype=np.int64)
        struct = np.concatenate([class_ids] + [struct_ids] * runs, axis=1)
        cos, sin = rope_tables(np.broadcast_to(kind, (b_sz,) + kind.shape), struct,
                               np.broadcast_to(spatial, (b_sz,) + spatial.shape),
                               dtype=self.dtype)
        tables = cos[:, None], sin[:, None]
        for table in tables:
            table.flags.writeable = False
        self._rope_memo = (key, tables)
        return tables

    def _forward(self, class_ids, smaps, runs, cond_extra: Tensor | None = None,
                 rng: np.random.Generator | None = None) -> Tensor:
        """The forward both generators share; returns the head on the last run.

        class_ids: (B,) ints, the null class allowed. smaps: one
        `StructureMap` per row, of the grid's shape; a row runs at its map's
        stage plus `map_lag`, and its rotary structure ids are the map's
        `embed_structure_map` over STRUCT_SLOTS. runs: the token runs after
        the class token, each an (input (B, h, w, c), weight (c, width),
        bias) triple. cond_extra is added to the class + stage conditioning.
        A given rng is the training switch: the blocks draw dropout from it.
        Returns (B, h*w, head_channels).
        """
        class_ids, smaps = np.asarray(class_ids), list(smaps)
        if class_ids.ndim != 1 or len(smaps) != class_ids.size:
            raise InvariantError(f"need one structure map per class id, got {len(smaps)} "
                                 f"maps for class ids of shape {class_ids.shape}")
        b_sz, grid = class_ids.size, runs[0][0].shape[1:3]
        for data, weight, _ in runs:
            if data.shape != (b_sz, *grid, weight.shape[0]):
                raise InvariantError(f"input must be {(b_sz, *grid, weight.shape[0])}, "
                                     f"got {data.shape}")
        if not all(isinstance(m, StructureMap) and m.labels.shape == grid for m in smaps):
            raise InvariantError(f"need StructureMaps of the grid's shape {grid}")
        stages = np.array([m.stage + self.map_lag for m in smaps], dtype=np.int64)
        if class_ids.min(initial=0) < 0 or class_ids.max(initial=0) > self.config.null_class_id:
            raise InvariantError(f"class id out of range 0..{self.config.null_class_id}")
        if stages.max(initial=0) > self.config.last_stage:
            raise InvariantError(f"stage out of range 0..{self.config.last_stage}")
        (h, w_grid), width = grid, self.config.width
        hw = h * w_grid
        struct_ids = np.stack([embed_structure_map(m, STRUCT_SLOTS) for m in smaps])
        cos, sin = self._rope_tables(struct_ids.reshape(b_sz, hw, -1), w_grid, len(runs))

        cls = self.class_emb[class_ids]                                # (B, w)
        cond = cls + self.stage_emb[stages]
        if cond_extra is not None:
            cond = cond + cond_extra
        tokens = [ad.matmul(Tensor(data.reshape(b_sz, hw, -1)), weight) + bias
                  for data, weight, bias in runs]
        x = ad.concat([ad.reshape(cls, (b_sz, 1, width))] + tokens, axis=1)
        for block in self.blocks:
            x = block.forward(x, cos, sin, cond, dropout=self.config.dropout, rng=rng)
        fmod = ad.reshape(ad.matmul(ad.silu(cond), self.w_final_mod), (b_sz, 1, 2 * width))
        x = ad.rmsnorm(x) * (1.0 + fmod[:, :, :width]) + fmod[:, :, width:]
        return ad.matmul(x[:, 1 + (len(runs) - 1) * hw:, :], self.w_head) + self.b_head
