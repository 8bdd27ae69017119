"""Transformer backbone shared by the two generators.

`Generator` is the skeleton both models are built on: class and stage
embeddings, the block stack, the final modulated rmsnorm and the output head,
plus parameter access and checkpoint state. `Generator._embed` is the one
forward prelude: it checks the class ids and the structure maps, reads each
row's stage and rotary structure ids from its map, conditions on class +
stage and prepends the class token to the one token run it is given.
`ContentModel.forward_final_canvas` runs it, every block on all its rows and
`_head` on the canvas rows; `StructureModel.context` runs the same prelude
for its class and canvas rows and keeps their keys and values, which its
`velocity` steps attend to. The adapters add only the token runs they pass
in, their block loops and the reshape of what comes out.

`ModelConfig.param_shapes` is the one parameter table, both kinds' input and
output tensors included: `Generator` checks the arrays it wraps, a file's or
`ModelConfig.init_arrays`' draw, against it before making any tensor, and
`ModelConfig.weight_bytes`, the bytes the cap counts, is 4 bytes per entry.

One block = pre-norm with scale/shift/gate modulation, a fused qkv+mlp-in
projection (7 w^2 weights), attention under structure-aware rotary ids, and a
fused proj+mlp-out projection (5 w^2), all on a residual stream. With the
3 w^2 modulation projection a block carries exactly 15 w^2 core weights, so a
depth-d model has 15 d w^2 of them; block linears are bias-free to keep that
count exact. The tests check the count from the shapes `params()` returns.

Rotary ids split the 64-dim head as 8 dims for token-kind, 2 dims for each of
8 structure levels, and 20 dims per spatial axis. Tokens sharing a cluster at
some level share that level's id, so attention sees the whole cluster tree.
`Generator._embed` reads a row's structure ids from its `StructureMap`
through the one bit rule, `structcode.embed_structure_map`; no caller builds
them. There is one rotary path: `rope_tables` turns integer ids into cos/sin
tables, `Generator._rope_tables` builds them for a whole batch in one call and
lays them out per head, the query heads' copies times the exact score scale
2^-3, and one `autodiff.rope` per block rotates the queries and keys together
as the fused projection's q|k columns (the keys alone in `Block.keys_values`).

A block computes every row it is given. Rows an earlier call ran serve a
later call as keys and values alone, without being recomputed:
`Block.forward` returns its rows' rotated keys and values,
`Block.keys_values` computes only those, and a later call takes them as its
`prefix`. That is the one way rows attend to rows a call does not compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import errors
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


def _block_shapes(width: int) -> dict:
    """The per-block table: each block tensor's name and shape, in creation
    order; 3 + 7 + 5 = 15 width^2 weights."""
    return {"w_mod": (width, 3 * width), "w_fused": (width, 7 * width),
            "w_out": (5 * width, width)}


@dataclass(frozen=True)
class ModelConfig:
    """Depth-parameterized generator hyperparameters.

    kind "content": width 64 d, d heads; kind "structure": width 32 d, d/2
    heads. Either way the per-head dim is 64 and the block-core parameter
    count is 15 d width^2.

    `param_shapes` is the one statement of a model's tensor layout: a fresh
    model draws it, `Generator` checks its arrays against it, the cap counts it.

    Memory policy, checked by `errors.check_alloc` against the one 2 GiB cap: a
    config, and so a loaded or generating model, holds every float32 weight
    of its table once (`weight_bytes`), which must fit: content depth <= 20,
    structure depth <= 32 at small class, codebook and channel counts.
    Training also holds a gradient and two Adam moments per weight: at its
    update a parameter holds its weight, its gradient and both moments, so
    `training.check_training_budget` refuses it when 4x those bytes pass the
    cap: content depth <= 12, structure depth <= 20.
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
        errors.check_alloc(self.weight_bytes, f"a depth-{self.depth} {self.kind} model",
                           "weights")

    @property
    def width(self) -> int:
        return (64 if self.kind == "content" else 32) * self.depth

    def _outer_shapes(self) -> tuple:
        """The tensors created before the blocks and after them, by name."""
        w, e, c = self.width, self.latent_channels, self.head_channels
        before = {"class_emb": (self.num_classes + 1, w),     # last row: null condition
                  "stage_emb": (self.last_stage + 1, w)}
        after = {"w_final_mod": (w, 2 * w), "w_head": (w, c), "b_head": (c,)}
        if self.kind == "content":
            before.update(w_in=(e, w), b_in=(w,))
            after.update(w_logit=(e, self.codebook_size), b_logit=(self.codebook_size,))
        else:
            before.update(w_time=(w, w), b_time=(w,), w_in_canvas=(e, w), b_in_canvas=(w,),
                          w_in_struct=(self.last_stage, w), b_in_struct=(w,))
        return before, after

    def param_shapes(self) -> dict:
        """Each tensor's checkpoint name and shape, in creation order, which is
        also the RNG draw order: embeddings and inputs, the blocks, the final
        modulation and head, the outputs."""
        before, after = self._outer_shapes()
        blocks = {f"block{i}.{name}": shape for i in range(self.depth)
                  for name, shape in _block_shapes(self.width).items()}
        return {**before, **blocks, **after}

    def init_arrays(self, seed: int) -> dict:
        """A fresh model's arrays, drawn in table order under the one init rule."""
        rng = np.random.default_rng(seed)
        return {name: _init_array(name, shape, rng) for name, shape in self.param_shapes().items()}

    @property
    def weight_bytes(self) -> int:
        """float32 bytes of every tensor in `param_shapes`, counted without
        listing the blocks, so any depth is counted at once."""
        before, after = self._outer_shapes()
        outer = sum(math.prod(shape) for shape in (*before.values(), *after.values()))
        block = sum(math.prod(shape) for shape in _block_shapes(self.width).values())
        return 4 * (outer + self.depth * block)

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


def _init_array(name: str, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """The one init rule. Biases and the modulation and block output
    projections start at zero: a zero output projection makes each block the
    identity, while the unit gate (1 + modulation) lets gradients reach it
    directly. Every other array draws float32 0.02 N(0, 1)."""
    if name.startswith("b_") or name.rsplit(".", 1)[-1] in ("w_mod", "w_final_mod", "w_out"):
        return np.zeros(shape, dtype=np.float32)
    return (0.02 * rng.standard_normal(shape)).astype(np.float32)


def _sub_freqs(dims: int) -> np.ndarray:
    # standard geometric schedule, applied independently per sub-block
    k = np.arange(dims // 2, dtype=np.float64)
    return ROPE_BASE ** (-2.0 * k / dims)


_KIND_FREQS = _sub_freqs(KIND_DIMS)
_STRUCT_FREQS = _sub_freqs(2)            # one rotation plane per level
_SPATIAL_FREQS = _sub_freqs(SPATIAL_DIMS)


def rope_tables(kind_ids, struct_ids, spatial_ids):
    """float32 cos/sin tables (..., 32) of a token batch's integer rotary ids,
    for the tape-level rope op."""
    kind_ids = np.asarray(kind_ids, dtype=np.float64)
    struct_ids = np.asarray(struct_ids, dtype=np.float64)
    spatial_ids = np.asarray(spatial_ids, dtype=np.float64)
    angles = np.concatenate([
        kind_ids[..., None] * _KIND_FREQS,
        struct_ids * _STRUCT_FREQS[0],
        spatial_ids[..., 0:1] * _SPATIAL_FREQS,
        spatial_ids[..., 1:2] * _SPATIAL_FREQS,
    ], axis=-1)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def time_features(t: np.ndarray, width: int) -> np.ndarray:
    """Sinusoidal features of scalar times in [0, 1], shape (..., width)."""
    t = np.asarray(t, dtype=np.float64)
    half = width // 2
    freqs = np.exp(-np.log(ROPE_BASE) * np.arange(half) / max(half - 1, 1))
    args = t[..., None] * freqs * 2.0 * np.pi
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


class Block:
    """One parallel attention+MLP block with modulation; 15 w^2 weights."""

    def __init__(self, heads: int, arrays: dict):
        self.heads = heads
        for name, array in arrays.items():
            setattr(self, name, Tensor(array, requires_grad=True))

    def params(self, prefix: str) -> dict:
        return {f"{prefix}.{k}": v for k, v in vars(self).items() if isinstance(v, Tensor)}

    def _modulated(self, x: Tensor, cond: Tensor):
        """rmsnorm(x) under the block's scale and shift from cond, and its gate."""
        b_sz, _, w = x.shape
        mod = ad.matmul(ad.silu(cond), self.w_mod)          # (B, 3w)
        mod = ad.reshape(mod, (b_sz, 1, 3 * w))
        scale, shift, gate = mod[:, :, 0:w], mod[:, :, w:2 * w], mod[:, :, 2 * w:3 * w]
        return ad.rmsnorm(x) * (1.0 + scale) + shift, gate

    def forward(self, x: Tensor, cos: np.ndarray, sin: np.ndarray, cond: Tensor,
                dropout: float = 0.0, rng: np.random.Generator | None = None,
                prefix: tuple | None = None) -> tuple:
        """x: (B, L, w); cond: (B, w) modulation input.

        cos/sin: (B, L, 2H, 32), one table per query head and then one per key
        head; the query tables carry the score scale 1/sqrt(HEAD_DIM) = 2^-3,
        which is exact, so the scores need no scale op. `prefix` is the
        (keys, values) pair of rows an earlier call computed, as this call
        returns them or `keys_values` does: the rows attend to them, placed
        before their own keys and values, and do not recompute them. Dropout
        applies to the block output only when an rng is given.

        Returns (out, (keys, values)): out is (B, L, w); the keys (B, H, 64, L),
        rotated, and the values (B, H, L, 64) are those of x's own L rows,
        prefix left out.
        """
        b_sz, length, w = x.shape
        heads = self.heads
        normed, gate = self._modulated(x, cond)
        fused = ad.matmul(normed, self.w_fused)             # (B, L, 7w): q k v m
        qk = ad.rope(ad.reshape(fused[:, :, 0:2 * w], (b_sz, length, 2 * heads, HEAD_DIM)),
                     cos, sin)                              # (B, L, 2H, 64)
        q = ad.transpose(qk[:, :, :heads], (0, 2, 1, 3))           # (B, H, L, 64)
        k_t = ad.transpose(qk[:, :, heads:], (0, 2, 3, 1))         # (B, H, 64, L)
        v = ad.transpose(ad.reshape(fused[:, :, 2 * w:3 * w], (b_sz, length, heads, HEAD_DIM)),
                         (0, 2, 1, 3))                      # (B, H, L, 64)
        own = k_t, v
        if prefix is not None:
            k_t, v = ad.concat([prefix[0], k_t], axis=3), ad.concat([prefix[1], v], axis=2)
        attn = ad.matmul(ad.softmax(ad.matmul(q, k_t)), v)  # (B, H, L, 64)
        attn = ad.reshape(ad.transpose(attn, (0, 2, 1, 3)), (b_sz, length, w))

        merged = ad.concat([attn, ad.silu(fused[:, :, 3 * w:7 * w])], axis=2)
        out = ad.matmul(merged, self.w_out)                 # (B, L, w)
        if rng is not None and dropout > 0.0:
            keep = rng.random((b_sz, length, w), dtype=np.float32) >= dropout
            out = out * (keep.astype(out.data.dtype) / (1.0 - dropout))
        return x + (1.0 + gate) * out, own

    def keys_values(self, x: Tensor, cos: np.ndarray, sin: np.ndarray, cond: Tensor) -> tuple:
        """The (keys, values) `forward` returns for x, computing only them:
        the k and v columns of the fused projection, and the key heads'
        rotation (the key half of cos/sin's axis 2)."""
        b_sz, length, w = x.shape
        heads = self.heads
        normed, _ = self._modulated(x, cond)
        kv = ad.matmul(normed, self.w_fused[:, w:3 * w])    # (B, L, 2w): k v
        k = ad.rope(ad.reshape(kv[:, :, 0:w], (b_sz, length, heads, HEAD_DIM)),
                    cos[:, :, heads:], sin[:, :, heads:])
        v = ad.reshape(kv[:, :, w:2 * w], (b_sz, length, heads, HEAD_DIM))
        return ad.transpose(k, (0, 2, 3, 1)), ad.transpose(v, (0, 2, 1, 3))


class Generator:
    """Base of both generators: everything but the per-kind adapters.

    A subclass sets `kind` (and `map_lag`, when its rows read an earlier
    stage's map), feeds its token run and maps to `_embed`, runs the blocks
    and reads `_head`. Every tensor, its own input and output parameters
    too, wraps one float32 array of `arrays`, else `config.init_arrays(seed)`:
    a table checked against `param_shapes`, and for float32, before any tensor
    is made. Each tensor is an attribute named as in the table.
    """

    kind = ""
    map_lag = 0     # a row's stage minus the stage of the map it reads

    def __init__(self, config: ModelConfig, seed: int = 0, arrays: dict | None = None):
        if config.kind != self.kind:
            raise InvariantError(f"{type(self).__name__} needs a {self.kind}-kind config")
        if arrays is None:
            arrays = config.init_arrays(seed)
        want, got = config.param_shapes(), {n: np.shape(a) for n, a in arrays.items()}
        if got != want:
            name = next(n for n in (*want, *got) if got.get(n) != want.get(n))
            raise InvariantError(f"{name} is {got.get(name, 'missing')}, its config implies "
                                 f"{want.get(name, 'no such array')}")
        for name, array in arrays.items():
            if np.asarray(array).dtype != np.float32:
                raise InvariantError(f"{name} is {np.asarray(array).dtype}, not float32")
        self.config = config
        before, after = config._outer_shapes()
        for name in (*before, *after):
            setattr(self, name, Tensor(arrays[name], requires_grad=True))
        self.blocks = [Block(config.heads, {leaf: arrays[f"block{i}.{leaf}"]
                                            for leaf in _block_shapes(config.width)})
                       for i in range(config.depth)]

    def params(self) -> dict:
        """Own tensors in creation order, then each block's."""
        out = {k: v for k, v in vars(self).items() if isinstance(v, Tensor)}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"block{i}"))
        return out

    def state_arrays(self) -> dict:
        return {k: v.data for k, v in self.params().items()}

    def _rope_tables(self, struct_ids: np.ndarray, grid_w: int, runs: int):
        """cos/sin (B, L, 2H, 32) for [class] + `runs` runs of the grid tokens.

        struct_ids is (B, hw, STRUCT_SLOTS), one row per map; the class token
        reads PAD in every slot. Run s has token kind s + 1, and every run
        repeats the grid's structure and spatial ids. One `rope_tables` call
        covers the whole batch; axis 2 then repeats its tables for each of the
        H query heads, times the exact score scale 2^-3 = 1/sqrt(HEAD_DIM),
        and for each of the H key heads, the layout `Block.forward` rotates
        its fused q|k columns with.
        """
        b_sz, hw, _ = struct_ids.shape
        yy, xx = np.divmod(np.arange(hw), grid_w)
        kind = np.concatenate([[0]] + [np.full(hw, s + 1) for s in range(runs)])
        spatial = np.concatenate([[[0, 0]]] + [np.stack([yy, xx], axis=1)] * runs)
        class_ids = np.full((b_sz, 1, STRUCT_SLOTS), PAD, dtype=np.int64)
        struct = np.concatenate([class_ids] + [struct_ids] * runs, axis=1)
        cos, sin = rope_tables(np.broadcast_to(kind, (b_sz,) + kind.shape), struct,
                               np.broadcast_to(spatial, (b_sz,) + spatial.shape))
        heads = self.config.heads
        head_scale = np.repeat(np.array([1.0 / np.sqrt(HEAD_DIM), 1.0], dtype=np.float32),
                               heads)[:, None]          # (2H, 1): queries, then keys
        return cos[:, :, None] * head_scale, sin[:, :, None] * head_scale

    @staticmethod
    def _tokens(run, b_sz: int, grid: tuple) -> Tensor:
        """A token run's rows (B, hw, width): the run is an (input
        (B, h, w, c), weight (c, width), bias) triple, and its input must have
        the batch's size and the grid's shape."""
        data, weight, bias = run
        if data.shape != (b_sz, *grid, weight.shape[0]):
            raise InvariantError(f"input must be {(b_sz, *grid, weight.shape[0])}, "
                                 f"got {data.shape}")
        return ad.matmul(Tensor(data.reshape(b_sz, grid[0] * grid[1], -1)), weight) + bias

    def _embed(self, class_ids, smaps, run, rotary_runs: int) -> tuple:
        """The checks, rotary tables and conditioning of a forward.

        class_ids: (B,) ints, the null class allowed. smaps: one
        `StructureMap` per row, of the grid's shape; a row runs at its map's
        stage plus `map_lag`, and its rotary structure ids are the map's
        `embed_structure_map` over STRUCT_SLOTS. run: the token run after
        the class token (see `_tokens`). Returns (x, cos, sin, cond): x the
        (B, 1 + hw, width) rows [class] + run, the tables of
        [class] + `rotary_runs` runs, which may outnumber the one given, and
        cond the (B, width) class + stage conditioning.
        """
        class_ids, smaps = np.asarray(class_ids), list(smaps)
        if class_ids.ndim != 1 or len(smaps) != class_ids.size:
            raise InvariantError(f"need one structure map per class id, got {len(smaps)} "
                                 f"maps for class ids of shape {class_ids.shape}")
        if not smaps:
            raise InvariantError("empty batch")
        b_sz, grid = class_ids.size, run[0].shape[1:3]
        if not all(isinstance(m, StructureMap) and m.labels.shape == grid for m in smaps):
            raise InvariantError(f"need StructureMaps of the grid's shape {grid}")
        stages = np.array([m.stage + self.map_lag for m in smaps], dtype=np.int64)
        if class_ids.min(initial=0) < 0 or class_ids.max(initial=0) > self.config.null_class_id:
            raise InvariantError(f"class id out of range 0..{self.config.null_class_id}")
        if stages.max(initial=0) > self.config.last_stage:
            raise InvariantError(f"stage out of range 0..{self.config.last_stage}")
        tokens = self._tokens(run, b_sz, grid)
        struct_ids = np.stack([embed_structure_map(m, STRUCT_SLOTS) for m in smaps])
        cos, sin = self._rope_tables(struct_ids.reshape(b_sz, grid[0] * grid[1], -1), grid[1],
                                     rotary_runs)
        cls = self.class_emb[class_ids]                                # (B, w)
        cond = cls + self.stage_emb[stages]
        x = ad.concat([ad.reshape(cls, (b_sz, 1, self.config.width)), tokens], axis=1)
        return x, cos, sin, cond

    def _head(self, x: Tensor, cond: Tensor) -> Tensor:
        """The final modulated rmsnorm and the output head of rows x."""
        width = self.config.width
        fmod = ad.reshape(ad.matmul(ad.silu(cond), self.w_final_mod), (x.shape[0], 1, 2 * width))
        x = ad.rmsnorm(x) * (1.0 + fmod[:, :, :width]) + fmod[:, :, width:]
        return ad.matmul(x, self.w_head) + self.b_head
