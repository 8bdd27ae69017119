"""Transformer backbone shared by the two generators.

`Generator` is the skeleton both models are built on: class and stage
embeddings, the block stack, the final modulated rmsnorm and the output head,
plus parameter access and checkpoint state. `ContentModel` and
`StructureModel` add only their own input and output parameters and their
forward methods.

One block = pre-norm with scale/shift/gate modulation, a fused qkv+mlp-in
projection (7 w^2 weights), attention under structure-aware rotary ids, and a
fused proj+mlp-out projection (5 w^2), all on a residual stream. With the
3 w^2 modulation projection a block carries exactly 15 w^2 core weights, so a
depth-d model has 15 d w^2 of them; block linears are bias-free to keep that
count exact.

Rotary ids split the 64-dim head as 8 dims for token-kind, 2 dims for each of
8 structure levels, and 20 dims per spatial axis. Tokens sharing a cluster at
some level share that level's id, so attention sees the whole cluster tree.
There is one rotary path: `rope_tables` turns integer ids into cos/sin
tables, `Generator._rope_tables` builds them for a whole batch in one call,
and the tape op `autodiff.rope` rotates the queries and keys with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvariantError

__all__ = [
    "HEAD_DIM",
    "STRUCT_SLOTS",
    "ModelConfig",
    "param_count",
    "rope_tables",
    "pad_structure_ids",
    "Block",
    "Generator",
    "time_features",
    "gradient_check",
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
    count is 15 d width^2. norm records the normalizer so runs reproduce.
    """

    depth: int
    kind: str
    latent_channels: int
    codebook_size: int
    num_classes: int
    last_stage: int
    norm: str = "rmsnorm"

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
        if self.norm != "rmsnorm":
            raise InvariantError("only rmsnorm is implemented")
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
    def head_dim(self) -> int:
        return HEAD_DIM

    @property
    def head_channels(self) -> int:
        """Output head width: a latent vector or one embedding column per stage."""
        return self.latent_channels if self.kind == "content" else self.last_stage

    @property
    def null_class_id(self) -> int:
        return self.num_classes


def param_count(config: ModelConfig) -> int:
    """Closed-form block-core parameter total: 15 d w^2."""
    return 15 * config.depth * config.width ** 2


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


def pad_structure_ids(emb: np.ndarray) -> np.ndarray:
    """Pad (..., K) hierarchical embedding values with 1s out to 8 slots."""
    emb = np.asarray(emb)
    k = emb.shape[-1]
    if k > STRUCT_SLOTS:
        raise InvariantError(f"embedding depth {k} exceeds {STRUCT_SLOTS} rotary slots")
    if k == STRUCT_SLOTS:
        return emb
    pad = np.ones(emb.shape[:-1] + (STRUCT_SLOTS - k,), dtype=emb.dtype)
    return np.concatenate([emb, pad], axis=-1)


def time_features(t: np.ndarray, width: int) -> np.ndarray:
    """Sinusoidal features of scalar times in [0, 1], shape (..., width)."""
    t = np.asarray(t, dtype=np.float64)
    half = width // 2
    freqs = np.exp(-np.log(ROPE_BASE) * np.arange(half) / max(half - 1, 1))
    args = t[..., None] * freqs * 2.0 * np.pi
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


class Block:
    """One parallel attention+MLP block with modulation; 15 w^2 weights."""

    def __init__(self, index: int, width: int, heads: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.index = index
        self.width = width
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

    def core_param_count(self) -> int:
        return self.w_mod.data.size + self.w_fused.data.size + self.w_out.data.size

    def forward(self, x: Tensor, cos: np.ndarray, sin: np.ndarray, cond: Tensor,
                train: bool = False, dropout: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
        """x: (B, L, w); cos/sin: (B, 1, L, 32); cond: (B, w) modulation input."""
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
        attn = ad.matmul(ad.softmax(scores, axis=-1), v)    # (B, H, L, 64)
        attn = ad.reshape(ad.transpose(attn, (0, 2, 1, 3)), (b_sz, length, w))

        merged = ad.concat([attn, ad.silu(m)], axis=2)      # (B, L, 5w)
        out = ad.matmul(merged, self.w_out)
        if train and dropout > 0.0:
            keep = (rng.random(out.shape, dtype=np.float32) >= dropout)
            out = out * (keep.astype(out.data.dtype) / (1.0 - dropout))
        return x + (1.0 + gate) * out


class Generator:
    """Base of both generators: everything but the per-kind adapters.

    A subclass sets `kind` and creates its input and output parameters in
    `_make_inputs` and `_make_outputs`. Creation order fixes the RNG draw
    order: embeddings, inputs, blocks, final modulation and head, outputs.
    """

    kind = ""

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
        self.blocks = [Block(i, w, config.heads, self._rng, dtype)
                       for i in range(config.depth)]
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

    def core_param_count(self) -> int:
        """Actual block parameter total; must equal param_count(config)."""
        return sum(block.core_param_count() for block in self.blocks)

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

        struct_ids is (B, hw, 8); run s has token kind s + 1, and every run
        repeats the grid's structure and spatial ids. One `rope_tables` call
        covers the whole batch. The last result is memoized on the exact ids,
        so the Euler steps of one flow stage, whose known columns do not
        change, build the tables once. The memoized tables are read-only.
        """
        key = (struct_ids.dtype.str, struct_ids.shape, struct_ids.tobytes(), grid_w, runs)
        if self._rope_memo is not None and self._rope_memo[0] == key:
            return self._rope_memo[1]
        b_sz, hw, _ = struct_ids.shape
        yy, xx = np.divmod(np.arange(hw), grid_w)
        kind = np.concatenate([[0]] + [np.full(hw, s + 1) for s in range(runs)])
        spatial = np.concatenate([[[0, 0]]] + [np.stack([yy, xx], axis=1)] * runs)
        class_ids = np.ones((b_sz, 1, STRUCT_SLOTS), dtype=np.int64)
        struct = np.concatenate([class_ids] + [struct_ids] * runs, axis=1)
        cos, sin = rope_tables(np.broadcast_to(kind, (b_sz,) + kind.shape), struct,
                               np.broadcast_to(spatial, (b_sz,) + spatial.shape),
                               dtype=self.dtype)
        tables = cos[:, None], sin[:, None]
        for table in tables:
            table.flags.writeable = False
        self._rope_memo = (key, tables)
        return tables

    def _trunk(self, x: Tensor, cos, sin, cond: Tensor, train: bool,
               rng: np.random.Generator | None) -> Tensor:
        """The block stack, then the final rmsnorm modulated by cond."""
        for block in self.blocks:
            x = block.forward(x, cos, sin, cond, train=train,
                              dropout=self.config.dropout, rng=rng)
        width = self.config.width
        fmod = ad.reshape(ad.matmul(ad.silu(cond), self.w_final_mod),
                          (x.shape[0], 1, 2 * width))
        return ad.rmsnorm(x) * (1.0 + fmod[:, :, :width]) + fmod[:, :, width:]


def gradient_check(loss_fn, params: dict, seed: int = 0, samples: int = 120,
                   step: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the graph from the given parameter tensors each
    call. Checks a seeded sample of coordinates across all parameters; meant
    for float64 parameters.
    """
    loss = loss_fn()
    for p in params.values():
        p.zero_grad()
    loss.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}

    rng = np.random.default_rng(seed)
    names = sorted(params)
    sizes = np.array([params[k].data.size for k in names])
    total = int(sizes.sum())
    chosen = rng.choice(total, size=min(samples, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = 0.0
    for flat_idx in chosen:
        which = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[which]
        local = int(flat_idx - offsets[which])
        p = params[name]
        flat = p.data.reshape(-1)
        orig = flat[local]
        flat[local] = orig + step
        up = float(loss_fn().data)
        flat[local] = orig - step
        down = float(loss_fn().data)
        flat[local] = orig
        numeric = (up - down) / (2.0 * step)
        analytic = float(grads[name].reshape(-1)[local])
        err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst
