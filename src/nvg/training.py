"""Training loops for both generators, the warmup-stable-decay learning-rate
schedule and desk-scale evaluation metrics. Both trainers run the one step
loop `_fit` and differ only in how a step draws its batch and its loss."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, Tensor, no_grad
from .content_model import ContentModel
from .errors import InvariantError, NumericError
from .grid import Codebook, LatentGrid, VGSequence, canvas_prefixes
from .hierarchy import build_hierarchy
from .quantize import build_contents
from .structcode import embed_structure_map
from .structure_model import StructureModel, flow_sample, noised_input

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TokenizedExample",
    "tokenize_dataset",
    "wsd_lr",
    "train_content",
    "train_structure",
    "evaluate",
]

FINAL_LR_FRACTION = 0.1    # wsd_lr ends at this fraction of the base rate
NULL_RATE = 0.10           # fraction of training samples given the null class


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 16
    base_lr: float = 1e-4
    warmup_steps: int = 1000
    decay_start_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.warmup_steps < 0 or self.batch_size < 1:
            raise InvariantError("invalid step/warmup/batch configuration")
        if not (math.isfinite(self.base_lr) and self.base_lr >= 0.0):
            raise InvariantError(f"base_lr must be finite and non-negative, got {self.base_lr}")
        if not 0.0 < self.decay_start_fraction <= 1.0:
            raise InvariantError("decay_start_fraction must lie in (0, 1]")


def wsd_lr(step: int, config: TrainConfig) -> float:
    """Warmup-stable-decay schedule on the base rate.

    Linear warmup over warmup_steps, flat at base_lr, then linear decay to
    base_lr * FINAL_LR_FRACTION at the last step.
    """
    if step < 0:
        raise InvariantError("step must be non-negative")
    total = config.steps
    warm = min(config.warmup_steps, total)
    if warm > 0 and step < warm:
        return config.base_lr * step / warm
    decay_start = max(warm, math.ceil(config.decay_start_fraction * total))
    if step < decay_start or total - 1 <= decay_start:
        return config.base_lr
    frac = (step - decay_start) / (total - 1 - decay_start)
    frac = min(frac, 1.0)
    return config.base_lr * (1.0 - (1.0 - FINAL_LR_FRACTION) * frac)


def _batch_lr(step: int, config: TrainConfig) -> float:
    # the base rate is quoted at batch 256 and scaled linearly to the actual batch
    return wsd_lr(step, config) * config.batch_size / 256.0


@dataclass(frozen=True, eq=False)
class TokenizedExample:
    """One dataset item with everything the trainers need precomputed: the
    running canvases of `grid.canvas_prefixes` and the flow target. The
    models read each stage's structure from `sequence`'s maps."""

    class_id: int
    grid: LatentGrid
    sequence: VGSequence
    canvases: tuple          # canvases[i]: accumulated stages < i, (h, w, e)
    target_canvas: np.ndarray
    flow_target: np.ndarray  # the finest map's embedding, float32 (h, w, K)


def tokenize_dataset(dataset, codebook: Codebook, refiners) -> list:
    """Tokenize (class_id, LatentGrid) pairs into teacher-forcing material."""
    out = []
    for class_id, grid in dataset:
        hierarchy = build_hierarchy(grid)
        seq, _ = build_contents(grid, hierarchy, codebook, refiners)
        *canvases, target = (p.data for p in canvas_prefixes(seq, codebook, refiners))
        flow_target = embed_structure_map(seq.stages[-1][1], seq.last_stage)
        out.append(TokenizedExample(class_id, grid, seq, tuple(canvases), target,
                                    flow_target.astype(np.float32)))
    return out


@dataclass(eq=False)
class TrainResult:
    losses: list = field(default_factory=list)


def _last_stage(examples: list) -> int:
    if not examples:
        raise InvariantError("no training examples")
    return examples[0].sequence.last_stage


def _fit(model, config: TrainConfig, batch_loss) -> TrainResult:
    """The step loop of both trainers: batch_loss(rng) returns the step's
    loss; a non-finite loss raises NumericError before any parameter moves."""
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.params())
    result = TrainResult()
    for step in range(config.steps):
        loss = batch_loss(rng)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"{model.kind} training diverged at step {step} (loss {value})")
        opt.zero_grad()
        loss.backward()
        opt.step(_batch_lr(step, config))
        result.losses.append(value)
    return result


def train_content(examples: list, model: ContentModel, config: TrainConfig) -> TrainResult:
    """Teacher-forced training of the content generator.

    Each step samples examples with replacement and one stage per example;
    a NULL_RATE fraction of samples swaps in the null class embedding.
    """
    last = _last_stage(examples)
    null_id = model.config.null_class_id

    def batch_loss(rng):
        idx = rng.integers(0, len(examples), size=config.batch_size)
        stages = rng.integers(0, last + 1, size=config.batch_size)
        null_mask = rng.random(config.batch_size) < NULL_RATE
        rows = [(examples[int(i)], int(stage)) for i, stage in zip(idx, stages)]
        class_ids = np.array([null_id if null else ex.class_id
                              for (ex, _), null in zip(rows, null_mask)])
        smaps = [ex.sequence.stages[stage][1] for ex, stage in rows]
        canvases = np.stack([ex.canvases[stage] for ex, stage in rows])
        targets = np.stack([ex.target_canvas for ex, _ in rows])
        tokens = [ex.sequence.stages[stage][0].indices for ex, stage in rows]
        return model.loss(class_ids, smaps, canvases, targets, tokens, rng=rng)

    return _fit(model, config, batch_loss)


def train_structure(examples: list, model: StructureModel, config: TrainConfig) -> TrainResult:
    """Velocity-matching training of the structure generator.

    Per sample: a stage uniform in [1, K-1], a time uniform in [0, 1], fresh
    noise, the clamped noised grid, and a squared error on the velocity
    restricted to the unknown columns.
    """
    last = _last_stage(examples)
    if last < 2:
        raise InvariantError("flow training needs at least two splits")
    h, w_grid, e = examples[0].grid.data.shape
    null_id = model.config.null_class_id

    def batch_loss(rng):
        idx = rng.integers(0, len(examples), size=config.batch_size)
        stages = rng.integers(1, last, size=config.batch_size)
        ts = rng.random(config.batch_size)
        null_mask = rng.random(config.batch_size) < NULL_RATE
        noise = rng.standard_normal((config.batch_size, h, w_grid, last)).astype(np.float32)

        class_ids = np.empty(config.batch_size, dtype=np.int64)
        zs = np.empty((config.batch_size, h, w_grid, last), dtype=np.float32)
        canvases = np.empty((config.batch_size, h, w_grid, e), dtype=np.float32)
        targets = np.empty_like(zs)
        mask = np.zeros_like(zs)
        parents = []
        for b in range(config.batch_size):
            ex = examples[int(idx[b])]
            stage = int(stages[b])
            known = stage - 1
            zs[b] = noised_input(ex.flow_target, float(ts[b]), noise[b], known)
            canvases[b] = ex.canvases[stage]
            targets[b] = noise[b] - ex.flow_target
            mask[b, :, :, known:] = 1.0
            class_ids[b] = null_id if null_mask[b] else ex.class_id
            parents.append(ex.sequence.stages[known][1])

        vel = model.velocity(class_ids, parents, canvases, zs, ts, rng=rng)
        diff = vel - Tensor(targets)
        return (diff * diff * mask).sum() / float(mask.sum())

    return _fit(model, config, batch_loss)


@no_grad()
def evaluate(content_model: ContentModel, structure_model: StructureModel,
             examples: list, codebook: Codebook, seed: int = 0,
             flow_steps: int = 10) -> dict:
    """Teacher-forced token accuracy per stage, prefix reconstruction error,
    codebook usage and structure bit agreement on unknown columns."""
    last = _last_stage(examples)
    token_acc = {i: [0, 0] for i in range(last + 1)}
    recon_mse = np.zeros(last + 1, dtype=np.float64)
    used = np.zeros(codebook.size, dtype=bool)
    rng = np.random.default_rng(seed)

    for ex in examples:
        prefixes = ex.canvases[1:] + (ex.target_canvas,)   # [i]: stages <= i
        for stage in range(last + 1):
            tokens, smap = ex.sequence.stages[stage]
            used[tokens.indices] = True
            pred = content_model.forward_final_canvas(
                np.array([ex.class_id]), [smap], ex.canvases[stage][None])
            logits = content_model.token_logits(pred[0], ex.canvases[stage], smap)
            hits = int((np.argmax(logits.data, axis=1) == tokens.indices).sum())
            token_acc[stage][0] += hits
            token_acc[stage][1] += tokens.indices.size
            recon_mse[stage] += float(np.mean((prefixes[stage] - ex.grid.data) ** 2))

    bit_hits = bit_total = 0
    for ex in examples:
        for stage in range(1, last):
            def velocity_fn(z, t):
                out = structure_model.velocity(
                    np.array([ex.class_id]), [ex.sequence.stages[stage - 1][1]],
                    ex.canvases[stage][None], z[None], np.array([t]))
                return out.data[0]

            pred = flow_sample(velocity_fn, ex.flow_target, stage,
                               n_steps=flow_steps, rng=rng)
            unknown = slice(stage - 1, None)
            pred_bits = pred[:, :, unknown] > 1.0
            true_bits = ex.flow_target[:, :, unknown] > 1.0
            bit_hits += int((pred_bits == true_bits).sum())
            bit_total += pred_bits.size

    return {
        "token_accuracy": {i: a / max(t, 1) for i, (a, t) in token_acc.items()},
        "token_accuracy_overall": (sum(a for a, _ in token_acc.values())
                                   / max(sum(t for _, t in token_acc.values()), 1)),
        "reconstruction_mse_by_prefix": (recon_mse / len(examples)).tolist(),
        "codebook_usage": float(used.mean()),
        "structure_bit_accuracy": bit_hits / max(bit_total, 1),
    }
