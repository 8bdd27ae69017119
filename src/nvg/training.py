"""Training loops for both generators, the warmup-stable-decay learning-rate
schedule and desk-scale evaluation metrics. Both trainers run the one step
loop `_fit` and differ only in how a step draws its batch and its loss."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .autodiff import Adam, Tensor, no_grad
from .backbone import ModelConfig
from .content_model import ContentModel
from .errors import InvariantError, NumericError
from .grid import Codebook, LatentGrid, VGSequence, canvas_prefixes
from .hierarchy import build_hierarchy
from .pipeline import content_logits, flow_stage
from .quantize import build_contents
from .structcode import embed_structure_map
from .structure_model import StructureModel, noised_input

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TokenizedExample",
    "tokenize_dataset",
    "check_training_budget",
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
    canvases: tuple          # the K+2 canvas_prefixes; [-1] is the target
    flow_target: np.ndarray  # the finest map's embedding, float32 (h, w, K)


def tokenize_dataset(dataset, codebook: Codebook, refiners) -> list:
    """Tokenize (class_id, LatentGrid) pairs into teacher-forcing material."""
    out = []
    for class_id, grid in dataset:
        seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
        canvases = tuple(p.data for p in canvas_prefixes(seq, codebook, refiners))
        flow_target = embed_structure_map(seq.stages[-1][1], seq.last_stage)
        out.append(TokenizedExample(class_id, grid, seq, canvases,
                                    flow_target.astype(np.float32)))
    return out


@dataclass(eq=False)
class TrainResult:
    losses: list = field(default_factory=list)


def check_training_budget(model: ModelConfig, config: TrainConfig) -> None:
    """Refuse, from the two configs alone, a training run whose arrays would
    fail `errors.check_alloc`: a step's float32 attention scores, batch x
    heads x S, where a row has hw = 2^last_stage tokens a run and S counts
    exactly the scores the step's blocks run: depth (1 + hw)^2 for content's
    class and canvas rows; for structure (depth - 1)(1 + hw)^2 for its
    context pass, whose last block builds only keys and values, plus
    depth hw (1 + 2 hw) for its noised rows against every row; or the
    weights a step holds, 4x `ModelConfig.weight_bytes`, every float32
    tensor of the model's table (at its update a parameter holds its weight,
    its gradient and Adam's two moments). Needs no data, so the CLI runs it
    before tokenizing, and `_fit` before its first draw."""
    hw, depth = 1 << model.last_stage, model.depth
    if model.kind == "structure":
        scores = (depth - 1) * (1 + hw) ** 2 + depth * hw * (1 + 2 * hw)
    else:
        scores = depth * (1 + hw) ** 2
    errors.check_alloc(4 * config.batch_size * model.heads * scores,
                       f"batch {config.batch_size}", f"{model.kind} attention scores a step")
    errors.check_alloc(4 * model.weight_bytes,
                       f"training a depth-{model.depth} {model.kind} model",
                       "weights, gradients and Adam moments")


def _last_stage(examples: list) -> int:
    if not examples:
        raise InvariantError("no training examples")
    return examples[0].sequence.last_stage


def _fit(model, config: TrainConfig, batch_loss, last: int) -> TrainResult:
    """The step loop of both trainers: batch_loss(rng) returns the step's
    loss; a non-finite loss raises NumericError before any parameter moves.
    First it refuses examples that reach past the model's last stage, whose
    rows the budget counts, then runs `check_training_budget`."""
    if last > model.config.last_stage:
        raise InvariantError(f"examples reach stage {last}, past the {model.kind} model's "
                             f"last stage {model.config.last_stage}")
    check_training_budget(model.config, config)
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.params())
    result = TrainResult()
    for step in range(config.steps):
        loss = batch_loss(rng)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"{model.kind} training diverged at step {step} (loss {value})")
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
        targets = np.stack([ex.canvases[-1] for ex, _ in rows])
        tokens = [ex.sequence.stages[stage][0].indices for ex, stage in rows]
        return model.loss(class_ids, smaps, canvases, targets, tokens, rng=rng)

    return _fit(model, config, batch_loss, last)


def train_structure(examples: list, model: StructureModel, config: TrainConfig) -> TrainResult:
    """Velocity-matching training of the structure generator.

    Per sample: a stage uniform in [1, K-1], a time uniform in [0, 1], fresh
    noise, the clamped noised grid, and a squared error on the velocity
    restricted to the unknown columns. The step runs the model as sampling
    does, `context` then `velocity`, on the tape, so the trained function is
    the sampled one.
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

        vel = model.velocity(model.context(class_ids, parents, canvases, rng=rng), zs, ts,
                             rng=rng)
        diff = vel - Tensor(targets)
        return (diff * diff * mask).sum() / float(mask.sum())

    return _fit(model, config, batch_loss, last)


@no_grad()
def evaluate(content_model: ContentModel, structure_model: StructureModel,
             examples: list, codebook: Codebook, seed: int = 0,
             flow_steps: int = 10) -> dict:
    """Teacher-forced token accuracy per stage, prefix reconstruction error,
    codebook usage and structure bit agreement on unknown columns.

    Both steps run as in `generate`, through `pipeline.content_logits` and
    `pipeline.flow_stage` unguided (scale 1.0), on each example's own maps
    and canvases: the flow builds one context per (example, stage), stage 1
    from noise and each later stage warm started from the previous prediction.
    """
    last = _last_stage(examples)
    if content_model.config.codebook_size != codebook.size:
        raise InvariantError(f"content model scores {content_model.config.codebook_size} "
                             f"codebook rows, the codebook has {codebook.size}")
    if any(int(t.indices.max()) >= codebook.size for ex in examples for t, _ in ex.sequence.stages):
        raise InvariantError(f"an example's tokens index past the codebook of {codebook.size}")
    token_acc = {i: [0, 0] for i in range(last + 1)}
    recon_mse = np.zeros(last + 1, dtype=np.float64)
    used = np.zeros(codebook.size, dtype=bool)
    rng = np.random.default_rng(seed)

    for ex in examples:
        for stage, (tokens, smap) in enumerate(ex.sequence.stages):
            used[tokens.indices] = True
            logits = content_logits(content_model, ex.class_id, 1.0, smap, ex.canvases[stage])
            token_acc[stage][0] += int((np.argmax(logits, axis=1) == tokens.indices).sum())
            token_acc[stage][1] += tokens.indices.size
            recon_mse[stage] += float(np.mean((ex.canvases[stage + 1] - ex.grid.data) ** 2))

    bit_hits = bit_total = 0
    for ex in examples:
        pred = None     # the previous stage's prediction, as `generate` warm starts
        for stage in range(1, last):
            pred, _ = flow_stage(structure_model, ex.class_id, 1.0,
                                 ex.sequence.stages[stage - 1][1], ex.canvases[stage],
                                 flow_steps, rng, pred)
            agree = (pred[:, :, stage - 1:] > 1.0) == (ex.flow_target[:, :, stage - 1:] > 1.0)
            bit_hits += int(agree.sum())
            bit_total += agree.size

    return {
        "token_accuracy": {i: a / max(t, 1) for i, (a, t) in token_acc.items()},
        "token_accuracy_overall": (sum(a for a, _ in token_acc.values())
                                   / max(sum(t for _, t in token_acc.values()), 1)),
        "reconstruction_mse_by_prefix": (recon_mse / len(examples)).tolist(),
        "codebook_usage": float(used.mean()),
        "structure_bit_accuracy": bit_hits / max(bit_total, 1),
    }
