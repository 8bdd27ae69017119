"""Staged generation: per stage, realize the structure map (trivial, flow
sampled, forced, or user-supplied), sample that stage's tokens from guided
top-p filtered logits, and add the refined placement onto the canvas
(`grid.add_stage`, the decoder's one step).

The sampler's two steps are one function each, which `generate` and,
unguided, `training.evaluate` call: `flow_stage` splits the parent map by
the rectified flow, and `content_logits` scores each cluster's tokens.
Guidance and nucleus schedules (`ScheduleParams`) sharpen over the stages:
top-p decays log-linearly from 1.0 to 0.5 and the guidance scale grows
linearly to 2.5 (structure) or 3.5 (content). A guided step runs the
`guidance_classes` rows and `guided` combines them. A flow stage runs its
class token and canvas rows once, in one `StructureModel.context`, and each
Euler step's `velocity` runs only the noised rows against it. A request may
fix a structure prefix, the maps of stages 0..k given by one canonical
stage-k map, and the tokens of any stages; the generators sample the rest.

The first flow stage starts from noise at t = 1. Each later one is warm
started from the stage before it, whose flow already predicted every column
it inpaints: it starts at `structure_model.WARM_T` and runs that fraction of
`ScheduleParams.flow_steps` (see `flow_sample`). A flow stage right after a
fixed prefix has no prediction to start from and starts from noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad
from .backbone import STRUCT_SLOTS
from .content_model import ContentModel
from .errors import InvariantError, NumericError
from .grid import (Codebook, ContentTokens, LatentGrid, StructureMap, VGSequence, add_stage,
                   last_stage_of)
from .hierarchy import canonical_child, reindex_hierarchy
from .structcode import embed_structure_map
from .structure_model import StructureModel, flow_sample, gumbel_balanced_split

__all__ = ["ScheduleParams", "GenerationRequest", "GenerationStats", "GenerationResult",
           "guidance_classes", "guided", "sample_token", "forced_final_split",
           "content_logits", "flow_stage", "generate"]

CFG_CONTENT_END = 3.5      # content guidance scale at the last stage
CFG_STRUCTURE_END = 2.5    # structure guidance scale at the last flow stage
TOP_P_END = 0.5            # nucleus width at the last stage


@dataclass(frozen=True)
class ScheduleParams:
    """Per-stage guidance scales and nucleus widths: each method returns its
    ramp, or the constant when one is set, and refuses a stage its generator
    does not run (the flow runs at stages 1..last-1, content at 0..last)."""

    flow_steps: int = 25
    cfg_constant: float | None = None     # overrides both ramps when set
    top_p_constant: float | None = None

    def __post_init__(self):
        if self.flow_steps < 1:
            raise InvariantError("flow_steps must be positive")
        if self.cfg_constant is not None and not math.isfinite(self.cfg_constant):
            raise InvariantError(f"guidance scale must be finite, got {self.cfg_constant}")
        if self.top_p_constant is not None and not 0.0 < self.top_p_constant <= 1.0:
            raise InvariantError(f"top-p must lie in (0, 1], got {self.top_p_constant}")

    def content_scale(self, stage: int, last: int) -> float:
        """1.0 at stage 0, rising linearly to CFG_CONTENT_END at the last."""
        if not 0 <= stage <= last:
            raise InvariantError(f"content runs at stages 0..{last}")
        if self.cfg_constant is not None:
            return self.cfg_constant
        return 1.0 + (CFG_CONTENT_END - 1.0) * (stage / last if last else 0.0)

    def structure_scale(self, stage: int, last: int) -> float:
        """1.0 at stage 1, rising linearly to CFG_STRUCTURE_END at last - 1."""
        if not 1 <= stage <= last - 1:
            raise InvariantError(f"structure runs at stages 1..{last - 1}")
        if self.cfg_constant is not None:
            return self.cfg_constant
        return 1.0 + (CFG_STRUCTURE_END - 1.0) * ((stage - 1) / (last - 2) if last > 2 else 0.0)

    def top_p(self, stage: int, last: int) -> float:
        """Log-linear: 1.0 at stage 0 down to TOP_P_END at the last."""
        if not 0 <= stage <= last:
            raise InvariantError(f"stage {stage} outside [0, {last}]")
        if self.top_p_constant is not None:
            return self.top_p_constant
        return float(TOP_P_END ** (stage / last)) if last else 1.0


@dataclass(frozen=True, eq=False)
class GenerationRequest:
    """One sample. A stage-k `structure_prefix` fixes stages 0..k: stage i is
    `labels >> (k - i)`, the only map it nests in. `fixed_maps` holds those
    maps, and `reindex_hierarchy` must leave each unchanged: each is the
    `canonical_child` of the one before, as every training map is. Without a
    prefix only the stage-0 map is fixed."""

    class_id: int
    seed: int
    h: int
    w: int
    e: int
    structure_prefix: StructureMap | None = None
    content_overrides: dict = field(default_factory=dict)     # stage -> ContentTokens
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    fixed_maps: tuple = field(init=False)
    last_stage: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "last_stage", last_stage_of(self.h, self.w))
        if self.last_stage > STRUCT_SLOTS:      # before the stage-0 map is allocated
            raise InvariantError(f"rotary layout supports at most {STRUCT_SLOTS} stages, "
                                 f"got {self.last_stage}")
        prefix = self.structure_prefix or StructureMap(0, np.zeros((self.h, self.w), np.int32))
        if prefix.labels.shape != (self.h, self.w):
            raise InvariantError(f"override at stage {prefix.stage} has wrong shape")
        chain = [StructureMap(i, prefix.labels >> (prefix.stage - i))
                 for i in range(prefix.stage + 1)]
        object.__setattr__(self, "fixed_maps", reindex_hierarchy(chain))
        for i, (smap, given) in enumerate(zip(self.fixed_maps, chain)):
            if not np.array_equal(smap.labels, given.labels):
                raise InvariantError(f"structure prefix at stage {i} is not the "
                                     f"canonical child of its stage {i - 1}")
        for stage, tokens in self.content_overrides.items():
            if not isinstance(tokens, ContentTokens) or tokens.stage != stage:
                raise InvariantError(f"token override at stage {stage} has wrong stage tag")
            if stage > self.last_stage:
                raise InvariantError(f"token override at stage {stage} is past the last stage")


@dataclass
class GenerationStats:
    """Sampling-step counters: one content step per generated stage, one flow
    step per Euler update that ran (guidance pairs count as one step; a
    warm-started stage runs fewer than `ScheduleParams.flow_steps`)."""

    content_steps: int = 0
    flow_steps: int = 0


@dataclass(frozen=True, eq=False)
class GenerationResult:
    sequence: VGSequence
    canvas: LatentGrid
    stats: GenerationStats


def guidance_classes(class_id: int, null_id: int, scale: float) -> np.ndarray:
    """The rows a guided forward runs: [class_id] alone at scale 1, where the
    null row would cancel, otherwise [class_id, null_id] as one B=2 batch."""
    return np.array([class_id] if scale == 1.0 else [class_id, null_id])


def guided(rows, scale: float) -> np.ndarray:
    """Classifier-free guidance of the `guidance_classes` rows, in order: the
    class row alone, or null + scale * (cond - null)."""
    if len(rows) == 1:
        return rows[0]
    cond, null = rows
    # a non-finite row is the caller's to report (as NumericError); numpy's
    # inf - inf warning would only precede that report
    with np.errstate(invalid="ignore", over="ignore"):
        return null + scale * (cond - null)


def sample_token(logits: np.ndarray, p: float, rng) -> int:
    """Nucleus sampling: keep the smallest descending-probability prefix with
    cumulative mass >= p, renormalize, draw. Ties sort by lowest index."""
    if not 0.0 < p <= 1.0:
        raise InvariantError(f"top-p must lie in (0, 1], got {p}")
    rng = np.random.default_rng(rng)
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NumericError("cannot sample from non-finite logits")
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    order = np.argsort(-logits, kind="stable")
    cum = np.cumsum(probs[order])
    cut = int(np.searchsorted(cum, p, side="left"))
    cut = min(cut, logits.size - 1)
    kept = order[:cut + 1]
    kept_probs = probs[kept]
    kept_probs /= kept_probs.sum()
    r = rng.random()
    pick = int(np.searchsorted(np.cumsum(kept_probs), r, side="right"))
    return int(kept[min(pick, kept.size - 1)])


def forced_final_split(parent_map: StructureMap) -> StructureMap:
    """Deterministic split of 2-element clusters into singletons, labelled by
    `canonical_child`: the smaller row-major location gets 2j."""
    if parent_map.cluster_size != 2:
        raise InvariantError("forced split needs clusters of exactly two locations")
    return canonical_child(parent_map, np.arange(parent_map.labels.size))


def content_logits(content_model: ContentModel, class_id: int, scale: float,
                   smap: StructureMap, canvas: np.ndarray) -> np.ndarray:
    """The guided (clusters, codebook) token logits of one content step: the
    `guidance_classes` rows through `forward_final_canvas` and `token_logits`,
    combined by `guided`."""
    classes = guidance_classes(class_id, content_model.config.null_class_id, scale)
    n = len(classes)
    pred = content_model.forward_final_canvas(classes, [smap] * n,
                                              np.repeat(canvas[None], n, axis=0))
    return guided([content_model.token_logits(pred[b], canvas, smap).data
                   for b in range(n)], scale)


def flow_stage(structure_model: StructureModel, class_id: int, scale: float,
               parent: StructureMap, canvas: np.ndarray, n_steps: int, rng,
               warm: np.ndarray | None) -> tuple:
    """One flow stage, the split of `parent`: `flow_sample` of the guided
    velocity, from one context for the `guidance_classes` rows every Euler
    step runs. The known columns are `parent`'s `embed_structure_map`. Returns
    the full-depth prediction and the number of Euler steps that ran."""
    classes = guidance_classes(class_id, structure_model.config.null_class_id, scale)
    n = len(classes)
    context = structure_model.context(classes, [parent] * n, np.repeat(canvas[None], n, axis=0))
    steps = 0

    def velocity_fn(z, t):
        nonlocal steps
        steps += 1
        return guided(structure_model.velocity(context, np.repeat(z[None], n, axis=0),
                                               np.full(n, t)).data, scale)

    known = embed_structure_map(parent, last_stage_of(*parent.labels.shape))
    pred = flow_sample(velocity_fn, known.astype(np.float32), stage=parent.stage + 1,
                       n_steps=n_steps, rng=rng, warm=warm)
    return pred, steps


@no_grad()
def generate(req: GenerationRequest, content_model: ContentModel,
             structure_model: StructureModel, codebook: Codebook,
             refiners) -> GenerationResult:
    """Run the full staged loop and return (sequence, canvas, step counters).

    Runs without a tape. Every scale and top-p is `req.schedule`'s. Both models
    are given the realized maps, never ids: the flow at stage k reads the
    stage-(k-1) map, and the content step reads the stage-k map. A stage's
    map is the request's fixed one, `forced_final_split`'s at the last stage
    or the flow's; all are labelled by `canonical_child`, as training maps are.
    Each flow stage but the first is warm started from the previous flow
    stage's prediction, `flow_pred`; a stage after a fixed prefix has none.
    """
    last = req.last_stage
    h, w_grid, e = req.h, req.w, req.e
    if codebook.dim != e:
        raise InvariantError("codebook dim does not match the request")
    if content_model.config.codebook_size != codebook.size:
        raise InvariantError(f"content model scores {content_model.config.codebook_size} "
                             f"codebook rows, the codebook has {codebook.size}")
    if content_model.config.last_stage != last or structure_model.config.last_stage != last:
        raise InvariantError("model stage depth does not match the request")
    if len(refiners) != last + 1:
        raise InvariantError(f"need {last + 1} refiners, got {len(refiners)}")
    if not 0 <= req.class_id < content_model.config.num_classes:
        raise InvariantError("class id out of range")
    if structure_model.config.num_classes != content_model.config.num_classes:
        raise InvariantError("content and structure models disagree on the class count")
    for model in (content_model, structure_model):
        if model.config.latent_channels != e:
            raise InvariantError(f"{model.config.kind} model expects "
                                 f"{model.config.latent_channels} latent channels, not {e}")
    for stage, tokens in req.content_overrides.items():
        if int(tokens.indices.max()) >= codebook.size:
            raise InvariantError(f"token override at stage {stage} indexes past "
                                 f"the codebook of {codebook.size}")

    rng = np.random.default_rng(req.seed)
    sched = req.schedule
    stats = GenerationStats()

    x = np.zeros((h, w_grid, e), dtype=np.float32)
    stages = []
    flow_pred = None     # the last flow stage's full-depth prediction

    for k in range(last + 1):
        # ---- structure ----
        if k < len(req.fixed_maps):
            smap = req.fixed_maps[k]
        elif k == last:
            smap = forced_final_split(stages[-1][1])
        else:
            parent = stages[-1][1]
            flow_pred, steps = flow_stage(structure_model, req.class_id,
                                          sched.structure_scale(k, last), parent, x,
                                          sched.flow_steps, rng, flow_pred)
            stats.flow_steps += steps
            smap = gumbel_balanced_split(parent, flow_pred[:, :, k - 1], rng)

        # ---- content ----
        if k in req.content_overrides:
            tokens = req.content_overrides[k]
        else:
            scale, p = sched.content_scale(k, last), sched.top_p(k, last)
            logits = content_logits(content_model, req.class_id, scale, smap, x)
            indices = np.array([sample_token(logits[j], p, rng)
                                for j in range(smap.num_clusters)], dtype=np.int32)
            tokens = ContentTokens(k, indices)
            stats.content_steps += 1

        x = add_stage(x, tokens, smap, codebook, refiners[k])
        stages.append((tokens, smap))

    return GenerationResult(VGSequence(tuple(stages)), LatentGrid(x), stats)
