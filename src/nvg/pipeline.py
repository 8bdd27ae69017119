"""Staged generation: per stage, realize the structure map (trivial, flow
sampled, forced, or user-supplied), sample that stage's tokens from guided
top-p filtered logits, and add the refined placement onto the canvas.

Guidance and nucleus schedules sharpen over the stages: top-p decays
log-linearly from 1.0 to 0.5 and the guidance scale grows linearly to 2.5
(structure) or 3.5 (content); `cfg_forward` applies guidance to both the flow
velocity and the token logits. User overrides replace sampling per stage and
mix freely with generated stages as long as parent-consistency holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import no_grad
from .content_model import ContentModel
from .errors import InvariantError, NumericError
from .grid import (
    Codebook,
    ContentTokens,
    LatentGrid,
    StructureMap,
    VGSequence,
    assign,
    parent_consistent,
)
from .hierarchy import _canonical_split
from .structcode import embed_structure_map
from .structure_model import StructureModel, flow_sample, gumbel_balanced_split

__all__ = ["ScheduleParams", "GenerationRequest", "GenerationStats",
           "GenerationResult", "cfg_schedule", "top_p_schedule", "cfg_forward",
           "sample_token", "forced_final_split", "generate"]

CFG_CONTENT_END = 3.5      # content guidance scale at the last stage
CFG_STRUCTURE_END = 2.5    # structure guidance scale at the last flow stage
TOP_P_END = 0.5            # nucleus width at the last stage


@dataclass(frozen=True)
class ScheduleParams:
    flow_steps: int = 25
    cfg_constant: float | None = None     # overrides both ramps when set
    top_p_constant: float | None = None

    def __post_init__(self):
        if self.flow_steps < 1:
            raise InvariantError("flow_steps must be positive")


@dataclass(frozen=True, eq=False)
class GenerationRequest:
    class_id: int
    seed: int
    h: int
    w: int
    e: int
    structure_overrides: dict = field(default_factory=dict)   # stage -> StructureMap
    content_overrides: dict = field(default_factory=dict)     # stage -> ContentTokens
    schedule: ScheduleParams = field(default_factory=ScheduleParams)

    def __post_init__(self):
        hw = self.h * self.w
        if min(self.h, self.w) < 1 or hw & (hw - 1):
            raise InvariantError("h and w must be positive and h*w a power of two")
        last = hw.bit_length() - 1
        for stage, smap in self.structure_overrides.items():
            if not isinstance(smap, StructureMap) or smap.stage != stage:
                raise InvariantError(f"override at stage {stage} has wrong stage tag")
            if smap.labels.shape != (self.h, self.w):
                raise InvariantError(f"override at stage {stage} has wrong shape")
            if stage < 0 or stage > last:
                raise InvariantError(f"override stage {stage} outside [0, {last}]")
        # overridden stages must nest with each other (ancestor labels agree)
        stages = sorted(self.structure_overrides)
        for a, b in zip(stages, stages[1:]):
            if not parent_consistent(self.structure_overrides[a],
                                     self.structure_overrides[b]):
                raise InvariantError(
                    f"structure overrides at stages {a} and {b} are not nested")
        for stage, tokens in self.content_overrides.items():
            if not isinstance(tokens, ContentTokens) or tokens.stage != stage:
                raise InvariantError(f"token override at stage {stage} has wrong stage tag")

    @property
    def last_stage(self) -> int:
        return (self.h * self.w).bit_length() - 1


@dataclass
class GenerationStats:
    """Sampling-step counters: one content step per generated stage, one flow
    step per Euler update (guidance pairs count as one step)."""

    content_steps: int = 0
    flow_steps: int = 0


@dataclass(frozen=True, eq=False)
class GenerationResult:
    sequence: VGSequence
    canvas: LatentGrid
    stats: GenerationStats


def cfg_schedule(stage: int, kind: str, last_stage: int) -> float:
    """Linearly rising guidance scale over the stages the generator runs."""
    if kind == "content":
        if not 0 <= stage <= last_stage:
            raise InvariantError(f"content runs at stages 0..{last_stage}")
        frac = stage / last_stage if last_stage else 0.0
        return 1.0 + (CFG_CONTENT_END - 1.0) * frac
    if kind == "structure":
        if not 1 <= stage <= last_stage - 1:
            raise InvariantError(f"structure runs at stages 1..{last_stage - 1}")
        span = last_stage - 2
        frac = (stage - 1) / span if span > 0 else 0.0
        return 1.0 + (CFG_STRUCTURE_END - 1.0) * frac
    raise InvariantError(f"unknown generator kind {kind!r}")


def top_p_schedule(stage: int, last_stage: int) -> float:
    """Log-linear nucleus width: 1.0 at stage 0 down to TOP_P_END at the end."""
    if not 0 <= stage <= last_stage:
        raise InvariantError(f"stage {stage} outside [0, {last_stage}]")
    if last_stage == 0:
        return 1.0
    return float(TOP_P_END ** (stage / last_stage))


def cfg_forward(forward, class_id: int, null_id: int, scale: float) -> np.ndarray:
    """Classifier-free guidance: null + scale * (cond - null).

    forward(class_ids) runs one batch and returns its rows in order. Scale 1
    runs [class_id] alone and returns its row; any other scale runs
    [class_id, null_id] as one B=2 batch and combines the two rows.
    """
    if scale == 1.0:
        return forward(np.array([class_id]))[0]
    cond, null = forward(np.array([class_id, null_id]))
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


def _canonical_child(parent_map: StructureMap, child_flat: np.ndarray) -> StructureMap:
    """The child map that halves each parent cluster as child_flat does,
    labelled as training maps are: the half holding the smaller row-major
    location gets 2j."""
    child = _canonical_split(parent_map.labels.ravel(), child_flat, parent_map.stage)
    return StructureMap(parent_map.stage + 1, child.reshape(parent_map.labels.shape))


def forced_final_split(parent_map: StructureMap) -> StructureMap:
    """Deterministic split of 2-element clusters into singletons; the child
    holding the smaller row-major location gets label 2j."""
    if parent_map.cluster_size != 2:
        raise InvariantError("forced split needs clusters of exactly two locations")
    return _canonical_child(parent_map, np.arange(parent_map.labels.size))


@no_grad()
def generate(req: GenerationRequest, content_model: ContentModel,
             structure_model: StructureModel, codebook: Codebook,
             refiners) -> GenerationResult:
    """Run the full staged loop and return (sequence, canvas, step counters).

    Runs without a tape. Every flow step and content step goes through
    `cfg_forward`, so a guided step is one B=2 forward. Both models are
    given the realized maps, never ids: the flow at stage k reads the
    stage-(k-1) map, and the content step reads the stage-k map. The flow's
    known columns are the stage-(k-1) map's embedding, the same
    `embed_structure_map` rule the trainers' flow target follows; with
    canonical nesting its column j is 2 * (stage-(j+1) label & 1).
    """
    last = req.last_stage
    h, w_grid, e = req.h, req.w, req.e
    if codebook.dim != e:
        raise InvariantError("codebook dim does not match the request")
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

    rng = np.random.default_rng(req.seed)
    sched = req.schedule
    null_id = content_model.config.null_class_id
    stats = GenerationStats()

    x = np.zeros((h, w_grid, e), dtype=np.float32)
    maps: list[StructureMap] = []
    stages = []

    for k in range(last + 1):
        # ---- structure ----
        if k == 0:
            smap = StructureMap(0, np.zeros((h, w_grid), dtype=np.int32))
        elif k in req.structure_overrides:
            smap = req.structure_overrides[k]
            if not parent_consistent(maps[k - 1], smap):
                raise InvariantError(
                    f"structure override at stage {k} is not parent-consistent "
                    f"with the realized stage {k - 1}")
        elif k == last:
            smap = forced_final_split(maps[k - 1])
        else:
            scale = sched.cfg_constant if sched.cfg_constant is not None else \
                cfg_schedule(k, "structure", last)

            def velocity_fn(z, t):
                def rows(classes):
                    n = len(classes)
                    return structure_model.velocity(
                        classes, [maps[-1]] * n, np.repeat(x[None], n, axis=0),
                        np.repeat(z[None], n, axis=0), np.full(n, t)).data
                return cfg_forward(rows, req.class_id, null_id, scale)

            known = embed_structure_map(maps[-1], last).astype(np.float32)
            pred = flow_sample(velocity_fn, known, stage=k, n_steps=sched.flow_steps, rng=rng)
            stats.flow_steps += sched.flow_steps
            # the flow predicts column k-1 as 2 * (label & 1), so its high
            # scores mark 2j + 1, where the split puts 2j: keep the split's
            # halves and label them canonically, as every training map is
            split = gumbel_balanced_split(maps[k - 1], pred[:, :, k - 1], rng)
            smap = _canonical_child(maps[k - 1], split.labels.ravel())
        maps.append(smap)

        # ---- content ----
        if k in req.content_overrides:
            tokens = req.content_overrides[k]
        else:
            scale = sched.cfg_constant if sched.cfg_constant is not None else \
                cfg_schedule(k, "content", last)
            p = sched.top_p_constant if sched.top_p_constant is not None else \
                top_p_schedule(k, last)

            def logit_rows(classes):
                n = len(classes)
                pred = content_model.forward_final_canvas(
                    classes, [smap] * n, np.repeat(x[None], n, axis=0))
                return [content_model.token_logits(pred[b], x, smap).data for b in range(n)]

            logits = cfg_forward(logit_rows, req.class_id, null_id, scale)
            indices = np.array([sample_token(logits[j], p, rng)
                                for j in range(smap.num_clusters)], dtype=np.int32)
            tokens = ContentTokens(k, indices)
            stats.content_steps += 1

        x = x + refiners[k].apply(assign(tokens, smap, codebook).data)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"canvas turned non-finite after the stage-{k} refiner")
        stages.append((tokens, smap))

    return GenerationResult(VGSequence(tuple(stages)), LatentGrid(x), stats)
