"""Checkpoint glue: models and refiner stacks to/from the container format."""

from __future__ import annotations

import numpy as np

from .backbone import ModelConfig
from .content_model import ContentModel
from .errors import FormatError, InvariantError
from .io import read_checkpoint, write_checkpoint
from .quantize import Refiner
from .structure_model import StructureModel

__all__ = [
    "save_model", "load_model", "save_refiners", "load_refiners",
]


# model meta fields and their JSON types; bool is rejected where int is due.
# Any other meta key is ignored, such as the "norm" older files carry.
_CONFIG_FIELDS = {"kind": str, "depth": int, "latent_channels": int,
                  "codebook_size": int, "num_classes": int, "last_stage": int}


def save_model(path, model) -> None:
    meta = {"type": "model", **{k: getattr(model.config, k) for k in _CONFIG_FIELDS}}
    write_checkpoint(path, meta, model.state_arrays())


def _witness_shapes(config: ModelConfig) -> dict:
    """Shapes of the arrays that pin each config size but the depth: the
    width, the class and stage counts, the latent channels and, for the
    content model, the codebook size. With the block count, they are checked
    before the model is built, so a meta cannot make it allocate more than
    its own arrays carry."""
    w, e = config.width, config.latent_channels
    shapes = {"block0.w_fused": (w, 7 * w),
              "class_emb": (config.num_classes + 1, w),
              "stage_emb": (config.last_stage + 1, w)}
    if config.kind == "content":
        shapes["w_logit"] = (e, config.codebook_size)
    else:
        shapes["w_in_canvas"] = (e, w)
    return shapes


def load_model(path):
    meta, arrays = read_checkpoint(path)
    if meta.get("type") != "model":
        raise FormatError(f"checkpoint at {path} is not a model")
    for name, kind in _CONFIG_FIELDS.items():
        if type(meta.get(name)) is not kind:
            raise FormatError(f"model checkpoint at {path} needs a {kind.__name__} "
                              f"{name!r} in its meta")
    try:
        config = ModelConfig(**{k: meta[k] for k in _CONFIG_FIELDS})
    except InvariantError as exc:
        raise FormatError(f"model checkpoint at {path} has an invalid config: {exc}") from exc
    blocks = {k.split(".", 1)[0] for k in arrays if k.startswith("block")}
    # the count first: a meta's depth may be far larger than the file
    if len(blocks) != config.depth or blocks != {f"block{i}" for i in range(config.depth)}:
        raise FormatError(f"model checkpoint at {path} holds {len(blocks)} blocks, "
                          f"its meta says depth {config.depth}")
    for name, shape in _witness_shapes(config).items():
        got = arrays[name].shape if name in arrays else None
        if got != shape:
            raise FormatError(f"model checkpoint at {path}: {name} is {got}, "
                              f"its meta implies {shape}")
    cls = ContentModel if config.kind == "content" else StructureModel
    model = cls(config, seed=0)
    try:
        model.load_state_arrays(arrays)
    except InvariantError as exc:
        raise FormatError(f"model checkpoint at {path} does not fit its meta: {exc}") from exc
    return model


def save_refiners(path, refiners) -> None:
    meta = {"type": "refiners", "count": len(refiners),
            "channels": refiners[0].channels if refiners else 0}
    arrays = {}
    for i, r in enumerate(refiners):
        arrays[f"refiner{i}.weight"] = r.weight
        arrays[f"refiner{i}.bias"] = r.bias
    write_checkpoint(path, meta, arrays)


def load_refiners(path) -> list:
    meta, arrays = read_checkpoint(path)
    if meta.get("type") != "refiners":
        raise FormatError(f"checkpoint at {path} is not a refiner stack")
    count = meta.get("count")
    if type(count) is not int or count < 0:
        raise FormatError(f"refiner checkpoint at {path} needs a non-negative int "
                          f"'count' in its meta")
    out = []
    for i in range(count):
        try:
            weight = arrays[f"refiner{i}.weight"]
            bias = arrays[f"refiner{i}.bias"]
        except KeyError as exc:
            raise FormatError(f"refiner stack misses stage {i}") from exc
        e = bias.shape[0] if bias.ndim == 1 else -1
        if weight.shape != (3, 3, e, e):
            raise FormatError(f"refiner {i} at {path} has weight {weight.shape} and "
                              f"bias {bias.shape}; want (3, 3, e, e) and (e,)")
        out.append(Refiner(weight.astype(np.float32), bias.astype(np.float32)))
    return out
