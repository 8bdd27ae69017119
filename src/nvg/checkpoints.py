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


# model meta fields and their JSON types; bool is rejected where int is due
_CONFIG_FIELDS = {"kind": str, "depth": int, "latent_channels": int,
                  "codebook_size": int, "num_classes": int, "last_stage": int,
                  "norm": str}


def save_model(path, model) -> None:
    meta = {"type": "model", **{k: getattr(model.config, k) for k in _CONFIG_FIELDS}}
    write_checkpoint(path, meta, model.state_arrays())


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
    cls = ContentModel if config.kind == "content" else StructureModel
    model = cls(config, seed=0)
    model.load_state_arrays(arrays)
    return model


def save_refiners(path, refiners) -> None:
    meta = {"type": "refiners", "count": len(refiners),
            "channels": refiners[0].channels if refiners else 0}
    arrays = {}
    for r in refiners:
        arrays[f"refiner{r.stage}.weight"] = r.weight
        arrays[f"refiner{r.stage}.bias"] = r.bias
    write_checkpoint(path, meta, arrays)


def load_refiners(path) -> list:
    meta, arrays = read_checkpoint(path)
    if meta.get("type") != "refiners":
        raise FormatError(f"checkpoint at {path} is not a refiner stack")
    count = int(meta["count"])
    out = []
    for i in range(count):
        try:
            weight = arrays[f"refiner{i}.weight"]
            bias = arrays[f"refiner{i}.bias"]
        except KeyError as exc:
            raise FormatError(f"refiner stack misses stage {i}") from exc
        out.append(Refiner(i, weight.astype(np.float32), bias.astype(np.float32)))
    return out
