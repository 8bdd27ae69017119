"""Checkpoint glue: models and refiner stacks to/from the container format."""

from __future__ import annotations

from .backbone import ModelConfig
from .content_model import ContentModel
from .errors import FormatError, InvariantError
from .io import read_checkpoint, write_checkpoint
from .quantize import Refiner
from .structure_model import LAYOUT, StructureModel

__all__ = [
    "save_model", "load_model", "save_refiners", "load_refiners",
]


# model meta fields and their JSON types; bool is rejected where int is due.
# Any other meta key is ignored, such as the "norm" older files carry.
_CONFIG_FIELDS = {"kind": str, "depth": int, "latent_channels": int,
                  "codebook_size": int, "num_classes": int, "last_stage": int}


# the attention layout each kind's files are tagged with; content files carry none
_LAYOUTS = {"structure": LAYOUT}


def save_model(path, model) -> None:
    meta = {"type": "model", **{k: getattr(model.config, k) for k in _CONFIG_FIELDS}}
    if model.config.kind in _LAYOUTS:
        meta["layout"] = _LAYOUTS[model.config.kind]
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
    # the same shapes trained for another attention layout would load silently
    if meta.get("layout") != _LAYOUTS.get(config.kind):
        raise FormatError(f"{config.kind} checkpoint at {path} has attention layout "
                          f"{meta.get('layout')!r}, this version reads "
                          f"{_LAYOUTS.get(config.kind)!r}; retrain it")
    # checked before any tensor: a meta cannot allocate past its own arrays
    model_cls = ContentModel if config.kind == "content" else StructureModel
    try:
        return model_cls(config, arrays=arrays)
    except InvariantError as exc:
        raise FormatError(f"model checkpoint at {path}: {exc}") from exc


def _check_stack(path, stages, e: int) -> None:
    """The one rule of a refiner file: every stage is a (3, 3, e, e) weight
    and an (e,) bias, for the meta's e channels."""
    for i, (weight, bias) in enumerate(stages):
        if weight.shape != (3, 3, e, e) or bias.shape != (e,):
            raise FormatError(f"refiner {i} at {path} has weight {weight.shape} and "
                              f"bias {bias.shape}; its meta's {e} channels want "
                              f"{(3, 3, e, e)} and {(e,)}")


def save_refiners(path, refiners) -> None:
    """Write a stack whose meta's `channels` are the first refiner's; a stack
    of mixed channel counts is refused before anything is written."""
    e = refiners[0].channels if refiners else 0
    _check_stack(path, [(r.weight, r.bias) for r in refiners], e)
    meta = {"type": "refiners", "count": len(refiners), "channels": e}
    arrays = {}
    for i, r in enumerate(refiners):
        arrays[f"refiner{i}.weight"] = r.weight
        arrays[f"refiner{i}.bias"] = r.bias
    write_checkpoint(path, meta, arrays)


def load_refiners(path) -> list:
    """A refiner stack whose arrays are exactly the meta's `count` stages of
    its `channels` channels, each a (3, 3, e, e) weight and an (e,) bias."""
    meta, arrays = read_checkpoint(path)
    if meta.get("type") != "refiners":
        raise FormatError(f"checkpoint at {path} is not a refiner stack")
    for name in ("count", "channels"):
        if type(meta.get(name)) is not int or meta[name] < 0:
            raise FormatError(f"refiner checkpoint at {path} needs a non-negative int "
                              f"{name!r} in its meta")
    count, e = meta["count"], meta["channels"]
    stages = []
    for i in range(count):      # stops at the first missing stage, however large the count
        try:
            stages.append((arrays.pop(f"refiner{i}.weight"), arrays.pop(f"refiner{i}.bias")))
        except KeyError as exc:
            raise FormatError(f"refiner stack at {path} misses stage {i}") from exc
    if arrays:
        raise FormatError(f"refiner checkpoint at {path} holds {min(arrays)}, which its "
                          f"meta's count of {count} does not name")
    _check_stack(path, stages, e)
    return [Refiner(w, b) for w, b in stages]
