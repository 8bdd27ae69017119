"""Golden outputs of a fixed-seed toy pipeline.

A synthetic 4x4x4 dataset goes through the whole system: codebook and
refiner fitting, tokenization, two steps of each trainer, a round trip of
both models through checkpoint files and one generation with 4 flow steps.
The SHA-256 of every file the run writes is pinned, so a change that keeps
these hashes keeps initial weights, RNG draw order, training, the checkpoint
layout and sampling bit-identical. Re-pin only for a change that is meant to
alter float rounding or draw order, and say so where the change is recorded.
"""

import hashlib

from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, save_model
from nvg.content_model import ContentModel
from nvg.hierarchy import build_hierarchy
from nvg.io import write_sequence, write_tensor
from nvg.pipeline import GenerationRequest, ScheduleParams, generate
from nvg.quantize import fit_codebook, train_refiners
from nvg.structure_model import StructureModel
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from nvg.training import TrainConfig, tokenize_dataset, train_content, train_structure

GOLDEN = {
    "content.nvgc": "406a5780f4c45dcb18f636eb9cf017d32bf295eb4ad58322e73e81badb8c88f6",
    "structure.nvgc": "6234b0a99e370d1414fa6a8dc0873c72751869dd897f2c33102ed6fbc07b48ac",
    "gen.sequence.json": "686fe7d7ded1e77f06beaf3057fa16b9702c0e01f87a5b6b06f1f29535bc5fd0",
    "gen.latent.nvgt": "716261671f87c4c3302f2d1a6ae9318da610fd433fe0a21ece78d3c14407f247",
}


def run_pipeline(workdir) -> dict:
    """Run the toy pipeline in workdir; return {file name: sha256 hex}."""
    data = make_synthetic_dataset(SyntheticSpec(count=4, h=4, w=4, e=4,
                                                num_classes=2, seed=5))
    grids = [g for _, g in data]
    codebook = fit_codebook(grids, 16, seed=0)
    refiners = train_refiners(grids[:2], build_hierarchy, codebook, steps=2)
    examples = tokenize_dataset(data, codebook, refiners)
    last = examples[0].sequence.last_stage
    content = ContentModel(ModelConfig(2, "content", 4, 16, 2, last), seed=1)
    structure = StructureModel(ModelConfig(2, "structure", 4, 16, 2, last), seed=2)
    config = TrainConfig(steps=2, batch_size=4, base_lr=0.064, warmup_steps=1, seed=3)
    train_content(examples, content, config)
    train_structure(examples, structure, config)

    save_model(workdir / "content.nvgc", content)
    save_model(workdir / "structure.nvgc", structure)
    content = load_model(workdir / "content.nvgc")
    structure = load_model(workdir / "structure.nvgc")
    req = GenerationRequest(class_id=1, seed=4, h=4, w=4, e=4,
                            schedule=ScheduleParams(flow_steps=4))
    result = generate(req, content, structure, codebook, refiners)
    write_sequence(workdir / "gen.sequence.json", result.sequence, codebook)
    write_tensor(workdir / "gen.latent.nvgt", result.canvas.data)
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in GOLDEN}


def test_fixed_seed_pipeline_outputs_are_bit_identical(tmp_path):
    assert run_pipeline(tmp_path) == GOLDEN
