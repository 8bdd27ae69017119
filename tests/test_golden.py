"""Golden outputs of a fixed-seed toy pipeline.

A synthetic 4x4x4 dataset goes through the whole system: codebook and
refiner fitting, tokenization, two steps of each trainer, a round trip of
both models through checkpoint files and one generation with 4 flow steps.
The SHA-256 of every file the run writes is pinned, so a change that keeps
these hashes keeps initial weights, RNG draw order, training, the checkpoint
layout and sampling bit-identical. Re-pin only for a change that is meant to
alter float rounding or draw order, and say so where the change is recorded.
Each checkpoint's arrays are pinned apart from its file bytes, so a change to
the checkpoint meta alone re-pins only the file hash, and a weight change
cannot hide inside a meta re-pin.

A 4x4 grid pairs 16 vectors in one distance block, so the toy run never
reaches the blocked, multi-rescan pairing of a full-size grid. Two 32x32x4
grids are therefore tokenized on their own and their sequence files pinned
too: a synthetic one, and an integer-valued one whose many exact distance
ties exercise every tie-break.
"""

import hashlib

import numpy as np

from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, save_model
from nvg.content_model import ContentModel
from nvg.grid import Codebook, LatentGrid
from nvg.hierarchy import build_hierarchy
from nvg.io import read_checkpoint, write_sequence, write_tensor
from nvg.pipeline import GenerationRequest, ScheduleParams, generate
from nvg.quantize import build_contents, fit_codebook, identity_refiners, train_refiners
from nvg.structure_model import StructureModel
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from nvg.training import TrainConfig, tokenize_dataset, train_content, train_structure

GOLDEN = {
    "content.nvgc": "92608b7fe120b34a24f244ed6ef2b5f6e3345c90a9ac267a183bd86d2d0928b8",
    "structure.nvgc": "2f03b33b9512acfde9169f2b8d889d8731079868ba49c113ce14f4a07f83ba8b",
    "gen.sequence.json": "eb9271d4c9bdc3cebd0e5304f70fd705ed5a84ec8c2b6b83d676e8cfb3b5c39b",
    "gen.latent.nvgt": "78e07795850b4f7f181b455873ae70cf0e449d76437411508211d966556a610f",
}
GOLDEN_ARRAYS = {
    "content.nvgc": "36c4320db02aba41a89b73bcbe639c5967672b3d82bca9b90aea5bfac5a76391",
    "structure.nvgc": "cc4ccf720d21d29ee65aa5d303d2e6e19619625ea4d770fac932c01789299158",
}


def arrays_sha256(path) -> str:
    """SHA-256 over a checkpoint's arrays, each name then its bytes, by name."""
    _, arrays = read_checkpoint(path)
    return hashlib.sha256(b"".join(name.encode() + arrays[name].tobytes()
                                   for name in sorted(arrays))).hexdigest()


def run_pipeline(workdir) -> tuple:
    """Run the toy pipeline in workdir; return {file name: sha256 hex} of the
    files and of the checkpoints' arrays."""
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
    files = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
             for name in GOLDEN}
    return files, {name: arrays_sha256(workdir / name) for name in GOLDEN_ARRAYS}


def test_fixed_seed_pipeline_outputs_are_bit_identical(tmp_path):
    files, arrays = run_pipeline(tmp_path)
    assert arrays == GOLDEN_ARRAYS
    assert files == GOLDEN


GOLDEN_32X32 = {
    "synthetic.sequence.json": "c75e583f7b875e31327b068cbce76476fd2aaaae4f4bc797019188e85dfaf831",
    "integer.sequence.json": "c0d93874ec6fbae08ec451a54c2b755b7c225c84cb6d201ee2fc90a6f84ef44c",
}


def tokenize_32x32(workdir) -> dict:
    """Tokenize two seeded 32x32x4 grids; return {file name: sha256 hex}."""
    (_, synthetic), = make_synthetic_dataset(SyntheticSpec(count=1, h=32, w=32, e=4,
                                                           num_classes=4, seed=6))
    integer = np.random.default_rng(7).integers(0, 3, size=(32, 32, 4))
    grids = {
        "synthetic.sequence.json": synthetic,
        "integer.sequence.json": LatentGrid(integer.astype(np.float32)),
    }
    codebook = Codebook(np.random.default_rng(8).normal(size=(64, 4)).astype(np.float32))
    refiners = identity_refiners(synthetic.last_stage, 4)
    for name, grid in grids.items():
        seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
        write_sequence(workdir / name, seq, codebook)
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in GOLDEN_32X32}


def test_32x32_tokenization_is_bit_identical(tmp_path):
    assert tokenize_32x32(tmp_path) == GOLDEN_32X32
