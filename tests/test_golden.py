"""Golden outputs of a fixed-seed toy pipeline.

A synthetic 4x4x4 dataset goes through the whole system: codebook and
refiner fitting, tokenization, two steps of each trainer, a round trip of
both models through checkpoint files and two generations with 4 flow steps:
a free one, and one whose structure is fixed through stage 2 and whose
content is fixed at stages 0-1. `training.evaluate` then scores the loaded
models on the training examples with 4 flow steps.
The SHA-256 of every file the run writes is pinned, so a change that keeps
these hashes keeps initial weights, RNG draw order, training, the checkpoint
layout and sampling bit-identical. Re-pin only for a change that is meant to
alter float rounding or draw order, and say so where the change is recorded.
Each checkpoint's arrays are pinned apart from its file bytes, so a change to
the checkpoint meta alone re-pins only the file hash, and a weight change
cannot hide inside a meta re-pin. The evaluation's metrics are pinned as
exact floats: its token accuracy and its flow's bit agreement run the
sampler's two steps, as generation does. The free generation's two steps
are pinned too, each guided logits array `pipeline.content_logits` returns
and each prediction of `pipeline.flow_stage`: the sampled files depend on
them only through nucleus draws and splits, which a small change in the
sampler's arithmetic can pass unseen.

A 4x4 grid pairs 16 vectors in one distance block, so the toy run never
reaches the blocked, multi-rescan pairing of a full-size grid. Two 32x32x4
grids are therefore tokenized on their own and their sequence files pinned
too: a synthetic one, and an integer-valued one whose many exact distance
ties exercise every tie-break.
"""

import hashlib

import numpy as np
import pytest

from nvg import pipeline
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
from nvg.training import (TrainConfig, evaluate, tokenize_dataset, train_content,
                          train_structure)

GOLDEN = {
    "content.nvgc": "92608b7fe120b34a24f244ed6ef2b5f6e3345c90a9ac267a183bd86d2d0928b8",
    "structure.nvgc": "4494b5c8e213dda9f4b963439f51edbb11f5bac49a36c3d0c424b5fd1eee6d9e",
    "gen.sequence.json": "118bcec4f0f99537ad38cbca689a04341ba469da7ae538740941846f6c4c356d",
    "gen.latent.nvgt": "77fa42646681587c00ef5f1aba63fff8e852cdadfde19f9cbd783e62e10f9a01",
    "override.sequence.json": "42f5a4612402aafa483793d3cf2ddf64002fa6356f534270670547f699bb70cf",
    "override.latent.nvgt": "2d5ff4cdf3ad46e8aa13fddb20141487309f3a332146a3e8ba704b66255b9f1a",
}
GOLDEN_ARRAYS = {
    "content.nvgc": "36c4320db02aba41a89b73bcbe639c5967672b3d82bca9b90aea5bfac5a76391",
    "structure.nvgc": "e2b8c1ae558cc1d66d67f8375ed14c7acf21f057e3374490a2a9452900a4a0e8",
}
GOLDEN_EVALUATE = {
    "token_accuracy": {0: 0.25, 1: 0.0, 2: 0.125, 3: 0.0, 4: 0.015625},
    "token_accuracy_overall": 0.03225806451612903,
    "reconstruction_mse_by_prefix": [0.1184004358947277, 0.07957289554178715,
                                     0.050240082666277885, 0.03189449943602085,
                                     0.020823052618652582],
    "codebook_usage": 0.6875,
    "structure_bit_accuracy": 0.5017361111111112,
}

GOLDEN_STEPS = {       # stages 0-4 and 1-3 of the free generation, computed at 714bfd6
    "content_logits": [
        "fc2ab975ec467c7697a84004c7e6642a5a306f55cc6f4f2e174c8c02de740fc9",
        "1c40bf1615fee4c8191974e3093207aa437437452bf6f77ae9abbe1330e92f9a",
        "fc0dd703aa66d135a2977c4a275a21e5b7fe39d943ab0a5fa2232825caaaaf57",
        "30461038a107a9d9634b3bc213708157eda278b3abc68cb9443c3ba4f7a31184",
        "bbc37aef4110de3b5ae60af940148a6d8829a465acca7041d4ad42cdce901013",
    ],
    "flow_stage": [
        "24142fe98c85208d2370b528f3458c7e6a1bb349822b261be0e69e87f69b3780",
        "6ece71b944eb0df2c10fd6c284e728095882d675b1d7e7bee90f4714c94e404b",
        "04e81b3709f37639e9b84f3e116cf15ae953badca6aad4f304e510ca459c3fe8",
    ],
}


def array_sha256(a: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def spy_steps(monkeypatch) -> dict:
    """Record `array_sha256` of every guided logits array `content_logits`
    returns and of every prediction `flow_stage` returns, in call order."""
    seen = {"content_logits": [], "flow_stage": []}
    content_logits, flow_stage = pipeline.content_logits, pipeline.flow_stage

    def logits_spy(*args, **kwargs):
        logits = content_logits(*args, **kwargs)
        seen["content_logits"].append(array_sha256(logits))
        return logits

    def flow_spy(*args, **kwargs):
        pred, steps = flow_stage(*args, **kwargs)
        seen["flow_stage"].append(array_sha256(pred))
        return pred, steps

    monkeypatch.setattr(pipeline, "content_logits", logits_spy)
    monkeypatch.setattr(pipeline, "flow_stage", flow_spy)
    return seen


def arrays_sha256(path) -> str:
    """SHA-256 over a checkpoint's arrays, each name then its bytes, by name."""
    _, arrays = read_checkpoint(path)
    return hashlib.sha256(b"".join(name.encode() + arrays[name].tobytes()
                                   for name in sorted(arrays))).hexdigest()


def run_pipeline(workdir) -> tuple:
    """Run the toy pipeline in workdir; return {file name: sha256 hex} of the
    files and of the checkpoints' arrays, the evaluation's metrics and the
    free generation's `spy_steps` record."""
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
    schedule = ScheduleParams(flow_steps=4)
    # the override run fixes examples[1]'s structure through stage 2 and its
    # content at stages 0-1, so the flow runs at stage 3 alone
    fixed = examples[1]
    requests = {
        "gen": GenerationRequest(class_id=1, seed=4, h=4, w=4, e=4, schedule=schedule),
        "override": GenerationRequest(
            class_id=fixed.class_id, seed=4, h=4, w=4, e=4,
            structure_prefix=fixed.sequence.stages[2][1],
            content_overrides={i: fixed.sequence.stages[i][0] for i in (0, 1)},
            schedule=schedule),
    }
    for name, req in requests.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = spy_steps(monkeypatch)
            result = generate(req, content, structure, codebook, refiners)
        if name == "gen":
            steps = seen
        write_sequence(workdir / f"{name}.sequence.json", result.sequence, codebook)
        write_tensor(workdir / f"{name}.latent.nvgt", result.canvas.data)
    files = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
             for name in GOLDEN}
    metrics = evaluate(content, structure, examples, codebook, seed=6, flow_steps=4)
    return (files, {name: arrays_sha256(workdir / name) for name in GOLDEN_ARRAYS}, metrics,
            steps)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


def test_fixed_seed_pipeline_outputs_are_bit_identical(toy_run):
    files, arrays, _, _ = toy_run
    assert arrays == GOLDEN_ARRAYS
    assert files == GOLDEN


def test_evaluate_metrics_are_exact(toy_run):
    assert toy_run[2] == GOLDEN_EVALUATE


def test_free_generation_logits_and_flow_predictions_are_bit_identical(toy_run):
    assert toy_run[3] == GOLDEN_STEPS


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
