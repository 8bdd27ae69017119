"""Golden outputs of a fixed-seed toy pipeline.

A synthetic 4x4x4 dataset goes through the whole system: codebook and
refiner fitting, a refiner checkpoint file, tokenization, two steps of each
trainer, a round trip of both models through checkpoint files and two
generations with 4 flow steps: a free one, and one whose structure is fixed through stage 2 and whose
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
from nvg.checkpoints import load_model, save_model, save_refiners
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
    "content.nvgc": "b1ae5661529dca149bb4906f73b5bfa945d4d01f0f31ab4897a1b79cf7d791bc",
    "structure.nvgc": "2bea9d2d044f4b419177cc828be89905d155baabe3fdc14263328a7a3b75aa29",
    "gen.sequence.json": "07a8ca43661847e4118f13f8e8cef4d29afc950f157ca62e2ebd04975a70ccac",
    "gen.latent.nvgt": "94463ac2981a9bdc5ae10a741fae4213391945a8950757d197bfbe84e4831089",
    "override.sequence.json": "5e3421ebd97d27b88c2a53c2d810fa5ae6518ee3cb2e692c63378d2a853e4a56",
    "override.latent.nvgt": "afd0ab273b0715a9c2358627f1a56492567f25acd7c87e281bb9e8320aa99a95",
    "refiners.nvgc": "d01b91025efd29ff16627615a25484d53b6e674bf28c02853f0818c1f335c71e",
}
GOLDEN_ARRAYS = {
    "content.nvgc": "074d050ad4400970d9d50c504e158b4f3735c5d94334543b12fd8900f510503d",
    "structure.nvgc": "7ac3ec214dc426c9b8da6013042073d506712e9c0a409ccdbff26f33b6467721",
    "refiners.nvgc": "e07d63754e14ac0d28e630cbc2f34f54308fbee904eeaccaa360ecfa954726e1",
}
GOLDEN_EVALUATE = {
    "token_accuracy": {0: 0.25, 1: 0.125, 2: 0.1875, 3: 0.03125, 4: 0.109375},
    "token_accuracy_overall": 0.10483870967741936,
    "reconstruction_mse_by_prefix": [0.12445917539298534, 0.08106881007552147,
                                     0.05064503476023674, 0.03226091107353568,
                                     0.02071431855438277],
    "codebook_usage": 0.6875,
    "structure_bit_accuracy": 0.5017361111111112,
}

GOLDEN_STEPS = {       # stages 0-4 and 1-3 of the free generation
    "content_logits": [
        "f3ff4e6fddc3dcf4260c18b7536e1f54c45c53ecdfe281f47cec1945344d3ca5",
        "421542f07663ce9d162104efe276429f1aa99cc1d79d71df307016c3f9f013b8",
        "66354082f15027ed4354d7108688c4fdeee1e879ed33424bffd861d8fd0ea11e",
        "b8bb7091330b6540261d97fc3ac9be9c151f387a716bb4035b57ed561a543cf8",
        "bee6e4905d3bc7766c477e75886b7e92dc2a2698743d2ea4f605087abb9d3f41",
    ],
    "flow_stage": [
        "9ab9f0719b1fc015ccc459f2f37d0faf893f470a0a8dc28a8ef81147ea3647a4",
        "22ff1563853451df0adc90b788bff7c7d7241b6c086a711bcfc59f3ff9f7bdb6",
        "f957e2e787f73b713972fc38a6720cca624b42d9263184e363dc210fc3b241da",
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
    save_refiners(workdir / "refiners.nvgc", refiners)
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
