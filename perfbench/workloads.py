"""The benchmark's three seeded workloads.

Each workload builds its inputs from the workload seed in `setup`, runs one
timed operation in `run_op`, and checks that operation's output in `check`,
outside the timed section. `check` raises `CheckFailed` when an output breaks
an invariant and otherwise returns the SHA-256 of the output bytes, so two
runs can be compared.

gen-8x8: one `pipeline.generate` request for an 8x8x4 latent, serialised
    through `io` the way `nvg generate` writes it. Many small B=1 forwards;
    nothing runs backward and no hierarchy is built.
train-8x8: one `train_content` step then one `train_structure` step at
    batch 8. The only workload that runs backward and `Adam.step`.
tokenize-32x32: `build_hierarchy` + `build_contents` + `io.write_sequence`
    for a fixed 32x32x4 grid. No model runs; the greedy pairing dominates.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

# Library calls go through module attributes (pipeline.generate, not a name
# imported from it), so the tracer's wrappers see them.
from nvg import checkpoints, hierarchy, io, pipeline, quantize, training
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel
from nvg.pipeline import GenerationRequest, ScheduleParams
from nvg.structure_model import StructureModel
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from nvg.training import TrainConfig


class CheckFailed(Exception):
    """An operation's output breaks an invariant."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. The defaults are the benchmark; tests pass smaller ones."""

    latent: tuple = (8, 8, 4)
    token_grid: tuple = (32, 32, 4)
    depth: int = 4
    classes: int = 4
    examples: int = 16
    codebook: int = 64
    batch: int = 8
    flow_steps: int = 25
    setup_train_steps: int = 2
    refiner_steps: int = 2
    token_grids: int = 8


BASE_LR = 0.064     # the CLI's default rate at batch 256, scaled to the batch


def _sha256(*blobs: bytes) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def _state_bytes(*models) -> bytes:
    return b"".join(np.ascontiguousarray(arrays[k]).tobytes()
                    for arrays in (m.state_arrays() for m in models)
                    for k in sorted(arrays))


def _refiner_bytes(refiners) -> bytes:
    return b"".join(r.weight.tobytes() + r.bias.tobytes() for r in refiners)


def _check_round_trip(path, seq, codebook) -> None:
    back = io.read_sequence(path, codebook)
    if len(back.stages) != len(seq.stages):
        raise CheckFailed("sequence file lost stages")
    for (tokens, smap), (tokens_b, smap_b) in zip(seq.stages, back.stages):
        if not (np.array_equal(tokens.indices, tokens_b.indices)
                and np.array_equal(smap.labels, smap_b.labels)):
            raise CheckFailed(f"stage {tokens.stage} does not round-trip through io")


def _prepare_8x8(seed_words, sizes: Sizes):
    """Dataset, codebook, refiners, tokenized examples and fresh models."""
    data_seed, codebook_seed, model_seed = (int(s) for s in seed_words[:3])
    h, w, e = sizes.latent
    dataset = make_synthetic_dataset(SyntheticSpec(
        count=sizes.examples, h=h, w=w, e=e, num_classes=sizes.classes, seed=data_seed))
    grids = [g for _, g in dataset]
    codebook = quantize.fit_codebook(grids, sizes.codebook, seed=codebook_seed)
    refiners = quantize.train_refiners(grids[:4], hierarchy.build_hierarchy, codebook,
                                       steps=sizes.refiner_steps)
    examples = training.tokenize_dataset(dataset, codebook, refiners)
    last = (h * w).bit_length() - 1
    content = ContentModel(ModelConfig(sizes.depth, "content", e, codebook.size,
                                       sizes.classes, last), seed=model_seed)
    structure = StructureModel(ModelConfig(sizes.depth, "structure", e, codebook.size,
                                           sizes.classes, last), seed=model_seed + 1)
    return codebook, refiners, examples, content, structure


class Workload:
    name = ""
    unit = ""          # what one operation produces

    def __init__(self, seed: int, sizes: Sizes, workdir):
        self.sizes = sizes
        self.workdir = workdir
        self.seed_words = np.random.SeedSequence(seed).generate_state(8)

    def setup(self) -> str:
        """Build the inputs; return a hash of everything set-up produced."""
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str:
        raise NotImplementedError

    def counts(self, out) -> dict:
        """Counters the library reports about one operation."""
        return {}

    def named_metrics(self, durations: list, outs: list) -> dict:
        """The workload's end-to-end figures under their own names."""
        raise NotImplementedError


class Generate(Workload):
    name = "gen-8x8"
    unit = "sample"

    def setup(self) -> str:
        sizes = self.sizes
        codebook, refiners, examples, content, structure = _prepare_8x8(
            self.seed_words, sizes)
        # At init every block's output projection is zero, so each block is the
        # identity and a broken attention path would leave the outputs alone.
        # A few seeded steps make every block contribute.
        config = TrainConfig(steps=sizes.setup_train_steps, batch_size=sizes.batch,
                             base_lr=BASE_LR, warmup_steps=0,
                             seed=int(self.seed_words[3]))
        training.train_content(examples, content, config)
        training.train_structure(examples, structure, config)
        paths = [self.workdir / f"{kind}.nvgc" for kind in ("content", "structure")]
        checkpoints.save_model(paths[0], content)
        checkpoints.save_model(paths[1], structure)
        self.content = checkpoints.load_model(paths[0])
        self.structure = checkpoints.load_model(paths[1])
        for model in (self.content, self.structure):
            if not all(block.w_out.data.any() for block in model.blocks):
                raise CheckFailed("set-up training left a block the identity")
        self.codebook, self.refiners = codebook, refiners
        self.request_seed = int(self.seed_words[4])
        self.seq_path = self.workdir / "gen.sequence.json"
        self.latent_path = self.workdir / "gen.latent.nvgt"
        return _sha256(codebook.vectors.tobytes(), _refiner_bytes(refiners),
                       _state_bytes(self.content, self.structure))

    def run_op(self, i: int):
        h, w, e = self.sizes.latent
        req = GenerationRequest(class_id=i % self.sizes.classes,
                                seed=self.request_seed + i, h=h, w=w, e=e,
                                schedule=ScheduleParams(flow_steps=self.sizes.flow_steps))
        result = pipeline.generate(req, self.content, self.structure, self.codebook,
                                   self.refiners)
        io.write_sequence(self.seq_path, result.sequence, self.codebook)
        io.write_tensor(self.latent_path, result.canvas.data)
        return result

    def check(self, i: int, out) -> str:
        canvas = out.canvas.data
        if not np.all(np.isfinite(canvas)):
            raise CheckFailed("canvas holds non-finite values")
        _check_round_trip(self.seq_path, out.sequence, self.codebook)
        if not np.array_equal(io.read_tensor(self.latent_path), canvas):
            raise CheckFailed("canvas does not round-trip through io")
        return _sha256(self.seq_path.read_bytes(), self.latent_path.read_bytes())

    def counts(self, out) -> dict:
        return {"pipeline.flow_steps": out.stats.flow_steps,
                "pipeline.content_steps": out.stats.content_steps}

    def named_metrics(self, durations: list, outs: list) -> dict:
        return {"gen_samples_per_s": len(durations) / sum(durations),
                "gen_sample_s_p50": float(np.median(durations))}


class Train(Workload):
    """One operation is one step of each trainer; parameters carry over."""

    name = "train-8x8"
    unit = "step pair"

    def setup(self) -> str:
        (self.codebook, _, self.examples, self.content,
         self.structure) = _prepare_8x8(self.seed_words, self.sizes)
        self.step_seed = int(self.seed_words[5])
        return _sha256(_state_bytes(self.content, self.structure),
                       *(ex.sequence.stages[-1][0].indices.tobytes()
                         for ex in self.examples))

    def run_op(self, i: int):
        sizes = self.sizes
        config = TrainConfig(steps=1, batch_size=sizes.batch, base_lr=BASE_LR,
                             warmup_steps=0, seed=self.step_seed + i)
        start = time.perf_counter()
        content = training.train_content(self.examples, self.content, config)
        mid = time.perf_counter()
        structure = training.train_structure(self.examples, self.structure, config)
        end = time.perf_counter()
        return content.losses + structure.losses, mid - start, end - mid

    def check(self, i: int, out) -> str:
        losses = np.asarray(out[0], dtype=np.float64)
        if not np.all(np.isfinite(losses)):
            raise CheckFailed("training loss is not finite")
        return _sha256(losses.tobytes(), _state_bytes(self.content, self.structure))

    def named_metrics(self, durations: list, outs: list) -> dict:
        return {"train_content_steps_per_s": len(outs) / sum(o[1] for o in outs),
                "train_structure_steps_per_s": len(outs) / sum(o[2] for o in outs),
                "train_step_pair_s_p50": float(np.median(durations))}


class Tokenize(Workload):
    name = "tokenize-32x32"
    unit = "grid"

    def setup(self) -> str:
        sizes = self.sizes
        h, w, e = sizes.token_grid
        data = make_synthetic_dataset(SyntheticSpec(
            count=sizes.token_grids + 2, h=h, w=w, e=e, num_classes=sizes.classes,
            seed=int(self.seed_words[0])))
        fit_grid, refine_grid, *pool = (g for _, g in data)
        self.codebook = quantize.fit_codebook([fit_grid], sizes.codebook,
                                              seed=int(self.seed_words[1]))
        self.refiners = quantize.train_refiners([refine_grid], hierarchy.build_hierarchy,
                                                self.codebook, steps=sizes.refiner_steps)
        self.grids = pool
        self.seq_path = self.workdir / "tokenized.sequence.json"
        return _sha256(self.codebook.vectors.tobytes(), _refiner_bytes(self.refiners),
                       *(g.data.tobytes() for g in pool))

    def run_op(self, i: int):
        grid = self.grids[i % len(self.grids)]
        seq, _ = quantize.build_contents(grid, hierarchy.build_hierarchy(grid),
                                         self.codebook, self.refiners)
        io.write_sequence(self.seq_path, seq, self.codebook)
        return seq

    def check(self, i: int, out) -> str:
        _check_round_trip(self.seq_path, out, self.codebook)
        return _sha256(self.seq_path.read_bytes())

    def named_metrics(self, durations: list, outs: list) -> dict:
        return {"tokenize_grids_per_s": len(durations) / sum(durations),
                "tokenize_grid_s_p50": float(np.median(durations))}


WORKLOADS = {cls.name: cls for cls in (Generate, Train, Tokenize)}
