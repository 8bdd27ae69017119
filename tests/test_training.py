import warnings
import weakref

import numpy as np
import pytest

from nvg import autodiff, backbone, errors, training
from nvg.autodiff import no_grad
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel
from nvg.errors import InvariantError, NumericError
from nvg.grid import Codebook, assign
from nvg.pipeline import GenerationRequest, ScheduleParams, generate
from nvg.quantize import Refiner, fit_codebook, identity_refiners
from nvg.structcode import embed_structure_map
from nvg.structure_model import StructureModel, noised_input
from nvg.synthetic import BASE_SCALE, SyntheticSpec, class_base_colors, make_synthetic_dataset
from nvg.training import (
    TrainConfig,
    check_training_budget,
    evaluate,
    tokenize_dataset,
    train_content,
    train_structure,
    wsd_lr,
)

LAST = 4  # 4x4 grids keep these tests quick


@no_grad()
def structure_eval_loss(examples, model, seed=0, samples=32):
    """Masked velocity error on a fixed seeded evaluation batch."""
    rng = np.random.default_rng(seed)
    last = examples[0].sequence.last_stage
    h, w_grid, _ = examples[0].grid.data.shape
    total = 0.0
    weight = 0.0
    for _ in range(samples):
        ex = examples[int(rng.integers(0, len(examples)))]
        stage = int(rng.integers(1, last))
        t = float(rng.random())
        noise = rng.standard_normal((h, w_grid, last)).astype(np.float32)
        z = noised_input(ex.flow_target, t, noise, stage - 1)
        context = model.context(np.array([ex.class_id]), [ex.sequence.stages[stage - 1][1]],
                                ex.canvases[stage][None])
        vel = model.velocity(context, z[None], np.array([t]))
        target = noise - ex.flow_target
        mask = np.zeros_like(target)
        mask[:, :, stage - 1:] = 1.0
        total += float((((vel.data[0] - target) ** 2) * mask).sum())
        weight += float(mask.sum())
    return total / weight


@pytest.fixture(scope="module")
def world():
    data = make_synthetic_dataset(SyntheticSpec(count=4, h=4, w=4, e=3,
                                                num_classes=2, seed=21))
    grids = [g for _, g in data]
    codebook = fit_codebook(grids, 16, seed=0)
    refiners = identity_refiners(LAST, 3)
    examples = tokenize_dataset(data, codebook, refiners)
    return data, codebook, refiners, examples


def content_model(seed=0):
    return ContentModel(ModelConfig(2, "content", 3, 16, 2, LAST), seed=seed)


def structure_model(seed=0):
    return StructureModel(ModelConfig(2, "structure", 3, 1, 2, LAST), seed=seed)


def seen_loss_class_ids(model, states=None) -> list:
    """Instrument model.loss; the returned list gets each call's class ids,
    and states, when given, the rng state after each call."""
    seen = []
    original = model.loss

    def instrumented(class_ids, *args, rng=None):
        seen.append(np.array(class_ids))
        loss = original(class_ids, *args, rng=rng)
        if states is not None:
            states.append(rng.bit_generator.state)
        return loss

    model.loss = instrumented
    return seen


class TestSyntheticDataset:
    def test_count_zero_gives_empty_list(self):
        assert make_synthetic_dataset(SyntheticSpec(count=0)) == []

    def test_same_seed_identical(self):
        spec = SyntheticSpec(count=3, seed=5)
        a = make_synthetic_dataset(spec)
        b = make_synthetic_dataset(spec)
        for (ca, ga), (cb, gb) in zip(a, b):
            assert ca == cb
            assert np.array_equal(ga.data, gb.data)

    def test_class_mean_separation_at_least_margin(self):
        spec = SyntheticSpec(count=40, seed=7)
        data = make_synthetic_dataset(spec)
        means = {}
        for cls, grid in data:
            means.setdefault(cls, []).append(grid.data.mean(axis=(0, 1)))
        centers = {c: np.mean(v, axis=0) for c, v in means.items()}
        classes = sorted(centers)
        for i in classes:
            for j in classes:
                if i < j:
                    dist = np.linalg.norm(centers[i] - centers[j])
                    assert dist >= BASE_SCALE / 2

    def test_base_colors_pairwise_distance(self):
        spec = SyntheticSpec(count=1, num_classes=4, e=4)
        colors = class_base_colors(spec)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(colors[i] - colors[j]) >= BASE_SCALE

    def test_too_many_classes_rejected(self):
        with pytest.raises(InvariantError):
            SyntheticSpec(count=1, e=2, num_classes=5)

    def test_dataset_past_the_allocation_cap_rejected_when_built(self, monkeypatch):
        # float64: two 4x4 coordinate grids and two 4x4x3 images, 1024 bytes
        monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 1024)
        SyntheticSpec(count=2, h=4, w=4, e=3)
        monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 1023)
        with pytest.raises(InvariantError, match="needs 1024 bytes of float64 arrays, "
                                                   "over the 1023-byte cap"):
            SyntheticSpec(count=2, h=4, w=4, e=3)

    @pytest.mark.parametrize("h, w", [(3, 3), (0, 4), (2, 6)])
    def test_grid_without_power_of_two_area_rejected_when_built(self, h, w):
        with pytest.raises(InvariantError, match=f"h\\*w a power of two, got {h}x{w}"):
            SyntheticSpec(count=1, h=h, w=w)

    def test_huge_grid_rejected_when_built(self):
        # the coordinate grids alone would take 64 GiB
        with pytest.raises(InvariantError, match="-byte cap"):
            SyntheticSpec(count=8, h=65536, w=65536, e=4)


class TestWsdSchedule:
    CFG = TrainConfig(steps=1000, batch_size=16, base_lr=1e-3, warmup_steps=100,
                      decay_start_fraction=0.8)

    def test_warmup_starts_at_zero(self):
        assert wsd_lr(0, self.CFG) == 0.0
        assert wsd_lr(1, self.CFG) == pytest.approx(1e-3 / 100)

    def test_constant_phase_is_base_exactly(self):
        for step in (100, 300, 500, 799):
            assert wsd_lr(step, self.CFG) == 1e-3

    def test_final_step_is_tenth_of_base(self):
        assert wsd_lr(999, self.CFG) == pytest.approx(1e-4, abs=1e-12)

    def test_decay_is_linear(self):
        lr_a = wsd_lr(800, self.CFG)
        lr_b = wsd_lr(899, self.CFG)
        lr_c = wsd_lr(999, self.CFG)
        assert lr_a == pytest.approx(1e-3)
        assert lr_b == pytest.approx((lr_a + lr_c) / 2, rel=1e-2)

    def test_negative_step_rejected(self):
        with pytest.raises(InvariantError):
            wsd_lr(-1, self.CFG)


def accumulate_canvas(seq, upto, codebook, refiners):
    """Reference running canvas: re-sum the refined placements of stages
    0..upto from the zero grid."""
    x = np.zeros((seq.h, seq.w, codebook.dim), dtype=np.float32)
    for j in range(upto + 1):
        tokens, smap = seq.stages[j]
        x = x + refiners[j].apply(assign(tokens, smap, codebook).data)
    return x


class TestTokenizeDataset:
    def test_prefixes_equal_a_resummation_from_stage_zero(self, world):
        data, codebook, _, _ = world
        rng = np.random.default_rng(8)
        refiners = [Refiner(0.2 * rng.standard_normal((3, 3, 3, 3)),
                            0.1 * rng.standard_normal(3)) for _ in range(LAST + 1)]
        for ex in tokenize_dataset(data, codebook, refiners):
            seq = ex.sequence
            assert len(ex.canvases) == LAST + 2     # [-1] is the target canvas
            for i, canvas in enumerate(ex.canvases):
                assert np.array_equal(canvas, accumulate_canvas(seq, i - 1, codebook, refiners))

    def test_flow_target_is_the_last_embedding(self, world):
        _, _, _, examples = world
        for ex in examples:
            expected = embed_structure_map(ex.sequence.stages[LAST][1], LAST)
            assert ex.flow_target.dtype == np.float32
            assert np.array_equal(ex.flow_target, expected.astype(np.float32))

    def test_each_parent_embedding_is_the_flow_targets_known_columns(self, world):
        # the velocity of stage k reads the stage-(k-1) map's embedding as its
        # rotary ids; with canonical nesting those are exactly the k - 1
        # columns of the flow target that the noised grid keeps clamped
        _, _, _, examples = world
        for ex in examples:
            for k in range(1, LAST):
                parent = embed_structure_map(ex.sequence.stages[k - 1][1], LAST)
                assert np.array_equal(parent[..., :k - 1], ex.flow_target[..., :k - 1])
                assert np.all(parent[..., k - 1:] == 1)

    def test_empty_examples_rejected_by_both_trainers(self):
        cfg = TrainConfig(steps=1, batch_size=1)
        with pytest.raises(InvariantError, match="no training examples"):
            train_content([], content_model(), cfg)
        with pytest.raises(InvariantError, match="no training examples"):
            train_structure([], structure_model(), cfg)


@pytest.mark.parametrize("make, train, batch, step_bytes", [
    # 4 bytes * batch * heads * scores, 2 blocks, 16 tokens a run: content
    # scores 17^2 a block; structure 17^2 in its one context block that
    # attends (the last builds only keys and values), then 16 * 33 a block
    # for the noised rows against every row; the batches are large enough
    # that the scores, not the 4x weights (8,420,400 and 2,185,280 bytes),
    # meet the cap first
    (content_model, train_content, 2048, 4 * 2048 * 2 * 17 ** 2 * 2),
    (structure_model, train_structure, 512, 4 * 512 * 1 * (17 ** 2 + 16 * 33 * 2)),
], ids=["content", "structure"])
def test_batch_over_the_byte_cap_is_refused_before_the_first_draw(world, monkeypatch, make,
                                                                  train, batch, step_bytes):
    _, _, _, examples = world
    model = make()
    cfg = TrainConfig(steps=1, batch_size=batch)

    def no_draw(seed):
        raise AssertionError("reached the first draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", step_bytes - 1)
    with pytest.raises(InvariantError, match=f"batch {batch} needs {step_bytes} bytes"):
        train(examples, model, cfg)
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", step_bytes)
    with pytest.raises(AssertionError, match="reached the first draw"):
        train(examples, model, cfg)


@pytest.mark.parametrize("make, train", [(content_model, train_content),
                                         (structure_model, train_structure)],
                         ids=["content", "structure"])
def test_the_budget_counts_every_row_a_step_runs(world, monkeypatch, make, train):
    _, _, _, examples = world
    model = make()
    scores = []
    forward = backbone.Block.forward

    def spy(self, x, *args, prefix=None, **kwargs):
        keys = x.shape[1] + (0 if prefix is None else prefix[0].shape[-1])
        scores.append(x.shape[0] * self.heads * x.shape[1] * keys)
        return forward(self, x, *args, prefix=prefix, **kwargs)

    monkeypatch.setattr(backbone.Block, "forward", spy)
    train(examples, model, TrainConfig(steps=1, batch_size=2))
    # the float32 scores every block of the step ran grow linearly in the
    # batch; at a batch whose scores outweigh the 4x weights, the budget is
    # exactly those scores: accepted at a cap of need, refused one byte under
    batch = 2 * -(-model.config.weight_bytes // sum(scores))      # rounded up
    need = 4 * sum(scores) * batch // 2
    cfg = TrainConfig(steps=1, batch_size=batch)
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", need)
    check_training_budget(model.config, cfg)
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", need - 1)
    with pytest.raises(InvariantError, match=f"^batch {batch} needs {need} bytes of "
                                             f"{model.kind} attention scores a step"):
        check_training_budget(model.config, cfg)


def test_structure_scores_count_the_split_not_every_row_against_every_row(monkeypatch):
    # 17^2 context scores in every block but the last, which builds only
    # keys and values, and 16 noised rows against 33 in every block, not 33^2:
    # at a cap between the two counts of batch 410 the batch is accepted, and
    # one more row is refused; the cap also holds the 4x weights
    config = ModelConfig(2, "structure", 3, 1, 2, LAST)
    per_row = 4 * config.heads * ((config.depth - 1) * 17 ** 2 + config.depth * 16 * 33)
    cap = 410 * per_row
    assert 4 * config.weight_bytes <= cap < 4 * 410 * config.heads * 33 ** 2 * config.depth
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", cap)
    check_training_budget(config, TrainConfig(steps=1, batch_size=410))
    with pytest.raises(InvariantError, match=f"^batch 411 needs {411 * per_row} bytes of "
                                             "structure attention scores a step, over the "
                                             f"{cap}-byte cap$"):
        check_training_budget(config, TrainConfig(steps=1, batch_size=411))


@pytest.mark.parametrize("kind, trains, refused", [("content", 12, 13),
                                                   ("structure", 20, 22)])
def test_training_counts_block_weights_four_times(kind, trains, refused):
    # configs allocate nothing, so the real 2 GiB cap is safe to test: the
    # refused depth still builds, for loading and generating. 4x the float32
    # bytes of every array of the model; too large to build here, the figures
    # come from the cubic in depth through four small built models (see
    # test_backbone's cap test)
    needed = {"content": 2_182_143_120, "structure": 2_640_923_712}[kind]
    cfg = TrainConfig(steps=1, batch_size=1)
    check_training_budget(ModelConfig(trains, kind, 4, 1, 4, LAST), cfg)
    config = ModelConfig(refused, kind, 4, 1, 4, LAST)
    with pytest.raises(InvariantError, match=f"needs {needed} bytes "
                                             "of weights, gradients and Adam moments"):
        check_training_budget(config, cfg)


@pytest.mark.parametrize("make, train", [(content_model, train_content),
                                         (structure_model, train_structure)],
                         ids=["content", "structure"])
def test_training_weights_over_the_cap_are_refused_before_the_first_draw(
        world, monkeypatch, make, train):
    _, _, _, examples = world
    model = make()
    held = 4 * 4 * sum(p.data.size for p in model.params().values())     # float32, 4x
    cfg = TrainConfig(steps=1, batch_size=1)

    def no_draw(seed):
        raise AssertionError("reached the first draw")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", held - 1)
    ModelConfig(**vars(model.config))       # one copy of the weights still fits
    with pytest.raises(InvariantError, match=f"needs {held} bytes of weights"):
        train(examples, model, cfg)
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", held)
    with pytest.raises(AssertionError, match="reached the first draw"):
        train(examples, model, cfg)


@pytest.mark.parametrize("kind, train", [("content", train_content),
                                         ("structure", train_structure)])
def test_examples_past_the_models_last_stage_are_refused(world, kind, train):
    _, _, _, examples = world
    model = {"content": ContentModel, "structure": StructureModel}[kind](
        ModelConfig(2, kind, 3, 16, 2, LAST - 1))
    with pytest.raises(InvariantError, match=f"examples reach stage {LAST}, past"):
        train(examples, model, TrainConfig(steps=1, batch_size=1))


@pytest.mark.parametrize("kind, make, train", [
    ("content", content_model, train_content),
    ("structure", structure_model, train_structure),
], ids=["content", "structure"])
def test_nan_head_diverges_at_step_zero_without_warning(world, kind, make, train):
    _, _, _, examples = world
    model = make()
    model.w_head.data[...] = np.nan
    cfg = TrainConfig(steps=3, batch_size=2, base_lr=0.01, warmup_steps=0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match=f"^{kind} training diverged at step 0 "):
            train(examples, model, cfg)


@pytest.mark.parametrize("make, train", [(content_model, train_content),
                                         (structure_model, train_structure)],
                         ids=["content", "structure"])
def test_a_step_holds_no_gradient_or_moment_before_it_reads_them(world, monkeypatch, make,
                                                                  train):
    # the forward is a step's peak: the last step's gradients and fresh
    # zero moments would each be held through it unread
    _, _, _, examples = world
    model = make()
    params = model.params().values()
    held_at_backward, moments_at_step = [], []
    backward, step = autodiff.Tensor.backward, autodiff.Adam.step

    def backward_spy(self):
        held_at_backward.append(sum(p.grad is not None for p in params))
        return backward(self)

    def step_spy(self, lr):
        moments_at_step.append(len(self.m) + len(self.v))
        return step(self, lr)

    monkeypatch.setattr(autodiff.Tensor, "backward", backward_spy)
    monkeypatch.setattr(autodiff.Adam, "step", step_spy)
    train(examples, model, TrainConfig(steps=3, batch_size=2, base_lr=0.01,
                                       warmup_steps=0, seed=0))
    assert held_at_backward == [0, 0, 0]
    assert moments_at_step[0] == 0 and moments_at_step[1] > 0
    assert all(p.grad is None for p in params)


@pytest.mark.parametrize("make, train", [(content_model, train_content),
                                         (structure_model, train_structure)],
                         ids=["content", "structure"])
def test_the_tape_frees_the_arrays_no_backward_reads(world, monkeypatch, make, train):
    # at backward entry the loss's forward (content: `loss`; structure:
    # `context` + `velocity`) has returned. No backward reads an attention
    # block's raw scores or its rows' silu output, so both are gone; the
    # softmax output and the conditioning's silu output, which the w_mod and
    # w_final_mod gradients read, are kept
    _, _, _, examples = world
    model = make()
    refs = {"scores": [], "probs": [], "row silu": [], "cond silu": []}
    dead_at_backward = []
    softmax, silu, backward = autodiff.softmax, autodiff.silu, autodiff.Tensor.backward

    def softmax_spy(a):
        out = softmax(a)
        refs["scores"].append(weakref.ref(a.data))
        refs["probs"].append(weakref.ref(out.data))
        return out

    def silu_spy(a):
        out = silu(a)
        refs["row silu" if a.data.ndim == 3 else "cond silu"].append(weakref.ref(out.data))
        return out

    def backward_spy(self):
        dead_at_backward.append({k: [r() is None for r in v] for k, v in refs.items()})
        return backward(self)

    monkeypatch.setattr(autodiff, "softmax", softmax_spy)
    monkeypatch.setattr(autodiff, "silu", silu_spy)
    monkeypatch.setattr(autodiff.Tensor, "backward", backward_spy)
    train(examples, model, TrainConfig(steps=1, batch_size=2, base_lr=0.01,
                                       warmup_steps=0, seed=0))
    (dead,) = dead_at_backward
    depth = len(model.blocks)
    # the structure context's last block builds keys and values alone
    attention = depth if make is content_model else 2 * depth - 1
    assert len(dead["scores"]) == len(dead["row silu"]) == attention
    assert len(dead["cond silu"]) == attention + 1 + (make is structure_model)
    assert all(dead["scores"]) and all(dead["row silu"])
    assert not any(dead["probs"]) and not any(dead["cond silu"])


def test_every_op_output_is_float32(world, monkeypatch):
    # one dtype on the tape: a content step's loss tail, a structure step and
    # a generation's logits all stay float32, so no gradient is ever cast
    _, codebook, refiners, examples = world
    content, structure = content_model(), structure_model()
    config = TrainConfig(steps=1, batch_size=2, base_lr=0.01, warmup_steps=0, seed=0)
    req = GenerationRequest(class_id=1, seed=0, h=4, w=4, e=3,
                            schedule=ScheduleParams(flow_steps=2))
    runs = {
        "content step": lambda: train_content(examples, content, config),
        "structure step": lambda: train_structure(examples, structure, config),
        "generate": lambda: generate(req, content, structure, codebook, refiners),
    }
    dtypes = {}
    out = autodiff._out

    def out_spy(data, *args):
        dtypes[name].append(data.dtype)
        return out(data, *args)

    monkeypatch.setattr(autodiff, "_out", out_spy)
    for name, run in runs.items():
        dtypes[name] = []
        run()
    assert {name: set(seen) for name, seen in dtypes.items()} == \
        {name: {np.dtype(np.float32)} for name in runs}


class TestTrainContent:
    def test_zero_lr_leaves_parameters_unchanged(self, world):
        _, _, _, examples = world
        model = content_model()
        before = {k: v.data.copy() for k, v in model.params().items()}
        cfg = TrainConfig(steps=3, batch_size=2, base_lr=0.0, warmup_steps=0, seed=0)
        train_content(examples, model, cfg)
        for k, v in model.params().items():
            assert np.array_equal(before[k], v.data)

    def test_loss_curve_recorded_and_finite(self, world):
        _, _, _, examples = world
        model = content_model()
        cfg = TrainConfig(steps=5, batch_size=2, base_lr=0.01, warmup_steps=2, seed=0)
        result = train_content(examples, model, cfg)
        assert len(result.losses) == 5
        assert all(np.isfinite(v) for v in result.losses)

    def test_exactly_the_dropped_samples_use_the_null_embedding(self, world, monkeypatch):
        # each step's null draw is replayed from the rng state its step starts
        # in: the state after the previous step's loss, dropout included
        monkeypatch.setattr(training, "NULL_RATE", 0.5)
        _, _, _, examples = world
        model = content_model()
        null_id = model.config.null_class_id
        step_states = [np.random.default_rng(123).bit_generator.state]
        seen_class_ids = seen_loss_class_ids(model, step_states)
        cfg = TrainConfig(steps=4, batch_size=8, base_lr=0.0, warmup_steps=0, seed=123)
        train_content(examples, model, cfg)
        masks = []
        for class_ids, state in zip(seen_class_ids, step_states):
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            rng.integers(0, len(examples), size=8)
            rng.integers(0, LAST + 1, size=8)
            masks.append(rng.random(8) < 0.5)
            assert np.array_equal(class_ids == null_id, masks[-1])
        assert len(masks) == 4 and any(m.any() for m in masks)

    def test_first_step_null_mask_matches_seeded_rng(self, world, monkeypatch):
        monkeypatch.setattr(training, "NULL_RATE", 0.5)
        _, _, _, examples = world
        model = content_model()
        seen = seen_loss_class_ids(model)
        cfg = TrainConfig(steps=1, batch_size=8, base_lr=0.0, warmup_steps=0, seed=123)
        train_content(examples, model, cfg)
        rng = np.random.default_rng(123)
        rng.integers(0, len(examples), size=8)
        rng.integers(0, LAST + 1, size=8)
        expected = rng.random(8) < 0.5
        assert np.array_equal(seen[0] == model.config.null_class_id, expected)

    def test_null_fraction_converges(self, world):
        _, _, _, examples = world
        model = content_model()
        seen = seen_loss_class_ids(model)
        cfg = TrainConfig(steps=60, batch_size=16, base_lr=0.0, warmup_steps=0, seed=3)
        train_content(examples, model, cfg)
        frac = (np.concatenate(seen) == model.config.null_class_id).mean()
        assert abs(frac - 0.10) <= 0.02

    def test_determinism(self, world):
        _, _, _, examples = world
        cfg = TrainConfig(steps=4, batch_size=2, base_lr=0.01, warmup_steps=0, seed=9)
        m1, m2 = content_model(), content_model()
        r1 = train_content(examples, m1, cfg)
        r2 = train_content(examples, m2, cfg)
        assert r1.losses == r2.losses
        for k in m1.params():
            assert np.array_equal(m1.params()[k].data, m2.params()[k].data)


class TestTrainStructure:
    def test_zero_lr_leaves_parameters_unchanged(self, world):
        _, _, _, examples = world
        model = structure_model()
        before = {k: v.data.copy() for k, v in model.params().items()}
        cfg = TrainConfig(steps=3, batch_size=2, base_lr=0.0, warmup_steps=0, seed=0)
        train_structure(examples, model, cfg)
        for k, v in model.params().items():
            assert np.array_equal(before[k], v.data)

    def test_known_columns_carry_no_loss(self, world, monkeypatch):
        # recompute the first step's loss manually, restricted to the unknown
        # columns; the trainer must report exactly this value (dropout is
        # disabled so the training forward is deterministic)
        monkeypatch.setattr(ModelConfig, "dropout", property(lambda self: 0.0))
        monkeypatch.setattr(training, "NULL_RATE", 0.0)
        _, _, _, examples = world
        model = structure_model()
        cfg = TrainConfig(steps=1, batch_size=4, base_lr=0.0, warmup_steps=0, seed=5)
        result = train_structure(examples, model, cfg)
        rng = np.random.default_rng(5)
        idx = rng.integers(0, len(examples), size=4)
        stages = rng.integers(1, LAST, size=4)
        ts = rng.random(4)
        rng.random(4)  # null draws
        noise = rng.standard_normal((4, 4, 4, LAST)).astype(np.float32)
        total = 0.0
        weight = 0.0
        for b in range(4):
            ex = examples[int(idx[b])]
            stage = int(stages[b])
            z = noised_input(ex.flow_target, float(ts[b]), noise[b], stage - 1)
            context = model.context(np.array([ex.class_id]),
                                    [ex.sequence.stages[stage - 1][1]], ex.canvases[stage][None])
            vel = model.velocity(context, z[None], np.array([float(ts[b])]))
            target = noise[b] - ex.flow_target
            mask = np.zeros_like(target)
            mask[:, :, stage - 1:] = 1.0
            total += float((((vel.data[0] - target) ** 2) * mask).sum())
            weight += float(mask.sum())
        assert result.losses[0] == pytest.approx(total / weight, rel=1e-4)

    def test_exactly_the_first_steps_null_draws_use_the_null_class(self, world, monkeypatch):
        monkeypatch.setattr(training, "NULL_RATE", 0.5)
        _, _, _, examples = world
        model = structure_model()
        seen = []
        original = model.context

        def instrumented(class_ids, *args, **kwargs):
            seen.append(np.array(class_ids))
            return original(class_ids, *args, **kwargs)

        model.context = instrumented
        cfg = TrainConfig(steps=1, batch_size=8, base_lr=0.0, warmup_steps=0, seed=123)
        train_structure(examples, model, cfg)
        rng = np.random.default_rng(123)
        rng.integers(0, len(examples), size=8)    # examples
        rng.integers(1, LAST, size=8)             # stages
        rng.random(8)                             # times
        expected = rng.random(8) < 0.5
        assert expected.any() and not expected.all()
        assert len(seen) == 1
        assert np.array_equal(seen[0] == model.config.null_class_id, expected)

    def test_training_reduces_eval_loss(self, world):
        _, _, _, examples = world
        model = structure_model()
        before = structure_eval_loss(examples, model, seed=2, samples=12)
        cfg = TrainConfig(steps=60, batch_size=4, base_lr=0.064, warmup_steps=10, seed=1)
        train_structure(examples, model, cfg)
        after = structure_eval_loss(examples, model, seed=2, samples=12)
        assert after < before


class TestEvaluate:
    def test_reports_all_metrics_and_is_deterministic(self, world):
        _, codebook, _, examples = world
        c, s = content_model(), structure_model()
        m1 = evaluate(c, s, examples, codebook, seed=4, flow_steps=2)
        m2 = evaluate(c, s, examples, codebook, seed=4, flow_steps=2)
        assert m1 == m2
        assert set(m1) == {"token_accuracy", "token_accuracy_overall",
                           "reconstruction_mse_by_prefix", "codebook_usage",
                           "structure_bit_accuracy"}

    def test_reconstruction_error_is_per_prefix_through_each_stage(self, world):
        _, codebook, refiners, examples = world
        metrics = evaluate(content_model(), structure_model(), examples, codebook,
                           seed=4, flow_steps=1)
        expected = [np.mean([float(np.mean((accumulate_canvas(ex.sequence, stage, codebook,
                                                              refiners) - ex.grid.data) ** 2))
                             for ex in examples]) for stage in range(LAST + 1)]
        assert metrics["reconstruction_mse_by_prefix"] == pytest.approx(expected, rel=1e-12)

    def test_no_examples_rejected(self, world):
        _, codebook, _, _ = world
        with pytest.raises(InvariantError, match="no training examples"):
            evaluate(content_model(), structure_model(), [], codebook)

    @pytest.mark.parametrize("mismatch", ["model", "examples"])
    def test_a_codebook_the_model_or_examples_do_not_match_is_refused_before_any_forward(
            self, world, monkeypatch, mismatch):
        _, codebook, _, examples = world
        model = ContentModel(ModelConfig(2, "content", 3, 8, 2, LAST))      # scores 8 rows
        assert max(int(t.indices.max()) for ex in examples for t, _ in ex.sequence.stages) >= 8
        if mismatch == "model":         # it used to score the model against 16 rows
            message = "content model scores 8 codebook rows, the codebook has 16"
        else:                           # it used to raise a bare IndexError
            codebook = Codebook(codebook.vectors[:8])
            message = "an example's tokens index past the codebook of 8"

        def refuse(*args, **kwargs):
            raise AssertionError("a model ran before the codebook was checked")

        monkeypatch.setattr(ContentModel, "forward_final_canvas", refuse)
        monkeypatch.setattr(StructureModel, "context", refuse)
        with pytest.raises(InvariantError, match=message):
            evaluate(model, structure_model(), examples, codebook)

    def test_untrained_accuracy_near_chance(self, world):
        _, codebook, _, examples = world
        c, s = content_model(seed=11), structure_model(seed=11)
        metrics = evaluate(c, s, examples, codebook, seed=4, flow_steps=2)
        # chance level is 1/16 on this codebook; allow generous slack
        assert metrics["token_accuracy_overall"] <= 0.4
