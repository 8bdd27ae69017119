import warnings

import numpy as np
import pytest

from nvg import training
from nvg.autodiff import no_grad
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel
from nvg.errors import InvariantError, NumericError
from nvg.grid import assign
from nvg.quantize import Refiner, fit_codebook, identity_refiners
from nvg.structcode import embed_structure_map
from nvg.structure_model import StructureModel, noised_input
from nvg.synthetic import BASE_SCALE, SyntheticSpec, class_base_colors, make_synthetic_dataset
from nvg.training import (
    TrainConfig,
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
        vel = model.velocity(np.array([ex.class_id]), [ex.sequence.stages[stage - 1][1]],
                             ex.canvases[stage][None], z[None], np.array([t]))
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
            assert len(ex.canvases) == LAST + 1
            for i, canvas in enumerate(ex.canvases):
                assert np.array_equal(canvas, accumulate_canvas(seq, i - 1, codebook, refiners))
            assert np.array_equal(ex.target_canvas,
                                  accumulate_canvas(seq, LAST, codebook, refiners))

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
            vel = model.velocity(np.array([ex.class_id]), [ex.sequence.stages[stage - 1][1]],
                                 ex.canvases[stage][None], z[None],
                                 np.array([float(ts[b])]))
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
        original = model.velocity

        def instrumented(class_ids, *args, **kwargs):
            seen.append(np.array(class_ids))
            return original(class_ids, *args, **kwargs)

        model.velocity = instrumented
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

    def test_untrained_accuracy_near_chance(self, world):
        _, codebook, _, examples = world
        c, s = content_model(seed=11), structure_model(seed=11)
        metrics = evaluate(c, s, examples, codebook, seed=4, flow_steps=2)
        # chance level is 1/16 on this codebook; allow generous slack
        assert metrics["token_accuracy_overall"] <= 0.4
