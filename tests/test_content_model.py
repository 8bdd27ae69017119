import numpy as np
import pytest

from nvg.autodiff import Adam, Tensor
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel, cluster_mean_matrix, cross_entropy_mean
from nvg.errors import InvariantError
from nvg.grid import StructureMap
from nvg.quantize import identity_refiners
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from nvg.training import tokenize_dataset
from oracles import gradient_check


def small_model(depth=2, e=3, n=8, classes=3, last_stage=4, seed=0, dtype=np.float32):
    cfg = ModelConfig(depth, "content", e, n, classes, last_stage)
    return ContentModel(cfg, seed=seed, dtype=dtype)


def loss_args(rows):
    """ContentModel.loss's arrays for (example, stage) rows, as train_content
    builds them."""
    return (np.array([ex.class_id for ex, _ in rows]),
            [ex.sequence.stages[s][1] for ex, s in rows],
            np.stack([ex.canvases[s] for ex, s in rows]),
            np.stack([ex.target_canvas for ex, _ in rows]),
            [ex.sequence.stages[s][0].indices for ex, s in rows])


def stage_map(stage, h=4, w=4):
    """The stage-`stage` map whose clusters are runs of row-major locations."""
    shift = (h * w).bit_length() - 1 - stage
    return StructureMap(stage, np.arange(h * w).reshape(h, w) >> shift)


@pytest.fixture(scope="module")
def tokenized_example():
    data = make_synthetic_dataset(SyntheticSpec(count=2, h=4, w=4, e=3, num_classes=2, seed=3))
    grids = [g for _, g in data]
    from nvg.quantize import fit_codebook

    codebook = fit_codebook(grids, 8, seed=0)
    refiners = identity_refiners(4, 3)
    return tokenize_dataset(data, codebook, refiners), codebook


class TestForward:
    def test_output_shape_matches_canvas(self):
        model = small_model()
        canvas = np.zeros((1, 4, 4, 3), dtype=np.float32)
        out = model.forward_final_canvas(np.array([0]), [stage_map(1)], canvas)
        assert out.shape == (1, 4, 4, 3)

    def test_core_params_equal_formula(self):
        for depth in (2, 4):
            model = small_model(depth=depth)
            core = sum(p.data.size for name, p in model.params().items()
                       if name.startswith("block"))
            assert core == 15 * depth * model.config.width ** 2

    @pytest.mark.parametrize("stage, h, w", [(2, 4, 4), (7, 8, 16)], ids=["K2", "K7"])
    def test_structure_ids_need_one_column_per_stage(self, monkeypatch, stage, h, w):
        # the rotary structure ids the model builds from a stage-K map hold one
        # column per split stage, bit j of each location's label read from
        # the top as 0 or 2, and the pad id 1 in the other of the 8 slots
        model = small_model(last_stage=7)
        smap = stage_map(stage, h, w)
        seen = []
        real = model._rope_tables
        monkeypatch.setattr(model, "_rope_tables",
                            lambda ids, *args: seen.append(ids.copy()) or real(ids, *args))
        model.forward_final_canvas(np.array([0]), [smap], np.zeros((1, h, w, 3), np.float32))
        labels = smap.labels.reshape(-1)
        want = np.ones((1, h * w, 8), dtype=np.int64)
        for j in range(stage):
            want[0, :, j] = 2 * ((labels >> (stage - 1 - j)) & 1)
        assert len(seen) == 1 and np.array_equal(seen[0], want)

    def test_class_conditioning_reaches_output_after_training(self, tokenized_example):
        examples, codebook = tokenized_example
        model = small_model(e=3, n=codebook.size, classes=2, last_stage=4, seed=1)
        ex = examples[0]
        args = loss_args([(ex, 2)])
        opt = Adam(model.params())
        for _ in range(5):
            loss = model.loss(*args)
            opt.zero_grad()
            loss.backward()
            opt.step(1e-2)
        smap = ex.sequence.stages[2][1]
        cond = model.forward_final_canvas(np.array([0]), [smap], ex.canvases[2][None])
        uncond = model.forward_final_canvas(
            np.array([model.config.null_class_id]), [smap], ex.canvases[2][None])
        assert not np.allclose(cond.data, uncond.data)


class TestInputContract:
    @pytest.mark.parametrize("class_ids, smaps, canvas_shape", [
        ([-1], [stage_map(2)], (1, 4, 4, 3)),
        ([4], [stage_map(2)], (1, 4, 4, 3)),
        ([0], [stage_map(5, 8, 8)], (1, 8, 8, 3)),
        ([0], [stage_map(2)], (1, 4, 4, 4)),
        ([0, 1], [stage_map(2)], (1, 4, 4, 3)),
        ([0], [stage_map(2), stage_map(2)], (1, 4, 4, 3)),
        ([0], [stage_map(1, 2, 8)], (1, 4, 4, 3)),
        ([0], [stage_map(2).labels], (1, 4, 4, 3)),
        ([0], [], (1, 4, 4, 3)),
    ], ids=["class-negative", "class-above-null", "stage-above-last", "canvas-channels",
            "two-classes-one-row", "two-stages-one-row", "map-wrong-shape", "not-a-map",
            "no-map"])
    def test_bad_input_is_invariant_error(self, class_ids, smaps, canvas_shape):
        # ids index embedding tables, where row -1 is the null class or last
        # stage; each row's stage is its map's, so an 8x8 grid's stage-5 map
        # is past this model's last stage
        model = small_model()           # classes 0..2, null id 3, stages 0..4, e = 3
        with pytest.raises(InvariantError):
            model.forward_final_canvas(np.array(class_ids), smaps,
                                       np.zeros(canvas_shape, np.float32))

    def test_loss_needs_one_token_target_per_map(self, tokenized_example):
        examples, codebook = tokenized_example
        model = small_model(e=3, n=codebook.size, classes=2, last_stage=4)
        class_ids, smaps, canvases, targets, tokens = loss_args(
            [(examples[0], 1), (examples[1], 2)])
        with pytest.raises(InvariantError, match="one token target per map"):
            model.loss(class_ids, smaps, canvases, targets, tokens[:1])


class TestTokenLogits:
    def test_zero_diff_gives_identical_rows(self):
        model = small_model()
        canvas = np.random.default_rng(0).normal(size=(4, 4, 3)).astype(np.float32)
        smap = StructureMap(2, np.repeat(np.arange(4), 4).reshape(4, 4))
        logits = model.token_logits(canvas, canvas, smap)
        assert logits.shape == (4, 8)
        assert np.allclose(logits.data, logits.data[0])

    def test_stage0_single_row(self):
        model = small_model()
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(4, 4, 3)).astype(np.float32)
        canvas = rng.normal(size=(4, 4, 3)).astype(np.float32)
        smap = StructureMap(0, np.zeros((4, 4), dtype=np.int64))
        assert model.token_logits(pred, canvas, smap).shape == (1, 8)

    def test_permutation_equivariance(self):
        model = small_model()
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(4, 4, 3)).astype(np.float32)
        canvas = rng.normal(size=(4, 4, 3)).astype(np.float32)
        labels = np.repeat(np.arange(4), 4).reshape(4, 4)
        perm = np.array([2, 0, 3, 1])
        base = model.token_logits(pred, canvas, StructureMap(2, labels)).data
        permuted = model.token_logits(pred, canvas, StructureMap(2, perm[labels])).data
        # row perm[j] of the permuted logits is row j of the base logits
        assert np.allclose(permuted[perm], base, atol=1e-6)

    def test_cluster_mean_matrix_rows_sum_to_one(self):
        smap = StructureMap(1, np.array([[0, 0], [1, 1]]))
        m = cluster_mean_matrix(smap)
        assert np.allclose(m.sum(axis=1), 1.0)


class TestLossPieces:
    def test_uniform_logits_ce_is_log_n(self):
        logits = Tensor(np.zeros((5, 64)))
        ce = cross_entropy_mean(logits, np.arange(5))
        assert float(ce.data) == pytest.approx(np.log(64), abs=1e-6)

    def test_one_hot_logits_ce_near_zero(self):
        targets = np.array([2, 0, 1])
        logits = np.full((3, 4), -1e6)
        logits[np.arange(3), targets] = 1e6
        ce = cross_entropy_mean(Tensor(logits), targets)
        assert float(ce.data) == pytest.approx(0.0, abs=1e-6)

    def test_loss_runs_and_returns_a_tensor(self, tokenized_example):
        examples, codebook = tokenized_example
        model = small_model(e=3, n=codebook.size, classes=2, last_stage=4)
        ex = examples[0]
        loss = model.loss(*loss_args([(ex, 0), (ex, 3)]))
        assert isinstance(loss, Tensor)
        assert loss.shape == ()
        assert np.isfinite(float(loss.data))

    def test_loss_equals_mse_plus_mean_cross_entropy(self, tokenized_example):
        # float64 oracle: the canvas MSE over the batch plus the mean over
        # samples of each sample's mean token cross entropy, from numpy alone
        examples, codebook = tokenized_example
        model = small_model(e=3, n=codebook.size, classes=2, last_stage=4,
                            dtype=np.float64)
        rng = np.random.default_rng(3)
        for p in model.params().values():
            p.data = 0.1 * rng.standard_normal(p.data.shape)
        class_ids, smaps, canvases, targets, tokens = loss_args(
            [(examples[0], 0), (examples[1], 2), (examples[0], 4)])
        pred = model.forward_final_canvas(class_ids, smaps, canvases).data
        mse = np.mean((pred - targets.astype(np.float64)) ** 2)
        ces = []
        for b, (smap, target_tokens) in enumerate(zip(smaps, tokens)):
            labels = smap.labels.ravel()
            diff = (pred[b] - canvases[b]).reshape(labels.size, -1)
            means = np.zeros((smap.num_clusters, diff.shape[1]))
            np.add.at(means, labels, diff)
            means /= smap.cluster_size
            logits = means @ model.w_logit.data + model.b_logit.data
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            ces.append(-log_probs[np.arange(labels.max() + 1), target_tokens].mean())
        loss = model.loss(class_ids, smaps, canvases, targets, tokens)
        assert loss.data.dtype == np.float64
        assert float(loss.data) == pytest.approx(mse + np.mean(ces), rel=1e-12, abs=0)


def test_full_content_loss_gradient_check(tokenized_example):
    examples, codebook = tokenized_example
    model = small_model(e=3, n=codebook.size, classes=2, last_stage=4, dtype=np.float64)
    rng = np.random.default_rng(7)
    for p in model.params().values():
        p.data = 0.05 * rng.standard_normal(p.data.shape)
    ex = examples[0]
    args = loss_args([(ex, 2)])

    err = gradient_check(lambda: model.loss(*args), model.params(), seed=0, samples=60)
    assert err <= 1e-3
