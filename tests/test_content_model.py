import numpy as np
import pytest

from nvg.autodiff import Adam, Tensor
from nvg.backbone import ModelConfig, gradient_check, param_count
from nvg.content_model import (
    ContentBatch,
    ContentModel,
    cluster_mean_matrix,
    cross_entropy_mean,
)
from nvg.grid import Codebook, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.quantize import build_contents, identity_refiners
from nvg.structcode import embed_structure_map
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from nvg.training import tokenize_dataset


def small_model(depth=2, e=3, n=8, classes=3, last_stage=4, seed=0, dtype=np.float32):
    cfg = ModelConfig(depth, "content", e, n, classes, last_stage)
    return ContentModel(cfg, seed=seed, dtype=dtype)


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
        emb = np.ones((1, 4, 4, 4), dtype=np.int64)
        out = model.forward_final_canvas(np.array([0]), np.array([0]), canvas, emb)
        assert out.shape == (1, 4, 4, 3)

    def test_core_params_equal_formula(self):
        for depth in (2, 4):
            model = small_model(depth=depth)
            assert model.core_param_count() == param_count(model.config)

    def test_class_conditioning_reaches_output_after_training(self, tokenized_example):
        examples, codebook = tokenized_example
        model = small_model(e=3, n=codebook.size, classes=2, last_stage=4, seed=1)
        ex = examples[0]
        batch = [ContentBatch(ex.class_id, 2, ex.canvases[2], ex.struct_embs[2],
                              ex.sequence.stages[2][1], ex.target_canvas,
                              ex.sequence.stages[2][0].indices)]
        opt = Adam(model.params(), lr=1e-2)
        for _ in range(5):
            loss = model.loss(batch)
            opt.zero_grad()
            loss.backward()
            opt.step()
        cond = model.forward_final_canvas(
            np.array([0]), np.array([2]), ex.canvases[2][None], ex.struct_embs[2][None])
        uncond = model.forward_final_canvas(
            np.array([model.config.null_class_id]), np.array([2]),
            ex.canvases[2][None], ex.struct_embs[2][None])
        assert not np.allclose(cond.data, uncond.data)


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
        batch = [ContentBatch(ex.class_id, s, ex.canvases[s], ex.struct_embs[s],
                              ex.sequence.stages[s][1], ex.target_canvas,
                              ex.sequence.stages[s][0].indices) for s in (0, 3)]
        loss = model.loss(batch)
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
        batch = [ContentBatch(ex.class_id, s, ex.canvases[s], ex.struct_embs[s],
                              ex.sequence.stages[s][1], ex.target_canvas,
                              ex.sequence.stages[s][0].indices)
                 for ex, s in ((examples[0], 0), (examples[1], 2), (examples[0], 4))]
        pred = model.forward_final_canvas(
            np.array([item.class_id for item in batch]),
            np.array([item.stage for item in batch]),
            np.stack([item.canvas for item in batch]),
            np.stack([item.struct_emb for item in batch])).data
        targets = np.stack([item.target_canvas for item in batch]).astype(np.float64)
        mse = np.mean((pred - targets) ** 2)
        ces = []
        for b, item in enumerate(batch):
            labels = item.smap.labels.ravel()
            diff = (pred[b] - item.canvas).reshape(labels.size, -1)
            means = np.zeros((item.smap.num_clusters, diff.shape[1]))
            np.add.at(means, labels, diff)
            means /= item.smap.cluster_size
            logits = means @ model.w_logit.data + model.b_logit.data
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            ces.append(-log_probs[np.arange(labels.max() + 1), item.target_tokens].mean())
        loss = model.loss(batch)
        assert loss.data.dtype == np.float64
        assert float(loss.data) == pytest.approx(mse + np.mean(ces), rel=1e-12, abs=0)


def test_full_content_loss_gradient_check(tokenized_example):
    examples, codebook = tokenized_example
    model = small_model(e=3, n=codebook.size, classes=2, last_stage=4, dtype=np.float64)
    rng = np.random.default_rng(7)
    for p in model.params().values():
        p.data = 0.05 * rng.standard_normal(p.data.shape)
    ex = examples[0]
    batch = [ContentBatch(ex.class_id, 2, ex.canvases[2], ex.struct_embs[2],
                          ex.sequence.stages[2][1], ex.target_canvas,
                          ex.sequence.stages[2][0].indices)]

    err = gradient_check(lambda: model.loss(batch), model.params(), seed=0, samples=60)
    assert err <= 1e-3
