"""The inference fast path: tape-free forwards under `no_grad`, guided steps as
one B=2 forward, and rope tables built once per batch and once per flow stage,
with the flow's context."""

import numpy as np
import pytest

from nvg import autodiff as ad
from nvg import backbone, pipeline
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel
from nvg.errors import InvariantError
from nvg.grid import StructureMap
from nvg.pipeline import GenerationRequest, ScheduleParams, generate
from nvg.quantize import fit_codebook, identity_refiners
from nvg.structure_model import StructureModel
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from nvg.training import TrainConfig, tokenize_dataset, train_content

H = W = 4
E = 3
LAST = 4
CLASSES = 2


def content_model(seed=0):
    return ContentModel(ModelConfig(2, "content", E, 8, CLASSES, LAST), seed=seed)


def structure_model(seed=0):
    return StructureModel(ModelConfig(2, "structure", E, 8, CLASSES, LAST), seed=seed)


def content_forward(model, classes, canvas, smap):
    n = len(classes)
    return model.forward_final_canvas(np.array(classes), [smap] * n,
                                      np.repeat(canvas[None], n, axis=0))


def flow_context(model, classes, canvas, parent):
    n = len(classes)
    return model.context(np.array(classes), [parent] * n, np.repeat(canvas[None], n, axis=0))


def velocity(model, classes, canvas, parent, z, t=0.6, context=None):
    n = len(classes)
    if context is None:
        context = flow_context(model, classes, canvas, parent)
    return model.velocity(context, np.repeat(z[None], n, axis=0), np.full(n, t))


@pytest.fixture(scope="module")
def inputs():
    """A canvas, a stage-2 map, its stage-1 parent and a noised grid."""
    rng = np.random.default_rng(0)
    canvas = rng.standard_normal((H, W, E)).astype(np.float32)
    labels = rng.permutation(np.arange(H * W) >> 2).reshape(H, W)
    smap, parent = StructureMap(2, labels), StructureMap(1, labels >> 1)
    z = rng.standard_normal((H, W, LAST)).astype(np.float32)
    return canvas, smap, parent, z


@pytest.fixture(scope="module")
def world():
    data = make_synthetic_dataset(SyntheticSpec(count=4, h=H, w=W, e=E,
                                                num_classes=CLASSES, seed=11))
    codebook = fit_codebook([g for _, g in data], 8, seed=0)
    refiners = identity_refiners(LAST, E)
    return codebook, refiners, tokenize_dataset(data, codebook, refiners)


class TestNoGrad:
    def test_outputs_carry_no_tape(self, inputs):
        canvas, smap, _, _ = inputs
        model = content_model()
        with ad.no_grad():
            out = content_forward(model, [0], canvas, smap)
        assert out._node is None and not out.requires_grad
        assert all(p.requires_grad for p in model.params().values())
        assert content_forward(model, [0], canvas, smap)._node.parents != ()

    def test_nested_blocks_restore_the_outer_mode(self, inputs):
        canvas, smap, _, _ = inputs
        model = content_model()
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert content_forward(model, [0], canvas, smap)._node is None
        assert content_forward(model, [0], canvas, smap)._node.parents != ()

    def test_mode_restored_after_generate_raises(self, inputs, world):
        canvas, smap, _, _ = inputs
        codebook, refiners, _ = world
        model = content_model()
        req = GenerationRequest(class_id=CLASSES, seed=0, h=H, w=W, e=E)
        with pytest.raises(InvariantError, match="class id"):
            generate(req, model, structure_model(), codebook, refiners)
        assert content_forward(model, [0], canvas, smap)._node.parents != ()

    def test_training_after_generate_still_gets_gradients(self, world, monkeypatch):
        codebook, refiners, examples = world
        model = content_model()
        req = GenerationRequest(class_id=0, seed=1, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=2))
        generate(req, model, structure_model(), codebook, refiners)
        grads = []
        step = ad.Adam.step

        def spy(self, lr):
            # read where the optimizer receives them: its step consumes them
            grads.extend(p.grad for p in self.params.values())
            return step(self, lr)

        monkeypatch.setattr(ad.Adam, "step", spy)
        train_content(examples, model, TrainConfig(steps=1, batch_size=2, base_lr=0.064,
                                                   warmup_steps=0, seed=0))
        assert len(grads) == len(model.params())
        assert all(g is not None for g in grads)
        assert any(np.any(g != 0) for g in grads)


def randomize(model, seed, keep_modulation_zero):
    """Random weights everywhere, so the class token shapes every output row.
    Optionally keep the conditioning projections (w_mod, w_final_mod) at zero."""
    rng = np.random.default_rng(seed)
    for name, p in model.params().items():
        if not (keep_modulation_zero and name.endswith("_mod")):
            p.data = (0.05 * rng.standard_normal(p.data.shape)).astype(np.float32)
    return model


class TestBatchedGuidance:
    """A guided step runs [class, null] as one B=2 batch.

    Every part of a forward treats batch rows independently and rounds them
    the same at B=1 and B=2, except the (B, width) conditioning products:
    numpy computes a one-row product with a matrix-vector BLAS call and a
    two-row product with a matrix-matrix call, and the two round differently.
    With the conditioning projections at zero, as a model is built, the rows
    must therefore equal two B=1 calls bit for bit; with them set, they agree
    to float32 rounding.
    """

    @staticmethod
    def run(kind, model, classes, inputs):
        canvas, smap, parent, z = inputs
        if kind == "content":
            return content_forward(model, classes, canvas, smap).data
        return velocity(model, classes, canvas, parent, z).data

    @pytest.mark.parametrize("kind", ["content", "structure"])
    def test_rows_equal_single_calls(self, inputs, kind):
        model = randomize(content_model() if kind == "content" else structure_model(),
                          seed=3, keep_modulation_zero=True)
        with ad.no_grad():
            pair = self.run(kind, model, [1, CLASSES], inputs)
            single = [self.run(kind, model, [c], inputs)[0] for c in (1, CLASSES)]
        assert np.array_equal(pair[0], single[0])
        assert np.array_equal(pair[1], single[1])
        assert np.abs(pair[0] - pair[1]).max() > 1e-3      # the class matters

    @pytest.mark.parametrize("kind", ["content", "structure"])
    def test_rows_match_single_calls_with_modulation_set(self, inputs, kind):
        model = randomize(content_model() if kind == "content" else structure_model(),
                          seed=5, keep_modulation_zero=False)
        with ad.no_grad():
            pair = self.run(kind, model, [1, CLASSES], inputs)
            single = np.concatenate([self.run(kind, model, [c], inputs) for c in (1, CLASSES)])
        assert np.abs(pair[0] - pair[1]).max() > 1e-3
        np.testing.assert_allclose(pair, single, rtol=0, atol=1e-5)


class TestRopeMemo:
    def test_tables_built_once_while_known_columns_stay(self, inputs, monkeypatch):
        canvas, _, parent, z = inputs
        model = structure_model()
        real = backbone.rope_tables
        built = []
        monkeypatch.setattr(backbone, "rope_tables",
                            lambda *a, **k: built.append(1) or real(*a, **k))
        with ad.no_grad():
            context = flow_context(model, [0, CLASSES], canvas, parent)
            for t in (1.0, 0.8, 0.6):          # free columns move, the known one stays
                z_t = z.copy()
                z_t[..., 1:] *= t
                velocity(model, [0, CLASSES], canvas, parent, z_t, t=t, context=context)
        assert len(built) == 1                  # one build for the batch, with the context

    @pytest.mark.parametrize("kind,runs", [("content", 1), ("structure", 2)])
    def test_batched_rows_equal_single_builds(self, kind, runs):
        model = content_model() if kind == "content" else structure_model()
        rng = np.random.default_rng(4)
        ids = np.ones((3, H * W, 8), dtype=np.int64)
        ids[:, :, :3] = 2 * rng.integers(0, 2, size=(3, H * W, 3))
        batch = model._rope_tables(ids, W, runs=runs)
        heads = model.config.heads
        assert batch[0].shape == (3, 1 + runs * H * W, 2 * heads, 32)
        # the per-row layout, built by hand: the class token, then `runs` runs
        # of the grid with token kind 1, 2, ...
        yx = np.stack(np.divmod(np.arange(H * W), W), axis=1)
        kind_ids = np.concatenate([[0]] + [np.full(H * W, s + 1) for s in range(runs)])
        spatial = np.concatenate([[[0, 0]]] + [yx] * runs)
        for b in range(3):
            single = (content_model() if kind == "content" else structure_model()) \
                ._rope_tables(ids[b:b + 1], W, runs=runs)
            struct = np.concatenate([np.ones((1, 8), dtype=np.int64)] + [ids[b]] * runs)
            by_hand = backbone.rope_tables(kind_ids, struct, spatial)
            for table, single_table, hand_table in zip(batch, single, by_hand):
                assert np.array_equal(table[b], single_table[0])
                # axis 2: H query-head tables scaled by 2^-3, then H key-head tables
                for head in range(heads):
                    assert np.array_equal(table[b, :, heads + head], hand_table)
                    assert np.array_equal(table[b, :, head], 0.125 * hand_table)

    def test_tables_recomputed_when_known_columns_change(self):
        model = structure_model()
        ids = np.ones((1, H * W, 8), dtype=np.int64)
        first = model._rope_tables(ids, W, runs=2)
        changed = ids.copy()
        changed[0, :, 0] = np.arange(H * W) % 2 * 2
        second = model._rope_tables(changed, W, runs=2)
        assert not np.array_equal(second[0], first[0])
        fresh = structure_model()._rope_tables(changed, W, runs=2)
        assert np.array_equal(second[0], fresh[0]) and np.array_equal(second[1], fresh[1])
        assert np.array_equal(model._rope_tables(ids, W, runs=2)[0], first[0])
        assert model._rope_tables(changed, W, runs=1)[0].shape != second[0].shape


def test_generate_batches_the_class_row_before_the_null_row(world, monkeypatch):
    """Fake models fill each output row with its class id, so every guided
    velocity pair and logit pair shows which condition it came from."""
    codebook, refiners, _ = world
    calls = {"context": [], "velocity": [], "content": []}

    def fake_context(self, class_ids, parents, canvases, **kwargs):
        calls["context"].append(list(class_ids))
        return np.asarray(class_ids, np.float32)

    def fake_velocity(self, context, zs, *args, **kwargs):
        calls["velocity"].append(context.tolist())
        return ad.Tensor(context[:, None, None, None] * np.ones_like(zs))

    def fake_canvas(self, class_ids, smaps, canvases, **kwargs):
        calls["content"].append(list(class_ids))
        return ad.Tensor(np.asarray(class_ids, np.float32)[:, None, None, None]
                         * np.ones_like(canvases))

    def fake_logits(self, pred_final, canvas, smap):
        return ad.Tensor(np.full((smap.num_clusters, 8), pred_final.data.flat[0]))

    pairs = []
    real_guided = pipeline.guided

    def spy_guided(rows, scale):
        if len(rows) == 2:
            pairs.append((rows[0], rows[1]))
        return real_guided(rows, scale)

    monkeypatch.setattr(StructureModel, "context", fake_context)
    monkeypatch.setattr(StructureModel, "velocity", fake_velocity)
    monkeypatch.setattr(ContentModel, "forward_final_canvas", fake_canvas)
    monkeypatch.setattr(ContentModel, "token_logits", fake_logits)
    monkeypatch.setattr(pipeline, "guided", spy_guided)
    req = GenerationRequest(class_id=1, seed=0, h=H, w=W, e=E,
                            schedule=ScheduleParams(flow_steps=3))
    generate(req, content_model(), structure_model(), codebook, refiners)

    null = CLASSES
    # 4x4: flow at stages 1-3 with guidance from stage 2; stage 1 runs all 3
    # steps from noise, the warm-started stages 2 and 3 round(0.4 * 3) = 1
    # each. Content at 0-4, guided from 1
    assert calls["context"] == [[1], [1, null], [1, null]]     # one per flow stage
    assert calls["velocity"] == [[1]] * 3 + [[1, null]] * 2
    assert calls["content"] == [[1]] + [[1, null]] * 4
    assert len(pairs) == 2 + 4
    for cond, uncond in pairs:
        assert np.all(cond == 1) and np.all(uncond == null)
