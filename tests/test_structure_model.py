import numpy as np
import pytest

from nvg.backbone import ModelConfig
from nvg.autodiff import Tensor
from nvg.errors import InvariantError, NumericError
from nvg.grid import StructureMap
from nvg.pipeline import cfg_forward
from nvg.structcode import embed_structure_map
from nvg.structure_model import (
    StructureModel,
    flow_sample,
    gumbel_balanced_split,
    noised_input,
)
from oracles import gradient_check


def small_model(depth=2, e=3, classes=3, last_stage=4, seed=0, dtype=np.float32):
    cfg = ModelConfig(depth, "structure", e, 1, classes, last_stage)
    return StructureModel(cfg, seed=seed, dtype=dtype)


def stage_map(stage, h=4, w=4):
    """The stage-`stage` map whose clusters are runs of row-major locations."""
    shift = (h * w).bit_length() - 1 - stage
    return StructureMap(stage, np.arange(h * w).reshape(h, w) >> shift)


def random_embedding(rng, h=4, w=4, k=4):
    # a valid full-depth embedding: bits in {0, 2}
    return (2.0 * rng.integers(0, 2, size=(h, w, k))).astype(np.float32)


def guided_fn(row_fn, scale, batches):
    """A velocity_fn(z, t) that guides like `generate`: class 0 against the
    null class 1 through `cfg_forward`. Every batch of class ids it runs is
    appended to `batches`; row_fn(z, class_id) gives that class's velocity."""
    def velocity_fn(z, t):
        def rows(classes):
            batches.append(classes.tolist())
            return np.stack([row_fn(z, c) for c in classes.tolist()])
        return cfg_forward(rows, 0, 1, scale)
    return velocity_fn


class TestNoisedInput:
    def test_t_zero_returns_embedding(self):
        rng = np.random.default_rng(0)
        s_e = random_embedding(rng)
        z = noised_input(s_e, 0.0, rng.standard_normal(s_e.shape), 0)
        assert np.allclose(z, s_e)

    def test_t_one_returns_noise(self):
        rng = np.random.default_rng(1)
        s_e = random_embedding(rng)
        noise = rng.standard_normal(s_e.shape).astype(np.float32)
        z = noised_input(s_e, 1.0, noise, 0)
        assert np.array_equal(z, noise)

    def test_known_columns_clamped_at_t_one(self):
        rng = np.random.default_rng(2)
        s_e = random_embedding(rng)
        noise = rng.standard_normal(s_e.shape).astype(np.float32)
        z = noised_input(s_e, 1.0, noise, 3)
        assert np.array_equal(z[..., :3], s_e[..., :3])
        assert np.array_equal(z[..., 3:], noise[..., 3:])

    def test_path_derivative_is_noise_minus_embedding(self):
        rng = np.random.default_rng(3)
        s_e = random_embedding(rng)
        noise = rng.standard_normal(s_e.shape).astype(np.float32)
        z1 = noised_input(s_e, 0.25, noise, 0).astype(np.float64)
        z2 = noised_input(s_e, 0.75, noise, 0).astype(np.float64)
        derivative = (z2 - z1) / 0.5
        assert np.allclose(derivative, noise - s_e, atol=1e-5)

    def test_t_out_of_range(self):
        rng = np.random.default_rng(4)
        s_e = random_embedding(rng)
        with pytest.raises(InvariantError):
            noised_input(s_e, 1.5, np.zeros_like(s_e), 0)


class TestVelocityForward:
    def test_output_shape(self):
        model = small_model()
        rng = np.random.default_rng(5)
        canvas = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        zs = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        out = model.velocity(np.array([0, 1]), [stage_map(0), stage_map(1)], canvas, zs,
                             np.array([0.3, 0.9]))
        assert out.shape == (2, 4, 4, 4)

    def test_single_sample_wrapper(self):
        model = small_model()
        rng = np.random.default_rng(6)
        canvas = rng.normal(size=(4, 4, 3)).astype(np.float32)
        z = rng.normal(size=(4, 4, 4)).astype(np.float32)
        out = model.velocity(np.array([0]), [stage_map(1)], canvas[None], z[None],
                             np.array([0.5]))
        assert out.shape == (1, 4, 4, 4)

    def test_rotary_ids_are_each_rows_known_columns(self, monkeypatch):
        # loop reference: row b, a flow at stage_b, reads its parent map's
        # embedding, which is its first stage_b - 1 columns of a z clamped to
        # them, and 1 in the other slots up to the 8 rotary slots
        model = small_model()
        rng = np.random.default_rng(17)
        parents = [StructureMap(s, rng.permutation(np.arange(16) >> (4 - s)).reshape(4, 4))
                   for s in (0, 1, 3)]
        zs = (2.0 * rng.standard_normal((3, 4, 4, 4))).astype(np.float32)
        for b, parent in enumerate(parents):
            zs[b, ..., :parent.stage] = embed_structure_map(parent, 4)[..., :parent.stage]
        seen = []
        real = model._rope_tables
        monkeypatch.setattr(model, "_rope_tables",
                            lambda ids, *args: seen.append(ids.copy()) or real(ids, *args))
        model.velocity(np.zeros(3, dtype=np.int64), parents,
                       np.zeros((3, 4, 4, 3), np.float32), zs, np.full(3, 0.5))
        want = np.ones((3, 16, 8), dtype=np.int64)
        for b, parent in enumerate(parents):
            known = parent.stage
            want[b, :, :known] = np.rint(zs[b, ..., :known]).reshape(16, known)
        assert len(seen) == 1 and np.array_equal(seen[0], want)


class TestInputContract:
    @pytest.mark.parametrize("class_ids, parents, channels, depth", [
        ([-1], [stage_map(1)], 3, 4), ([4], [stage_map(1)], 3, 4),
        ([0], [stage_map(4)], 3, 4), ([0], [stage_map(1)], 4, 4),
        ([0], [stage_map(1)], 3, 5), ([0, 1], [stage_map(1)], 3, 4),
        ([0], [stage_map(1), stage_map(1)], 3, 4), ([0], [stage_map(1, 2, 8)], 3, 4),
        ([0], [stage_map(1).labels], 3, 4), ([0], [], 3, 4),
    ], ids=["class-negative", "class-above-null", "stage-above-last", "canvas-channels",
            "noised-grid-depth", "two-classes-one-row", "two-stages-one-row",
            "map-wrong-shape", "not-a-map", "no-map"])
    def test_bad_input_is_invariant_error(self, class_ids, parents, channels, depth):
        # the velocity of stage s reads the stage s - 1 map, so a stage-4
        # parent asks for stage 5, past this model's last stage
        model = small_model()           # classes 0..2, null id 3, stages 0..4, e = 3
        with pytest.raises(InvariantError):
            model.velocity(np.array(class_ids), parents,
                           np.zeros((1, 4, 4, channels), np.float32),
                           np.zeros((1, 4, 4, depth), np.float32), np.array([0.5]))

    def test_needs_one_time_per_row(self):
        # one time for two rows used to broadcast silently over the batch
        with pytest.raises(InvariantError):
            small_model().velocity(np.array([0, 1]), [stage_map(1)] * 2,
                                   np.zeros((2, 4, 4, 3), np.float32),
                                   np.zeros((2, 4, 4, 4), np.float32), np.array([0.5]))


class TestFlowSample:
    def test_oracle_model_recovers_target(self):
        rng = np.random.default_rng(7)
        target = random_embedding(rng)

        def oracle(z, t):
            return (z - target) / t

        out = flow_sample(oracle, target, stage=2, n_steps=25, rng=3)
        assert np.allclose(out, target, atol=1e-3)

    def test_known_columns_bit_exact_at_every_step(self):
        rng = np.random.default_rng(8)
        target = random_embedding(rng)
        seen = []

        def probe(z, t):
            seen.append(z.copy())
            return np.zeros_like(z)

        stage = 3
        flow_sample(probe, target, stage=stage, n_steps=7, rng=4)
        assert len(seen) == 7
        for z in seen:
            assert np.array_equal(z[..., :stage - 1], target[..., :stage - 1])

    def test_cfg_combination_on_velocities(self):
        rng = np.random.default_rng(9)
        target = random_embedding(rng)
        batches = []
        # v_cond = 2, v_null = 1
        fn = guided_fn(lambda z, c: np.full_like(z, 2.0 - c), 3.0, batches)

        out = flow_sample(fn, target, stage=1, n_steps=1, rng=5)
        # v = 1 + 3*(2-1) = 4, one euler step of dt=1 from noise
        assert batches == [[0, 1]]
        noise = np.random.default_rng(5).standard_normal(target.shape).astype(np.float32)
        assert np.allclose(out, noise - 4.0, atol=1e-5)

    def test_scale_one_skips_null_forward(self):
        rng = np.random.default_rng(10)
        target = random_embedding(rng)
        batches = []
        fn = guided_fn(lambda z, c: np.zeros_like(z), 1.0, batches)

        flow_sample(fn, target, stage=1, n_steps=4, rng=6)
        assert batches == [[0]] * 4

    def test_guided_sampling_makes_one_call_per_step(self):
        rng = np.random.default_rng(10)
        target = random_embedding(rng)
        batches = []
        fn = guided_fn(lambda z, c: np.zeros_like(z), 2.0, batches)

        flow_sample(fn, target, stage=1, n_steps=5, rng=6)
        assert batches == [[0, 1]] * 5

    # NumericError must be the only report: no numpy warning on the way to it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cfg_scale,bad_row", [(1.0, 0), (2.0, 0), (2.0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_velocity_raises_numeric_error(self, cfg_scale, bad_row, bad):
        target = random_embedding(np.random.default_rng(12))

        def row(z, class_id):
            v = np.zeros_like(z)
            if class_id == bad_row:
                v[1, 2, 3] = bad
            return v

        with pytest.raises(NumericError):
            flow_sample(guided_fn(row, cfg_scale, []), target, stage=2, n_steps=3, rng=8)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        target = random_embedding(rng)

        def fn(z, t):
            return z - target

        a = flow_sample(fn, target, stage=2, n_steps=5, rng=7)
        b = flow_sample(fn, target, stage=2, n_steps=5, rng=7)
        assert np.array_equal(a, b)


class TestGumbelSplit:
    def test_exact_balance(self):
        parent = StructureMap(0, np.zeros((2, 4), dtype=np.int64))
        rng = np.random.default_rng(12)
        child = gumbel_balanced_split(parent, rng.normal(size=(2, 4)), rng)
        counts = np.bincount(child.labels.ravel(), minlength=2)
        assert counts.tolist() == [4, 4]

    def test_uniform_scores_halve_evenly(self):
        parent = StructureMap(0, np.zeros((2, 4), dtype=np.int64))
        scores = np.zeros((2, 4))
        rng = np.random.default_rng(13)
        hits = np.zeros(8)
        n = 10_000
        for _ in range(n):
            child = gumbel_balanced_split(parent, scores, rng)
            hits += (child.labels.ravel() == 0)
        freq = hits / n
        assert np.all(np.abs(freq - 0.5) <= 0.02)

    def test_strong_scores_dominate(self):
        parent = StructureMap(0, np.zeros((2, 4), dtype=np.int64))
        scores = np.array([[10.0, 10.0, 10.0, 10.0], [-10.0, -10.0, -10.0, -10.0]])
        rng = np.random.default_rng(14)
        wins = 0
        n = 5000
        for _ in range(n):
            child = gumbel_balanced_split(parent, scores, rng)
            wins += np.all(child.labels[0] == 0) and np.all(child.labels[1] == 1)
        assert wins / n >= 0.999

    def test_child_labels_are_2j_2j_plus_1(self):
        parent = StructureMap(1, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))
        rng = np.random.default_rng(15)
        child = gumbel_balanced_split(parent, rng.normal(size=(2, 4)), rng)
        assert np.array_equal(child.labels >> 1, parent.labels)

    @staticmethod
    def loop_split(parent_map, scores, seed):
        """Reference: one stable argsort per parent cluster."""
        noisy = (scores + np.random.default_rng(seed).gumbel(size=scores.shape)).ravel()
        parent_flat = parent_map.labels.ravel()
        child = np.empty_like(parent_flat)
        half = parent_map.cluster_size // 2
        for j in range(parent_map.num_clusters):
            locs = np.flatnonzero(parent_flat == j)
            order = np.argsort(-noisy[locs], kind="stable")
            child[locs[order[:half]]] = 2 * j
            child[locs[order[half:]]] = 2 * j + 1
        return child.reshape(parent_map.labels.shape)

    @pytest.mark.parametrize("side", [4, 8, 16])
    @pytest.mark.parametrize("kind", ["gaussian", "zero", "binary"])
    def test_matches_per_cluster_loop(self, side, kind):
        rng = np.random.default_rng(side)
        last = (side * side).bit_length() - 1
        for trial in range(12):
            stage = trial % last
            labels = rng.permutation(np.repeat(np.arange(1 << stage), side * side >> stage))
            parent = StructureMap(stage, labels.reshape(side, side))
            scores = {"gaussian": rng.normal(size=(side, side)),
                      "zero": np.zeros((side, side)),
                      "binary": rng.integers(0, 2, size=(side, side)).astype(float)}[kind]
            child = gumbel_balanced_split(parent, scores, trial)
            assert np.array_equal(child.labels, self.loop_split(parent, scores, trial))

    def test_odd_cluster_size_rejected(self):
        parent = StructureMap(1, np.array([[0, 1]]))
        with pytest.raises(InvariantError):
            gumbel_balanced_split(parent, np.zeros((1, 2)), np.random.default_rng(0))


def test_masked_flow_loss_gradient_check():
    model = small_model(dtype=np.float64)
    rng = np.random.default_rng(16)
    for p in model.params().values():
        p.data = 0.05 * rng.standard_normal(p.data.shape)
    canvas = rng.normal(size=(1, 4, 4, 3))
    s_e = (2.0 * rng.integers(0, 2, size=(1, 4, 4, 4))).astype(np.float64)
    noise = rng.standard_normal((1, 4, 4, 4))
    stage = 2
    parent = stage_map(stage - 1)
    z = 0.4 * noise + 0.6 * s_e
    z[..., :stage - 1] = s_e[..., :stage - 1]
    target = noise - s_e
    mask = np.zeros_like(target)
    mask[..., stage - 1:] = 1.0

    def loss_fn():
        vel = model.velocity(np.array([0]), [parent], canvas, z, np.array([0.4]))
        diff = vel - Tensor(target)
        return (diff * diff * mask).sum() / float(mask.sum())

    err = gradient_check(loss_fn, model.params(), seed=1, samples=60)
    assert err <= 1e-3
