import numpy as np
import pytest

from nvg.backbone import ModelConfig, gradient_check
from nvg.autodiff import Tensor
from nvg.errors import InvariantError, NumericError
from nvg.grid import StructureMap
from nvg.pipeline import cfg_forward
from nvg.structure_model import (
    FlowState,
    StructureModel,
    flow_sample,
    gumbel_balanced_split,
    noised_input,
)


def small_model(depth=2, e=3, classes=3, last_stage=4, seed=0, dtype=np.float32):
    cfg = ModelConfig(depth, "structure", e, 1, classes, last_stage)
    return StructureModel(cfg, seed=seed, dtype=dtype)


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
        state = noised_input(s_e, 0.0, rng.standard_normal(s_e.shape), 0)
        assert np.allclose(state.z, s_e)

    def test_t_one_returns_noise(self):
        rng = np.random.default_rng(1)
        s_e = random_embedding(rng)
        noise = rng.standard_normal(s_e.shape).astype(np.float32)
        state = noised_input(s_e, 1.0, noise, 0)
        assert np.array_equal(state.z, noise)

    def test_known_columns_clamped_at_t_one(self):
        rng = np.random.default_rng(2)
        s_e = random_embedding(rng)
        noise = rng.standard_normal(s_e.shape).astype(np.float32)
        state = noised_input(s_e, 1.0, noise, 3)
        assert np.array_equal(state.z[..., :3], s_e[..., :3])
        assert np.array_equal(state.z[..., 3:], noise[..., 3:])

    def test_path_derivative_is_noise_minus_embedding(self):
        rng = np.random.default_rng(3)
        s_e = random_embedding(rng)
        noise = rng.standard_normal(s_e.shape).astype(np.float32)
        z1 = noised_input(s_e, 0.25, noise, 0).z.astype(np.float64)
        z2 = noised_input(s_e, 0.75, noise, 0).z.astype(np.float64)
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
        out = model.velocity(np.array([0, 1]), np.array([1, 2]), canvas, zs,
                             np.array([0.3, 0.9]), np.array([0, 1]))
        assert out.shape == (2, 4, 4, 4)

    def test_single_sample_wrapper(self):
        model = small_model()
        rng = np.random.default_rng(6)
        canvas = rng.normal(size=(4, 4, 3)).astype(np.float32)
        state = FlowState(0.5, rng.normal(size=(4, 4, 4)).astype(np.float32), 1)
        out = model.velocity(np.array([0]), np.array([state.known_stages + 1]),
                             canvas[None], state.z[None], np.array([state.t]),
                             np.array([state.known_stages]))
        assert out.shape == (1, 4, 4, 4)


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
    z = 0.4 * noise + 0.6 * s_e
    z[..., :stage - 1] = s_e[..., :stage - 1]
    target = noise - s_e
    mask = np.zeros_like(target)
    mask[..., stage - 1:] = 1.0

    def loss_fn():
        vel = model.velocity(np.array([0]), np.array([stage]), canvas, z,
                             np.array([0.4]), np.array([stage - 1]))
        diff = vel - Tensor(target)
        return (diff * diff * mask).sum() / float(mask.sum())

    err = gradient_check(loss_fn, model.params(), seed=1, samples=60)
    assert err <= 1e-3
