import numpy as np
import pytest

import nvg.autodiff as ad
from nvg.autodiff import Tensor
from nvg.backbone import HEAD_DIM, Block, ModelConfig, rope_tables
from nvg.errors import InvariantError
from oracles import gradient_check


def numeric_grad(f, x, step=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * step)
    return g


class TestAutodiffOps:
    """Every op against central finite differences on random float64 data."""

    @pytest.mark.parametrize("op,shape", [
        (lambda t: (t * t).sum(), (3, 4)),
        (lambda t: (t * 2.0 + 1.0).sum(), (5,)),
        (lambda t: ad.silu(t).sum(), (4, 3)),
        (lambda t: ad.reshape(ad.softmax(t), (-1,))[::2].sum(), (2, 5)),
        (lambda t: ad.log_softmax(t)[:, 1].sum(), (3, 4)),
        (lambda t: ad.rmsnorm(t)[:, 0].sum(), (3, 6)),
        (lambda t: ad.transpose(t, (1, 0))[0].sum(), (3, 4)),
        (lambda t: (t * t).mean(), (4, 5)),
        (lambda t: (t[1:, :2] * 3.0).sum(), (4, 4)),
    ])
    def test_unary_ops(self, op, shape):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape)
        t = Tensor(x.copy(), requires_grad=True)
        loss = op(t)
        loss.backward()
        num = numeric_grad(lambda: float(op(Tensor(t.data)).data), t.data)
        assert np.allclose(t.grad, num, atol=1e-5)

    def test_silu_saturates_without_warning(self):
        # float32 exp(100) overflows to inf, and 1 / (1 + inf) is the exact
        # limit 0: silu(-100) is -0 and its grad 0, with no RuntimeWarning
        t = Tensor(np.array([-100.0, 0.0, 100.0], dtype=np.float32), requires_grad=True)
        out = ad.silu(t)
        out.sum().backward()
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, [0.0, 0.0, 100.0])
        assert np.array_equal(t.grad, [0.0, 0.5, 1.0])

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ad.matmul(a, b).sum().backward()
        na = numeric_grad(lambda: float(ad.matmul(Tensor(a.data), Tensor(b.data)).sum().data),
                          a.data)
        nb = numeric_grad(lambda: float(ad.matmul(Tensor(a.data), Tensor(b.data)).sum().data),
                          b.data)
        assert np.allclose(a.grad, na, atol=1e-5)
        assert np.allclose(b.grad, nb, atol=1e-5)

    def test_batched_matmul_broadcast(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (ad.matmul(a, b) * rng.normal(size=(2, 3, 5))).sum().backward()
        assert a.grad.shape == a.data.shape
        assert b.grad.shape == b.data.shape

    def test_concat_and_rows(self):
        rng = np.random.default_rng(3)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([1, 1, 4])
        out = ad.concat([table[ids], Tensor(np.ones((3, 3)))], axis=1)
        out.sum().backward()
        expected = np.zeros((5, 3))
        expected[1] = 2.0
        expected[4] = 1.0
        assert np.allclose(table.grad, expected)

    def test_rope_is_orthogonal_op(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        angles = rng.normal(size=(2, 4))
        cos, sin = np.cos(angles), np.sin(angles)
        out = ad.rope(x, cos, sin)
        assert np.allclose(np.linalg.norm(out.data, axis=1),
                           np.linalg.norm(x.data, axis=1))
        ad.reshape(out, (-1,))[1::3].sum().backward()
        num = numeric_grad(
            lambda: float(ad.reshape(ad.rope(Tensor(x.data), cos, sin), (-1,))[1::3].sum().data),
            x.data)
        assert np.allclose(x.grad, num, atol=1e-5)


class TestModelConfig:
    def test_content_dimensions(self):
        cfg = ModelConfig(16, "content", 4, 64, 4, 6)
        assert cfg.width == 1024 and cfg.heads == 16
        assert cfg.width // cfg.heads == HEAD_DIM == 64

    def test_structure_dimensions(self):
        cfg = ModelConfig(16, "structure", 4, 1, 4, 6)
        assert cfg.width == 512 and cfg.heads == 8

    def test_param_count_paper_values(self):
        def core(cfg):
            return 15 * cfg.depth * cfg.width ** 2
        assert core(ModelConfig(16, "content", 4, 64, 4, 6)) == 251_658_240
        assert core(ModelConfig(16, "structure", 4, 1, 4, 6)) == 62_914_560
        assert core(ModelConfig(4, "content", 4, 64, 4, 6)) == 3_932_160

    def test_dropout_scales_with_depth(self):
        assert ModelConfig(24, "content", 4, 64, 4, 6).dropout == pytest.approx(0.1)

    def test_structure_depth_must_be_even(self):
        with pytest.raises(InvariantError):
            ModelConfig(3, "structure", 4, 1, 4, 6)

    def test_constructed_blocks_match_formula(self):
        rng = np.random.default_rng(0)
        for depth in (2, 4, 8):
            for kind in ("content", "structure"):
                cfg = ModelConfig(depth, kind, 4, 8, 4, 6)
                blocks = [Block(cfg.width, cfg.heads, rng) for _ in range(depth)]
                total = sum(p.data.size for b in blocks for p in b.params("b").values())
                assert total == 15 * depth * cfg.width ** 2


def rotate(vecs, kind, struct, spatial):
    """The rotary path every forward runs: rope_tables, then the tape op."""
    cos, sin = rope_tables(kind, struct, spatial, dtype=np.float64)
    return ad.rope(np.asarray(vecs, dtype=np.float64), cos, sin).data


class TestRope:
    def test_zero_ids_identity(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(3, 64))
        out = rotate(vecs, np.zeros(3), np.zeros((3, 8)), np.zeros((3, 2)))
        assert np.allclose(out, vecs)

    def test_isometry(self):
        rng = np.random.default_rng(6)
        vecs = rng.normal(size=(200, 64))
        out = rotate(vecs, rng.integers(0, 3, size=200), rng.integers(0, 3, size=(200, 8)),
                     rng.integers(0, 20, size=(200, 2)))
        assert np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(vecs, axis=1)).max() <= 1e-6

    def test_relative_position_invariance(self):
        # equal id differences give equal dot products
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = rng.normal(size=64)
            k = rng.normal(size=64)
            base_struct = rng.integers(0, 2, size=8)
            delta_struct = rng.integers(0, 2, size=8)
            shift_struct = rng.integers(0, 2, size=8)
            y1, x1, dy, dx, sy, sx = rng.integers(0, 8, size=6)

            def rot(vec, struct, y, x):
                return rotate(vec[None], np.array([1]), struct[None], np.array([[y, x]]))[0]

            d1 = rot(q, base_struct + delta_struct, y1 + dy, x1 + dx) @ \
                rot(k, base_struct, y1, x1)
            d2 = rot(q, base_struct + delta_struct + shift_struct, y1 + dy + sy, x1 + dx + sx) @ \
                rot(k, base_struct + shift_struct, y1 + sy, x1 + sx)
            assert abs(d1 - d2) <= 1e-4


class TestBlock:
    def make_inputs(self, rng, width, length=6, batch=2):
        x = Tensor(rng.normal(size=(batch, length, width)), requires_grad=True)
        angles = rng.normal(size=(batch, 1, length, 32))
        cond = Tensor(rng.normal(size=(batch, width)), requires_grad=True)
        return x, np.cos(angles), np.sin(angles), cond

    def test_zero_out_projection_gives_identity(self):
        rng = np.random.default_rng(8)
        block = Block(128, 2, rng, dtype=np.float64)
        block.w_out.data[:] = 0.0
        block.w_mod.data[:] = rng.normal(size=block.w_mod.data.shape)
        x, cos, sin, cond = self.make_inputs(rng, 128)
        out = block.forward(x, cos, sin, cond)
        assert np.array_equal(out.data, x.data)

    def test_fresh_block_is_identity_via_zero_gate(self):
        rng = np.random.default_rng(9)
        block = Block(128, 2, rng, dtype=np.float64)
        x, cos, sin, cond = self.make_inputs(rng, 128)
        assert np.array_equal(block.forward(x, cos, sin, cond).data, x.data)

    def test_block_param_count_is_15_w_squared(self):
        block = Block(128, 2, np.random.default_rng(0))
        assert sum(p.data.size for p in block.params("b").values()) == 15 * 128 * 128

    def test_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        block = Block(128, 2, rng, dtype=np.float64)
        # randomize all weights so every path carries gradient
        for p in (block.w_mod, block.w_fused, block.w_out):
            p.data = 0.05 * rng.standard_normal(p.data.shape)
        x_data = rng.normal(size=(1, 6, 128))
        cond_data = rng.normal(size=(1, 128))
        angles = rng.normal(size=(1, 1, 6, 32))
        cos, sin = np.cos(angles), np.sin(angles)
        probe = rng.normal(size=(1, 6, 128))

        params = block.params("block0")

        def loss_fn():
            out = block.forward(Tensor(x_data), cos, sin, Tensor(cond_data))
            return (out * probe).sum()

        err = gradient_check(loss_fn, params, seed=0, samples=90)
        assert err <= 1e-3


class TestGradientCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        x = rng.normal(size=(3, 6))

        def loss_fn():
            return ad.matmul(Tensor(x), w).sum()

        assert gradient_check(loss_fn, {"w": w}, samples=24) <= 1e-6

    def test_softmax_attention_probe(self):
        rng = np.random.default_rng(13)
        q = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        probe = rng.normal(size=(4, 8))

        def loss_fn():
            att = ad.softmax(ad.matmul(q, ad.transpose(k, (1, 0))) * (1 / np.sqrt(8)))
            return (ad.matmul(att, v) * probe).sum()

        err = gradient_check(loss_fn, {"q": q, "k": k, "v": v}, samples=96)
        assert err <= 1e-4
