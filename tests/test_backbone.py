import numpy as np
import pytest

import nvg.autodiff as ad
from nvg import backbone, errors
from nvg.autodiff import Tensor
from nvg.backbone import HEAD_DIM, Block, ModelConfig, rope_tables
from nvg.content_model import ContentModel
from nvg.errors import InvariantError
from nvg.grid import last_stage_of
from nvg.structure_model import StructureModel
from oracles import gradient_check, numeric_grad, reference_adam, reference_block_forward


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
        # permutations that are not their own inverse; Block.forward's key
        # layout is (0, 2, 3, 1)
        (lambda t: ad.transpose(t, (0, 2, 3, 1))[1, 2].sum(), (2, 3, 4, 5)),
        (lambda t: ad.transpose(t, (2, 0, 1))[3].sum(), (3, 4, 5)),
        # one tensor read through a basic slice and a repeated integer index
        (lambda t: (t[1:4] * 3.0).sum() + (t[np.array([0, 2, 2, 4])] * 2.0).sum(), (5, 3)),
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

    def test_backward_consumes_the_tape(self):
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 3)))
        hidden = ad.silu(ad.matmul(x, w))
        data = hidden.data.copy()
        loss = (hidden * hidden).sum()
        loss.backward()
        assert w.grad is not None and w.grad.shape == (3, 2)
        assert x.grad is None       # an input that needs no gradient gets none
        for out in (hidden, loss):
            node = out._node
            assert node.grad is None and node.backward is None and node.parents == ()
        assert np.array_equal(hidden.data, data)

    def test_backward_refuses_a_tensor_off_the_tape(self):
        # a loss built under no_grad, or from inputs that need no gradient,
        # reaches no parameter: backward refuses it instead of seeding it
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        with ad.no_grad():
            under_no_grad = ad.matmul(x, w).sum()
        constant = (x * 2.0).sum()
        for loss in (under_no_grad, constant):
            with pytest.raises(ValueError, match="needs a tensor on the tape"):
                loss.backward()
            assert loss.grad is None
        assert w.grad is None

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

    def test_concat_of_unequal_pieces_along_a_middle_axis(self):
        rng = np.random.default_rng(6)
        pieces = [Tensor(rng.normal(size=(2, n, 3)), requires_grad=grad)
                  for n, grad in ((3, True), (1, False), (4, True))]
        weight = rng.normal(size=(2, 8, 3))

        def loss(parts):
            return (ad.concat(parts, axis=1) * weight).sum()

        loss(pieces).backward()
        assert pieces[1].grad is None       # the piece that needs no gradient
        for i in (0, 2):
            parts = [Tensor(p.data) for p in pieces]
            num = numeric_grad(lambda: float(loss(parts).data), parts[i].data)
            assert pieces[i].grad.shape == pieces[i].data.shape
            assert np.allclose(pieces[i].grad, num, atol=1e-5)

    def test_no_grad_ops_return_bare_tensors_of_arrays(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        angles = rng.normal(size=(3, 2))
        ops = {
            "add": lambda: x + x, "sub": lambda: x - x, "mul": lambda: x * 2.0,
            "div": lambda: x / x, "neg": lambda: -x,
            "matmul": lambda: ad.matmul(x, Tensor(np.ones((4, 5), np.float32))),
            "reshape": lambda: ad.reshape(x, (6, 4)),
            "transpose": lambda: ad.transpose(x, (0, 2, 1)),
            "basic index": lambda: x[:, 1:], "integer index": lambda: x[np.array([1, 1])],
            "concat": lambda: ad.concat([x, x], axis=1),
            "sum": lambda: x.sum(), "mean": lambda: x.mean(),
            "silu": lambda: ad.silu(x), "softmax": lambda: ad.softmax(x),
            "log_softmax": lambda: ad.log_softmax(x), "rmsnorm": lambda: ad.rmsnorm(x),
            "rope": lambda: ad.rope(x, np.cos(angles), np.sin(angles)),
            # numpy returns a scalar for arithmetic on two 0-d arrays
            "0-d mul": lambda: -x.mean(), "0-d div": lambda: x.sum() / 3.0,
            "0-d add": lambda: x.sum() + x.mean(),
        }
        with ad.no_grad():
            for name, op in ops.items():
                out = op()
                assert type(out) is Tensor, name
                assert type(out.data) is np.ndarray, name
                assert not out.requires_grad and out.grad is None, name
                assert out._node is None, name      # no parents and no closure

    @pytest.mark.parametrize("other", [
        np.ones((2, 3), np.float32), 1.0, Tensor(np.ones((2, 3), np.float32))],
        ids=["float32 ndarray", "float", "float32 Tensor"])
    def test_float32_minus_a_float32_or_scalar_operand_is_float32(self, other):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = x - other
        out.sum().backward()
        assert out.data.dtype == np.float32
        assert x.grad.dtype == np.float32


class TestAdam:
    def test_equals_the_eager_reference_bit_for_bit(self):
        # b gets no gradient at step 1: the reference holds zero moments for
        # it from construction, Adam makes them at step 2, and both update
        # from zeros
        rng = np.random.default_rng(4)
        start = {"a": rng.normal(size=(3, 2)).astype(np.float32),
                 "b": rng.normal(size=(2,)).astype(np.float32)}
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32))

        def loss(params, with_b):
            out = ad.matmul(x, params["a"])
            out = out + params["b"] if with_b else out
            return (out * out).mean()

        losses = [lambda p: loss(p, False), lambda p: loss(p, True), lambda p: loss(p, True)]
        lrs = [0.1, 0.05, 0.02]
        want = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
        reference_adam(want, losses, lrs)
        params = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
        opt = ad.Adam(params)
        assert opt.m == {} and opt.v == {}
        for i, (loss_fn, lr) in enumerate(zip(losses, lrs)):
            loss_fn(params).backward()
            opt.step(lr)
            assert all(p.grad is None for p in params.values())
            assert set(opt.m) == set(opt.v) == ({"a"} if i == 0 else {"a", "b"})
        for k, p in params.items():
            assert p.data.dtype == want[k].data.dtype == np.float32
            assert p.data.tobytes() == want[k].data.tobytes()


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
        # depth 24 passes the byte cap only as a structure model
        assert ModelConfig(24, "structure", 4, 1, 4, 6).dropout == pytest.approx(0.1)

    # 4 bytes x every array of the built model. Models this deep are too
    # large to build here: their figures come from the cubic in depth (the
    # width is linear in depth) through four built models, depths 1-4 content
    # and 2-8 structure, and that cubic reproduces built depth-6 content and
    # depth-12 structure models exactly.
    @pytest.mark.parametrize("kind, fits, refused, held, needed", [
        ("content", 20, 21, 1_979_294_756, 2_290_546_980),
        ("structure", 32, 34, 2_025_975_832, 2_429_177_624),     # 33 is odd
    ])
    def test_block_weights_over_the_byte_cap_are_refused(self, kind, fits, refused, held,
                                                         needed):
        # a config allocates nothing, so the real 2 GiB cap is safe to test
        assert ModelConfig(fits, kind, 4, 1, 4, 6).weight_bytes == held
        assert held <= errors.MAX_ALLOC_BYTES < needed
        with pytest.raises(InvariantError, match=f"needs {needed} bytes of weights"):
            ModelConfig(refused, kind, 4, 1, 4, 6)

    def test_block_weights_read_the_cap_at_construction(self, monkeypatch):
        config = ModelConfig(1, "content", 4, 1, 4, 6)
        need = built_bytes(ContentModel(config))
        assert need == 283_940
        monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", need - 1)
        with pytest.raises(InvariantError, match=f"needs {need} bytes of weights, "
                                                 f"over the {need - 1}-byte cap"):
            ModelConfig(1, "content", 4, 1, 4, 6)
        monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", need)
        ModelConfig(1, "content", 4, 1, 4, 6)

    @pytest.mark.parametrize("depth, kind, latent, codebook, classes", [
        (1, "content", 4, 16, 10 ** 8),         # the class table, 25.6 GB
        (1, "content", 4, 1 << 30, 4),          # the logit head, 16 GiB
        (8, "content", 1 << 20, 16, 4),         # the input projection, 2 GiB at width 512
        (16, "structure", 1 << 20, 16, 4),      # the canvas projection, 2 GiB at width 512
    ], ids=["classes", "codebook", "content-channels", "structure-channels"])
    def test_tables_past_the_cap_are_refused_before_any_draw(self, monkeypatch, depth, kind,
                                                             latent, codebook, classes):
        def no_draw(seed):
            raise AssertionError("drew parameters")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        cls = ContentModel if kind == "content" else StructureModel
        with pytest.raises(InvariantError, match="bytes of weights, over the"):
            cls(ModelConfig(depth, kind, latent, codebook, classes, 4))

    def test_structure_depth_must_be_even(self):
        with pytest.raises(InvariantError):
            ModelConfig(3, "structure", 4, 1, 4, 6)

    def test_constructed_blocks_match_formula(self):
        rng = np.random.default_rng(0)
        for depth in (2, 4, 8):
            for kind in ("content", "structure"):
                cfg = ModelConfig(depth, kind, 4, 8, 4, 6)
                blocks = [fresh_block(cfg.width, cfg.heads, rng) for _ in range(depth)]
                total = sum(p.data.size for b in blocks for p in b.params("b").values())
                assert total == 15 * depth * cfg.width ** 2



def init_rule(name, shape, rng):
    """The one init rule, stated apart from the library: biases, modulations
    and block output projections start at zero, every other array draws
    0.02 N(0, 1)."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith("b_") or leaf in ("w_mod", "w_final_mod", "w_out"):
        return np.zeros(shape, dtype=np.float32)
    return (0.02 * rng.standard_normal(shape)).astype(np.float32)


def fresh_block(width, heads, rng):
    """A block on the arrays a model draws for one from rng, in table order."""
    shapes = {"w_mod": (width, 3 * width), "w_fused": (width, 7 * width),
              "w_out": (5 * width, width)}
    return Block(heads, {name: init_rule(name, shape, rng) for name, shape in shapes.items()})


def built_bytes(model) -> int:
    """float32 bytes of a built model's arrays."""
    return 4 * sum(p.data.size for p in model.params().values())


class TestParamTable:
    @pytest.mark.parametrize("kind, depth", [("content", 1), ("content", 3),
                                             ("structure", 2), ("structure", 4)])
    @pytest.mark.parametrize("grid", [(4, 4), (8, 8)])
    def test_table_is_the_built_model(self, kind, depth, grid):
        config = ModelConfig(depth, kind, 3, 16, 2, last_stage_of(*grid))
        model = (ContentModel if kind == "content" else StructureModel)(config, seed=5)
        built = model.state_arrays()
        assert {k: v.shape for k, v in built.items()} == config.param_shapes()
        assert config.weight_bytes == built_bytes(model)
        # table order is the draw order, under the one init rule
        rng = np.random.default_rng(5)
        drawn = config.init_arrays(5)
        assert list(drawn) == list(config.param_shapes())
        for name, shape in config.param_shapes().items():
            want = init_rule(name, shape, rng)
            assert built[name].dtype == drawn[name].dtype == np.float32
            assert np.array_equal(built[name], want) and np.array_equal(drawn[name], want)

    def test_the_model_wraps_the_arrays_it_is_given(self):
        config = ModelConfig(2, "structure", 3, 16, 2, 4)
        arrays = config.init_arrays(1)
        model = StructureModel(config, arrays=arrays)
        assert all(model.params()[name].data is array for name, array in arrays.items())

    @pytest.mark.parametrize("change, message", [
        ("missing", r"b_head is missing, its config implies \(3,\)"),
        ("extra", r"block2.w_out is \(640, 128\), its config implies no such array"),
        ("shape", r"block1.w_fused is \(128, 128\), its config implies \(128, 896\)"),
        ("float64", r"block0.w_out is float64, not float32"),
        ("int32", r"block0.w_out is int32, not float32"),
    ], ids=["missing", "extra", "shape", "float64", "int32"])
    def test_a_table_that_is_not_the_configs_is_refused_before_any_tensor(
            self, monkeypatch, change, message):
        config = ModelConfig(2, "content", 3, 16, 2, 4)
        arrays = config.init_arrays(0)
        if change == "missing":
            del arrays["b_head"]
        elif change == "extra":
            arrays["block2.w_out"] = arrays["block1.w_out"]
        elif change == "shape":
            arrays["block1.w_fused"] = np.zeros((128, 128), dtype=np.float32)
        else:
            arrays["block0.w_out"] = arrays["block0.w_out"].astype(change)

        def refuse(*args, **kwargs):
            raise AssertionError("a tensor was made before the table was checked")

        monkeypatch.setattr(backbone, "Tensor", refuse)
        monkeypatch.setattr(backbone, "Block", refuse)
        with pytest.raises(InvariantError, match=message):
            ContentModel(config, arrays=arrays)


def rotate(vecs, kind, struct, spatial):
    """The rotary path every forward runs: rope_tables, then the tape op."""
    cos, sin = rope_tables(kind, struct, spatial)
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


def head_tables(cos, sin, heads):
    """`Block.forward`'s (B, L, 2H, 32) tables from shared (B, L, 32) ones:
    H query-head tables times 2^-3, then H key-head tables."""
    scale = np.repeat([1.0 / np.sqrt(HEAD_DIM), 1.0], heads).astype(cos.dtype)[:, None]
    return cos[:, :, None] * scale, sin[:, :, None] * scale


class TestBlock:
    def make_inputs(self, rng, width, heads=2, length=6, batch=2):
        x = Tensor(rng.normal(size=(batch, length, width)), requires_grad=True)
        angles = rng.normal(size=(batch, length, 32))
        cond = Tensor(rng.normal(size=(batch, width)), requires_grad=True)
        return (x, *head_tables(np.cos(angles), np.sin(angles), heads), cond)

    def test_zero_out_projection_gives_identity(self):
        rng = np.random.default_rng(8)
        block = fresh_block(128, 2, rng)
        block.w_out.data[:] = 0.0
        block.w_mod.data[:] = rng.normal(size=block.w_mod.data.shape)
        x, cos, sin, cond = self.make_inputs(rng, 128)
        out, _ = block.forward(x, cos, sin, cond)
        assert np.array_equal(out.data, x.data)

    def test_fresh_block_is_identity_via_zero_gate(self):
        rng = np.random.default_rng(9)
        block = fresh_block(128, 2, rng)
        x, cos, sin, cond = self.make_inputs(rng, 128)
        assert np.array_equal(block.forward(x, cos, sin, cond)[0].data, x.data)
        prefix = block.keys_values(x[:, :4], cos[:, :4], sin[:, :4], cond)
        out, _ = block.forward(x[:, 4:], cos[:, 4:], sin[:, 4:], cond, prefix=prefix)
        assert np.array_equal(out.data, x.data[:, 4:])

    def test_block_param_count_is_15_w_squared(self):
        block = fresh_block(128, 2, np.random.default_rng(0))
        assert sum(p.data.size for p in block.params("b").values()) == 15 * 128 * 128

    def test_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        block = fresh_block(128, 2, rng)
        # randomize all weights so every path carries gradient
        for p in (block.w_mod, block.w_fused, block.w_out):
            p.data = 0.05 * rng.standard_normal(p.data.shape)
        x = Tensor(rng.normal(size=(1, 6, 128)), requires_grad=True)
        cond_data = rng.normal(size=(1, 128))
        angles = rng.normal(size=(1, 6, 32))
        cos, sin = head_tables(np.cos(angles), np.sin(angles), 2)
        probe = rng.normal(size=(1, 6, 128))

        params = block.params("block0")

        def loss_fn():
            out, _ = block.forward(x, cos, sin, Tensor(cond_data))
            return (out * probe).sum()

        err = gradient_check(loss_fn, params, seed=0, samples=90)
        assert err <= 1e-3

        # every entry of x
        x.grad = None
        loss_fn().backward()
        num = numeric_grad(lambda: float(loss_fn().data), x.data)
        assert np.allclose(x.grad, num, atol=1e-5)


class TestBlockPrefix:
    """A cached (keys, values) prefix stands for rows the block would
    otherwise run together with its own, under the same conditioning."""

    @staticmethod
    def make(rng, dtype, batch=2):
        block = fresh_block(128, 2, rng)
        for p in (block.w_mod, block.w_fused, block.w_out):
            p.data = (0.05 * rng.standard_normal(p.data.shape)).astype(dtype)
        x = Tensor(rng.normal(size=(batch, 7, 128)).astype(dtype), requires_grad=True)
        cond = Tensor(rng.normal(size=(batch, 128)).astype(dtype))
        angles = rng.normal(size=(batch, 7, 32))
        cos, sin = head_tables(np.cos(angles).astype(dtype), np.sin(angles).astype(dtype), 2)
        return block, x, cos, sin, cond

    def test_keys_values_are_the_forwards(self):
        block, x, cos, sin, cond = self.make(np.random.default_rng(30), np.float64)
        _, (keys, values) = block.forward(x, cos, sin, cond)
        only_keys, only_values = block.keys_values(x, cos, sin, cond)
        assert keys.shape == (2, 2, HEAD_DIM, 7) and values.shape == (2, 2, 7, HEAD_DIM)
        np.testing.assert_allclose(only_keys.data, keys.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(only_values.data, values.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("source", ["forward", "keys_values"])
    def test_prefix_equals_the_all_rows_forwards_last_rows(self, source):
        block, x, cos, sin, cond = self.make(np.random.default_rng(31), np.float32)
        ctx, rows = 3, slice(3, None)
        with ad.no_grad():
            want = block.forward(x, cos, sin, cond)[0][:, rows]
            ctx_args = (x[:, :ctx], cos[:, :ctx], sin[:, :ctx], cond)
            prefix = block.forward(*ctx_args)[1] if source == "forward" \
                else block.keys_values(*ctx_args)
            got, own = block.forward(x[:, rows], cos[:, rows], sin[:, rows], cond,
                                     prefix=prefix)
        assert own[0].shape[-1] == own[1].shape[-2] == 4       # its own rows alone
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-5)

    def test_gradients_reach_the_prefix_rows(self):
        rng = np.random.default_rng(32)
        block, x, cos, sin, cond = self.make(rng, np.float64, batch=1)
        probe = rng.normal(size=(1, 4, 128))

        def loss_fn():
            prefix = block.keys_values(x[:, :3], cos[:, :3], sin[:, :3], cond)
            out, _ = block.forward(x[:, 3:], cos[:, 3:], sin[:, 3:], cond, prefix=prefix)
            return (out * probe).sum()

        assert gradient_check(loss_fn, block.params("b"), seed=0, samples=60) <= 1e-3
        x.grad = None
        loss_fn().backward()
        num = numeric_grad(lambda: float(loss_fn().data), x.data)
        assert np.abs(x.grad[:, :3]).min() > 0.0
        np.testing.assert_allclose(x.grad, num, rtol=0, atol=1e-5)
        # prefix rows reach the output only as keys and values: with the k and
        # v columns of the fused projection zeroed they get none
        block.w_fused.data[:, 128:384] = 0.0
        x.grad = None
        loss_fn().backward()
        assert not x.grad[:, :3].any() and x.grad[:, 3:].any()


class TestBlockOracle:
    """`Block.forward` against the all-rows, scaled-scores reference block on
    the product's float32 no-grad path.

    Every row is computed and the folded score scale is exact, so the two
    agree bit for bit. Only the `prefix` path runs its matmuls on fewer rows
    than such a reference, and OpenBLAS's sgemm rounds a row differently at
    some small row counts (and numpy takes gemv for a single row): it is
    checked within float32 rounding instead (`TestBlockPrefix`, and the
    flow's split in `test_structure_model`). Up to 1.6e-6 was seen on 4x4
    and 1x1 grids with OpenBLAS 0.3.31 on x86-64."""

    @pytest.mark.parametrize("kind", ["content", "structure"])
    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("side", [8, 4, 1])
    def test_rows_equal_the_reference(self, kind, batch, side):
        # the generators' layout: [class] + runs of side^2 tokens; a 1x1 grid
        # keeps a single token per run
        cfg = ModelConfig(4, kind, 4, 8, 4, 6)
        runs = 1 if kind == "content" else 2
        length = 1 + runs * side * side
        rng = np.random.default_rng(20 + batch + side)
        block = fresh_block(cfg.width, cfg.heads, rng)
        for p in (block.w_mod, block.w_out):
            p.data = (0.05 * rng.standard_normal(p.data.shape)).astype(np.float32)
        x = Tensor(rng.normal(size=(batch, length, cfg.width)).astype(np.float32))
        cond = Tensor(rng.normal(size=(batch, cfg.width)).astype(np.float32))
        cos, sin = rope_tables(rng.integers(0, 3, size=(batch, length)),
                               rng.integers(0, 3, size=(batch, length, 8)),
                               rng.integers(0, 8, size=(batch, length, 2)))
        tables = head_tables(cos, sin, cfg.heads)
        with ad.no_grad():
            want = reference_block_forward(block, x, cos[:, None], sin[:, None], cond).data
            every_row = block.forward(x, *tables, cond)[0].data
        assert every_row.dtype == np.float32
        assert np.array_equal(every_row, want)


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
