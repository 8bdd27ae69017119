import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvg
from nvg import backbone, cli
from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, load_refiners, save_model, save_refiners
from nvg.content_model import ContentModel
from nvg.errors import FormatError
from nvg.io import read_checkpoint, write_checkpoint, write_tensor
from nvg.quantize import Refiner, identity_refiners
from nvg.structure_model import LAYOUT, StructureModel

# what save_model writes for a depth-1 content model
GOOD_META = {"type": "model", "kind": "content", "depth": 1, "latent_channels": 2,
             "codebook_size": 4, "num_classes": 2, "last_stage": 2}
# a depth-4 content model whose arrays the shape tests pair with lying metas
CONFIG = {"kind": "content", "depth": 4, "latent_channels": 2, "codebook_size": 4,
          "num_classes": 2, "last_stage": 2}


class TestModelMeta:
    @pytest.mark.parametrize("meta", [
        {"type": "model"},                                  # every field missing
        {**GOOD_META, "depth": "x"},                        # ill-typed
        {**GOOD_META, "depth": True},                       # bool is not an int here
        {**GOOD_META, "depth": 1.0},
        {**GOOD_META, "latent_channels": None},
        {**GOOD_META, "depth": 0},                          # ModelConfig rejects these
        {**GOOD_META, "kind": "texture"},
        {**GOOD_META, "num_classes": -1},
        {**GOOD_META, "last_stage": -3},
    ])
    def test_bad_meta_is_format_error(self, tmp_path, meta):
        path = tmp_path / "bad.nvgc"
        write_checkpoint(path, meta, {})
        with pytest.raises(FormatError):
            load_model(path)

    def test_depth_far_beyond_the_file_fails_before_counting_to_it(self, tmp_path):
        path = tmp_path / "deep.nvgc"
        # the config's byte cap refuses this depth before anything is counted
        write_checkpoint(path, {**GOOD_META, "depth": 10 ** 12}, {})
        with pytest.raises(FormatError, match="bytes of weights"):
            load_model(path)
        # the deepest content config under the cap, in a file of no arrays
        write_checkpoint(path, {**GOOD_META, "depth": 20}, {})
        with pytest.raises(FormatError, match=re.escape(f"model checkpoint at {path}: class_emb "
                                                        f"is missing, its config implies "
                                                        f"(3, 1280)")):
            load_model(path)

    def test_meta_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.nvgc"
        write_checkpoint(path, ["model"], {})
        with pytest.raises(FormatError):
            read_checkpoint(path)


def test_cli_generate_on_meta_without_config_exits_2(tmp_path):
    bad = tmp_path / "bad.nvgc"
    write_checkpoint(bad, {"type": "model"}, {})
    env = {**os.environ, "PYTHONPATH": str(Path(nvg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nvg", "generate", str(bad), str(bad), "cb.nvgt",
         "ref.nvgc", "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "code=2 kind=format" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestStructureLayout:
    """A structure file saved before the flow's context rows were split from
    its noised rows has the same array shapes but another function, so the
    files carry the attention layout they were trained for."""

    @staticmethod
    def structure_file(path, **meta_changes):
        save_model(path, StructureModel(ModelConfig(2, "structure", 3, 8, 2, 4), seed=1))
        meta, arrays = read_checkpoint(path)
        meta = {k: v for k, v in {**meta, **meta_changes}.items() if v is not None}
        write_checkpoint(path, meta, arrays)
        return path

    def test_structure_files_carry_the_layout_and_content_files_none(self, tmp_path):
        path = tmp_path / "content.nvgc"
        save_model(path, ContentModel(ModelConfig(**CONFIG)))
        assert "layout" not in read_checkpoint(path)[0]
        path = self.structure_file(tmp_path / "structure.nvgc")
        assert read_checkpoint(path)[0]["layout"] == LAYOUT
        assert isinstance(load_model(path), StructureModel)

    @pytest.mark.parametrize("layout", [None, "all-rows", 1])
    def test_structure_file_of_another_layout_is_refused(self, tmp_path, layout):
        path = self.structure_file(tmp_path / "old.nvgc", layout=layout)
        with pytest.raises(FormatError, match=re.escape(f"structure checkpoint at {path} "
                                                        f"has attention layout {layout!r}")):
            load_model(path)

    def test_content_file_with_a_layout_is_refused(self, tmp_path):
        path = tmp_path / "content.nvgc"
        save_model(path, ContentModel(ModelConfig(**CONFIG)))
        meta, arrays = read_checkpoint(path)
        write_checkpoint(path, {**meta, "layout": LAYOUT}, arrays)
        with pytest.raises(FormatError, match="content checkpoint at .* has attention layout"):
            load_model(path)

    def test_cli_generate_on_an_untagged_structure_file_exits_2(self, tmp_path, capsys):
        save_model(tmp_path / "content.nvgc", ContentModel(ModelConfig(2, "content", 3, 8, 2, 4)))
        old = self.structure_file(tmp_path / "structure.nvgc", layout=None)
        code = cli.main(["generate", str(tmp_path / "content.nvgc"), str(old), "cb.nvgt",
                         "ref.nvgc", "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"nvg: error code=2 kind=format: structure checkpoint at {old}")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "content.nvgc", old]     # no output


class TestModelShapes:
    @pytest.fixture()
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("model built before its arrays were checked")

        monkeypatch.setattr(backbone, "Tensor", refuse)
        monkeypatch.setattr(backbone, "Block", refuse)

    @pytest.fixture(scope="class")
    def arrays(self):
        return ModelConfig(**CONFIG).init_arrays(0)

    @pytest.mark.parametrize("change", [
        {"depth": 1000},                    # far more blocks than the arrays hold
        {"depth": 2},
        {"kind": "structure", "depth": 4},  # structure width is half the content width
        {"num_classes": 100_000},
        {"last_stage": 8},
        {"latent_channels": 1 << 20},
        {"codebook_size": 1 << 30},
    ])
    def test_meta_that_disagrees_with_the_arrays_fails_before_allocation(
            self, tmp_path, arrays, no_allocation, change):
        path = tmp_path / "lying.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG, **change}, arrays)
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_non_witness_shape_is_format_error(self, tmp_path, arrays):
        bad = {**arrays, "block3.w_out": np.zeros((3, 3), dtype=np.float32)}
        path = tmp_path / "bad.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG}, bad)
        with pytest.raises(FormatError, match=re.escape(f"model checkpoint at {path}: "
                                                        f"block3.w_out is (3, 3)")):
            load_model(path)

    @pytest.mark.parametrize("name, change, message", [
        ("block4.w_out", "extra", "block4.w_out is (1280, 256), its config implies no such"),
        ("b_logit", "missing", "b_logit is missing, its config implies (4,)"),
    ])
    def test_extra_or_missing_array_fails_before_allocation(
            self, tmp_path, arrays, no_allocation, name, change, message):
        bad = dict(arrays)
        if change == "extra":
            bad[name] = arrays["block3.w_out"]
        else:
            del bad[name]
        path = tmp_path / "bad.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG}, bad)
        with pytest.raises(FormatError, match=re.escape(f"model checkpoint at {path}: {message}")):
            load_model(path)

    def test_matching_arrays_load(self, tmp_path, arrays):
        path = tmp_path / "good.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG}, arrays)
        model = load_model(path)
        assert all(np.array_equal(model.state_arrays()[k], v) for k, v in arrays.items())

    def test_a_load_draws_no_random_numbers(self, tmp_path, arrays, monkeypatch):
        path = tmp_path / "good.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG}, arrays)

        def no_draw(*args, **kwargs):
            raise AssertionError("a load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        state = load_model(path).state_arrays()
        assert all(np.array_equal(state[k], v) for k, v in arrays.items())

    def test_meta_with_the_old_norm_key_loads_and_saves_without_it(self, tmp_path, arrays):
        # every model file written before the key was dropped carries it
        path = tmp_path / "old.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG, "norm": "rmsnorm"}, arrays)
        model = load_model(path)
        state = model.state_arrays()
        assert state.keys() == arrays.keys()
        assert all(np.array_equal(state[k], v) for k, v in arrays.items())
        save_model(path, model)
        assert read_checkpoint(path)[0] == {**GOOD_META, **CONFIG}


class TestRefinerMeta:
    @pytest.mark.parametrize("meta", [
        {"type": "refiners"},                       # count missing
        {"type": "refiners", "count": "x"},
        {"type": "refiners", "count": True},
        {"type": "refiners", "count": 1.0},
        {"type": "refiners", "count": -1},
    ])
    def test_bad_count_is_format_error(self, tmp_path, meta):
        path = tmp_path / "bad.nvgc"
        save_refiners(path, identity_refiners(0, 3))      # arrays of a 1-stage stack
        write_checkpoint(path, meta, read_checkpoint(path)[1])
        with pytest.raises(FormatError):
            load_refiners(path)

    @pytest.mark.parametrize("stage,name,shape", [
        (0, "weight", (3, 3, 2, 3)),
        (1, "weight", (2, 2, 3, 3)),
        (1, "weight", (3, 3, 3)),
        (0, "bias", (2,)),
        (1, "bias", (3, 1)),
    ])
    def test_wrong_shape_is_format_error(self, tmp_path, stage, name, shape):
        path = tmp_path / "ref.nvgc"
        save_refiners(path, identity_refiners(1, 3))
        meta, arrays = read_checkpoint(path)
        arrays[f"refiner{stage}.{name}"] = np.zeros(shape, dtype=np.float32)
        write_checkpoint(path, meta, arrays)
        with pytest.raises(FormatError, match=f"refiner {stage}"):
            load_refiners(path)

    @pytest.mark.parametrize("channels", [None, "3", True, 3.0, -1])
    def test_bad_channels_is_format_error(self, tmp_path, channels):
        path = tmp_path / "bad.nvgc"
        save_refiners(path, identity_refiners(0, 3))
        meta, arrays = read_checkpoint(path)
        write_checkpoint(path, {**meta, "channels": channels}, arrays)
        with pytest.raises(FormatError, match="'channels'"):
            load_refiners(path)

    @pytest.mark.parametrize("stack, stage", [((4, 3), 1), ((3, 3), 0)])
    def test_refiner_of_other_channels_than_the_meta_is_format_error(self, tmp_path, stack,
                                                                      stage):
        # a 4-then-3-channel stack used to load and fail only in the tokenizer;
        # the second case's meta says 4 channels over a 3-channel stack.
        # save_refiners refuses a mixed stack, so the file is written raw
        path = tmp_path / "ref.nvgc"
        arrays = {}
        for i, e in enumerate(stack):
            (refiner,) = identity_refiners(0, e)
            arrays[f"refiner{i}.weight"], arrays[f"refiner{i}.bias"] = refiner.weight, refiner.bias
        write_checkpoint(path, {"type": "refiners", "count": len(stack), "channels": 4}, arrays)
        with pytest.raises(FormatError, match=f"refiner {stage} .+ its meta's 4 channels"):
            load_refiners(path)

    def test_mixed_channel_stack_is_refused_before_anything_is_written(self, tmp_path):
        # save_refiners used to write it under the first refiner's channels,
        # and load_refiners then refused the file
        path = tmp_path / "ref.nvgc"
        with pytest.raises(FormatError, match=f"refiner 1 at {re.escape(str(path))} .+ its meta's 3 channels"):
            save_refiners(path, identity_refiners(0, 3) + identity_refiners(0, 4))
        assert list(tmp_path.iterdir()) == []

    def test_missing_stage_names_the_path(self, tmp_path):
        path = tmp_path / "ref.nvgc"
        save_refiners(path, identity_refiners(2, 3))
        meta, arrays = read_checkpoint(path)
        del arrays["refiner1.bias"]
        write_checkpoint(path, meta, arrays)
        with pytest.raises(FormatError, match=f"refiner stack at {re.escape(str(path))} misses stage 1"):
            load_refiners(path)

    def test_array_the_count_does_not_name_is_format_error(self, tmp_path):
        # a stray stage past the count used to be ignored
        path = tmp_path / "ref.nvgc"
        save_refiners(path, identity_refiners(1, 3))
        meta, arrays = read_checkpoint(path)
        write_checkpoint(path, meta, {**arrays, "refiner5.weight": arrays["refiner0.weight"]})
        with pytest.raises(FormatError, match="holds refiner5.weight, which its meta's count "
                                              "of 2 does not name"):
            load_refiners(path)

    def test_round_trip(self, tmp_path):
        # distinct refiners, so a stack read back out of order shows
        rng = np.random.default_rng(0)
        refiners = [Refiner(rng.normal(size=(3, 3, 3, 3)), rng.normal(size=3)) for _ in range(3)]
        path = tmp_path / "ref.nvgc"
        save_refiners(path, refiners)
        back = load_refiners(path)
        assert len(back) == 3
        for want, got in zip(refiners, back):
            assert np.array_equal(got.weight, want.weight)
            assert np.array_equal(got.bias, want.bias)


def test_cli_generate_on_refiners_without_count_exits_2(tmp_path):
    config = ModelConfig(2, "content", 3, 8, 2, 4)
    save_model(tmp_path / "content.nvgc", ContentModel(config))
    save_model(tmp_path / "structure.nvgc",
               StructureModel(ModelConfig(2, "structure", 3, 8, 2, 4)))
    write_tensor(tmp_path / "cb.nvgt", np.eye(8, 3, dtype=np.float32))
    write_checkpoint(tmp_path / "ref.nvgc", {"type": "refiners"}, {})
    env = {**os.environ, "PYTHONPATH": str(Path(nvg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nvg", "generate", *(str(tmp_path / f) for f in
         ("content.nvgc", "structure.nvgc", "cb.nvgt", "ref.nvgc")),
         "--latent", "4,4,3", "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "code=2 kind=format" in proc.stderr and "count" in proc.stderr
    assert "Traceback" not in proc.stderr
