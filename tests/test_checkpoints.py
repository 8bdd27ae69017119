import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvg
from nvg import checkpoints
from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, load_refiners, save_model, save_refiners
from nvg.content_model import ContentModel
from nvg.errors import FormatError
from nvg.io import read_checkpoint, write_checkpoint, write_tensor
from nvg.quantize import Refiner, identity_refiners
from nvg.structure_model import StructureModel

# what save_model writes for a depth-1 content model
GOOD_META = {"type": "model", "kind": "content", "depth": 1, "latent_channels": 2,
             "codebook_size": 4, "num_classes": 2, "last_stage": 2, "norm": "rmsnorm"}
# a depth-4 content model whose arrays the shape tests pair with lying metas
CONFIG = {"kind": "content", "depth": 4, "latent_channels": 2, "codebook_size": 4,
          "num_classes": 2, "last_stage": 2}


class TestModelMeta:
    @pytest.mark.parametrize("meta", [
        {"type": "model"},                                  # every field missing
        {**GOOD_META, "depth": "x"},                        # ill-typed
        {**GOOD_META, "depth": True},                       # bool is not an int here
        {**GOOD_META, "depth": 1.0},
        {**GOOD_META, "norm": None},
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
        write_checkpoint(path, {**GOOD_META, "depth": 10 ** 12}, {})
        with pytest.raises(FormatError, match="holds 0 blocks"):
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


class TestModelShapes:
    @pytest.fixture()
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("model built before its arrays were checked")

        monkeypatch.setattr(checkpoints, "ContentModel", refuse)
        monkeypatch.setattr(checkpoints, "StructureModel", refuse)

    @pytest.fixture(scope="class")
    def arrays(self):
        return ContentModel(ModelConfig(**CONFIG), seed=0).state_arrays()

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
        with pytest.raises(FormatError, match="block3.w_out"):
            load_model(path)

    def test_matching_arrays_load(self, tmp_path, arrays):
        path = tmp_path / "good.nvgc"
        write_checkpoint(path, {**GOOD_META, **CONFIG}, arrays)
        model = load_model(path)
        assert all(np.array_equal(model.state_arrays()[k], v) for k, v in arrays.items())


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

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ref.nvgc"
        save_refiners(path, identity_refiners(2, 3))
        back = load_refiners(path)
        assert [r.stage for r in back] == [0, 1, 2]
        assert all(np.array_equal(r.weight, Refiner.identity(0, 3).weight) for r in back)


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
