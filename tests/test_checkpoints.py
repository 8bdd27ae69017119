import os
import subprocess
import sys
from pathlib import Path

import pytest

import nvg
from nvg.checkpoints import load_model
from nvg.errors import FormatError
from nvg.io import read_checkpoint, write_checkpoint

# what save_model writes for a depth-1 content model
GOOD_META = {"type": "model", "kind": "content", "depth": 1, "latent_channels": 2,
             "codebook_size": 4, "num_classes": 2, "last_stage": 2, "norm": "rmsnorm"}


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
