"""The CLI's exit-code contract on hostile input: every unreadable input and
every unwritable output exits 2 with a one-line error, never a traceback.

Commands run in-process through `cli.main`, so an exception that escapes it
fails the test instead of printing a traceback."""

import struct

import numpy as np
import pytest

from nvg import cli
from nvg.backbone import ModelConfig
from nvg.checkpoints import save_model, save_refiners
from nvg.content_model import ContentModel
from nvg.grid import LatentGrid, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.io import structure_map_to_gray, write_pgm, write_sequence, write_tensor
from nvg.quantize import build_contents, fit_codebook, identity_refiners
from nvg.structure_model import StructureModel

DATA = ["--latent", "4,4,3", "--count", "2", "--classes", "2"]
TRAIN = DATA + ["--steps", "1", "--batch", "2", "--warmup", "0"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of every kind the commands read, on a 4x4x3 latent."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    grid = LatentGrid(rng.standard_normal((4, 4, 3)).astype(np.float32))
    codebook = fit_codebook([grid], 8, seed=0)
    refiners = identity_refiners(4, 3)
    seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
    paths = {name: str(root / name) for name in
             ("grid.nvgt", "cb.nvgt", "ref.nvgc", "seq.json", "content.nvgc",
              "structure.nvgc", "half.pgm")}
    write_tensor(paths["grid.nvgt"], grid.data)
    write_tensor(paths["cb.nvgt"], codebook.vectors)
    save_refiners(paths["ref.nvgc"], refiners)
    write_sequence(paths["seq.json"], seq, codebook)
    save_model(paths["content.nvgc"], ContentModel(ModelConfig(1, "content", 3, 8, 2, 4)))
    save_model(paths["structure.nvgc"],
               StructureModel(ModelConfig(2, "structure", 3, 8, 2, 4)))
    half = StructureMap(1, np.repeat([0, 1], 8).reshape(4, 4))
    write_pgm(paths["half.pgm"], structure_map_to_gray(half))
    paths["root"] = root
    return paths


def commands(f):
    """Each command with valid arguments, as (argv, inputs, outputs): the
    argv entries that name a file it reads and a file it writes."""
    out = str(f["root"] / "out")
    override = "1:" + f["half.pgm"]
    return {
        "tokenize": (["tokenize", f["grid.nvgt"], f["cb.nvgt"], f["ref.nvgc"], "-o", out],
                     [f["grid.nvgt"], f["cb.nvgt"], f["ref.nvgc"]], [out]),
        "reconstruct": (["reconstruct", f["seq.json"], f["cb.nvgt"], f["ref.nvgc"],
                         "-o", out], [f["seq.json"], f["cb.nvgt"], f["ref.nvgc"]], [out]),
        "train-codebook": (["train-codebook", *DATA, "--size", "4", "--iters", "2",
                            "-o", out, "--refiners-out", out + ".ref"],
                           [], [out, out + ".ref"]),
        "train-content": (["train-content", f["cb.nvgt"], f["ref.nvgc"], *TRAIN,
                           "--depth", "1", "-o", out], [f["cb.nvgt"], f["ref.nvgc"]], [out]),
        "train-structure": (["train-structure", f["cb.nvgt"], f["ref.nvgc"], *TRAIN,
                             "--depth", "2", "-o", out], [f["cb.nvgt"], f["ref.nvgc"]],
                            [out]),
        "generate": (["generate", f["content.nvgc"], f["structure.nvgc"], f["cb.nvgt"],
                      f["ref.nvgc"], "--latent", "4,4,3", "--steps", "1",
                      "--override-structure", override, "-o", out],
                     [f["content.nvgc"], f["structure.nvgc"], f["cb.nvgt"], f["ref.nvgc"],
                      f["half.pgm"]], [out]),
        "inspect": (["inspect", f["seq.json"]], [f["seq.json"]], []),
    }


def run(argv, capsys) -> tuple:
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def _swap(argv, old, new):
    """argv with the file argument `old` (bare or as STAGE:old) set to `new`."""
    swapped = [str(new) if arg == old else arg.replace(":" + old, ":" + str(new))
               for arg in argv]
    assert swapped != argv
    return swapped


COMMANDS = ["tokenize", "reconstruct", "train-codebook", "train-content",
            "train-structure", "generate", "inspect"]


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_arguments_succeed(files, command, capsys):
    argv, _, _ = commands(files)[command]
    assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("command, which", [
    ("tokenize", 0), ("tokenize", 1), ("tokenize", 2),
    ("reconstruct", 0), ("reconstruct", 1), ("reconstruct", 2),
    ("train-content", 0), ("train-content", 1),
    ("train-structure", 0), ("train-structure", 1),
    ("generate", 0), ("generate", 1), ("generate", 2), ("generate", 3), ("generate", 4),
    ("inspect", 0),
])
@pytest.mark.parametrize("bad", ["missing", "directory"])
def test_unreadable_input_exits_2(files, command, which, bad, capsys):
    argv, inputs, _ = commands(files)[command]
    path = files["root"] / "no" / "such" if bad == "missing" else files["root"]
    code, err = run(_swap(argv, inputs[which], path), capsys)
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command, which", [
    ("tokenize", 0), ("reconstruct", 0), ("train-codebook", 0), ("train-codebook", 1),
    ("train-content", 0), ("train-structure", 0), ("generate", 0),
])
def test_output_in_a_missing_directory_exits_2(files, command, which, capsys):
    argv, _, outputs = commands(files)[command]
    code, err = run(_swap(argv, outputs[which], files["root"] / "no" / "dir" / "out"),
                    capsys)
    assert code == 2
    assert "cannot write" in err


def _deep_checkpoint(path):
    meta = b"[" * 100000
    path.write_bytes(struct.pack("<4sII", b"NVGC", 1, len(meta)) + meta
                     + struct.pack("<I", 0))


@pytest.mark.parametrize("content", [
    b'{"K": 1e999}',
    b'{"K": 0, "h": 1, "w": 1, "e": 3, "stages": 7}',
    b'{"K": 0, "h": 1, "w": 1, "e": 3, "stages": '
    b'[{"stage": Infinity, "tokens": [0], "labels": [0]}]}',
    b'{"K": 0, "h": 1, "w": 1, "e": 3, "stages": '
    b'[{"stage": 0, "tokens": [1180591620717411303424], "labels": [0]}]}',
    b'{"K": 0, "\xff": 1}',
    b"[" * 100000,
], ids=["K-overflow", "stages-not-a-list", "stage-infinity", "token-overflow",
        "non-utf8", "deep-nesting"])
def test_inspect_on_a_hostile_sequence_exits_2(files, content, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["inspect", str(path)], capsys)[0] == 2


def test_generate_on_a_deeply_nested_checkpoint_meta_exits_2(files, capsys, tmp_path):
    argv, inputs, _ = commands(files)["generate"]
    bad = tmp_path / "deep.nvgc"
    _deep_checkpoint(bad)
    assert run(_swap(argv, inputs[0], bad), capsys)[0] == 2
