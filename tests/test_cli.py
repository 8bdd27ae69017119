"""The CLI's exit-code contract on hostile input: every unreadable input and
every unwritable output exits 2 with a one-line error, never a traceback.

Commands run in-process through `cli.main`, so an exception that escapes it
fails the test instead of printing a traceback. The closed-stdout test runs
`python -m nvg` as a subprocess, as the interpreter's exit flush is part of it."""

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nvg
from nvg import cli
from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, save_model, save_refiners
from nvg.content_model import ContentModel
from nvg.grid import LatentGrid, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.io import structure_map_to_gray, write_pgm, write_sequence, write_tensor
from nvg.quantize import Refiner, build_contents, fit_codebook, identity_refiners
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


def _negative_h(obj):
    obj["h"] = -1


def _zero_w(obj):
    obj["w"] = 0


def _wrap_stage_1_label_0(obj):
    labels = obj["stages"][1]["labels"]
    obj["stages"][1]["labels"] = [2**32 if v == 0 else v for v in labels]


def _wrap_stage_0_token(obj):
    obj["stages"][0]["tokens"] = [t + 2**32 for t in obj["stages"][0]["tokens"]]


@pytest.mark.parametrize("edit, code", [
    (_negative_h, 2),
    (_zero_w, 2),
    (_wrap_stage_1_label_0, 3),
    (_wrap_stage_0_token, 3),
], ids=["h-negative", "w-zero", "label-wraps-int32", "token-wraps-int32"])
def test_inspect_on_an_edited_sequence_fails(files, edit, code, capsys, tmp_path):
    # h = -1 and the wrapped label or token each loaded as the unedited sequence
    obj = json.loads((files["root"] / "seq.json").read_text())
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    assert run(["inspect", str(path)], capsys)[0] == code


def test_generate_on_a_deeply_nested_checkpoint_meta_exits_2(files, capsys, tmp_path):
    argv, inputs, _ = commands(files)["generate"]
    bad = tmp_path / "deep.nvgc"
    _deep_checkpoint(bad)
    assert run(_swap(argv, inputs[0], bad), capsys)[0] == 2


@pytest.mark.parametrize("which", [0, 1])
def test_tokenize_on_dims_that_wrap_int64_exits_2(files, which, capsys, tmp_path):
    # rank 4, dims 65536 each: an int64 product is 2**64 = 0, matching the
    # empty payload, and reshape used to raise a bare ValueError
    argv, inputs, _ = commands(files)["tokenize"]
    bad = tmp_path / "wrap.nvgt"
    bad.write_bytes(struct.pack("<4sII4I", b"NVGT", 1, 4, *(65536,) * 4))
    code, err = run(_swap(argv, inputs[which], bad), capsys)
    assert code == 2
    assert "dims need" in err


def _without_override(argv):
    i = argv.index("--override-structure")
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("command, option, code", [
    ("train-codebook", "--seed=-1", 2),
    ("train-content", "--seed=-1", 2),
    ("train-structure", "--seed=-1", 2),
    ("generate", "--seed=-1", 2),
    ("train-codebook", "--data-seed=-1", 2),
    ("train-content", "--data-seed=-1", 2),
    ("train-codebook", "--latent=-2,-2,3", 2),
    ("train-content", "--latent=-2,-2,3", 2),
    ("generate", "--latent=-4,-4,3", 2),
    ("generate", "--latent=4,4,5", 3),       # the models and codebook have 3 channels
    ("train-content", "--warmup=-5", 3),
    ("train-structure", "--warmup=-5", 3),
    ("train-codebook", "--iters=-1", 3),
])
def test_out_of_range_number_exits_nonzero(files, command, option, code, capsys):
    # -2 * -2 = 4 passes the power-of-two check; the override is dropped so
    # that its shape check does not mask the negative latent
    argv, _, _ = commands(files)[command]
    if command == "generate":
        argv = _without_override(argv)
    assert run(argv + [option], capsys)[0] == code


@pytest.mark.parametrize("command", ["train-content", "train-structure"])
@pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
def test_bad_learning_rate_exits_3_and_writes_nothing(files, command, lr, capsys, tmp_path):
    # a NaN or infinite rate used to write an all-NaN checkpoint, and a
    # negative one to train uphill, both with exit 0
    argv, _, outputs = commands(files)[command]
    out = tmp_path / "model.nvgc"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run(_swap(argv, outputs[0], out) + [f"--lr={lr}"], capsys)
    assert code == 3 and "base_lr" in err
    assert not out.exists()


@pytest.mark.parametrize("options", [
    ["--refiner-steps=-1"],
    ["--refiner-steps=2", "--refiner-lr=-1"],
    ["--refiner-steps=2", "--refiner-lr=nan"],
    ["--refiner-steps=2", "--refiner-lr=inf"],
])
def test_bad_refiner_arguments_exit_3_and_write_nothing(files, options, capsys, tmp_path):
    # negative steps or a negative rate used to write identity refiners with
    # exit 0, and a NaN or infinite rate to diverge with exit 4
    argv, _, (codebook, refiners) = commands(files)["train-codebook"]
    outs = tmp_path / "cb.nvgt", tmp_path / "ref.nvgc"
    argv = _swap(_swap(argv, codebook, outs[0]), refiners, outs[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run(argv + options, capsys)
    assert code == 3 and "refiner" in err
    assert not any(path.exists() for path in outs)


def test_override_of_another_shape_exits_3_and_writes_nothing(files, capsys, tmp_path):
    # 2x8 has the 16 locations of a 4x4 latent, so the image is a valid
    # stage-1 map; the request's own shape check is the one that rejects it
    argv, inputs, outputs = commands(files)["generate"]
    pgm = tmp_path / "wide.pgm"
    write_pgm(pgm, structure_map_to_gray(StructureMap(1, np.repeat([0, 1], 8).reshape(2, 8))))
    argv = _swap(_swap(argv, inputs[4], pgm), outputs[0], tmp_path / "out")
    code, err = run(argv, capsys)
    assert code == 3 and "override at stage 1 has wrong shape" in err
    assert list(tmp_path.iterdir()) == [pgm]


def test_tokenize_with_an_overflowing_refiner_exits_4_without_warning(files, capsys,
                                                                      tmp_path):
    # the refiner conv overflows to inf; NumericError must be the only report
    argv, inputs, outputs = commands(files)["tokenize"]
    codebook, refiners = tmp_path / "cb.nvgt", tmp_path / "ref.nvgc"
    write_tensor(codebook, np.full((8, 3), 1e20, dtype=np.float32))
    save_refiners(refiners, [Refiner(1e20 * r.weight, r.bias) for r in identity_refiners(4, 3)])
    argv = _swap(_swap(_swap(argv, inputs[1], codebook), inputs[2], refiners),
                 outputs[0], tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run(argv, capsys)
    assert code == 4 and err.startswith("nvg: error code=4 kind=numeric:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_inspect_json_reads_the_structure_ids_back(files, capsys):
    assert cli.main(["inspect", "--json", files["seq.json"]]) == 0
    assert json.loads(capsys.readouterr().out)["codec_roundtrip"] == "OK"


def test_selfcheck_with_a_negative_seed_exits_2(capsys):
    assert run(["selfcheck", "--seed=-1"], capsys)[0] == 2


@pytest.mark.parametrize("command", ["train-content", "train-structure"])
def test_zero_training_steps_write_the_untrained_checkpoint(files, command, capsys, tmp_path):
    argv, _, outputs = commands(files)[command]
    out = tmp_path / "untrained.nvgc"
    code = cli.main(_swap(argv, outputs[0], out) + ["--steps=0"])
    printed = capsys.readouterr()
    assert code == 0 and "Traceback" not in printed.err
    assert "no loss over 0 steps" in printed.out
    model = load_model(str(out))
    fresh = type(model)(model.config, seed=0)
    for name, array in fresh.state_arrays().items():
        assert np.array_equal(model.state_arrays()[name], array)


@pytest.mark.parametrize("command", ["inspect", "selfcheck"])
def test_stdout_closed_by_its_reader_exits_2(files, command):
    # a subprocess, so the interpreter's own exit flush runs too
    argv = {"inspect": ["inspect", files["seq.json"]], "selfcheck": ["selfcheck"]}[command]
    env = {**os.environ, "PYTHONPATH": str(Path(nvg.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nvg", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("nvg: error code=2 kind=format:")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
