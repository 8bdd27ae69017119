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
from nvg import cli, errors
from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, save_model, save_refiners
from nvg.content_model import ContentModel
from nvg.grid import LatentGrid, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.io import (
    read_sequence,
    read_tensor,
    structure_map_to_gray,
    write_checkpoint,
    write_pgm,
    write_sequence,
    write_tensor,
)
from nvg.quantize import Refiner, build_contents, fit_codebook, identity_refiners
from nvg.structure_model import StructureModel
from oracles import duplicate_name_checkpoint

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


def test_generate_on_a_checkpoint_repeating_an_array_name_exits_2(files, capsys, tmp_path):
    argv, inputs, outputs = commands(files)["generate"]
    bad, out = tmp_path / "dup.nvgc", tmp_path / "out"
    duplicate_name_checkpoint(bad)
    code, err = run(_swap(_swap(argv, inputs[0], bad), outputs[0], out), capsys)
    assert code == 2 and f"{bad} holds array 'a' twice" in err and len(err.splitlines()) == 1
    assert not out.exists()


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
])
def test_bad_refiner_arguments_exit_3_and_write_nothing(files, options, capsys, tmp_path):
    # negative steps used to write identity refiners with exit 0
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


def test_repeated_override_exits_2_and_writes_nothing(files, capsys, tmp_path):
    # a request holds one structure prefix; every image but the last used
    # to be read, checked and then dropped without a word
    argv, inputs, outputs = commands(files)["generate"]
    pgm = tmp_path / "left.pgm"
    write_pgm(pgm, structure_map_to_gray(StructureMap(1, np.tile([0, 0, 1, 1], (4, 1)))))
    argv = _swap(argv, outputs[0], tmp_path / "out")
    code, err = run(argv + ["--override-structure", f"1:{pgm}"], capsys)
    assert code == 2 and "--override-structure" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [pgm]


def test_override_past_stage_1_exits_3_before_its_image_is_read(files, capsys, tmp_path):
    # the stage is refused as the option is parsed; it used to be refused
    # only after the image was read, so a missing image exited 2
    argv, _, outputs = commands(files)["generate"]
    argv = _swap(argv, outputs[0], tmp_path / "out")
    argv[argv.index("--override-structure") + 1] = f"2:{tmp_path / 'missing.pgm'}"
    code, err = run(argv, capsys)
    assert code == 3 and "binary overrides are supported at stage 1 only" in err
    assert list(tmp_path.iterdir()) == []


def test_bright_top_override_is_labelled_canonically(files, capsys, tmp_path):
    # the override image's bright top half holds location (0, 0), so it is
    # child 0, as in every training map; it used to come back as label 1
    argv, inputs, outputs = commands(files)["generate"]
    pgm = tmp_path / "bright-top.pgm"
    write_pgm(pgm, np.repeat([255, 0], 8).astype(np.uint8).reshape(4, 4))
    out = tmp_path / "out"
    code, _ = run(_swap(_swap(argv, inputs[4], pgm), outputs[0], out), capsys)
    assert code == 0
    stage1 = read_sequence(f"{out}.sequence.json").stages[1][1]
    assert stage1.labels.ravel().tolist() == [0] * 8 + [1] * 8


def test_odd_structure_depth_exits_3_before_tokenizing(files, capsys, tmp_path, monkeypatch):
    # the configs are built before the dataset is tokenized, so a bad option
    # costs no tokenization
    def no_tokenizing(*args):
        raise AssertionError("tokenize_dataset ran before the configs were checked")

    monkeypatch.setattr(cli, "tokenize_dataset", no_tokenizing)
    argv, _, outputs = commands(files)["train-structure"]
    out = tmp_path / "model.nvgc"
    code, err = run(_swap(argv, outputs[0], out) + ["--depth", "3"], capsys)
    assert code == 3 and "even depth" in err
    assert not out.exists()


def tokenize_with(files, capsys, tmp_path, codebook_value, refiner_scale):
    """Run `nvg tokenize` with every codebook entry `codebook_value` and the
    identity refiners scaled by `refiner_scale`, warnings as errors."""
    argv, inputs, outputs = commands(files)["tokenize"]
    codebook, refiners = tmp_path / "cb.nvgt", tmp_path / "ref.nvgc"
    write_tensor(codebook, np.full((8, 3), codebook_value, dtype=np.float32))
    save_refiners(refiners, [Refiner(refiner_scale * r.weight, r.bias)
                             for r in identity_refiners(4, 3)])
    argv = _swap(_swap(_swap(argv, inputs[1], codebook), inputs[2], refiners),
                 outputs[0], tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run(argv, capsys)


def test_tokenize_with_an_overflowing_refiner_exits_4_without_warning(files, capsys,
                                                                      tmp_path):
    # the distances to a codebook of 10s are finite, but the refiner conv
    # overflows to inf; NumericError must be the only report
    code, err = tokenize_with(files, capsys, tmp_path, 10.0, 1e38)
    assert code == 4 and err.startswith("nvg: error code=4 kind=numeric:")
    assert "residual turned non-finite after the stage-0 refiner" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_tokenize_with_an_overflowing_codebook_exits_4_and_writes_nothing(files, capsys,
                                                                          tmp_path):
    # every float32 distance to a codebook of 1e20s is inf; quantization used
    # to pick row 0 for every cluster and write the sequence
    code, err = tokenize_with(files, capsys, tmp_path, 1e20, 1.0)
    assert code == 4 and err.startswith("nvg: error code=4 kind=numeric:")
    assert "squared distances overflow" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_tokenize_over_the_distance_matrix_cap_exits_3(files, capsys, monkeypatch, tmp_path):
    # the 4x4 grid's 16x16 float64 distance matrix is 2048 bytes
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 2047)
    argv, _, outputs = commands(files)["tokenize"]
    code, err = run(_swap(argv, outputs[0], tmp_path / "out"), capsys)
    assert code == 3 and err.startswith("nvg: error code=3 kind=invariant:")
    assert "needs 2048 bytes of pairwise distances, over the 2047-byte cap" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_reconstruct_on_an_unnested_sequence_exits_3_and_writes_nothing(files, capsys,
                                                                       tmp_path):
    # stage-2 labels 1 and 2 swapped: still balanced, no longer nested
    argv, inputs, outputs = commands(files)["reconstruct"]
    obj = json.loads(Path(inputs[0]).read_text())
    obj["stages"][2]["labels"] = [{1: 2, 2: 1}.get(v, v) for v in obj["stages"][2]["labels"]]
    bad = tmp_path / "unnested.json"
    bad.write_text(json.dumps(obj))
    code, err = run(_swap(_swap(argv, inputs[0], bad), outputs[0], tmp_path / "out"), capsys)
    assert code == 3 and "stages 1 and 2 are not parent-consistent" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [bad]


def test_reconstruct_whose_canvas_overflows_exits_4_without_warning(files, capsys, tmp_path):
    # each refined placement is finite (about 2e38), the stage-1 sum is not;
    # it used to print numpy's overflow warning before the error line
    argv, inputs, outputs = commands(files)["reconstruct"]
    bad, out = tmp_path / "ref.nvgc", tmp_path / "out"
    save_refiners(bad, [Refiner(r.weight, np.full(3, 2e38)) for r in identity_refiners(4, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run(_swap(_swap(argv, inputs[2], bad), outputs[0], out), capsys)
    assert code == 4 and err.startswith("nvg: error code=4 kind=numeric:")
    assert "canvas turned non-finite after the stage-1 refiner" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [bad]


def no_dataset(*args):
    raise AssertionError("the dataset was built before the sizes were checked")


@pytest.mark.parametrize("command", ["train-content", "train-structure"])
def test_train_past_the_rotary_layout_exits_3_before_any_dataset(files, command, capsys,
                                                                  tmp_path, monkeypatch):
    # a 2048x2048 dataset used to take 4.8 s and 704 MB before this refusal
    monkeypatch.setattr(cli, "make_synthetic_dataset", no_dataset)
    argv, _, outputs = commands(files)[command]
    argv = _swap(_swap(argv, outputs[0], tmp_path / "out"), "4,4,3", "2048,2048,3")
    code, err = run(argv, capsys)
    assert code == 3 and "rotary layout supports at most 8 stages, got 22" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def no_model(*args, **kwargs):
    raise AssertionError("a model was built before the options were checked")


@pytest.mark.parametrize("command", ["train-codebook", "train-content", "train-structure"])
def test_train_on_a_grid_without_power_of_two_area_exits_3_before_any_image(
        files, command, capsys, tmp_path, monkeypatch):
    # train-content used to build its model and then fail at the first image
    for name in ("make_synthetic_dataset", "ContentModel", "StructureModel"):
        monkeypatch.setattr(cli, name, no_model)
    argv, _, outputs = commands(files)[command]
    argv = _swap(_swap(argv, outputs[0], tmp_path / "out"), "4,4,3", "3,3,4")
    code, err = run(argv, capsys)
    assert code == 3 and "h*w a power of two, got 3x3" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, message", [
    ("--classes", "9", "need 1..8 classes for 3 channels, got 9"),
    # a (1e8 + 1) x 256 float64 class table, about 200 GB, used to be drawn
    ("--classes", "100000000", "need 1..8 classes for 3 channels, got 100000000"),
    ("--latent", "8,8,1000000", "--latent has 1000000 channels, the codebook 3"),
], ids=["classes-9", "classes-1e8", "channels-1e6"])
@pytest.mark.parametrize("command", ["train-content", "train-structure"])
def test_train_refuses_dataset_options_before_any_model(files, command, option, value,
                                                        message, capsys, tmp_path,
                                                        monkeypatch):
    for name in ("make_synthetic_dataset", "ModelConfig", "ContentModel", "StructureModel"):
        monkeypatch.setattr(cli, name, no_model)
    argv, _, outputs = commands(files)[command]
    argv = _swap(argv, outputs[0], tmp_path / "out")
    argv[argv.index(option) + 1] = value
    code, err = run(argv, capsys)
    assert code == 3 and message in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_train_codebook_over_the_dataset_cap_exits_3_before_any_dataset(files, capsys,
                                                                       tmp_path, monkeypatch):
    # the 65536x65536 coordinate grids alone would take 64 GiB
    monkeypatch.setattr(cli, "make_synthetic_dataset", no_dataset)
    argv, _, outputs = commands(files)["train-codebook"]
    argv = _swap(_swap(_swap(argv, outputs[0], tmp_path / "out"), outputs[1],
                       tmp_path / "out.ref"), "4,4,3", "65536,65536,4")
    code, err = run(argv, capsys)
    assert code == 3 and f"over the {errors.MAX_ALLOC_BYTES}-byte cap" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--cfg-override=nan", "--cfg-override=inf",
                                    "--top-p-override=0", "--top-p-override=1.5"])
def test_bad_schedule_override_exits_3_before_any_model_runs(files, option, capsys,
                                                             tmp_path, monkeypatch):
    # a NaN guidance scale used to exit 4 after the models ran, and a top-p of
    # 0 to exit 3 at the first content step
    def no_generating(*args):
        raise AssertionError("generate ran before the schedule was checked")

    monkeypatch.setattr(cli, "generate", no_generating)
    argv, _, outputs = commands(files)["generate"]
    code, err = run(_swap(argv, outputs[0], tmp_path / "out") + [option], capsys)
    assert code == 3 and err.startswith("nvg: error code=3 kind=invariant:")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_content_model_for_another_codebook_size_exits_3(files, capsys, tmp_path):
    # the codebook has 8 rows; a 16-row content model used to sample from them
    argv, inputs, outputs = commands(files)["generate"]
    content = tmp_path / "content16.nvgc"
    save_model(content, ContentModel(ModelConfig(1, "content", 3, 16, 2, 4)))
    argv = _swap(_swap(argv, inputs[0], content), outputs[0], tmp_path / "out")
    code, err = run(argv, capsys)
    assert code == 3 and "scores 16 codebook rows, the codebook has 8" in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [content]


# float32 bytes of every array of the depth-2 structure model (width 64),
# more than those of the depth-1 content model: both fit, deeper models do not
SMALL_CAP = 4 * sum(p.data.size for p in
                    StructureModel(ModelConfig(2, "structure", 3, 8, 2, 4)).params().values())


@pytest.mark.parametrize("command, options, what", [
    ("train-content", ["--depth", "2"], "bytes of weights, over"),
    ("train-structure", ["--depth", "4"], "bytes of weights, over"),
    ("train-content", ["--batch", "512"], "attention scores"),
    ("train-structure", ["--batch", "128"], "attention scores"),
])
def test_model_or_batch_over_the_byte_cap_exits_3_and_writes_nothing(
        files, command, options, what, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", SMALL_CAP)
    argv, _, outputs = commands(files)[command]
    out = tmp_path / "model.nvgc"
    code, err = run(_swap(argv, outputs[0], out) + options, capsys)
    assert code == 3 and what in err and f"over the {SMALL_CAP}-byte cap" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


# the 2 4x4 grids of DATA give 2 (3 * 16 - 1) = 94 training vectors
@pytest.mark.parametrize("option", ["--size=0", "--size=95", "--iters=-1",
                                    "--refiner-steps=-1", "--count=0"])
def test_bad_codebook_option_exits_3_before_any_dataset(files, option, capsys, tmp_path,
                                                        monkeypatch):
    # each used to be refused only after the dataset, and the refiner options
    # after the k-means fit too
    monkeypatch.setattr(cli, "make_synthetic_dataset", no_dataset)
    argv, _, (codebook, refiners) = commands(files)["train-codebook"]
    argv = _swap(_swap(argv, codebook, tmp_path / "cb.nvgt"), refiners, tmp_path / "ref.nvgc")
    code, err = run(argv + [option], capsys)
    assert code == 3 and err.startswith("nvg: error code=3 kind=invariant:")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_codebook_of_every_training_vector_is_fitted(files, capsys, tmp_path):
    argv, _, (codebook, refiners) = commands(files)["train-codebook"]
    argv = _swap(_swap(argv, codebook, tmp_path / "cb.nvgt"), refiners, tmp_path / "ref.nvgc")
    assert run(argv + ["--size=94"], capsys)[0] == 0
    assert read_tensor(tmp_path / "cb.nvgt").shape == (94, 3)


def test_tokenize_on_a_mixed_channel_refiner_stack_exits_2_before_the_hierarchy(
        files, capsys, tmp_path, monkeypatch):
    # a 3-then-4-channel stack under its meta's 3 used to load, build the
    # hierarchy and exit 3 in the stage-1 refiner
    def no_hierarchy(*args):
        raise AssertionError("the hierarchy was built before the refiners were checked")

    monkeypatch.setattr(cli, "build_hierarchy", no_hierarchy)
    argv, inputs, outputs = commands(files)["tokenize"]
    stack = tmp_path / "mixed.nvgc"
    refiners = identity_refiners(0, 3) + identity_refiners(3, 4)
    write_checkpoint(stack, {"type": "refiners", "count": 5, "channels": 3},
                     {f"refiner{i}.{name}": getattr(r, name)
                      for i, r in enumerate(refiners) for name in ("weight", "bias")})
    code, err = run(_swap(_swap(argv, inputs[2], stack), outputs[0], tmp_path / "out"), capsys)
    assert code == 2 and "refiner 1 at" in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [stack]


def _spy_on_tokenize(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(cli, "tokenize_dataset", lambda *a: calls.append(a) or [])
    return calls


@pytest.mark.parametrize("command", ["train-content", "train-structure"])
def test_batch_over_the_real_cap_exits_3_before_tokenizing(files, command, capsys, tmp_path,
                                                           monkeypatch):
    calls = _spy_on_tokenize(monkeypatch)
    argv, _, outputs = commands(files)[command]
    out = tmp_path / "model.nvgc"
    code, err = run(_swap(argv, outputs[0], out) + ["--batch", "2000000"], capsys)
    assert code == 3 and "attention scores" in err and len(err.splitlines()) == 1
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["train-content", "train-structure"])
def test_training_weights_over_the_cap_exit_3_before_tokenizing(files, command, capsys,
                                                                tmp_path, monkeypatch):
    # the depth-2 structure model's weights (the larger of the two):
    # each model fits once, not with its gradients and Adam moments
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", SMALL_CAP)
    calls = _spy_on_tokenize(monkeypatch)
    argv, _, outputs = commands(files)[command]
    out = tmp_path / "model.nvgc"
    code, err = run(_swap(argv, outputs[0], out), capsys)
    assert code == 3 and "gradients and Adam moments" in err and len(err.splitlines()) == 1
    assert calls == [] and not out.exists()


def test_generation_keeps_the_one_times_weights_policy(files, capsys, tmp_path, monkeypatch):
    # the cap that refuses training either model still loads and samples both
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", SMALL_CAP)
    argv, _, outputs = commands(files)["generate"]
    assert run(_swap(argv, outputs[0], tmp_path / "out"), capsys)[0] == 0


def test_inspect_json_reads_the_structure_ids_back(files, capsys):
    assert cli.main(["inspect", "--json", files["seq.json"]]) == 0
    assert json.loads(capsys.readouterr().out)["codec_roundtrip"] == "OK"


EXIT_CODES = {errors.FormatError: (2, "format"), errors.InvariantError: (3, "invariant"),
              errors.NumericError: (4, "numeric")}


@pytest.mark.parametrize("kind", errors.NvgError.__subclasses__(), ids=lambda k: k.__name__)
def test_every_package_error_exits_with_its_documented_code(kind, capsys, monkeypatch):
    # `main` has one branch per subclass and no catch-all for NvgError, so a
    # new subclass must be given its code there and here
    def fail(args):
        raise kind("the handler failed")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    code, err = run(["inspect", "unread.json"], capsys)
    assert (code, err) == (EXIT_CODES[kind][0], f"nvg: error code={code} "
                                                f"kind={EXIT_CODES[kind][1]}: the handler failed\n")


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


@pytest.mark.parametrize("command", ["tokenize", "reconstruct", "train-content"])
def test_finite_refiner_whose_conv_overflows_exits_4(files, command, capsys, tmp_path):
    # every weight is finite, but the stage-4 conv overflows, so the canvas
    # or residual turns non-finite: a numeric failure, not an invalid input
    argv, _, outputs = commands(files)[command]
    refiners = identity_refiners(4, 3)
    refiners[4] = Refiner(np.full((3, 3, 3, 3), 3e38, dtype=np.float32), refiners[4].bias)
    bad, out = tmp_path / "ref.nvgc", tmp_path / "out"
    save_refiners(bad, refiners)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run(_swap(_swap(argv, files["ref.nvgc"], bad), outputs[0], out), capsys)
    assert code == 4 and err.startswith("nvg: error code=4 kind=numeric:")
    assert "stage-4 refiner" in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [bad]
