import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, load_refiners
from nvg.content_model import ContentModel
from nvg.errors import FormatError, InvariantError
from nvg.grid import Codebook, LatentGrid, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.io import (
    codebook_hash,
    gray_to_structure_map,
    read_checkpoint,
    read_pgm,
    read_sequence,
    read_tensor,
    structure_map_to_gray,
    write_checkpoint,
    write_pgm,
    write_sequence,
    write_tensor,
)
from nvg.quantize import build_contents, fit_codebook, identity_refiners


@pytest.fixture()
def seq_and_codebook():
    rng = np.random.default_rng(0)
    grid = LatentGrid(rng.normal(size=(4, 4, 3)).astype(np.float32))
    codebook = fit_codebook([grid], 8, seed=0)
    refiners = identity_refiners(4, 3)
    seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
    return seq, codebook


class TestTensorFile:
    def test_roundtrip_bitexact(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(3, 5, 2)).astype(np.float32)
        path = tmp_path / "a.nvgt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)
        # write -> read -> write gives identical bytes
        path2 = tmp_path / "b.nvgt"
        write_tensor(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nvgt"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "短.nvgt"
        write_tensor(path, np.ones((2, 2), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            read_tensor(path)


class TestSequenceFile:
    def test_roundtrip_preserves_everything(self, tmp_path, seq_and_codebook):
        seq, codebook = seq_and_codebook
        path = tmp_path / "seq.json"
        write_sequence(path, seq, codebook)
        back = read_sequence(path, codebook)
        for (t1, s1), (t2, s2) in zip(seq.stages, back.stages):
            assert np.array_equal(t1.indices, t2.indices)
            assert np.array_equal(s1.labels, s2.labels)
        path2 = tmp_path / "seq2.json"
        write_sequence(path2, back, codebook)
        assert path.read_bytes() == path2.read_bytes()

    def test_codebook_hash_mismatch_is_hard_error(self, tmp_path, seq_and_codebook):
        seq, codebook = seq_and_codebook
        path = tmp_path / "seq.json"
        write_sequence(path, seq, codebook)
        other = Codebook(codebook.vectors + 1.0)
        with pytest.raises(InvariantError):
            read_sequence(path, other)

    def test_tampered_label_fails_validation(self, tmp_path, seq_and_codebook):
        seq, codebook = seq_and_codebook
        path = tmp_path / "seq.json"
        write_sequence(path, seq, codebook)
        text = path.read_text()
        # break balance in the stage-1 labels: flip one 0 to 1
        obj = json.loads(text)
        obj["stages"][1]["labels"][obj["stages"][1]["labels"].index(0)] = 1
        path.write_text(json.dumps(obj))
        with pytest.raises(InvariantError):
            read_sequence(path, codebook)

    def test_not_json_is_format_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            read_sequence(path)

    def test_hash_is_stable(self, seq_and_codebook):
        _, codebook = seq_and_codebook
        assert codebook_hash(codebook) == codebook_hash(Codebook(codebook.vectors.copy()))


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {"a.w": rng.normal(size=(3, 4)).astype(np.float32),
                  "b": rng.normal(size=(5,)).astype(np.float32)}
        meta = {"type": "model", "depth": 2}
        path = tmp_path / "ck.nvgc"
        write_checkpoint(path, meta, arrays)
        m2, a2 = read_checkpoint(path)
        assert m2 == meta
        assert set(a2) == set(arrays)
        for k in arrays:
            assert np.array_equal(arrays[k], a2[k])

    def test_write_is_deterministic(self, tmp_path):
        arrays = {"z": np.ones(3, dtype=np.float32), "a": np.zeros(2, dtype=np.float32)}
        p1, p2 = tmp_path / "1.nvgc", tmp_path / "2.nvgc"
        write_checkpoint(p1, {"k": 1}, arrays)
        write_checkpoint(p2, {"k": 1}, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "ck.nvgc"
        path.write_bytes(b"NVGC" + b"\x01\x00\x00\x00" + b"\xff\xff\xff\xff")
        with pytest.raises(FormatError):
            read_checkpoint(path)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        gray = (np.arange(12, dtype=np.uint8) * 20).reshape(3, 4)
        path = tmp_path / "m.pgm"
        write_pgm(path, gray)
        assert np.array_equal(read_pgm(path), gray)

    def test_structure_map_rendering_spreads_levels(self):
        smap = StructureMap(1, np.array([[0, 0], [1, 1]]))
        gray = structure_map_to_gray(smap)
        assert set(np.unique(gray).tolist()) == {0, 255}

    def test_binary_override_parses_darker_as_zero(self):
        gray = np.zeros((2, 4), dtype=np.uint8)
        gray[:, 2:] = 255
        smap = gray_to_structure_map(gray)
        assert np.array_equal(smap.labels, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))

    def test_unbalanced_override_rejected(self):
        gray = np.zeros((2, 4), dtype=np.uint8)
        gray[0, 0] = 255
        with pytest.raises(InvariantError):
            gray_to_structure_map(gray)

    def test_three_level_override_rejected(self):
        gray = np.zeros((2, 4), dtype=np.uint8)
        gray[0, :2] = 128
        gray[1, :2] = 255
        with pytest.raises(InvariantError):
            gray_to_structure_map(gray)

    def test_non_p5_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError):
            read_pgm(path)


def _sequence_obj():
    """A valid 2x2 sequence (K = 2) and its codebook."""
    grid = LatentGrid(np.arange(12, dtype=np.float32).reshape(2, 2, 3))
    codebook = Codebook(np.eye(3, dtype=np.float32))
    seq, _ = build_contents(grid, build_hierarchy(grid), codebook, identity_refiners(2, 3))
    return seq, codebook


def _checkpoint_with_meta(path, meta_blob: bytes) -> None:
    path.write_bytes(struct.pack("<4sII", b"NVGC", 1, len(meta_blob)) + meta_blob
                     + struct.pack("<I", 0))


class TestEscapes:
    """Each input that used to escape the readers as a non-package exception."""

    @pytest.mark.parametrize("text", [
        '{"K": 1e999, "h": 2, "w": 2, "e": 3, "stages": []}',
        '{"K": 2, "h": 2, "w": 2, "e": 3, "stages": 7}',
        '{"K": 0, "h": 1, "w": 1, "e": 3, "stages": '
        '[{"stage": Infinity, "tokens": [0], "labels": [0]}]}',
        '{"K": 0, "h": 1, "w": 1, "e": 3, "stages": '
        '[{"stage": 0, "tokens": [1180591620717411303424], "labels": [0]}]}',
        "[" * 100000,
    ], ids=["K-overflow", "stages-not-a-list", "stage-infinity", "token-overflow",
            "deep-nesting"])
    def test_sequence_text_is_format_error(self, tmp_path, text):
        path = tmp_path / "seq.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_sequence(path)

    def test_non_utf8_sequence_is_format_error(self, tmp_path, seq_and_codebook):
        seq, codebook = seq_and_codebook
        path = tmp_path / "seq.json"
        write_sequence(path, seq, codebook)
        path.write_bytes(path.read_bytes().replace(b'"K"', b'"\xff"', 1))
        with pytest.raises(FormatError, match="UTF-8"):
            read_sequence(path)

    def test_deeply_nested_checkpoint_meta_is_format_error(self, tmp_path):
        path = tmp_path / "deep.nvgc"
        _checkpoint_with_meta(path, b"[" * 100000)
        with pytest.raises(FormatError):
            read_checkpoint(path)

    @pytest.mark.parametrize("reader", [read_tensor, read_sequence, read_checkpoint, read_pgm])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_path_is_format_error(self, tmp_path, reader, where):
        path = tmp_path / "no" / "such" if where == "missing" else tmp_path
        with pytest.raises(FormatError, match="cannot read"):
            reader(path)

    @pytest.mark.parametrize("write", [
        lambda p: write_tensor(p, np.zeros(2)),
        lambda p: write_sequence(p, *_sequence_obj()),
        lambda p: write_checkpoint(p, {}, {}),
        lambda p: write_pgm(p, np.zeros((2, 2), dtype=np.uint8)),
    ], ids=["tensor", "sequence", "checkpoint", "pgm"])
    def test_unwritable_path_is_format_error(self, tmp_path, write):
        with pytest.raises(FormatError, match="cannot write"):
            write(tmp_path / "no" / "dir" / "out")

    def test_negative_pgm_dimensions_are_format_error(self, tmp_path):
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            read_pgm(path)


# -- JSON-tree fuzz: any JSON value in any field, only package errors escape --

JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from([2 ** 63, 2 ** 64, 2 ** 70, -2 ** 70, 10 ** 30]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=16)
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mutated(obj, path, value):
    """A deep copy of obj with the entry at path (a key list) set to value;
    an empty path replaces the whole document."""
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


SEQUENCE_PATHS = ([[]] + [[k] for k in ("K", "h", "w", "e", "codebook_hash", "stages")]
                  + [["stages", i] for i in range(3)]
                  + [["stages", i, k] for i in range(3) for k in ("stage", "tokens", "labels")])


# valid starting points the fuzz mutates one entry of
MODEL_META = {"type": "model", "kind": "content", "depth": 1, "latent_channels": 2,
              "codebook_size": 4, "num_classes": 2, "last_stage": 2, "norm": "rmsnorm"}
MODEL_ARRAYS = ContentModel(ModelConfig(1, "content", 2, 4, 2, 2)).state_arrays()
REFINER_META = {"type": "refiners", "count": 3, "channels": 2}
REFINER_ARRAYS = {f"refiner{r.stage}.{part}": getattr(r, part)
                  for r in identity_refiners(2, 2) for part in ("weight", "bias")}


@pytest.fixture(scope="module")
def good_sequence(tmp_path_factory):
    """A valid sequence file's JSON object and its codebook."""
    seq, codebook = _sequence_obj()
    path = tmp_path_factory.mktemp("fuzz") / "good.json"
    write_sequence(path, seq, codebook)
    return json.loads(path.read_text()), codebook


class TestJsonTreeFuzz:
    @FUZZ
    @given(path=st.sampled_from(SEQUENCE_PATHS), value=JSON_VALUES)
    def test_sequence_fields(self, tmp_path, good_sequence, path, value):
        good, codebook = good_sequence
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(good, path, value)))
        for book in (None, codebook):
            try:
                read_sequence(bad, book)
            except (FormatError, InvariantError):
                pass

    @FUZZ
    @given(kind=st.sampled_from(["model", "refiners"]),
           key=st.sampled_from(["type", "kind", "depth", "latent_channels",
                                "codebook_size", "num_classes", "last_stage", "norm",
                                "count", "channels", None]),
           value=JSON_VALUES)
    def test_checkpoint_meta(self, tmp_path, kind, key, value):
        meta, arrays, load = {"model": (MODEL_META, MODEL_ARRAYS, load_model),
                              "refiners": (REFINER_META, REFINER_ARRAYS, load_refiners)}[kind]
        path = tmp_path / "fuzz.nvgc"
        write_checkpoint(path, value if key is None else {**meta, key: value}, arrays)
        try:
            load(path)
        except (FormatError, InvariantError):
            pass
