import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nvg.backbone import ModelConfig
from nvg.checkpoints import load_model, load_refiners
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
from oracles import duplicate_name_checkpoint


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

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0, 3)])
    def test_scalar_and_empty_roundtrip(self, tmp_path, shape):
        path = tmp_path / "a.nvgt"
        write_tensor(path, np.full(shape, 2.5, dtype=np.float32))
        back = read_tensor(path)
        assert back.shape == shape and back.dtype == np.float32 and np.all(back == 2.5)

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

    def test_balanced_but_unnested_labels_fail_validation(self, tmp_path, seq_and_codebook):
        # swapping stage-2 labels 1 and 2 keeps every cluster's size, but puts
        # label 2 inside stage-1 cluster 0
        seq, codebook = seq_and_codebook
        path = tmp_path / "seq.json"
        write_sequence(path, seq, codebook)
        obj = json.loads(path.read_text())
        obj["stages"][2]["labels"] = [{1: 2, 2: 1}.get(v, v) for v in obj["stages"][2]["labels"]]
        path.write_text(json.dumps(obj))
        with pytest.raises(InvariantError, match="stages 1 and 2 are not parent-consistent"):
            read_sequence(path, codebook)

    def test_not_json_is_format_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            read_sequence(path)

    def test_hash_is_stable(self, seq_and_codebook):
        _, codebook = seq_and_codebook
        assert codebook_hash(codebook) == codebook_hash(Codebook(codebook.vectors.copy()))


# what follows an array's rank word, for each of `_read_array`'s refusals
ARRAY_REFUSALS = {
    "rank": (9, b""),
    "dims": (2, struct.pack("<I", 3)),
    "payload": (2, struct.pack("<2I", 2, 3) + bytes(20)),
    # numpy refuses these dims although the zero makes the payload empty
    "dims-overflow": (4, struct.pack("<4I", 0, *(2 ** 32 - 1,) * 3)),
}


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {"a.w": rng.normal(size=(3, 4)).astype(np.float32),
                  "b": rng.normal(size=(5,)).astype(np.float32),
                  "c": np.zeros((2, 0), dtype=np.float32)}     # last, empty, at the end
        meta = {"type": "model", "depth": 2}
        path = tmp_path / "ck.nvgc"
        write_checkpoint(path, meta, arrays)
        m2, a2 = read_checkpoint(path)
        assert m2 == meta
        assert set(a2) == set(arrays)
        for k in arrays:
            assert a2[k].dtype == np.float32 and a2[k].flags.writeable
            assert a2[k].shape == arrays[k].shape and np.array_equal(arrays[k], a2[k])

    def test_write_is_deterministic(self, tmp_path):
        arrays = {"z": np.ones(3, dtype=np.float32), "a": np.zeros(2, dtype=np.float32)}
        p1, p2 = tmp_path / "1.nvgc", tmp_path / "2.nvgc"
        write_checkpoint(p1, {"k": 1}, arrays)
        write_checkpoint(p2, {"k": 1}, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("reader", ["tensor", "checkpoint"])
    def test_each_array_is_read_straight_into_its_own_buffer(self, tmp_path, reader):
        # reading the file whole first, then copying out, peaked at 2x the arrays
        rng = np.random.default_rng(5)
        arrays = {f"w{i}": rng.normal(size=(256, 1024)).astype(np.float32) for i in range(8)}
        arrays.update({"empty": np.zeros((2, 0), np.float32), "scalar": np.float32(1.5)})
        path = tmp_path / "big.bin"
        if reader == "tensor":
            arrays = {"all": np.stack([arrays[f"w{i}"] for i in range(8)])}
            write_tensor(path, arrays["all"])
        else:
            write_checkpoint(path, {"k": 1}, arrays)
        tracemalloc.start()
        try:
            back = read_tensor(path) if reader == "tensor" else read_checkpoint(path)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if reader == "tensor":
            back = {"all": back}
        assert all(np.array_equal(back[n], a) and back[n].shape == np.shape(a)
                   and back[n].dtype == np.float32 for n, a in arrays.items())
        nbytes = sum(np.asarray(a).nbytes for a in arrays.values())      # 8 MiB
        assert peak < 1.25 * nbytes

    @pytest.mark.parametrize("reader", [read_tensor, read_checkpoint])
    def test_trailing_bytes_rejected(self, tmp_path, reader):
        path = tmp_path / "t.bin"
        if reader is read_tensor:
            write_tensor(path, np.ones((2, 3), dtype=np.float32))
        else:
            write_checkpoint(path, {"k": 1}, {"a": np.ones(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"xy")
        with pytest.raises(FormatError, match="has 2 trailing bytes"):
            reader(path)

    @pytest.mark.parametrize("cut", [0, 8], ids=["whole", "second-payload-cut"])
    def test_a_repeated_array_name_is_refused_before_its_payload(self, tmp_path, cut):
        # it read back as one array, the last ({'a': [1, 1, 1]}); a cut
        # payload still reads as the repeat, so the name is checked first
        path = tmp_path / "dup.nvgc"
        duplicate_name_checkpoint(path, cut)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))} holds array 'a' twice$"):
            read_checkpoint(path)

    @pytest.mark.parametrize("rank, rest", ARRAY_REFUSALS.values(), ids=list(ARRAY_REFUSALS))
    def test_an_array_refusal_reads_as_it_does_in_a_tensor_file(self, tmp_path, rank, rest):
        # a checkpoint used to prefix each with "checkpoint file corrupt: "
        tensor, checkpoint = tmp_path / "t.nvgt", tmp_path / "c.nvgc"
        tensor.write_bytes(struct.pack("<4sII", b"NVGT", 1, rank) + rest)
        checkpoint.write_bytes(struct.pack("<4sII", b"NVGC", 1, 2) + b"{}"
                               + struct.pack("<IH1sI", 1, 1, b"a", rank) + rest)
        with pytest.raises(FormatError) as from_tensor:
            read_tensor(tensor)
        with pytest.raises(FormatError) as from_checkpoint:
            read_checkpoint(checkpoint)
        assert str(from_checkpoint.value) == str(from_tensor.value).replace(
            "tensor", "checkpoint array", 1)

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

    @pytest.mark.parametrize("shape, bright, want", [
        ((2, 4), np.s_[:, 2:], [[0, 0, 1, 1], [0, 0, 1, 1]]),
        ((4, 4), np.s_[:2], [[0] * 4] * 2 + [[1] * 4] * 2),
    ], ids=["dark-left", "bright-top"])
    def test_binary_override_gives_location_0_label_0(self, shape, bright, want):
        # labelled as every training map is: the level at location (0, 0) is
        # child 0, whether it is the darker or the brighter one
        gray = np.zeros(shape, dtype=np.uint8)
        gray[bright] = 255
        smap = gray_to_structure_map(gray)
        assert smap.stage == 1 and np.array_equal(smap.labels, np.array(want))

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

    @pytest.mark.parametrize("field, value", [("h", -1), ("w", 0), ("e", 0), ("K", -1)])
    def test_non_positive_dimension_is_format_error(self, tmp_path, seq_and_codebook,
                                                    field, value):
        # unchecked, h = -1 made reshape(-1, w) infer the height: a 4x4 sequence
        seq, codebook = seq_and_codebook
        path = tmp_path / "seq.json"
        write_sequence(path, seq, codebook)
        obj = json.loads(path.read_text())
        obj[field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="positive"):
            read_sequence(path)

    @pytest.mark.parametrize("path, value", [
        (["K"], "2"), (["K"], 2.9), (["h"], 2.5), (["stages", 1, "stage"], 1.0),
        (["stages", 1, "tokens", 0], 1.7), (["stages", 1, "tokens", 0], "1"),
        (["stages", 1, "labels"], None),
    ], ids=["K-string", "K-float", "h-float", "stage-float", "token-float", "token-string",
            "labels-bool"])
    def test_field_that_is_not_a_json_int_is_format_error(self, tmp_path, path, value):
        # each used to be coerced: int("2"), int(2.9), np.asarray(["1"], int64)
        path_out = tmp_path / "seq.json"
        write_sequence(path_out, *_sequence_obj())
        obj = json.loads(path_out.read_text())
        if value is None:       # the labels as booleans, same truth values
            value = [bool(x) for x in obj["stages"][1]["labels"]]
        path_out.write_text(json.dumps(_mutated(obj, path, value)))
        with pytest.raises(FormatError):
            read_sequence(path_out)

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

    @pytest.mark.parametrize("reader", ["tensor", "checkpoint"])
    def test_dims_whose_product_wraps_int64_are_format_error(self, tmp_path, reader):
        # 65536**4 = 2**64: an int64 product wraps to 0, so an empty payload
        # passed read_tensor's length check and reshape raised a bare ValueError
        dims = struct.pack("<I4I", 4, *(65536,) * 4)
        path = tmp_path / "wrap.bin"
        if reader == "tensor":
            path.write_bytes(struct.pack("<4sI", b"NVGT", 1) + dims)
        else:
            path.write_bytes(struct.pack("<4sII", b"NVGC", 1, 2) + b"{}"
                             + struct.pack("<IH", 1, 1) + b"a" + dims)
        with pytest.raises(FormatError, match="dims need 73786976294838206464"):
            (read_tensor if reader == "tensor" else read_checkpoint)(path)


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
              "codebook_size": 4, "num_classes": 2, "last_stage": 2}
MODEL_ARRAYS = ModelConfig(1, "content", 2, 4, 2, 2).init_arrays(0)
REFINER_META = {"type": "refiners", "count": 3, "channels": 2}
REFINER_ARRAYS = {f"refiner{i}.{part}": getattr(r, part)
                  for i, r in enumerate(identity_refiners(2, 2)) for part in ("weight", "bias")}


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
        # an int field holding anything but a JSON int (bools included) is a
        # format error, however close its value
        not_an_int = path[-1:] in (["K"], ["h"], ["w"], ["e"], ["stage"]) and type(value) is not int
        for book in (None, codebook):
            try:
                read_sequence(bad, book)
            except FormatError:
                pass
            except InvariantError:
                assert not not_an_int
            else:
                assert not not_an_int

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


# -- byte fuzz: mutated and truncated binary files, only package errors escape --

@pytest.fixture(scope="module")
def binary_files(tmp_path_factory):
    """A valid file for each reader, as bytes."""
    root = tmp_path_factory.mktemp("bytes")
    write_tensor(root / "t.nvgt", np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    write_checkpoint(root / "c.nvgc", REFINER_META, REFINER_ARRAYS)
    write_checkpoint(root / "m.nvgc", MODEL_META, MODEL_ARRAYS)
    write_sequence(root / "s.json", *_sequence_obj())
    write_pgm(root / "g.pgm", np.arange(16, dtype=np.uint8).reshape(4, 4))
    refiners = (root / "c.nvgc").read_bytes()
    return {read_tensor: (root / "t.nvgt").read_bytes(), read_checkpoint: refiners,
            read_sequence: (root / "s.json").read_bytes(),
            read_pgm: (root / "g.pgm").read_bytes(),
            load_model: (root / "m.nvgc").read_bytes(), load_refiners: refiners}


# header words worth writing over a dims, rank, count or length field
WORDS = (st.sampled_from([b"\xff\xff\xff\xff", b"\x00\x00\x01\x00", b"\x00\x00\x00\x00",
                          b"\x09\x00\x00\x00", b"\x00\x00\x00\x80"])
         | st.binary(min_size=1, max_size=4))


# the sequence, PGM, model and refiner-stack readers fuzz 50 examples each so
# that tier-1 stays near 40 s; a 1,500-example probe of each found no escape
BYTE_FUZZ = [(read_tensor, 200), (read_checkpoint, 200), (read_sequence, 50), (read_pgm, 50),
             (load_model, 50), (load_refiners, 50)]


class TestByteFuzz:
    @pytest.mark.parametrize("reader, examples", BYTE_FUZZ,
                             ids=[reader.__name__ for reader, _ in BYTE_FUZZ])
    def test_mutated_or_truncated_file(self, tmp_path, binary_files, reader, examples):
        good = binary_files[reader]

        @settings(FUZZ, max_examples=examples)
        @given(data=st.data())
        def fuzz(data):
            blob = bytearray(good)
            # most edits land in the first 64 bytes, where the headers are
            positions = st.integers(0, 63) | st.integers(0, len(good) - 1)
            for pos, word in data.draw(st.lists(st.tuples(positions, WORDS), max_size=3)):
                blob[pos:pos + len(word)] = word
            cut = data.draw(st.none() | st.integers(0, len(blob)))
            path = tmp_path / "fuzz.bin"
            path.write_bytes(bytes(blob[:cut]))
            try:
                reader(path)
            except (FormatError, InvariantError):
                pass

        fuzz()
