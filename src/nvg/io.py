"""Bit-exact file formats: raw tensor files, the JSON sequence format, a
multi-tensor checkpoint container and 8-bit PGM images for structure maps.

All writers emit byte-identical output for identical inputs (sorted JSON
keys, fixed separators, little-endian payloads), so reproducibility can be
checked by comparing files. An unreadable or unwritable path, or bytes
that do not decode, raise FormatError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, InvariantError
from .grid import Codebook, ContentTokens, StructureMap, VGSequence
from .hierarchy import canonical_child

__all__ = [
    "write_tensor", "read_tensor", "tensor_bytes",
    "codebook_hash", "write_sequence", "read_sequence",
    "write_checkpoint", "read_checkpoint",
    "write_pgm", "read_pgm", "structure_map_to_gray", "gray_to_structure_map",
]

TENSOR_MAGIC = b"NVGT"
CHECKPOINT_MAGIC = b"NVGC"
FORMAT_VERSION = 1


@contextmanager
def _reading(path):
    """The open file and its size. An OSError becomes FormatError, and so does
    a file the caller did not read to its end."""
    try:
        with open(path, "rb") as fh:
            yield fh, (end := os.fstat(fh.fileno()).st_size)
            if fh.tell() != end:
                raise FormatError(f"{path} has {end - fh.tell()} trailing bytes")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_bytes(path, blob: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _decode_json(blob: bytes, what: str):
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{what} is not valid UTF-8 JSON: {exc}") from exc


# -- raw tensors -------------------------------------------------------------

def tensor_bytes(array: np.ndarray) -> bytes:
    array = np.asarray(array, dtype=np.float32)
    header = struct.pack("<4sII", TENSOR_MAGIC, FORMAT_VERSION, array.ndim)
    dims = struct.pack(f"<{array.ndim}I", *array.shape)
    payload = array.astype("<f4", copy=False).tobytes(order="C")
    return header + dims + payload


def write_tensor(path, array: np.ndarray) -> None:
    _write_bytes(path, tensor_bytes(array))


def _read_array(fh, end: int, rank: int, what: str) -> np.ndarray:
    """The float32 array whose `rank` uint32 dims and little-endian payload
    come next in `fh`, a file of `end` bytes. The payload is checked against
    the bytes left before its array is allocated, then read straight into it."""
    if rank > 8:
        raise FormatError(f"implausible {what} rank {rank}")
    raw = fh.read(4 * rank)
    if len(raw) < 4 * rank:
        raise FormatError(f"{what} truncated in dims")
    dims = struct.unpack(f"<{rank}I", raw)
    size, left = 4 * math.prod(dims), end - fh.tell()      # Python ints: no int64 wrap
    if left < size:
        raise FormatError(f"{what} payload holds {left} bytes, dims need {size}")
    try:
        array = np.empty(dims, dtype="<f4")
    except ValueError as exc:       # dims whose product overflows, even beside a 0
        raise FormatError(f"{what} dims {list(dims)} are too large: {exc}") from exc
    fh.readinto(array.reshape(-1).view(np.uint8))
    return array.astype(np.float32, copy=False)


def read_tensor(path) -> np.ndarray:
    with _reading(path) as (fh, end):
        head = fh.read(12)
        if len(head) < 12:
            raise FormatError("tensor file truncated")
        magic, version, rank = struct.unpack("<4sII", head)
        if magic != TENSOR_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported tensor format version {version}")
        return _read_array(fh, end, rank, "tensor")


def codebook_hash(codebook: Codebook) -> str:
    return hashlib.sha256(tensor_bytes(codebook.vectors)).hexdigest()


# -- sequence files ----------------------------------------------------------

def write_sequence(path, seq: VGSequence, codebook: Codebook) -> None:
    obj = {
        "K": seq.last_stage,
        "h": seq.h,
        "w": seq.w,
        "e": codebook.dim,
        "codebook_hash": codebook_hash(codebook),
        "stages": [
            {
                "stage": i,
                "tokens": tokens.indices.tolist(),
                "labels": smap.labels.ravel().tolist(),
            }
            for i, (tokens, smap) in enumerate(seq.stages)
        ],
    }
    _write_bytes(path, json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
                 + b"\n")


def _int_list(value) -> bool:
    # JSON ints only, as the writer emits: bool is an int subclass, and
    # floats and strings would be coerced silently
    return isinstance(value, list) and all(type(x) is int for x in value)


def read_sequence(path, codebook: Codebook | None = None) -> VGSequence:
    with _reading(path) as (fh, _):
        obj = _decode_json(fh.read(), "sequence file")
    try:
        dims = [obj[k] for k in ("K", "h", "w", "e")]
        raw_stages = obj["stages"]
        n_stages = len(raw_stages)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"sequence file misses required fields: {exc}") from exc
    if not _int_list(dims):
        raise FormatError(f"sequence K, h, w and e must be JSON ints, got {dims}")
    last, h, w, e = dims
    if last < 0 or min(h, w, e) < 1:
        raise FormatError(f"sequence needs K >= 0 and positive h, w, e; got "
                          f"K={last}, h={h}, w={w}, e={e}")
    if n_stages != last + 1:
        raise InvariantError(f"expected {last + 1} stages, file holds {n_stages}")
    if codebook is not None:
        if codebook.dim != e:
            raise InvariantError(f"sequence says e={e}, codebook dim is {codebook.dim}")
        if obj.get("codebook_hash") != codebook_hash(codebook):
            raise InvariantError("codebook hash mismatch: sequence was tokenized "
                                 "against a different codebook")
    stages = []
    for i, entry in enumerate(raw_stages):
        try:
            stage, tokens, labels = entry["stage"], entry["tokens"], entry["labels"]
            if type(stage) is not int or not (_int_list(tokens) and _int_list(labels)):
                raise TypeError("stage must be an int, tokens and labels lists of ints")
            tokens = np.asarray(tokens, dtype=np.int64)
            labels = np.asarray(labels, dtype=np.int64).reshape(h, w)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"stage {i} entry malformed: {exc}") from exc
        if stage != i:
            raise InvariantError(f"stage entry {i} is tagged {stage}")
        if codebook is not None and tokens.size and tokens.max() >= codebook.size:
            raise InvariantError(f"stage {i} token index out of codebook range")
        stages.append((ContentTokens(i, tokens), StructureMap(i, labels)))
    return VGSequence(tuple(stages))


# -- checkpoints -------------------------------------------------------------

def write_checkpoint(path, meta: dict, arrays: dict) -> None:
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    out = [struct.pack("<4sII", CHECKPOINT_MAGIC, FORMAT_VERSION, len(meta_blob)),
           meta_blob,
           struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float32)
        blob = name.encode()
        out.append(struct.pack("<H", len(blob)))
        out.append(blob)
        out.append(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        out.append(arr.astype("<f4", copy=False).tobytes(order="C"))
    _write_bytes(path, b"".join(out))


def read_checkpoint(path):
    with _reading(path) as (fh, end):
        head = fh.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file")
        _, version, meta_len = struct.unpack("<4sII", head)
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        meta = _decode_json(fh.read(min(meta_len, end - 12)), "checkpoint meta")
        if not isinstance(meta, dict):
            raise FormatError("checkpoint meta is not a JSON object")
        try:
            (count,) = struct.unpack("<I", fh.read(4))
            arrays = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode()
                if name in arrays:
                    raise FormatError(f"{path} holds array {name!r} twice")
                (rank,) = struct.unpack("<I", fh.read(4))
                arrays[name] = _read_array(fh, end, rank, "checkpoint array")
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"checkpoint file corrupt: {exc}") from exc
    return meta, arrays


# -- PGM ---------------------------------------------------------------------

def write_pgm(path, gray: np.ndarray) -> None:
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise InvariantError("PGM writer needs a 2-D uint8 array")
    h, w = gray.shape
    _write_bytes(path, f"P5\n{w} {h}\n255\n".encode() + gray.tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    with _reading(path) as (fh, _):
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise FormatError("not a binary (P5) PGM file")
    fields = []
    off = 2
    while len(fields) < 3:
        while off < len(blob) and blob[off:off + 1].isspace():
            off += 1
        if blob[off:off + 1] == b"#":
            while off < len(blob) and blob[off:off + 1] != b"\n":
                off += 1
            continue
        start = off
        while off < len(blob) and not blob[off:off + 1].isspace():
            off += 1
        fields.append(blob[start:off])
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError(f"PGM header malformed: {exc}") from exc
    if maxval != 255:
        raise FormatError(f"only 8-bit PGM supported, maxval {maxval}")
    if min(w, h) < 1:
        raise FormatError(f"PGM dimensions must be positive, got {w}x{h}")
    off += 1  # single whitespace after maxval
    payload = blob[off:off + h * w]
    if len(payload) != h * w:
        raise FormatError("PGM payload truncated")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def structure_map_to_gray(smap: StructureMap) -> np.ndarray:
    """Evenly spread cluster labels over 0..255 for visualization."""
    m = smap.num_clusters
    if m == 1:
        return np.zeros(smap.labels.shape, dtype=np.uint8)
    return (smap.labels.astype(np.int64) * 255 // (m - 1)).astype(np.uint8)


def gray_to_structure_map(gray: np.ndarray) -> StructureMap:
    """Parse a binary image as a stage-1 override: exactly two pixel values
    with equal populations, labelled by `canonical_child`, so the level at
    location (0, 0) becomes label 0."""
    values = np.unique(gray)
    if values.size != 2:
        raise InvariantError(f"override image must use exactly 2 gray levels, "
                             f"found {values.size}")
    return canonical_child(StructureMap(0, np.zeros(gray.shape, dtype=np.int32)), gray)
