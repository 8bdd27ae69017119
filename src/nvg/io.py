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
import struct

import numpy as np

from .errors import FormatError, InvariantError
from .grid import Codebook, ContentTokens, StructureMap, VGSequence

__all__ = [
    "write_tensor", "read_tensor", "tensor_bytes",
    "codebook_hash", "write_sequence", "read_sequence",
    "write_checkpoint", "read_checkpoint",
    "write_pgm", "read_pgm", "structure_map_to_gray", "gray_to_structure_map",
]

TENSOR_MAGIC = b"NVGT"
CHECKPOINT_MAGIC = b"NVGC"
FORMAT_VERSION = 1


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
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
    payload = array.astype("<f4").tobytes(order="C")
    return header + dims + payload


def write_tensor(path, array: np.ndarray) -> None:
    _write_bytes(path, tensor_bytes(array))


def read_tensor(path) -> np.ndarray:
    blob = _read_bytes(path)
    if len(blob) < 12:
        raise FormatError("tensor file truncated")
    magic, version, rank = struct.unpack_from("<4sII", blob)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported tensor format version {version}")
    if rank > 8:
        raise FormatError(f"implausible tensor rank {rank}")
    if len(blob) < 12 + 4 * rank:
        raise FormatError("tensor file truncated in dims")
    dims = struct.unpack_from(f"<{rank}I", blob, 12)
    count = int(np.prod(dims)) if rank else 1
    payload = blob[12 + 4 * rank:]
    if len(payload) != 4 * count:
        raise FormatError(f"payload holds {len(payload)} bytes, dims need {4 * count}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)


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


def read_sequence(path, codebook: Codebook | None = None) -> VGSequence:
    obj = _decode_json(_read_bytes(path), "sequence file")
    try:
        last, h, w, e = int(obj["K"]), int(obj["h"]), int(obj["w"]), int(obj["e"])
        raw_stages = obj["stages"]
        n_stages = len(raw_stages)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"sequence file misses required fields: {exc}") from exc
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
            stage = int(entry["stage"])
            tokens = np.asarray(entry["tokens"], dtype=np.int64)
            labels = np.asarray(entry["labels"], dtype=np.int64).reshape(h, w)
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
        out.append(arr.astype("<f4").tobytes(order="C"))
    _write_bytes(path, b"".join(out))


def read_checkpoint(path):
    blob = _read_bytes(path)
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint file")
    _, version, meta_len = struct.unpack_from("<4sII", blob)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    meta = _decode_json(blob[12:12 + meta_len], "checkpoint meta")
    if not isinstance(meta, dict):
        raise FormatError("checkpoint meta is not a JSON object")
    off = 12 + meta_len
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        arrays = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode()
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            n = int(np.prod(dims)) if rank else 1
            arrays[name] = np.frombuffer(blob[off:off + 4 * n], dtype="<f4") \
                .reshape(dims).astype(np.float32)
            off += 4 * n
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"checkpoint file corrupt: {exc}") from exc
    if off != len(blob):
        raise FormatError("checkpoint has trailing bytes")
    return meta, arrays


# -- PGM ---------------------------------------------------------------------

def write_pgm(path, gray: np.ndarray) -> None:
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise InvariantError("PGM writer needs a 2-D uint8 array")
    h, w = gray.shape
    _write_bytes(path, f"P5\n{w} {h}\n255\n".encode() + gray.tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    blob = _read_bytes(path)
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


def gray_to_structure_map(gray: np.ndarray, stage: int = 1) -> StructureMap:
    """Parse a binary image as a stage-1 override: exactly two pixel values
    with equal populations; the darker value becomes label 0."""
    if stage != 1:
        raise InvariantError("binary overrides are supported at stage 1 only")
    values = np.unique(gray)
    if values.size != 2:
        raise InvariantError(f"override image must use exactly 2 gray levels, "
                             f"found {values.size}")
    labels = (gray == values[1]).astype(np.int64)
    return StructureMap(1, labels)  # StructureMap enforces the equal split
