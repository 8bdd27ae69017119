"""Command-line interface.

Commands: tokenize, reconstruct, train-codebook, train-content,
train-structure, generate, inspect, selfcheck. Exit codes: 0 success,
2 parse/format error, unreadable input or unwritable output, 3
domain-invariant violation, 4 numeric failure.
Every command takes all randomness through --seed; NVG_THREADS caps the
BLAS thread pools.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoints, io
from .backbone import ModelConfig
from .content_model import ContentModel
from .errors import FormatError, InvariantError, NumericError, NvgError
from .grid import Codebook, LatentGrid
from .hierarchy import build_hierarchy
from .pipeline import GenerationRequest, ScheduleParams, generate
from .quantize import build_contents, fit_codebook, reconstruct, train_refiners
from .selfcheck import run_selfcheck
from .structcode import bit_rule_holds
from .structure_model import StructureModel
from .synthetic import SyntheticSpec, make_synthetic_dataset
from .training import TrainConfig, tokenize_dataset, train_content, train_structure


def _parse_latent(text: str):
    try:
        h, w, e = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise FormatError(f"--latent wants h,w,e integers, got {text!r}") from exc
    if min(h, w, e) < 1:
        raise FormatError(f"--latent wants positive h,w,e, got {text!r}")
    return h, w, e


def _dataset_args(sub):
    sub.add_argument("--latent", default="8,8,4", help="h,w,e of the latent grid")
    sub.add_argument("--count", type=int, default=8, help="synthetic dataset size")
    sub.add_argument("--classes", type=int, default=4)
    sub.add_argument("--data-seed", type=int, default=0,
                     help="seed of the synthetic dataset (distinct from --seed)")


def _make_dataset(args):
    h, w, e = _parse_latent(args.latent)
    spec = SyntheticSpec(count=args.count, h=h, w=w, e=e,
                         num_classes=args.classes, seed=args.data_seed)
    return make_synthetic_dataset(spec), (h, w, e)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nvg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="latent tensor -> sequence file")
    p.add_argument("input", help="latent grid tensor file")
    p.add_argument("codebook", help="codebook tensor file")
    p.add_argument("refiners", help="refiner checkpoint file")
    p.add_argument("-o", "--output", required=True, help="sequence JSON path")

    p = sub.add_parser("reconstruct", help="sequence file -> latent tensor")
    p.add_argument("sequence")
    p.add_argument("codebook")
    p.add_argument("refiners")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("train-codebook", help="fit k-means codebook and refiners")
    _dataset_args(p)
    p.add_argument("--size", type=int, default=64, help="codebook rows")
    p.add_argument("--iters", type=int, default=25, help="k-means iterations")
    p.add_argument("--refiner-steps", type=int, default=0,
                   help="refiner descent steps; 0 keeps the identity refiners")
    p.add_argument("--refiner-lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="codebook tensor path")
    p.add_argument("--refiners-out", required=True, help="refiner checkpoint path")

    for name in ("train-content", "train-structure"):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} generator training")
        _dataset_args(p)
        p.add_argument("codebook")
        p.add_argument("refiners")
        p.add_argument("--depth", type=int, default=4)
        p.add_argument("--steps", type=int, default=500)
        p.add_argument("--batch", type=int, default=8)
        p.add_argument("--lr", type=float, default=0.064,
                       help="base rate at batch 256, scaled to the actual batch")
        p.add_argument("--warmup", type=int, default=100)
        p.add_argument("--decay-start", type=float, default=0.8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", required=True, help="model checkpoint path")

    p = sub.add_parser("generate", help="sample a new sequence and latent")
    p.add_argument("content", help="content model checkpoint")
    p.add_argument("structure", help="structure model checkpoint")
    p.add_argument("codebook")
    p.add_argument("refiners")
    p.add_argument("--latent", default="8,8,4", help="h,w,e of the latent grid")
    p.add_argument("--class-id", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=25, help="flow steps per structure stage")
    p.add_argument("--override-structure", action="append", default=[],
                   metavar="STAGE:FILE.pgm",
                   help="fix one stage's structure map from a PGM (stage 1 only)")
    p.add_argument("--top-p-override", type=float, default=None,
                   help="constant top-p instead of the schedule")
    p.add_argument("--cfg-override", type=float, default=None,
                   help="constant guidance scale instead of the schedules")
    p.add_argument("-o", "--output", required=True,
                   help="output prefix (.sequence.json, .latent.nvgt, .stageN.pgm)")

    p = sub.add_parser("inspect", help="report on a sequence file")
    p.add_argument("sequence")
    p.add_argument("--json", action="store_true", help="emit the JSON report only")

    p = sub.add_parser("selfcheck", help="run the built-in oracle suite")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_codebook(path) -> Codebook:
    return Codebook(io.read_tensor(path))


def cmd_tokenize(args) -> int:
    grid = LatentGrid(io.read_tensor(args.input))
    codebook = _load_codebook(args.codebook)
    refiners = checkpoints.load_refiners(args.refiners)
    hierarchy = build_hierarchy(grid)
    seq, _ = build_contents(grid, hierarchy, codebook, refiners)
    io.write_sequence(args.output, seq, codebook)
    return 0


def cmd_reconstruct(args) -> int:
    codebook = _load_codebook(args.codebook)
    refiners = checkpoints.load_refiners(args.refiners)
    seq = io.read_sequence(args.sequence, codebook)
    io.write_tensor(args.output, reconstruct(seq, codebook, refiners).data)
    return 0


def cmd_train_codebook(args) -> int:
    dataset, _ = _make_dataset(args)
    grids = [g for _, g in dataset]
    codebook = fit_codebook(grids, args.size, iterations=args.iters, seed=args.seed)
    refiners = train_refiners(grids, build_hierarchy, codebook,
                              steps=args.refiner_steps, lr=args.refiner_lr)
    io.write_tensor(args.output, codebook.vectors)
    checkpoints.save_refiners(args.refiners_out, refiners)
    return 0


def cmd_train_generator(args, kind: str) -> int:
    dataset, (h, w, e) = _make_dataset(args)
    codebook = _load_codebook(args.codebook)
    refiners = checkpoints.load_refiners(args.refiners)
    examples = tokenize_dataset(dataset, codebook, refiners)
    last = (h * w).bit_length() - 1
    config = TrainConfig(steps=args.steps, batch_size=args.batch, base_lr=args.lr,
                         warmup_steps=args.warmup,
                         decay_start_fraction=args.decay_start, seed=args.seed)
    model_cls, train = {"content": (ContentModel, train_content),
                        "structure": (StructureModel, train_structure)}[kind]
    model = model_cls(ModelConfig(args.depth, kind, e, codebook.size, args.classes, last),
                      seed=args.seed)
    losses = train(examples, model, config).losses
    checkpoints.save_model(args.output, model)
    final = f"final loss {losses[-1]:.6f}" if losses else "no loss"
    print(f"{kind} model trained: {final} over {len(losses)} steps")
    return 0


def cmd_generate(args) -> int:
    content = checkpoints.load_model(args.content)
    structure = checkpoints.load_model(args.structure)
    if not isinstance(content, ContentModel) or not isinstance(structure, StructureModel):
        raise FormatError("model checkpoints are swapped or of the wrong kind")
    codebook = _load_codebook(args.codebook)
    refiners = checkpoints.load_refiners(args.refiners)
    h, w, e = _parse_latent(args.latent)
    overrides = {}
    for spec_text in args.override_structure:
        try:
            stage_text, path = spec_text.split(":", 1)
            stage = int(stage_text)
        except ValueError as exc:
            raise FormatError(f"--override-structure wants STAGE:FILE, got {spec_text!r}") from exc
        overrides[stage] = io.gray_to_structure_map(io.read_pgm(path), stage=stage)
    schedule = ScheduleParams(flow_steps=args.steps,
                              cfg_constant=args.cfg_override,
                              top_p_constant=args.top_p_override)
    req = GenerationRequest(class_id=args.class_id, seed=args.seed, h=h, w=w, e=e,
                            structure_overrides=overrides, schedule=schedule)
    result = generate(req, content, structure, codebook, refiners)
    io.write_sequence(f"{args.output}.sequence.json", result.sequence, codebook)
    io.write_tensor(f"{args.output}.latent.nvgt", result.canvas.data)
    for i, (_, smap) in enumerate(result.sequence.stages):
        io.write_pgm(f"{args.output}.stage{i}.pgm", io.structure_map_to_gray(smap))
    print(f"generated {len(result.sequence.stages)} stages "
          f"({result.stats.content_steps} content steps, "
          f"{result.stats.flow_steps} flow steps)")
    return 0


def cmd_inspect(args) -> int:
    seq = io.read_sequence(args.sequence)
    last = seq.last_stage
    counts = [int(np.unique(smap.labels).size) for _, smap in seq.stages]
    histogram = {}
    for i, (_, smap) in enumerate(seq.stages):
        sizes = np.bincount(smap.labels.ravel(), minlength=2 ** i)
        histogram[i] = {int(s): int((sizes == s).sum()) for s in np.unique(sizes)}
    report = {
        "K": last,
        "h": seq.h,
        "w": seq.w,
        "unique_tokens_per_stage": counts,
        "total_unique_tokens": int(sum(t.indices.size for t, _ in seq.stages)),
        "cluster_size_histogram": histogram,
        # named as before so the report format holds: whether the structure
        # ids the generators read, embedded from the file's maps, follow the rule
        "codec_roundtrip": "OK" if bit_rule_holds([m for _, m in seq.stages], last) else "FAIL",
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"OK: {last + 1} stages on a {seq.h}x{seq.w} grid")
        print("unique tokens per stage: " + ",".join(str(c) for c in counts))
        print(f"total unique tokens: {report['total_unique_tokens']}")
        print(f"codec roundtrip: {report['codec_roundtrip']}")
    return 0


def cmd_selfcheck(args) -> int:
    results = run_selfcheck(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += not ok
    if failed:
        raise InvariantError(f"{failed} selfcheck(s) failed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "tokenize": cmd_tokenize,
        "reconstruct": cmd_reconstruct,
        "train-codebook": cmd_train_codebook,
        "train-content": lambda a: cmd_train_generator(a, "content"),
        "train-structure": lambda a: cmd_train_generator(a, "structure"),
        "generate": cmd_generate,
        "inspect": cmd_inspect,
        "selfcheck": cmd_selfcheck,
    }
    try:
        for name in ("seed", "data_seed"):     # numpy seeds must be non-negative
            if getattr(args, name, 0) < 0:
                raise FormatError(f"--{name.replace('_', '-')} must be non-negative")
        code = handlers[args.command](args)
        sys.stdout.flush()      # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError as exc:
        # fd 1 to devnull, so the interpreter's exit flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        print(f"nvg: error code=2 kind=format: output closed early: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"nvg: error code=2 kind=format: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"nvg: error code=3 kind=invariant: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"nvg: error code=4 kind=numeric: {exc}", file=sys.stderr)
        return 4
    except NvgError as exc:
        print(f"nvg: error code=3 kind=domain: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
