"""Seeded quality oracle of the generator at desk scale.

    python3 quality/run.py
    PYTHONPATH=src python -m pytest -q quality      # smoke test at toy size

Run from the root of a source checkout; the library is imported from its
`src/` directory, through its public names only. For each training seed the
script draws a synthetic 8x8x4 training set, fits a codebook, trains a
depth-4 content and a depth-4 structure model for a fixed budget, and
reports:

- `training.evaluate` on held-out examples;
- over `samples` generated samples (class ids cycle, default schedule), the
  Fréchet distance of 11 canvas features against held-out grids, and the
  class hit rate: how often the base colour nearest a sample's median pixel
  is the requested class's.

The 11 features are the per-channel mean and standard deviation, the mean
|difference| between neighbours along each axis, and the largest distance
of a pixel from the grid's median colour. The held-out grids are the same
for every training seed, so the per-seed spread is the training's. The
report also gives two floors: the distance between the two halves of the
held-out set, and the hit rate of the held-out grids themselves.

It writes `BENCH_quality_<commit>.json` at the checkout root. Every figure
in it but `timing` and `env` is a function of the seeds and sizes alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# One BLAS thread, as perfbench: the caps must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NVG_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nvg import pipeline, quantize, training  # noqa: E402
from nvg.backbone import ModelConfig  # noqa: E402
from nvg.content_model import ContentModel  # noqa: E402
from nvg.grid import last_stage_of  # noqa: E402
from nvg.structure_model import StructureModel  # noqa: E402
from nvg.synthetic import SyntheticSpec, class_base_colors, make_synthetic_dataset  # noqa: E402

SEEDS = (0, 1, 2)
HELD_OUT_SEED = 1000     # the held-out grids, shared by every training seed


@dataclass(frozen=True)
class Sizes:
    """The oracle's budget. The defaults are the gate; the smoke test passes
    smaller ones."""

    latent: tuple = (8, 8, 4)
    classes: int = 4
    train_examples: int = 256
    held_out: int = 256
    eval_examples: int = 16
    codebook: int = 64
    depth: int = 4
    steps: int = 2000
    batch: int = 8
    base_lr: float = 0.064
    warmup: int = 100
    samples: int = 32


def canvas_features(grid: np.ndarray) -> np.ndarray:
    """The 11 features of one (h, w, e) grid at e = 4 (2e + 3 in general)."""
    grid = np.asarray(grid, dtype=np.float64)
    pixels = grid.reshape(-1, grid.shape[-1])
    median = np.median(pixels, axis=0)
    return np.concatenate([
        pixels.mean(axis=0),
        pixels.std(axis=0),
        [np.abs(np.diff(grid, axis=0)).mean(), np.abs(np.diff(grid, axis=1)).mean()],
        [np.linalg.norm(pixels - median, axis=1).max()],
    ])


def frechet_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Fréchet distance between Gaussians fitted to two feature sets (rows):
    |mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2)."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a, cov_b = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
    vals, vecs = np.linalg.eigh(cov_a)
    root_a = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    cross = np.linalg.eigvalsh(root_a @ cov_b @ root_a)
    return float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
                 - 2.0 * np.sum(np.sqrt(np.clip(cross, 0.0, None))))


def class_hits(grids, class_ids, colors: np.ndarray) -> int:
    """How many grids' median pixel lies nearest their own class's colour."""
    hits = 0
    for grid, class_id in zip(grids, class_ids):
        median = np.median(np.asarray(grid).reshape(-1, colors.shape[1]), axis=0)
        hits += int(np.argmin(np.linalg.norm(colors - median, axis=1)) == class_id)
    return hits


def _spec(sizes: Sizes, count: int, seed: int) -> SyntheticSpec:
    h, w, e = sizes.latent
    return SyntheticSpec(count=count, h=h, w=w, e=e, num_classes=sizes.classes, seed=seed)


def run_seed(seed: int, sizes: Sizes, real: np.ndarray, eval_data: list) -> tuple:
    """One training seed's figures, and its wall times apart. real: the
    held-out grids' features; eval_data: the held-out (class, grid) pairs
    `training.evaluate` reads."""
    data_seed, codebook_seed, model_seed, train_seed, sample_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(5))
    h, w, e = sizes.latent
    last = last_stage_of(h, w)
    start = time.perf_counter()
    train = make_synthetic_dataset(_spec(sizes, sizes.train_examples, data_seed))
    codebook = quantize.fit_codebook([g for _, g in train], sizes.codebook,
                                     seed=codebook_seed)
    refiners = quantize.identity_refiners(last, e)
    examples = training.tokenize_dataset(train, codebook, refiners)
    models = {}
    for offset, (kind, cls, fit) in enumerate((("content", ContentModel, training.train_content),
                                               ("structure", StructureModel,
                                                training.train_structure))):
        model = cls(ModelConfig(sizes.depth, kind, e, codebook.size, sizes.classes, last),
                    seed=model_seed + offset)
        fit(examples, model, training.TrainConfig(
            steps=sizes.steps, batch_size=sizes.batch, base_lr=sizes.base_lr,
            warmup_steps=sizes.warmup, seed=train_seed + offset))
        models[kind] = model
    trained = time.perf_counter()

    eval_examples = training.tokenize_dataset(eval_data, codebook, refiners)
    evaluation = training.evaluate(models["content"], models["structure"], eval_examples,
                                   codebook, seed=seed)
    evaluated = time.perf_counter()

    canvases, class_ids, flow_steps = [], [], 0
    for i in range(sizes.samples):
        req = pipeline.GenerationRequest(class_id=i % sizes.classes, seed=sample_seed + i,
                                         h=h, w=w, e=e)
        result = pipeline.generate(req, models["content"], models["structure"], codebook,
                                   refiners)
        canvases.append(result.canvas.data)
        class_ids.append(req.class_id)
        flow_steps += result.stats.flow_steps
    sampled = time.perf_counter()

    fake = np.stack([canvas_features(c) for c in canvases])
    hits = class_hits(canvases, class_ids, class_base_colors(_spec(sizes, 0, 0)))
    figures = {
        "seed": seed,
        "evaluate": evaluation,
        "frechet": frechet_distance(fake, real),
        "class_hits": hits,
        "class_hit_rate": hits / sizes.samples,
        "flow_steps_per_sample": flow_steps / sizes.samples,
        "canvas_sha256": _sha256(canvases),
    }
    timing = {"seed": seed, "train_s": trained - start, "evaluate_s": evaluated - trained,
              "sample_s_mean": (sampled - evaluated) / sizes.samples}
    return figures, timing


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _spread(values) -> dict:
    values = np.asarray(values, dtype=np.float64)
    return {"mean": float(values.mean()), "min": float(values.min()),
            "max": float(values.max()), "spread": float(values.max() - values.min())}


def run(sizes: Sizes = Sizes(), seeds=SEEDS) -> dict:
    """The report: per-seed figures, their spread, the floors and timings."""
    held = make_synthetic_dataset(_spec(sizes, sizes.held_out + sizes.eval_examples,
                                        HELD_OUT_SEED))
    grids, eval_data = held[:sizes.held_out], held[sizes.held_out:]
    real = np.stack([canvas_features(g.data) for _, g in grids])
    half = sizes.held_out // 2
    colors = class_base_colors(_spec(sizes, 0, 0))
    per_seed, timing = zip(*(run_seed(seed, sizes, real, eval_data) for seed in seeds))
    return {
        "sizes": asdict(sizes),
        "seeds": list(per_seed),
        "summary": {name: _spread([s[name] for s in per_seed])
                    for name in ("frechet", "class_hit_rate")},
        "floors": {
            "held_out_halves_frechet": frechet_distance(real[:half], real[half:]),
            "held_out_class_hit_rate": class_hits(
                [g.data for _, g in grids], [c for c, _ in grids], colors) / sizes.held_out,
            "chance_class_hit_rate": 1.0 / sizes.classes,
        },
        "timing": list(timing),
    }


def _git(*args) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def main() -> int:
    report = run()
    commit = _git("rev-parse", "HEAD") or "unknown"
    report["env"] = {
        "commit": commit,
        "dirty": bool(_git("status", "--porcelain", "--", "src", "quality")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    path = ROOT / f"BENCH_quality_{commit[:7]}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(report["summary"], sort_keys=True))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
