"""Benchmark harness: set-up timing, the closed measurement loop, output
checks, the traced run and the metric report.

Every pass starts from a fresh set-up and one untimed warm-up operation
(operation 0), so first-call costs stay out of the timings.

Untraced (`trace=False`): set up, then run operations one after another until
`seconds` have passed (at least `MIN_OPS`), timing each and checking each
outside its timed section. Then set up again until `SETUP_REPEATS` set-ups
are timed and report their median: set-ups spread over the whole run are
less exposed to a slow spell of the machine than set-ups back to back.
`peak_rss_mb` is the peak resident set size while the measured operations
run, not that of set-up: the heap set-up freed is handed back before the
warm-up, and the peak is counted from after it.

A shared machine's speed can change by tens of percent within seconds, so
raw wall times of separate runs disagree by more than a regression bound
could tolerate. A fixed reference kernel (`reference_s`) is timed right
before every operation and set-up and once after it, and each wall time is
divided by the mean time of one reference unit on either side of it. The
bounded latency metric `op_ref_p50` is the median operation time in these
reference units. `setup_s` is the median set-up time in reference units
times `REF_UNIT_S`, the reference unit's time on the machine the benchmark
was calibrated on: seconds at that machine's speed. The raw wall times are
reported too, under the workload's own names and as `setup_wall_s`.

Traced (`trace=True`): run a fixed number of operations untraced, set up
again, and run the same operations with the tracer installed. Per-layer
figures are per operation, so they do not depend on how many ran; busy and
self times are in reference units, the same unit as `op_ref_p50`. The two
passes must produce identical output hashes.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Target, Tracer
from workloads import WORKLOADS, Sizes

SETUP_REPEATS = 5
MIN_OPS = 3
TRACE_OPS = {"gen-8x8": 2, "train-8x8": 6, "tokenize-32x32": 8}
HASH_OPS = 2      # output_sha256 covers the first HASH_OPS operations
REF_UNITS = {"gen-8x8": 25, "train-8x8": 8, "tokenize-32x32": 8}  # <= 1/8 of an op
REF_UNIT_S = 0.007  # a typical reference unit on a 2 vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31

_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((129, 128)).astype(np.float32)
_REF_W = (0.05 * _REF_RNG.standard_normal((128, 128))).astype(np.float32)


def reference_s(units: int) -> float:
    """Seconds per unit, over `units` units of a fixed kernel that mixes what
    the library spends its time on: small BLAS products, elementwise numpy
    and interpreted loops. It does not touch the library, so its time tracks
    only how fast the machine is at the moment."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(units * 64):
        y = _REF_X @ _REF_W
        y = y / (1.0 + np.exp(-y))
        acc += float(y.sum())
        for j in range(200):
            acc += j * 1e-9
    return (time.perf_counter() - start) / units


def _first_arg_rows(args, kwargs):
    return len(args[1])


def _block_rows(args, kwargs):
    return args[1].shape[0]


# Traced layers: reported name, reported stats (c = calls, r = rows, b = busy
# time, s = self time), rows of one call, and where the function is defined
# when that differs from the reported name.
LAYERS = (
    ("pipeline.generate", "cbs", None, None),
    ("pipeline.sample_token", "cbs", None, None),
    ("pipeline.forced_final_split", "cbs", None, None),
    ("structure_model.flow_sample", "cbs", None, None),
    ("structure_model.gumbel_balanced_split", "cbs", None, None),
    ("structure_model.velocity", "crbs", _first_arg_rows,
     "structure_model.StructureModel.velocity"),
    ("content_model.forward_final_canvas", "crbs", _first_arg_rows,
     "content_model.ContentModel.forward_final_canvas"),
    ("content_model.token_logits", "cbs", None, "content_model.ContentModel.token_logits"),
    ("content_model.loss", "crbs", _first_arg_rows, "content_model.ContentModel.loss"),
    ("backbone.Block.forward", "crbs", _block_rows, None),
    ("backbone.rope_tables", "cbs", None, None),
    ("autodiff.matmul", "cb", None, None),
    ("autodiff.softmax", "cb", None, None),
    ("autodiff.rope", "cb", None, None),
    ("autodiff.rmsnorm", "cb", None, None),
    ("autodiff.silu", "cb", None, None),
    ("autodiff.concat", "cb", None, None),
    ("autodiff.Tensor.backward", "cbs", None, None),
    ("autodiff.Adam.step", "cb", None, None),
    ("training.train_content", "cbs", None, None),
    ("training.train_structure", "cbs", None, None),
    ("hierarchy.build_hierarchy", "cbs", None, None),
    ("hierarchy.reindex_hierarchy", "cb", None, None),
    ("quantize.build_contents", "cbs", None, None),
    ("quantize.Refiner.apply", "cb", None, None),
    ("grid.cluster_average", "cb", None, None),
    ("grid.quantize_nearest_batch", "cb", None, None),
    ("grid.assign", "cbs", None, None),
    ("grid.place", "cb", None, None),
    ("io.write_sequence", "cb", None, None),
    ("io.write_tensor", "cb", None, None),
)
TARGETS = tuple(Target(name, path or name, rows) for name, _, rows, path in LAYERS)
_STATS = {"c": ("calls", "calls/op"), "r": ("rows", "rows/op"),
          "b": ("busy_ref", "ref/op"), "s": ("self_ref", "ref/op")}
COUNTERS = ("pipeline.flow_steps", "pipeline.content_steps")


def end_to_end_units() -> dict:
    return {"op_ref_p50": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name, stats, _, _ in LAYERS:
        for code in stats:
            stat, unit = _STATS[code]
            units[f"{name}.{stat}"] = unit
    units["structure_model.velocity.rows_per_flow_step"] = "rows/step"
    for counter in COUNTERS:
        units[counter] = "steps/op"
    units["trace_overhead_frac"] = "frac"
    return units


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NVG_THREADS")},
        "commit": _git_commit(root),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at root, read from its files; "unknown" otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _release_free_memory() -> None:
    """Hand the heap that set-up freed back to the system. Without this the
    operations that follow reuse it, and their peak resident set size is the
    heap set-up left behind, whatever the operations themselves need."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass    # not glibc


def _reset_peak_rss() -> str:
    """Restart the kernel's count of this process's peak resident set size,
    so `_peak_rss_mb` covers only what follows. Return the scope it will
    cover: "ops", or "process" where the kernel offers no reset."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return "ops"
    except OSError:
        return "process"


def _peak_rss_mb(scope: str) -> float:
    if scope == "ops":
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Pass:
    """Operations run one after another, each timed and then checked. The
    reference kernel is timed before each operation and around each set-up."""

    def __init__(self, workload):
        self.workload = workload
        self.ref_units = REF_UNITS[workload.name]
        self.ref_s: list = []
        self.durations: list = []
        self.outs: list = []
        self.digests: list = []
        self.counts: dict = {}
        self.failed = 0

    def timed_setup(self) -> tuple:
        """Set up; return (set-up hash, wall seconds, reference units)."""
        before = reference_s(self.ref_units)
        start = time.perf_counter()
        fingerprint = self.workload.setup()
        wall = time.perf_counter() - start
        return fingerprint, wall, wall / ((before + reference_s(self.ref_units)) / 2)

    def run_op(self, i: int) -> None:
        self.ref_s.append(reference_s(self.ref_units))
        start = time.perf_counter()
        try:
            out = self.workload.run_op(i)
        except Exception:
            self.durations.append(time.perf_counter() - start)
            self._fail(i)
            return
        self.durations.append(time.perf_counter() - start)
        try:
            self.digests.append(self.workload.check(i, out))
        except Exception:
            self._fail(i)
            return
        self.outs.append(out)
        for key, value in self.workload.counts(out).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _fail(self, i: int) -> None:
        self.failed += 1
        self.digests.append("failed")
        print(f"operation {i} failed:", file=sys.stderr)
        traceback.print_exc()

    def in_ref_units(self) -> list:
        """Each operation's time over the mean reference unit around it."""
        refs = self.ref_s + [reference_s(self.ref_units)]
        return [d / ((a + b) / 2) for d, a, b in zip(self.durations, refs, refs[1:])]

    @property
    def attempted(self) -> int:
        return len(self.durations)


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: Sizes = Sizes()):
    """Run one workload; return (report, result). `result` is the JSON object
    the benchmark prints last; `report` holds the environment, the output
    hashes and the workload's figures under their own names."""
    workdir = root / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed, sizes, workdir)
        if trace:
            report, result = _traced(workload, TRACE_OPS[workload_name])
        else:
            report, result = _untraced(workload, seconds)
    finally:
        for path in sorted(workdir.glob("*")):
            path.unlink()
        workdir.rmdir()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # another run still uses it
    report = {"workload": workload_name, "op": workload.unit,
              "env": environment(root, seed), **report}
    return report, result


def _untraced(workload, seconds: float):
    run_pass = _Pass(workload)
    setups = [run_pass.timed_setup()]
    _release_free_memory()
    _warm_up(workload)
    rss_scope = _reset_peak_rss()
    start = time.perf_counter()
    i = 1
    while i <= MIN_OPS or time.perf_counter() - start < seconds:
        run_pass.run_op(i)
        i += 1

    peak_rss_mb = _peak_rss_mb(rss_scope)
    op_ref = run_pass.in_ref_units()
    while len(setups) < SETUP_REPEATS:
        setups.append(run_pass.timed_setup())
    fingerprints = {fingerprint for fingerprint, _, _ in setups}

    metrics = {
        "op_ref_p50": statistics.median(op_ref),
        "setup_s": statistics.median(ref for _, _, ref in setups) * REF_UNIT_S,
        "peak_rss_mb": peak_rss_mb,
    }
    named = workload.named_metrics(run_pass.durations, run_pass.outs) if run_pass.outs else {}
    named.update(setup_wall_s=statistics.median(wall for _, wall, _ in setups),
                 peak_rss_mb=peak_rss_mb, failed_frac=run_pass.failed / run_pass.attempted)
    report = {
        "ops": run_pass.attempted,
        "named_metrics": named,
        "peak_rss_scope": rss_scope,
        "ref_unit_s_p50": statistics.median(run_pass.ref_s),
        "setup_sha256": sorted(fingerprints),
        "output_sha256": _digest(run_pass.digests[:HASH_OPS]),
    }
    units = end_to_end_units()
    result = {
        "correct": run_pass.failed == 0 and len(fingerprints) == 1,
        "attempted": run_pass.attempted,
        "failed": run_pass.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def _traced(workload, n_ops: int):
    plain = _Pass(workload)
    workload.setup()
    _warm_up(workload)
    for i in range(1, n_ops + 1):
        plain.run_op(i)
    plain_ref = sum(plain.in_ref_units())

    traced = _Pass(workload)
    workload.setup()
    _warm_up(workload)
    with Tracer("nvg", TARGETS) as tracer:
        for i in range(1, n_ops + 1):
            traced.run_op(i)
    traced_ref = sum(traced.in_ref_units())
    totals = tracer.totals()

    # seconds per operation -> reference units per operation
    per_op_ref = 1.0 / (n_ops * statistics.median(traced.ref_s))
    metrics = {}
    for name, stats, _, _ in LAYERS:
        layer = totals[name]
        values = {"c": layer.calls / n_ops, "r": layer.rows / n_ops,
                  "b": layer.busy_s * per_op_ref, "s": layer.self_s * per_op_ref}
        for code in stats:
            metrics[f"{name}.{_STATS[code][0]}"] = values[code]
    flow_steps = traced.counts.get("pipeline.flow_steps", 0)
    metrics["structure_model.velocity.rows_per_flow_step"] = (
        totals["structure_model.velocity"].rows / flow_steps if flow_steps else 0.0)
    for counter in COUNTERS:
        metrics[counter] = traced.counts.get(counter, 0) / n_ops
    metrics["trace_overhead_frac"] = traced_ref / plain_ref - 1.0

    units = per_layer_units()
    failed = plain.failed + traced.failed
    same = plain.digests == traced.digests
    report = {
        "ops": n_ops,
        "spans": len(tracer.spans),
        "traced_wall_s": sum(traced.durations),
        "output_sha256": _digest(traced.digests),
        "traced_matches_untraced": same,
    }
    result = {
        "correct": failed == 0 and same,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def _warm_up(workload) -> None:
    workload.check(0, workload.run_op(0))


def _digest(digests: list) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()
