"""Smoke test of the benchmark at toy size: every metric named in
BENCHMARK.json is reported with its unit and no operation fails. Timings are
not checked."""

import json
from pathlib import Path

import pytest

import bench
import nvg.backbone
import nvg.content_model
import nvg.structure_model
from workloads import Sizes

TOY = Sizes(latent=(4, 4, 4), token_grid=(8, 8, 4), depth=2, classes=2, examples=4,
            codebook=8, batch=2, flow_steps=2, setup_train_steps=1, refiner_steps=1,
            token_grids=2)
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace):
    report, result = bench.run(workload, seed=7, seconds=0.0, trace=trace, root=tmp_path,
                               sizes=TOY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(tmp_path.iterdir()) == []        # the work directory is removed
    return report, result


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    report, result = _run(tmp_path, workload, trace=False)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units("end_to_end")
    named = report["named_metrics"]
    assert named["failed_frac"] == 0
    assert {"setup_wall_s", "peak_rss_mb"} <= set(named)
    assert len(report["setup_sha256"]) == 1      # repeated set-ups agree
    assert report["env"]["seed"] == 7


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    bound = {
        "backbone": nvg.backbone.rope_tables,
        "content_model": nvg.content_model.rope_tables,
        "structure_model": nvg.structure_model.rope_tables,
        "velocity": nvg.structure_model.StructureModel.__dict__["velocity"],
    }
    report, result = _run(tmp_path, workload, trace=True)
    assert report["traced_matches_untraced"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units("per_layer")

    # every wrapper is gone again
    assert nvg.backbone.rope_tables is bound["backbone"]
    assert nvg.content_model.rope_tables is bound["content_model"]
    assert nvg.structure_model.rope_tables is bound["structure_model"]
    assert nvg.structure_model.StructureModel.__dict__["velocity"] is bound["velocity"]

    if workload == "gen-8x8":
        assert metrics["autodiff.Tensor.backward.calls"] == 0
        assert metrics["hierarchy.build_hierarchy.calls"] == 0
        # only reachable through names imported into the model modules
        assert metrics["backbone.rope_tables.calls"] > 0
        assert metrics["pipeline.flow_steps"] > 0
    elif workload == "train-8x8":
        assert metrics["autodiff.Tensor.backward.calls"] == 2
        assert metrics["hierarchy.build_hierarchy.calls"] == 0
    else:
        assert metrics["hierarchy.build_hierarchy.calls"] == 1
        assert metrics["autodiff.matmul.calls"] == 0
