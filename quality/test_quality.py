"""Smoke test of the quality oracle at toy size: the report's fields, and the
same figures from two runs. No figure is asserted."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location("quality_run", Path(__file__).with_name("run.py"))
quality = sys.modules["quality_run"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality)

TOY = quality.Sizes(latent=(4, 4, 4), classes=2, train_examples=4, held_out=8,
                    eval_examples=2, codebook=8, depth=2, steps=2, batch=2, warmup=1,
                    samples=2)


@pytest.fixture(scope="module")
def reports():
    return [quality.run(TOY, seeds=(0, 1)) for _ in range(2)]


def test_report_fields(reports):
    report = reports[0]
    assert set(report) == {"sizes", "seeds", "summary", "floors", "timing"}
    assert [s["seed"] for s in report["seeds"]] == [0, 1]
    for figures in report["seeds"]:
        assert set(figures) == {"seed", "evaluate", "frechet", "class_hits",
                                "class_hit_rate", "flow_steps_per_sample", "canvas_sha256"}
        assert set(figures["evaluate"]) == {
            "token_accuracy", "token_accuracy_overall", "reconstruction_mse_by_prefix",
            "codebook_usage", "structure_bit_accuracy"}
        assert np.isfinite(figures["frechet"])
    for summary in report["summary"].values():
        assert set(summary) == {"mean", "min", "max", "spread"}
    assert set(report["floors"]) == {"held_out_halves_frechet", "held_out_class_hit_rate",
                                     "chance_class_hit_rate"}


def test_figures_are_deterministic(reports):
    first, second = ({k: v for k, v in r.items() if k != "timing"} for r in reports)
    assert first == second


def test_frechet_distance_is_zero_on_one_set_and_grows_with_a_shift():
    feats = np.random.default_rng(0).normal(size=(64, 11))
    assert quality.frechet_distance(feats, feats) == pytest.approx(0.0, abs=1e-9)
    assert quality.frechet_distance(feats + 1.0, feats) == pytest.approx(11.0, abs=1e-9)


def test_canvas_features_count():
    assert quality.canvas_features(np.zeros((4, 4, 4))).shape == (11,)
