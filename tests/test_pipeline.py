import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvg
from nvg import pipeline
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel
from nvg.errors import InvariantError, NumericError
from nvg.checkpoints import save_model, save_refiners
from nvg.grid import Codebook, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.pipeline import (
    GenerationRequest,
    ScheduleParams,
    cfg_forward,
    cfg_schedule,
    forced_final_split,
    generate,
    sample_token,
    top_p_schedule,
)
from nvg.io import write_tensor
from nvg.quantize import Refiner, build_contents, fit_codebook, identity_refiners, reconstruct
from nvg.structure_model import StructureModel
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset

H = W = 4
E = 3
LAST = 4
CLASSES = 2


@pytest.fixture(scope="module")
def setup():
    data = make_synthetic_dataset(SyntheticSpec(count=4, h=H, w=W, e=E,
                                                num_classes=CLASSES, seed=11))
    grids = [g for _, g in data]
    codebook = fit_codebook(grids, 16, seed=0)
    refiners = identity_refiners(LAST, E)
    content = ContentModel(ModelConfig(2, "content", E, 16, CLASSES, LAST), seed=0)
    structure = StructureModel(ModelConfig(2, "structure", E, 1, CLASSES, LAST), seed=0)
    return data, codebook, refiners, content, structure


class TestSchedules:
    def test_cfg_content_endpoints(self):
        assert cfg_schedule(0, "content", 8) == pytest.approx(1.0)
        assert cfg_schedule(8, "content", 8) == pytest.approx(3.5)
        assert cfg_schedule(4, "content", 8) == pytest.approx(2.25)

    def test_cfg_structure_endpoints(self):
        assert cfg_schedule(1, "structure", 8) == pytest.approx(1.0)
        assert cfg_schedule(7, "structure", 8) == pytest.approx(2.5)

    def test_cfg_structure_range_checked(self):
        with pytest.raises(InvariantError):
            cfg_schedule(0, "structure", 8)
        with pytest.raises(InvariantError):
            cfg_schedule(8, "structure", 8)

    def test_top_p_endpoints_and_midpoint(self):
        assert top_p_schedule(0, 8) == pytest.approx(1.0)
        assert top_p_schedule(8, 8) == pytest.approx(0.5)
        assert top_p_schedule(4, 8) == pytest.approx(0.7071, abs=1e-4)


class TestCfgForward:
    @staticmethod
    def rows_of(table, batches):
        """A forward over class ids whose row for class c is table[c]."""
        def forward(classes):
            batches.append(classes.tolist())
            return np.stack([table[c] for c in classes.tolist()])
        return forward

    def test_scale_one_returns_cond(self):
        rng = np.random.default_rng(3)
        cond, uncond = rng.normal(size=(2, 16))
        batches = []
        out = cfg_forward(self.rows_of({0: cond, 5: uncond}, batches), 0, 5, 1.0)
        assert np.array_equal(out, cond)
        assert batches == [[0]]                 # the null row is never run

    def test_equal_inputs_unchanged_any_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=16)
        batches = []
        assert np.allclose(cfg_forward(self.rows_of({0: x, 5: x}, batches), 0, 5, 3.5), x)
        assert batches == [[0, 5]]              # class row first, one B=2 batch

    def test_formula(self):
        cond = np.array([2.0])
        uncond = np.array([1.0])
        out = cfg_forward(self.rows_of({0: cond, 5: uncond}, []), 0, 5, 3.5)
        assert out[0] == pytest.approx(1.0 + 3.5)


class TestSampleToken:
    def test_degenerate_logit_wins(self):
        logits = np.zeros(16)
        logits[11] = 1e6
        for seed in range(5):
            assert sample_token(logits, 0.7, seed) == 11

    def test_p_one_covers_support(self):
        logits = np.zeros(4)
        rng = np.random.default_rng(0)
        seen = {sample_token(logits, 1.0, rng) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_uniform_logits_half_mass_keeps_lowest_32(self):
        logits = np.zeros(64)
        rng = np.random.default_rng(1)
        picks = {sample_token(logits, 0.5, rng) for _ in range(3000)}
        assert max(picks) <= 31
        assert picks == set(range(32))

    def test_invalid_p(self):
        with pytest.raises(InvariantError):
            sample_token(np.zeros(4), 0.0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_raise_numeric_error(self, bad):
        with pytest.raises(NumericError):
            sample_token(np.array([bad, 1.0, 2.0]), 0.9, 0)


class TestForcedFinalSplit:
    def test_smallest_location_gets_even_label(self):
        parent = StructureMap(1, np.array([[0, 1], [1, 0]]))
        child = forced_final_split(parent)
        # cluster 0 covers (0,0) and (1,1): the first gets 0, second 1
        assert child.labels[0, 0] == 0 and child.labels[1, 1] == 1
        assert child.labels[0, 1] == 2 and child.labels[1, 0] == 3


class TestGenerate:
    def test_full_override_reproduces_reconstruction_bit_exactly(self, setup):
        data, codebook, refiners, content, structure = setup
        cls, grid = data[0]
        hierarchy = build_hierarchy(grid)
        seq, _ = build_contents(grid, hierarchy, codebook, refiners)
        req = GenerationRequest(
            class_id=cls, seed=9, h=H, w=W, e=E,
            structure_overrides={i: smap for i, (_, smap) in enumerate(seq.stages)},
            content_overrides={i: tok for i, (tok, _) in enumerate(seq.stages)},
            schedule=ScheduleParams(flow_steps=2),
        )
        result = generate(req, content, structure, codebook, refiners)
        recon = reconstruct(seq, codebook, refiners)
        assert np.array_equal(result.canvas.data, recon.data)
        assert result.stats.content_steps == 0
        assert result.stats.flow_steps == 0

    def test_structure_override_at_stage1_respected(self, setup):
        _, codebook, refiners, content, structure = setup
        half = StructureMap(1, np.repeat([0, 1], H * W // 2).reshape(H, W))
        req = GenerationRequest(class_id=0, seed=3, h=H, w=W, e=E,
                                structure_overrides={1: half},
                                schedule=ScheduleParams(flow_steps=2))
        result = generate(req, content, structure, codebook, refiners)
        assert np.array_equal(result.sequence.stages[1][1].labels, half.labels)
        # deeper stages stay parent-consistent with the override
        for i in range(1, LAST):
            child = result.sequence.stages[i + 1][1].labels
            parent = result.sequence.stages[i][1].labels
            assert np.array_equal(child >> 1, parent)

    def test_determinism(self, setup):
        _, codebook, refiners, content, structure = setup
        req = GenerationRequest(class_id=1, seed=21, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=3))
        r1 = generate(req, content, structure, codebook, refiners)
        r2 = generate(req, content, structure, codebook, refiners)
        assert np.array_equal(r1.canvas.data, r2.canvas.data)
        for (t1, s1), (t2, s2) in zip(r1.sequence.stages, r2.sequence.stages):
            assert np.array_equal(t1.indices, t2.indices)
            assert np.array_equal(s1.labels, s2.labels)

    @pytest.mark.parametrize("overrides", ["none", "stage1"])
    def test_flow_input_is_the_incremental_parity_build(self, setup, monkeypatch,
                                                        overrides):
        # reference: the embedding grid built one column per realized stage,
        # column k-1 = 2 * (stage-k label & 1), unknown columns at 1
        _, codebook, refiners, content, structure = setup
        seen = []
        real_flow = pipeline.flow_sample

        def spy(velocity_fn, s_e_grid, stage, **kwargs):
            seen.append((stage, np.array(s_e_grid)))
            return real_flow(velocity_fn, s_e_grid, stage, **kwargs)

        monkeypatch.setattr(pipeline, "flow_sample", spy)
        half = StructureMap(1, np.repeat([0, 1], H * W // 2).reshape(H, W))
        req = GenerationRequest(class_id=1, seed=4, h=H, w=W, e=E,
                                structure_overrides={"none": {}, "stage1": {1: half}}[overrides],
                                schedule=ScheduleParams(flow_steps=2))
        result = generate(req, content, structure, codebook, refiners)
        maps = [smap for _, smap in result.sequence.stages]
        s_e = np.ones((H, W, LAST), dtype=np.float32)
        expected = []
        for k in range(1, LAST):
            if k not in req.structure_overrides:
                expected.append((k, s_e.copy()))
            s_e[:, :, k - 1] = (2 * (maps[k].labels & 1)).astype(np.float32)
        assert [k for k, _ in seen] == [k for k, _ in expected]
        for (_, got), (_, want) in zip(seen, expected):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)

    def test_step_accounting(self, setup):
        _, codebook, refiners, content, structure = setup
        req = GenerationRequest(class_id=0, seed=5, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=3))
        result = generate(req, content, structure, codebook, refiners)
        assert result.stats.content_steps == LAST + 1
        assert result.stats.flow_steps == (LAST - 1) * 3

    def test_generated_sequence_is_valid_and_balanced(self, setup):
        _, codebook, refiners, content, structure = setup
        req = GenerationRequest(class_id=0, seed=17, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=2))
        result = generate(req, content, structure, codebook, refiners)
        hw = H * W
        for i, (tokens, smap) in enumerate(result.sequence.stages):
            assert tokens.indices.size == 2 ** i
            counts = np.bincount(smap.labels.ravel(), minlength=2 ** i)
            assert np.all(counts == hw // 2 ** i)

    def test_flow_sampled_maps_are_canonical(self, setup):
        # as every training map is: child 2j holds its parent cluster j's
        # smallest row-major location, so the next stage and the content
        # model are conditioned on ids of the kind they were trained on
        _, codebook, refiners, content, structure = setup
        for seed in range(4):
            req = GenerationRequest(class_id=seed % CLASSES, seed=seed, h=H, w=W, e=E,
                                    schedule=ScheduleParams(flow_steps=2))
            result = generate(req, content, structure, codebook, refiners)
            maps = [smap.labels.ravel() for _, smap in result.sequence.stages]
            for parent, child in zip(maps, maps[1:]):
                first = [np.flatnonzero(parent == j)[0] for j in range(parent.max() + 1)]
                assert child[first].tolist() == [2 * j for j in range(len(first))]

    def test_prefix_override_keeps_parent_consistency(self, setup):
        data, codebook, refiners, content, structure = setup
        cls, grid = data[1]
        seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
        req = GenerationRequest(
            class_id=cls, seed=2, h=H, w=W, e=E,
            structure_overrides={i: seq.stages[i][1] for i in (0, 1, 2)},
            content_overrides={i: seq.stages[i][0] for i in (0, 1, 2)},
            schedule=ScheduleParams(flow_steps=2),
        )
        result = generate(req, content, structure, codebook, refiners)
        for i in (0, 1, 2):
            assert np.array_equal(result.sequence.stages[i][1].labels,
                                  seq.stages[i][1].labels)
        for i in range(LAST):
            assert np.array_equal(result.sequence.stages[i + 1][1].labels >> 1,
                                  result.sequence.stages[i][1].labels)

    def test_non_nested_overrides_rejected(self, setup):
        a = StructureMap(1, np.repeat([0, 1], H * W // 2).reshape(H, W))
        b_labels = np.zeros((H, W), dtype=np.int64)
        b_labels[0, :] = 2  # stage-2 cluster under the wrong parent
        b_labels[1, :] = 3
        b_labels[2, :] = 0
        b_labels[3, :] = 1
        with pytest.raises(InvariantError):
            GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E,
                              structure_overrides={1: a, 2: StructureMap(2, b_labels)})

    @pytest.mark.parametrize("h, w", [(-4, -4), (0, 4), (4, 3)])
    def test_grid_shape_must_be_positive_with_power_of_two_area(self, h, w):
        with pytest.raises(InvariantError):
            GenerationRequest(class_id=0, seed=0, h=h, w=w, e=E)

    def test_structure_model_with_wrong_latent_channels_rejected(self, setup):
        _, codebook, refiners, content, _ = setup
        structure = StructureModel(ModelConfig(2, "structure", E + 1, 1, CLASSES, LAST))
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E)
        with pytest.raises(InvariantError, match="structure model expects"):
            generate(req, content, structure, codebook, refiners)

    def test_structure_model_with_other_class_count_rejected(self, setup):
        _, codebook, refiners, content, _ = setup
        structure = StructureModel(ModelConfig(2, "structure", E, 1, CLASSES + 1, LAST))
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E)
        with pytest.raises(InvariantError, match="class count"):
            generate(req, content, structure, codebook, refiners)

    def test_schedule_constant_overrides(self, setup):
        _, codebook, refiners, content, structure = setup
        req = GenerationRequest(class_id=0, seed=13, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=2,
                                                        cfg_constant=1.5,
                                                        top_p_constant=0.9))
        result = generate(req, content, structure, codebook, refiners)
        assert result.stats.content_steps == LAST + 1

    def test_nan_structure_head_raises_numeric_error(self, setup):
        _, codebook, refiners, content, _ = setup
        structure = StructureModel(ModelConfig(2, "structure", E, 1, CLASSES, LAST), seed=0)
        structure.w_head.data[0, 0] = np.nan
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=2))
        with pytest.raises(NumericError, match="flow velocity"):
            generate(req, content, structure, codebook, refiners)

    def test_non_finite_canvas_raises_numeric_error(self, setup):
        _, _, _, content, structure = setup
        codebook = Codebook(np.full((16, E), 1e20, dtype=np.float32))
        refiners = identity_refiners(LAST, E)
        refiners[0] = Refiner(1e20 * refiners[0].weight, refiners[0].bias)
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E)
        with pytest.raises(NumericError, match="stage-0 refiner"):
            generate(req, content, structure, codebook, refiners)


def test_cli_generate_with_nan_structure_weights_exits_4(tmp_path, setup):
    _, codebook, refiners, content, _ = setup
    structure = StructureModel(ModelConfig(2, "structure", E, 1, CLASSES, LAST), seed=0)
    structure.w_head.data[:] = np.nan
    save_model(tmp_path / "content.nvgc", content)
    save_model(tmp_path / "structure.nvgc", structure)
    write_tensor(tmp_path / "cb.nvgt", codebook.vectors)
    save_refiners(tmp_path / "ref.nvgc", refiners)
    env = {**os.environ, "PYTHONPATH": str(Path(nvg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nvg", "generate", *(str(tmp_path / f) for f in
         ("content.nvgc", "structure.nvgc", "cb.nvgt", "ref.nvgc")),
         "--latent", f"{H},{W},{E}", "--steps", "2", "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert "code=4 kind=numeric" in proc.stderr
    assert "Traceback" not in proc.stderr
