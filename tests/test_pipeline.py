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
from nvg.grid import Codebook, ContentTokens, StructureMap, canvas_prefixes
from nvg.hierarchy import build_hierarchy
from nvg.pipeline import (
    GenerationRequest,
    ScheduleParams,
    forced_final_split,
    generate,
    guidance_classes,
    guided,
    sample_token,
)
from nvg.io import write_tensor
from nvg.quantize import Refiner, build_contents, fit_codebook, identity_refiners
from nvg.structure_model import StructureModel
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset

H = W = 4
E = 3
LAST = 4
CLASSES = 2


def no_model(*args, **kwargs):
    raise AssertionError("a model ran before the request was checked")


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
        sched = ScheduleParams()
        assert sched.content_scale(0, 8) == pytest.approx(1.0)
        assert sched.content_scale(8, 8) == pytest.approx(3.5)
        assert sched.content_scale(4, 8) == pytest.approx(2.25)

    def test_cfg_structure_endpoints(self):
        assert ScheduleParams().structure_scale(1, 8) == pytest.approx(1.0)
        assert ScheduleParams().structure_scale(7, 8) == pytest.approx(2.5)

    def test_cfg_structure_range_checked(self):
        with pytest.raises(InvariantError):
            ScheduleParams().structure_scale(0, 8)
        with pytest.raises(InvariantError):
            ScheduleParams().structure_scale(8, 8)

    def test_top_p_endpoints_and_midpoint(self):
        sched = ScheduleParams()
        assert sched.top_p(0, 8) == pytest.approx(1.0)
        assert sched.top_p(8, 8) == pytest.approx(0.5)
        assert sched.top_p(4, 8) == pytest.approx(0.7071, abs=1e-4)

    @pytest.mark.parametrize("override", [{"cfg_constant": -2.0}, {"top_p_constant": 0.3}],
                             ids=["cfg", "top-p"])
    def test_a_constant_replaces_both_ramps_at_every_stage(self, setup, monkeypatch,
                                                           override):
        sched = ScheduleParams(flow_steps=2, **override)
        scale, p = override.get("cfg_constant"), override.get("top_p_constant")
        if scale is not None:
            assert [sched.content_scale(k, 8) for k in range(9)] == [scale] * 9
            assert [sched.structure_scale(k, 8) for k in range(1, 8)] == [scale] * 7
        else:
            assert [sched.top_p(k, 8) for k in range(9)] == [p] * 9
        for stage in (-1, 9):
            for method in (sched.content_scale, sched.top_p):
                with pytest.raises(InvariantError, match="stage"):
                    method(stage, 8)
        for stage in (0, 8):
            with pytest.raises(InvariantError, match="structure runs at stages 1..7"):
                sched.structure_scale(stage, 8)

        # and generate reads them: every guided step and every draw uses the constant
        scales, widths = [], []
        real_guided, real_sample = pipeline.guided, pipeline.sample_token

        def spy_guided(rows, s):
            scales.append(s)
            return real_guided(rows, s)

        def spy_sample(logits, width, rng):
            widths.append(width)
            return real_sample(logits, width, rng)

        monkeypatch.setattr(pipeline, "guided", spy_guided)
        monkeypatch.setattr(pipeline, "sample_token", spy_sample)
        _, codebook, refiners, content, structure = setup
        result = generate(GenerationRequest(class_id=1, seed=0, h=H, w=W, e=E, schedule=sched),
                          content, structure, codebook, refiners)
        # flow stages 1..3 (2 steps, then 1 warm step each), content at 0..4
        assert len(scales) == result.stats.flow_steps + result.stats.content_steps == 4 + 5
        assert len(widths) == sum(smap.num_clusters for _, smap in result.sequence.stages)
        if scale is not None:
            assert scales == [scale] * 9 and len(set(widths)) > 1
        else:
            assert widths == [p] * len(widths) and len(set(scales)) > 1

    @pytest.mark.parametrize("override", [
        {"cfg_constant": np.nan}, {"cfg_constant": np.inf}, {"cfg_constant": -np.inf},
        {"top_p_constant": 0.0}, {"top_p_constant": -0.5}, {"top_p_constant": 1.5},
        {"top_p_constant": np.nan},
    ], ids=["cfg-nan", "cfg-inf", "cfg-minus-inf", "top-p-0", "top-p-negative",
            "top-p-over-1", "top-p-nan"])
    def test_bad_constant_overrides_rejected_when_built(self, override):
        # they used to fail only when a stage first used them, after the models ran
        with pytest.raises(InvariantError, match="guidance scale must be finite|top-p must"):
            ScheduleParams(**override)

    def test_negative_guidance_and_full_nucleus_stay_legal(self):
        ScheduleParams(cfg_constant=-2.0, top_p_constant=1.0)


class TestCfgForward:
    """Classifier-free guidance as a step runs it: the `guidance_classes` rows
    of class 0 and null class 5, combined by `guided`."""

    @staticmethod
    def guided_step(table, scale, batches):
        """One guided step of a forward whose row for class c is table[c]."""
        classes = guidance_classes(0, 5, scale)
        batches.append(classes.tolist())
        return guided(np.stack([table[c] for c in classes.tolist()]), scale)

    def test_scale_one_returns_cond(self):
        rng = np.random.default_rng(3)
        cond, uncond = rng.normal(size=(2, 16))
        batches = []
        out = self.guided_step({0: cond, 5: uncond}, 1.0, batches)
        assert np.array_equal(out, cond)
        assert batches == [[0]]                 # the null row is never run

    def test_equal_inputs_unchanged_any_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=16)
        batches = []
        assert np.allclose(self.guided_step({0: x, 5: x}, 3.5, batches), x)
        assert batches == [[0, 5]]              # class row first, one B=2 batch

    def test_formula(self):
        cond = np.array([2.0])
        uncond = np.array([1.0])
        out = self.guided_step({0: cond, 5: uncond}, 3.5, [])
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
            structure_prefix=seq.stages[LAST][1],
            content_overrides={i: tok for i, (tok, _) in enumerate(seq.stages)},
            schedule=ScheduleParams(flow_steps=2),
        )
        assert len(req.fixed_maps) == LAST + 1
        result = generate(req, content, structure, codebook, refiners)
        recon = canvas_prefixes(seq, codebook, refiners)[-1]
        assert np.array_equal(result.canvas.data, recon.data)
        assert result.stats.content_steps == 0
        assert result.stats.flow_steps == 0

    def test_structure_override_at_stage1_respected(self, setup):
        _, codebook, refiners, content, structure = setup
        half = StructureMap(1, np.repeat([0, 1], H * W // 2).reshape(H, W))
        req = GenerationRequest(class_id=0, seed=3, h=H, w=W, e=E,
                                structure_prefix=half,
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
                                structure_prefix={"none": None, "stage1": half}[overrides],
                                schedule=ScheduleParams(flow_steps=2))
        result = generate(req, content, structure, codebook, refiners)
        maps = [smap for _, smap in result.sequence.stages]
        s_e = np.ones((H, W, LAST), dtype=np.float32)
        expected = []
        for k in range(1, LAST):
            if k >= len(req.fixed_maps):
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
        # stage 1 from noise, stages 2..LAST-1 warm started: round(0.4 * 3) = 1
        assert result.stats.flow_steps == 3 + (LAST - 2) * 1

    @pytest.mark.parametrize("prefix_stage", [None, 1])
    def test_one_context_per_flow_stage_and_one_velocity_per_step(self, setup, monkeypatch,
                                                                 prefix_stage):
        data, codebook, refiners, content, structure = setup
        seq, _ = build_contents(data[2][1], build_hierarchy(data[2][1]), codebook, refiners)
        calls = []
        for name in ("context", "velocity"):
            real = getattr(StructureModel, name)

            def spy(self, first, *args, name=name, real=real, **kwargs):
                calls.append((name, len(first)))
                return real(self, first, *args, **kwargs)

            monkeypatch.setattr(StructureModel, name, spy)
        prefix = None if prefix_stage is None else seq.stages[prefix_stage][1]
        req = GenerationRequest(class_id=1, seed=8, h=H, w=W, e=E, structure_prefix=prefix,
                                schedule=ScheduleParams(flow_steps=5))
        result = generate(req, content, structure, codebook, refiners)
        flow_stages = range(1 if prefix_stage is None else prefix_stage + 1, LAST)
        contexts = [rows for name, rows in calls if name == "context"]
        velocities = [rows for name, rows in calls if name == "velocity"]
        # guidance is off (one row) at stage 1 and on (two rows) later
        assert contexts == [1 if k == 1 else 2 for k in flow_stages]
        assert len(velocities) == result.stats.flow_steps
        # each stage's context comes before its steps, whose rows are its rows
        stage_rows = iter(contexts)
        for name, rows in calls:
            if name == "context":
                current = next(stage_rows)
            else:
                assert rows == current

    @pytest.mark.parametrize("flow_steps", [1, 2])
    def test_each_warm_started_stage_runs_at_least_one_step(self, setup, flow_steps):
        _, codebook, refiners, content, structure = setup
        req = GenerationRequest(class_id=0, seed=5, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=flow_steps))
        result = generate(req, content, structure, codebook, refiners)
        assert result.stats.flow_steps == flow_steps + (LAST - 2) * 1

    @pytest.mark.parametrize("prefix_stage", [0, 1, 2])
    def test_only_a_stage_after_a_flow_stage_is_warm_started(self, setup, monkeypatch,
                                                             prefix_stage):
        # stage 1, or the stage right after a fixed prefix, starts from
        # noise; every later one from the previous flow stage's output
        data, codebook, refiners, content, structure = setup
        _, grid = data[1]
        seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
        calls = []
        real = pipeline.flow_sample

        def spy(velocity_fn, s_e_grid, stage, n_steps, rng, warm=None):
            out = real(velocity_fn, s_e_grid, stage, n_steps, rng, warm=warm)
            calls.append((stage, warm, out))
            return out

        monkeypatch.setattr(pipeline, "flow_sample", spy)
        req = GenerationRequest(class_id=0, seed=6, h=H, w=W, e=E,
                                structure_prefix=seq.stages[prefix_stage][1],
                                schedule=ScheduleParams(flow_steps=2))
        generate(req, content, structure, codebook, refiners)
        assert [stage for stage, _, _ in calls] == list(range(prefix_stage + 1, LAST))
        assert calls[0][1] is None
        for (_, _, before), (_, warm, _) in zip(calls, calls[1:]):
            assert warm is before

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
            structure_prefix=seq.stages[2][1],
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

    def test_stage3_prefix_alone_fixes_stages_1_to_3(self, setup):
        # the stage-3 map fixes the stages it nests in, so no flow runs
        _, codebook, refiners, content, structure = setup
        stage3 = StructureMap(3, np.arange(H * W).reshape(H, W) >> 1)
        for seed in range(3):
            req = GenerationRequest(class_id=0, seed=seed, h=H, w=W, e=E,
                                    structure_prefix=stage3,
                                    schedule=ScheduleParams(flow_steps=2))
            result = generate(req, content, structure, codebook, refiners)
            assert result.stats.flow_steps == 0
            for i in range(1, 4):
                assert np.array_equal(result.sequence.stages[i][1].labels,
                                      stage3.labels >> (3 - i))

    def test_anti_canonical_override_rejected(self):
        # nested and balanced, but location 0 is in child 1: no training map
        # is labelled so; rejected when the request is built
        flipped = StructureMap(1, np.repeat([1, 0], H * W // 2).reshape(H, W))
        with pytest.raises(InvariantError, match="stage 1 is not the canonical child"):
            GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E, structure_prefix=flipped)

    def test_content_override_past_the_last_stage_rejected(self):
        tokens = ContentTokens(LAST + 3, np.zeros(1 << (LAST + 3), dtype=np.int32))
        with pytest.raises(InvariantError, match="past the last stage"):
            GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E,
                              content_overrides={LAST + 3: tokens})

    # past 256 locations (8 stages) no ModelConfig fits; a 4096x4096 request
    # used to allocate its 349 MB stage-0 map before any model was checked
    @pytest.mark.parametrize("h, w", [(-4, -4), (0, 4), (4, 3), (32, 32), (1, 512)])
    def test_grid_shape_must_be_positive_with_power_of_two_area(self, h, w):
        with pytest.raises(InvariantError):
            GenerationRequest(class_id=0, seed=0, h=h, w=w, e=E)

    def test_override_past_the_codebook_rejected_before_any_model(self, setup, monkeypatch):
        # index 99 at stage 3 used to fail at that stage's assign, after
        # three content forwards
        _, codebook, refiners, content, structure = setup
        monkeypatch.setattr(ContentModel, "forward_final_canvas", no_model)
        monkeypatch.setattr(StructureModel, "context", no_model)
        monkeypatch.setattr(StructureModel, "velocity", no_model)
        tokens = ContentTokens(3, np.array([0] * 7 + [99], dtype=np.int32))
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E,
                                content_overrides={3: tokens})
        with pytest.raises(InvariantError, match="override at stage 3 indexes past "
                                                 f"the codebook of {codebook.size}"):
            generate(req, content, structure, codebook, refiners)

    def test_structure_model_with_wrong_latent_channels_rejected(self, setup):
        _, codebook, refiners, content, _ = setup
        structure = StructureModel(ModelConfig(2, "structure", E + 1, 1, CLASSES, LAST))
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E)
        with pytest.raises(InvariantError, match="structure model expects"):
            generate(req, content, structure, codebook, refiners)

    @pytest.mark.parametrize("rows", [8, 64])
    def test_content_model_for_another_codebook_size_rejected(self, setup, monkeypatch, rows):
        # 8 rows used to sample silently from the codebook's first 8; 64 rows
        # failed on an out-of-range token after the flow stages had run
        _, codebook, refiners, _, structure = setup
        content = ContentModel(ModelConfig(2, "content", E, rows, CLASSES, LAST))

        def no_forward(*args, **kwargs):
            raise AssertionError("a model ran before the codebook size was checked")

        monkeypatch.setattr(ContentModel, "forward_final_canvas", no_forward)
        monkeypatch.setattr(StructureModel, "context", no_forward)
        monkeypatch.setattr(StructureModel, "velocity", no_forward)
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E)
        with pytest.raises(InvariantError, match=f"scores {rows} codebook rows, the "
                                                 f"codebook has {codebook.size}"):
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

    def test_overflowing_canvas_sum_raises_numeric_error_alone(self, setup, monkeypatch):
        # structure fixed through stage 3 and content at every stage, so no
        # model runs; each refined placement is finite (about 2e38), the
        # stage-1 sum is not, and a numpy warning would fail under the filter
        data, codebook, refiners, content, structure = setup
        grid = data[0][1]
        seq, _ = build_contents(grid, build_hierarchy(grid), codebook, refiners)
        monkeypatch.setattr(ContentModel, "forward_final_canvas", no_model)
        monkeypatch.setattr(StructureModel, "context", no_model)
        monkeypatch.setattr(StructureModel, "velocity", no_model)
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E,
                                structure_prefix=seq.stages[3][1],
                                content_overrides=dict(enumerate(t for t, _ in seq.stages)))
        huge = [Refiner(r.weight, np.full(E, 2e38)) for r in refiners]
        with pytest.raises(NumericError, match="non-finite after the stage-1 refiner"):
            generate(req, content, structure, codebook, huge)

    @pytest.mark.parametrize("bias", [1e20, 1e30, 2e38])
    def test_huge_finite_canvas_raises_numeric_error_in_the_models(self, setup, bias):
        # the canvas stays finite, but its float32 squares overflow in the
        # models' rmsnorm, which would normalize those rows to zero
        _, codebook, refiners, content, structure = setup
        huge = [Refiner(r.weight, np.full(E, bias)) for r in refiners]
        req = GenerationRequest(class_id=0, seed=0, h=H, w=W, e=E,
                                schedule=ScheduleParams(flow_steps=2))
        with pytest.raises(NumericError, match="rmsnorm mean square is not finite"):
            generate(req, content, structure, codebook, huge)


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


def test_cli_generate_on_a_huge_finite_canvas_exits_4_and_writes_nothing(tmp_path, setup):
    _, codebook, refiners, content, structure = setup
    save_model(tmp_path / "content.nvgc", content)
    save_model(tmp_path / "structure.nvgc", structure)
    write_tensor(tmp_path / "cb.nvgt", codebook.vectors)
    save_refiners(tmp_path / "ref.nvgc", [Refiner(r.weight, np.full(E, 1e20))
                                          for r in refiners])
    before = sorted(tmp_path.iterdir())
    env = {**os.environ, "PYTHONPATH": str(Path(nvg.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nvg", "generate", *(str(tmp_path / f) for f in
         ("content.nvgc", "structure.nvgc", "cb.nvgt", "ref.nvgc")),
         "--latent", f"{H},{W},{E}", "--steps", "2", "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == ["nvg: error code=4 kind=numeric: "
                                        "rmsnorm mean square is not finite"]
    assert sorted(tmp_path.iterdir()) == before
