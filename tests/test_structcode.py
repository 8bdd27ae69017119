import numpy as np
import pytest
from hypothesis import given, strategies as st

from nvg.errors import InvariantError
from nvg.grid import LatentGrid
from nvg.hierarchy import build_hierarchy
from nvg.structcode import (
    decode_structure,
    embed_structure_map,
    encode_structure,
)


class TestEncode:
    def test_stage0_is_all_padding(self):
        assert encode_structure(0, 0, 8).tolist() == [1] * 8

    def test_stage2_label2(self):
        assert encode_structure(2, 2, 4).tolist() == [2, 0, 1, 1]

    def test_stage1_label1(self):
        assert encode_structure(1, 1, 4).tolist() == [2, 1, 1, 1]

    def test_label_out_of_range(self):
        with pytest.raises(InvariantError):
            encode_structure(4, 2, 4)
        with pytest.raises(InvariantError):
            encode_structure(-1, 2, 4)

    def test_stage_out_of_range(self):
        with pytest.raises(InvariantError):
            encode_structure(0, 5, 4)


class TestDecode:
    def test_all_padding(self):
        assert decode_structure(np.array([1, 1, 1, 1])) == (0, 0)

    def test_inverse_of_encode_example(self):
        assert decode_structure(np.array([2, 0, 1, 1])) == (2, 2)

    def test_full_depth(self):
        assert decode_structure(np.array([2, 2, 2, 2])) == (4, 15)

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(InvariantError):
            decode_structure(np.array([2, 3, 1, 1]))

    def test_rejects_bit_after_padding(self):
        with pytest.raises(InvariantError):
            decode_structure(np.array([2, 1, 0, 1]))

    def test_rejects_floats(self):
        with pytest.raises(InvariantError):
            decode_structure(np.array([1.0, 1.0]))


def test_exhaustive_roundtrip_all_depths_up_to_8():
    for depth in range(9):
        for stage in range(depth + 1):
            for label in range(1 << stage):
                values = encode_structure(label, stage, depth)
                assert decode_structure(values) == (stage, label)


def test_roundtrip_case_count_at_depth_8():
    cases = sum(1 << stage for stage in range(9))
    assert cases == 511


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda stage: st.tuples(st.just(stage), st.integers(0, max(0, (1 << stage) - 1)))
))
def test_roundtrip_property(stage_label):
    stage, label = stage_label
    assert decode_structure(encode_structure(label, stage, 8)) == (stage, label)


def test_prefix_property():
    for stage in range(8):
        for label in range(1 << stage):
            parent = encode_structure(label, stage, 8)
            for child in (2 * label, 2 * label + 1):
                child_emb = encode_structure(child, stage + 1, 8)
                assert np.array_equal(parent[:stage], child_emb[:stage])


def test_values_are_small_non_negative_integers():
    for stage in range(5):
        for label in range(1 << stage):
            v = encode_structure(label, stage, 4)
            assert v.min() >= 0 and v.max() <= 2


class TestStackedEmbedding:
    @pytest.fixture()
    def hierarchy(self):
        rng = np.random.default_rng(9)
        return build_hierarchy(LatentGrid(rng.normal(size=(4, 4, 3)).astype(np.float32)))

    def test_stage0_all_ones(self, hierarchy):
        emb = embed_structure_map(hierarchy.maps[0], hierarchy.last_stage)
        assert np.all(emb == 1)
        assert emb.shape == (4, 4, 4)

    def test_bijective_stage_all_distinct_no_padding(self, hierarchy):
        emb = embed_structure_map(hierarchy.maps[hierarchy.last_stage], hierarchy.last_stage)
        assert not np.any(emb == 1)
        flat = {tuple(row) for row in emb.reshape(-1, emb.shape[2])}
        assert len(flat) == 16

    def test_matches_per_location_encode(self, hierarchy):
        depth = hierarchy.last_stage
        for stage in range(depth + 1):
            emb = embed_structure_map(hierarchy.maps[stage], hierarchy.last_stage)
            labels = hierarchy.maps[stage].labels
            for y in range(4):
                for x in range(4):
                    expected = encode_structure(int(labels[y, x]), stage, depth)
                    assert np.array_equal(emb[y, x], expected)

    def test_prefix_inherited_from_parent(self, hierarchy):
        for stage in range(1, hierarchy.last_stage + 1):
            child = embed_structure_map(hierarchy.maps[stage], hierarchy.last_stage)
            parent = embed_structure_map(hierarchy.maps[stage - 1], hierarchy.last_stage)
            assert np.array_equal(child[:, :, :stage - 1], parent[:, :, :stage - 1])

    def test_embed_structure_map_shape(self, hierarchy):
        emb = embed_structure_map(hierarchy.maps[2], 6)
        assert emb.shape == (4, 4, 6)
        assert np.all(emb[:, :, 2:] == 1)
