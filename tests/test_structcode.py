import numpy as np
import pytest

from nvg.errors import InvariantError
from nvg.grid import LatentGrid, StructureMap
from nvg.hierarchy import build_hierarchy
from nvg.structcode import bit_rule_holds, embed_structure_map


def encode_structure(label, stage, depth):
    """Scalar reference of the bit rule: stage bits of label, most
    significant first, as 0 or 2, then 1s out to depth."""
    bits = [2 * ((label >> (stage - 1 - j)) & 1) for j in range(stage)]
    return np.array(bits + [1] * (depth - stage), dtype=np.int64)


def stage_ids(stage, depth):
    """embed_structure_map's ids of labels 0 .. 2**stage - 1, in label order."""
    smap = StructureMap(stage, np.arange(1 << stage).reshape(1, -1))
    return embed_structure_map(smap, depth)[0]


def embed_at(label, stage, depth):
    return stage_ids(stage, depth)[label]


class TestEncode:
    def test_stage0_is_all_padding(self):
        assert embed_at(0, 0, 8).tolist() == [1] * 8

    def test_stage2_label2(self):
        assert embed_at(2, 2, 4).tolist() == [2, 0, 1, 1]

    def test_stage1_label1(self):
        assert embed_at(1, 1, 4).tolist() == [2, 1, 1, 1]

    def test_stage_out_of_range(self):
        with pytest.raises(InvariantError):
            embed_at(0, 5, 4)


def test_exhaustive_roundtrip_all_depths_up_to_8():
    # every id reads back: the stage from its pad count, the label from its bits
    for depth in range(9):
        for stage in range(depth + 1):
            ids = stage_ids(stage, depth)
            assert np.all((ids == 1).sum(axis=1) == depth - stage)
            labels = (ids[:, :stage] // 2) @ (1 << np.arange(stage)[::-1])
            assert labels.tolist() == list(range(1 << stage))


def test_prefix_property():
    # children 2j and 2j + 1 extend parent j's bits
    for stage in range(8):
        parent, child = stage_ids(stage, 8), stage_ids(stage + 1, 8)
        assert np.array_equal(child[:, :stage], np.repeat(parent[:, :stage], 2, axis=0))


def test_values_are_small_non_negative_integers():
    for stage in range(5):
        v = stage_ids(stage, 4)
        assert v.min() >= 0 and v.max() <= 2


class TestStackedEmbedding:
    @pytest.fixture()
    def hierarchy(self):
        rng = np.random.default_rng(9)
        return build_hierarchy(LatentGrid(rng.normal(size=(4, 4, 3)).astype(np.float32)))

    def test_stage0_all_ones(self, hierarchy):
        emb = embed_structure_map(hierarchy[0], len(hierarchy) - 1)
        assert np.all(emb == 1)
        assert emb.shape == (4, 4, 4)

    def test_bijective_stage_all_distinct_no_padding(self, hierarchy):
        emb = embed_structure_map(hierarchy[-1], len(hierarchy) - 1)
        assert not np.any(emb == 1)
        flat = {tuple(row) for row in emb.reshape(-1, emb.shape[2])}
        assert len(flat) == 16

    def test_matches_per_location_encode(self, hierarchy):
        depth = len(hierarchy) - 1
        for stage in range(depth + 1):
            emb = embed_structure_map(hierarchy[stage], len(hierarchy) - 1)
            labels = hierarchy[stage].labels
            for y in range(4):
                for x in range(4):
                    expected = encode_structure(int(labels[y, x]), stage, depth)
                    assert np.array_equal(emb[y, x], expected)

    def test_prefix_inherited_from_parent(self, hierarchy):
        for stage in range(1, len(hierarchy)):
            child = embed_structure_map(hierarchy[stage], len(hierarchy) - 1)
            parent = embed_structure_map(hierarchy[stage - 1], len(hierarchy) - 1)
            assert np.array_equal(child[:, :, :stage - 1], parent[:, :, :stage - 1])

    def test_embed_structure_map_shape(self, hierarchy):
        emb = embed_structure_map(hierarchy[2], 6)
        assert emb.shape == (4, 4, 6)
        assert np.all(emb[:, :, 2:] == 1)

    def test_bit_rule_holds_on_a_built_hierarchy(self, hierarchy):
        assert bit_rule_holds(hierarchy, len(hierarchy) - 1)
        assert bit_rule_holds(hierarchy[:3], 6)


def test_bit_rule_fails_when_a_child_leaves_its_parent():
    # stage 2 swaps labels 1 and 2: locations of parent 0 read prefix 2
    maps = [StructureMap(0, np.zeros((1, 4), dtype=np.int64)),
            StructureMap(1, np.array([[0, 0, 1, 1]])),
            StructureMap(2, np.array([[0, 2, 1, 3]]))]
    assert bit_rule_holds(maps[:2], 2)
    assert not bit_rule_holds(maps, 2)
