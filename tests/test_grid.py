import numpy as np
import pytest

from nvg.errors import InvariantError
from nvg.grid import (
    Codebook,
    ContentTokens,
    LatentGrid,
    StructureMap,
    VGSequence,
    assign,
    canvas_prefixes,
    cluster_average,
    place,
    quantize_nearest_batch,
)
from nvg.hierarchy import build_hierarchy
from nvg.quantize import build_contents, identity_refiners


def grid_from(values):
    return LatentGrid(np.asarray(values, dtype=np.float32))


class TestTypes:
    def test_latent_grid_requires_power_of_two_area(self):
        with pytest.raises(InvariantError):
            LatentGrid(np.zeros((3, 2, 4), dtype=np.float32))

    def test_latent_grid_rejects_nan(self):
        data = np.zeros((2, 2, 1), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvariantError):
            LatentGrid(data)

    def test_structure_map_balance(self):
        StructureMap(1, np.array([[0, 0], [1, 1]]))
        with pytest.raises(InvariantError):
            StructureMap(1, np.array([[0, 0], [0, 1]]))

    def test_structure_map_label_range(self):
        with pytest.raises(InvariantError):
            StructureMap(1, np.array([[0, 0], [2, 2]]))

    def test_content_tokens_length(self):
        ContentTokens(2, np.array([1, 2, 3, 4]))
        with pytest.raises(InvariantError):
            ContentTokens(2, np.array([1, 2, 3]))

    def test_sequence_parent_consistency(self):
        s0 = StructureMap(0, np.zeros((1, 2), dtype=np.int64))
        s1_ok = StructureMap(1, np.array([[0, 1]]))
        t0 = ContentTokens(0, np.array([0]))
        t1 = ContentTokens(1, np.array([0, 0]))
        VGSequence(((t0, s0), (t1, s1_ok)))
        # stage tags must line up with positions
        with pytest.raises(InvariantError):
            VGSequence(((t0, s0), (t0, s0)))


class TestAssign:
    def test_stage0_fills_grid(self):
        cb = Codebook(np.array([[1.0, 2.0, 3.0]]))
        smap = StructureMap(0, np.zeros((4, 4), dtype=np.int64))
        out = assign(ContentTokens(0, np.array([0])), smap, cb)
        assert out.data.shape == (4, 4, 3)
        assert np.all(out.data == np.array([1.0, 2.0, 3.0], dtype=np.float32))

    def test_bijective_stage_places_rows(self):
        cb = Codebook(np.arange(8, dtype=np.float32).reshape(4, 2))
        smap = StructureMap(2, np.arange(4).reshape(2, 2))
        indices = np.array([3, 1, 0, 2])
        out = assign(ContentTokens(2, indices), smap, cb)
        for loc, idx in enumerate(indices):
            y, x = divmod(loc, 2)
            assert np.array_equal(out.data[y, x], cb.vectors[idx])

    def test_two_cluster_placement(self):
        # 2x2 grid, stage 1, labels [[0,0],[1,1]], tokens [a, b]
        cb = Codebook(np.array([[5.0], [7.0], [-1.0]]))
        smap = StructureMap(1, np.array([[0, 0], [1, 1]]))
        out = assign(ContentTokens(1, np.array([2, 1])), smap, cb)
        assert np.all(out.data[0] == -1.0)
        assert np.all(out.data[1] == 7.0)

    def test_stage_mismatch_raises(self):
        cb = Codebook(np.zeros((2, 1), dtype=np.float32))
        smap = StructureMap(0, np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(InvariantError):
            assign(ContentTokens(1, np.array([0, 0])), smap, cb)

    def test_index_out_of_range_raises(self):
        cb = Codebook(np.zeros((2, 1), dtype=np.float32))
        smap = StructureMap(0, np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(InvariantError):
            assign(ContentTokens(0, np.array([5])), smap, cb)


class TestClusterAverage:
    def test_constant_grid(self):
        g = grid_from(np.full((2, 4, 3), 2.5))
        smap = StructureMap(1, np.array([[0, 0, 1, 1], [1, 0, 0, 1]]))
        means = cluster_average(g, smap)
        assert np.allclose(means, 2.5)

    def test_two_vector_mean(self):
        g = grid_from([[[1.0, 3.0]], [[3.0, 5.0]]])
        means = cluster_average(g, StructureMap(0, np.zeros((2, 1), dtype=np.int64)))
        assert np.array_equal(means, np.array([[2.0, 4.0]], dtype=np.float32))

    def test_singleton_clusters_identity(self):
        rng = np.random.default_rng(3)
        g = grid_from(rng.normal(size=(2, 2, 5)))
        smap = StructureMap(2, np.arange(4).reshape(2, 2))
        means = cluster_average(g, smap)
        assert np.array_equal(means.reshape(2, 2, 5), g.data)

    def test_place_of_means_removes_within_cluster_sums(self):
        rng = np.random.default_rng(11)
        g = grid_from(rng.normal(size=(4, 4, 3)))
        h = build_hierarchy(g)
        for smap in h.maps:
            centered = g.data - place(cluster_average(g, smap), smap)
            for j in range(smap.num_clusters):
                mask = smap.labels == j
                assert np.allclose(centered[mask].sum(axis=0), 0.0, atol=1e-5)


class TestQuantizeNearest:
    def test_exact_match(self):
        cb = Codebook(np.eye(5, dtype=np.float32))
        assert quantize_nearest_batch(cb.vectors[3:4], cb).tolist() == [3]

    def test_derived_two_row_case(self):
        cb = Codebook(np.array([[0.0, 0.0], [1.0, 1.0]]))
        # d(v, row0) = 0.02, d(v, row1) = 1.62
        assert quantize_nearest_batch(np.array([[0.1, 0.1]]), cb).tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook(np.array([[9.0], [1.0], [5.0], [9.0], [-1.0]]))
        # rows 1 and 4 both at distance 1 from v = 0
        assert quantize_nearest_batch(np.array([[0.0]]), cb).tolist() == [1]


class TestAccumulateCanvas:
    """The running canvases of `canvas_prefixes`: entry i sums stages < i."""

    @pytest.fixture()
    def tokenized(self):
        rng = np.random.default_rng(7)
        grid = grid_from(rng.normal(size=(4, 4, 3)))
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(rng.normal(size=(16, 3)).astype(np.float32))
        refiners = identity_refiners(grid.last_stage, 3)
        seq, trace = build_contents(grid, hierarchy, codebook, refiners)
        return grid, seq, codebook, refiners

    def test_empty_sum_is_zero(self, tokenized):
        _, seq, cb, refs = tokenized
        prefixes = canvas_prefixes(seq, cb, refs)
        assert len(prefixes) == seq.last_stage + 2
        assert all(isinstance(p, LatentGrid) for p in prefixes)
        assert np.all(prefixes[0].data == 0.0)

    def test_single_term(self, tokenized):
        _, seq, cb, refs = tokenized
        out = canvas_prefixes(seq, cb, refs)[1]
        expected = assign(seq.stages[0][0], seq.stages[0][1], cb)
        assert np.array_equal(out.data, expected.data)

    def test_prefix_telescopes_bit_exactly(self, tokenized):
        _, seq, cb, refs = tokenized
        prefixes = canvas_prefixes(seq, cb, refs)
        for i in range(seq.last_stage + 1):
            tokens, smap = seq.stages[i]
            term = refs[i].apply(assign(tokens, smap, cb).data)
            assert np.array_equal(prefixes[i].data + term, prefixes[i + 1].data)

    def test_refiner_count_mismatch(self, tokenized):
        _, seq, cb, refs = tokenized
        with pytest.raises(InvariantError):
            canvas_prefixes(seq, cb, refs[:-1])


def test_place_then_average_is_identity_on_bijective_stage():
    rng = np.random.default_rng(5)
    g = grid_from(rng.normal(size=(2, 4, 3)))
    smap = StructureMap(3, np.arange(8).reshape(2, 4))
    restored = place(cluster_average(g, smap), smap)
    assert np.array_equal(restored, g.data)
