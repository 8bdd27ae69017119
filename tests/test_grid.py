import functools
import tracemalloc

import numpy as np
import pytest

from nvg.errors import InvariantError, NumericError
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
    sq_dist_blocks,
)
from nvg.hierarchy import build_hierarchy
from nvg.quantize import Refiner, build_contents, identity_refiners
from oracles import reference_quantize_nearest


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

    @pytest.mark.parametrize("labels", [[[2**32, 1]], [[0, 2**32 + 1]], [[-(2**32), 1]]])
    def test_structure_map_labels_do_not_wrap_into_range(self, labels):
        # cast to int32 first, each of these would load as [[0, 1]]
        with pytest.raises(InvariantError):
            StructureMap(1, np.array(labels, dtype=np.int64))

    @pytest.mark.parametrize("index", [2**32, 2**31, np.iinfo(np.uint64).max])
    def test_content_tokens_do_not_wrap_into_range(self, index):
        with pytest.raises(InvariantError):
            ContentTokens(0, np.array([index]))

    def test_content_tokens_accept_int32_max(self):
        top = np.iinfo(np.int32).max
        assert ContentTokens(0, np.array([top], dtype=np.int64)).indices.tolist() == [top]

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

    def test_sequence_enforces_2j_relation(self):
        s0 = StructureMap(0, np.zeros((2, 2), dtype=np.int64))
        s1 = StructureMap(1, np.array([[0, 0], [1, 1]]))
        tokens = [ContentTokens(i, np.zeros(1 << i, dtype=np.int32)) for i in range(3)]

        def sequence(s2):
            return VGSequence(tuple(zip(tokens, (s0, s1, StructureMap(2, np.array(s2))))))

        # swapped child order still satisfies the 2j/2j+1 relation
        sequence([[1, 0], [2, 3]])
        # a child whose label pair belongs to the other parent does not
        with pytest.raises(InvariantError, match="stages 1 and 2 are not parent-consistent"):
            sequence([[2, 3], [0, 1]])


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
        for smap in h:
            centered = g.data - place(cluster_average(g, smap), smap)
            for j in range(smap.num_clusters):
                mask = smap.labels == j
                assert np.allclose(centered[mask].sum(axis=0), 0.0, atol=1e-5)


def add_at_cluster_average(data, smap):
    """The np.add.at scatter of float64 sums; cluster_average must equal it
    bit for bit."""
    flat = data.reshape(-1, data.shape[2])
    sums = np.zeros((smap.num_clusters, data.shape[2]))
    np.add.at(sums, smap.labels.ravel(), flat)
    return (sums / smap.cluster_size).astype(np.float32)


@functools.lru_cache(maxsize=None)
def greedy_maps(h, w):
    grid = LatentGrid(np.random.default_rng(h * w).normal(size=(h, w, 4)).astype(np.float32))
    return build_hierarchy(grid)


def averaging_grid(kind, h, w, e, rng):
    if kind == "gaussian":
        return rng.normal(size=(h, w, e)).astype(np.float32)
    if kind == "integer":
        return rng.integers(0, 3, size=(h, w, e)).astype(np.float32)
    scale = 10.0 ** rng.uniform(-12, 12, size=(h, w, e))
    wide = (rng.normal(size=(h, w, e)) * scale).astype(np.float32)
    if kind == "wide":
        return wide
    # "cancelling": every wide value also appears negated, so a cluster's
    # large terms cancel and the rounding left over depends on summation order
    flat = wide.reshape(-1, e)
    half = len(flat) // 2
    flat[half:] = -flat[rng.permutation(half)]
    return wide


class TestClusterAverageOracle:
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "wide", "cancelling"])
    @pytest.mark.parametrize("e", [1, 3, 4, 8])
    @pytest.mark.parametrize("shape", [(1, 2), (8, 8), (32, 32)])
    def test_equals_add_at_on_every_stage(self, shape, e, kind):
        data = averaging_grid(kind, *shape, e, np.random.default_rng(e))
        for smap in greedy_maps(*shape):
            means = cluster_average(LatentGrid(data), smap)
            assert means.tobytes() == add_at_cluster_average(data, smap).tobytes()

    @pytest.mark.parametrize("bad", [[np.inf, -np.inf], [np.nan, 0.0], [np.inf, 1.0]],
                             ids=["inf-minus-inf", "nan", "inf"])
    def test_non_finite_raw_grid_raises_numeric_error(self, bad):
        data = np.array([[[bad[0]], [bad[1]]]], dtype=np.float32)
        with pytest.raises(NumericError):
            cluster_average(data, StructureMap(0, np.zeros((1, 2), dtype=np.int64)))


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


def nearest_case(kind, m, n, e, rng):
    """(batch, codebook) float32 pairs that stress exact equality."""
    if kind == "gaussian":
        vs, cb = rng.normal(size=(m, e)), rng.normal(size=(n, e))
    elif kind == "duplicated":  # repeated batch and codebook rows: exact ties
        vs = rng.normal(size=(4, e))[rng.integers(0, 4, size=m)]
        cb = np.concatenate([vs[:n // 2], vs[:n - n // 2]])
    elif kind == "integer":     # small integers: many equal distances
        vs = rng.integers(-2, 3, size=(m, e))
        cb = rng.integers(-2, 3, size=(n, e))
    else:                       # magnitudes 1e-12..1e12
        vs = rng.normal(size=(m, e)) * 10.0 ** rng.uniform(-12, 12, size=(m, e))
        cb = rng.normal(size=(n, e)) * 10.0 ** rng.uniform(-12, 12, size=(n, e))
    return np.asarray(vs, dtype=np.float32), Codebook(cb)


class TestQuantizeNearestOracle:
    """`quantize_nearest_batch` against the whole-tensor broadcast form."""

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("kind", ["gaussian", "duplicated", "integer", "wide"])
    def test_matches_the_reference(self, kind, e):
        vs, cb = nearest_case(kind, 200, 24, e, np.random.default_rng(10 * e + len(kind)))
        assert np.array_equal(quantize_nearest_batch(vs, cb),
                              reference_quantize_nearest(vs, cb.vectors))

    @pytest.mark.parametrize("rows", [0, 1, 7], ids=["under-one-row", "one-row", "ragged"])
    @pytest.mark.parametrize("kind", ["gaussian", "duplicated", "integer"])
    def test_matches_the_reference_in_small_blocks(self, kind, rows, monkeypatch):
        # 7-row blocks do not divide 200 rows
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", rows * 24 * 4)
        vs, cb = nearest_case(kind, 200, 24, 4, np.random.default_rng(rows))
        assert np.array_equal(quantize_nearest_batch(vs, cb),
                              reference_quantize_nearest(vs, cb.vectors))

    def test_tie_breaks_to_lowest_index_in_every_block(self, monkeypatch):
        # codebook rows 1 and 4 tie for every batch row; one-row blocks
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", 1)
        cb = Codebook(np.array([[9.0], [1.0], [5.0], [9.0], [-1.0]]))
        assert quantize_nearest_batch(np.zeros((5, 1)), cb).tolist() == [1] * 5

    def test_large_batch_stays_in_a_few_megabytes(self):
        # the whole float32 (m, n, e) diff tensor would be 64 MB
        rng = np.random.default_rng(0)
        vs = rng.normal(size=(4096, 4)).astype(np.float32)
        cb = Codebook(rng.normal(size=(1024, 4)))
        tracemalloc.start()
        try:
            quantize_nearest_batch(vs, cb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestNonFiniteDistances:
    """`sq_dist_blocks` refuses a block holding an overflowed or non-finite
    distance before any caller reads it, without a RuntimeWarning."""

    @pytest.mark.parametrize("v, rows", [
        (-1e20, [[1e20], [-2e20]]),     # both float32 distances inf: argmin picked row 0
        (0.5, [[0.0], [2e19]]),         # the nearest is finite, the far row's is inf
    ], ids=["all-overflow", "far-row-overflows"])
    def test_overflowing_distance_raises(self, v, rows):
        with pytest.raises(NumericError):
            quantize_nearest_batch(np.array([[v]]), Codebook(np.array(rows)))

    def test_overflow_in_the_second_block_raises_before_it_is_yielded(self, monkeypatch):
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", 2 * 3)      # 2-row blocks
        rows = np.array([[0.0], [1.0], [2.0], [1e200]])
        blocks = sq_dist_blocks(rows, np.array([[0.0], [1.0], [2.0]]))
        assert next(blocks)[:2] == (0, 2)
        with pytest.raises(NumericError):
            next(blocks)


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

    def test_overflowing_sum_raises_numeric_error_alone(self, tokenized):
        # each refined placement is finite (about 2e38) and their float32 sum
        # is not; under the repo's error filter a numpy warning would fail here
        _, seq, cb, refs = tokenized
        huge = [Refiner(r.weight, np.full(3, 2e38)) for r in refs]
        with pytest.raises(NumericError, match="non-finite after the stage-1 refiner"):
            canvas_prefixes(seq, cb, huge)


def test_place_then_average_is_identity_on_bijective_stage():
    rng = np.random.default_rng(5)
    g = grid_from(rng.normal(size=(2, 4, 3)))
    smap = StructureMap(3, np.arange(8).reshape(2, 4))
    restored = place(cluster_average(g, smap), smap)
    assert np.array_equal(restored, g.data)
