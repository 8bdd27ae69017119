import itertools

import numpy as np
import pytest

from nvg import hierarchy
from nvg.errors import InvariantError, NumericError
from nvg.grid import LatentGrid, StructureMap
from nvg.hierarchy import Hierarchy, build_hierarchy, greedy_pair_step, reindex_hierarchy


def brute_force_first_merge(vectors):
    """Smallest-distance pair over all pairs, lexicographic tie-break."""
    best = None
    m = len(vectors)
    for i, j in itertools.combinations(range(m), 2):
        d = float(np.sum((np.asarray(vectors[i]) - np.asarray(vectors[j])) ** 2))
        if best is None or d < best[0]:
            best = (d, (i, j))
    return best[1]


def whole_matrix_sq_dists(vectors):
    """Every squared distance from one (m, m, e) diff tensor and one einsum."""
    diff = vectors[:, None, :] - vectors[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def reference_greedy_pairs(vectors):
    """Full-rescan greedy pairing: m/2 argmins over the whole masked matrix.

    The row-major first minimum of the i < j entries is the lexicographic
    (i, j) tie-break; hierarchy._greedy_pairs must agree with it exactly.
    """
    m = len(vectors)
    d = whole_matrix_sq_dists(vectors)
    d[np.tril_indices(m)] = np.inf
    pairs, dists = [], []
    for _ in range(m // 2):
        i, j = divmod(int(np.argmin(d)), m)
        pairs.append((i, j))
        dists.append(float(d[i, j]))
        d[i, :] = d[:, i] = d[j, :] = d[:, j] = np.inf
    return pairs, dists


def oracle_vectors(kind, m, e, rng):
    if kind == "random":
        return rng.normal(size=(m, e))
    if kind == "integer":        # few distinct distances: heavy ties
        return rng.integers(0, 3, size=(m, e)).astype(np.float64)
    if kind == "all-equal":
        return np.full((m, e), 0.7)
    # "duplicated": every vector twice, shuffled, so many pairs sit at 0
    return np.repeat(rng.normal(size=(m // 2, e)), 2, axis=0)[rng.permutation(m)]


def reference_canonical_split(parent, child, stage):
    """One flatnonzero scan per parent cluster; hierarchy._canonical_split
    must agree with it, None included."""
    out = np.empty(parent.size, dtype=np.int32)
    for j in range(1 << stage):
        locs = np.flatnonzero(parent == j)
        old = child[locs]
        in_first = old == old[0]
        if int(in_first.sum()) * 2 != locs.size or np.unique(old).size != 2:
            return None
        out[locs[in_first]] = 2 * j
        out[locs[~in_first]] = 2 * j + 1
    return out


def replay_greedy_oracle(record):
    """Naive O(m^2) re-scan: each recorded merge must be globally minimal
    among pairs of still-unpaired items at that moment."""
    reps = record.representatives
    m = len(reps)
    alive = np.ones(m, dtype=bool)
    for (i, j), dist in zip(record.pairs, record.distances):
        assert alive[i] and alive[j]
        for a in range(m):
            if not alive[a]:
                continue
            for b in range(a + 1, m):
                if not alive[b]:
                    continue
                d = float(np.sum((reps[a] - reps[b]) ** 2))
                assert dist <= d + 1e-12
        alive[i] = alive[j] = False
    assert not alive.any()


class TestGreedyPairStep:
    def test_two_separated_pairs(self):
        vecs = np.array([[0.0], [0.1], [10.0], [10.1]])
        pairs = greedy_pair_step(vecs)
        assert sorted(pairs) == [(0, 1), (2, 3)]
        # merge order follows the float distances; the first merge must agree
        # with the brute-force scan either way
        assert pairs[0] == brute_force_first_merge(vecs)

    def test_minimal_input(self):
        assert greedy_pair_step(np.zeros((2, 3))) == [(0, 1)]

    def test_identical_vectors_use_lexicographic_order(self):
        assert greedy_pair_step(np.ones((4, 2))) == [(0, 1), (2, 3)]

    def test_odd_count_rejected(self):
        with pytest.raises(InvariantError):
            greedy_pair_step(np.zeros((3, 2)))

    @pytest.mark.parametrize("vectors", [
        [[np.inf], [0.0], [1.0], [2.0]],
        [[1e308], [-1e308], [0.0], [1.0]],
        [[np.nan], [0.0], [1.0], [2.0]],
    ], ids=["inf", "overflow", "nan"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_input_or_distance_raises(self, vectors):
        # without the check these pair (0, 0) or pair a NaN silently
        with pytest.raises(NumericError):
            greedy_pair_step(np.array(vectors))

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vecs = rng.normal(size=(6, 2))
            pairs = greedy_pair_step(vecs)
            assert pairs[0] == brute_force_first_merge(vecs)
            flat = sorted(idx for pair in pairs for idx in pair)
            assert flat == list(range(6))


class TestGreedyPairsOracle:
    @pytest.mark.parametrize("kind", ["random", "integer", "all-equal", "duplicated"])
    @pytest.mark.parametrize("e", [1, 3, 4, 8])
    @pytest.mark.parametrize("m", [2, 4, 6, 64, 256])
    def test_equals_full_rescan(self, m, e, kind):
        vectors = oracle_vectors(kind, m, e, np.random.default_rng(m * 100 + e))
        assert hierarchy._greedy_pairs(vectors) == reference_greedy_pairs(vectors)

    def test_equals_full_rescan_at_32x32(self):
        vectors = np.random.default_rng(1024).normal(size=(1024, 4))
        assert hierarchy._greedy_pairs(vectors) == reference_greedy_pairs(vectors)

    @pytest.mark.parametrize("e", [1, 3, 4, 8])
    def test_blocked_distances_equal_whole_einsum(self, e):
        m = 2 * hierarchy._DIST_BLOCK_ROWS + 5
        vectors = np.random.default_rng(e).normal(size=(m, e)) * 3.0
        d = hierarchy._pairwise_sq_dists(vectors)
        upper = np.triu_indices(m, 1)
        assert np.array_equal(d[upper], whole_matrix_sq_dists(vectors)[upper])
        assert np.all(d[np.tril_indices(m)] == np.inf)


class TestBuildHierarchy:
    def test_forced_1x2(self):
        g = LatentGrid(np.array([[[1.0], [2.0]]], dtype=np.float32))
        h = build_hierarchy(g)
        assert h.last_stage == 1
        assert np.array_equal(h.maps[0].labels, np.zeros((1, 2), dtype=np.int32))
        assert np.array_equal(h.maps[1].labels, np.array([[0, 1]]))

    def test_2x2_split_follows_similarity(self):
        data = np.array([[[0.0], [0.1]], [[10.0], [10.1]]], dtype=np.float32)
        h = build_hierarchy(LatentGrid(data))
        # enumerate all balanced 2-cluster splits of 4 locations: the greedy
        # merge pairs (0,1) then (2,3), which reindexes to [[0,0],[1,1]]
        assert np.array_equal(h.maps[1].labels, np.array([[0, 0], [1, 1]]))

    def test_16x16_stage_counts(self):
        rng = np.random.default_rng(2)
        g = LatentGrid(rng.normal(size=(16, 16, 4)).astype(np.float32))
        h = build_hierarchy(g)
        assert len(h.maps) == 9
        for i, smap in enumerate(h.maps):
            labels = smap.labels.ravel()
            assert np.unique(labels).size == 2 ** i

    def test_balance_and_parent_consistency(self):
        rng = np.random.default_rng(3)
        g = LatentGrid(rng.normal(size=(4, 8, 3)).astype(np.float32))
        h = build_hierarchy(g)
        hw = 32
        for i, smap in enumerate(h.maps):
            counts = np.bincount(smap.labels.ravel(), minlength=2 ** i)
            assert np.all(counts == hw // 2 ** i)
        for i in range(h.last_stage):
            assert np.array_equal(h.maps[i + 1].labels >> 1, h.maps[i].labels)

    def test_merge_trace_is_globally_greedy(self):
        rng = np.random.default_rng(4)
        g = LatentGrid(rng.normal(size=(4, 4, 3)).astype(np.float32))
        h = build_hierarchy(g)
        assert len(h.merge_trace) == h.last_stage
        for record in h.merge_trace:
            replay_greedy_oracle(record)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(8, 8, 4)).astype(np.float32)
        h1 = build_hierarchy(LatentGrid(data))
        h2 = build_hierarchy(LatentGrid(data.copy()))
        for a, b in zip(h1.maps, h2.maps):
            assert np.array_equal(a.labels, b.labels)


class TestReindexHierarchy:
    def test_idempotent_on_canonical(self):
        rng = np.random.default_rng(6)
        g = LatentGrid(rng.normal(size=(4, 4, 2)).astype(np.float32))
        h = build_hierarchy(g)
        again = reindex_hierarchy(h)
        for a, b in zip(h.maps, again.maps):
            assert np.array_equal(a.labels, b.labels)

    def test_swapped_labels_restored(self):
        s0 = StructureMap(0, np.zeros((1, 2), dtype=np.int64))
        swapped = StructureMap(1, np.array([[1, 0]]))
        h = reindex_hierarchy([s0, swapped])
        # location 0 is the smallest row-major index, so its cluster gets 0
        assert np.array_equal(h.maps[1].labels, np.array([[0, 1]]))

    def test_random_8x8_passes_membership_union_oracle(self):
        rng = np.random.default_rng(7)
        g = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        h = build_hierarchy(g)
        for i in range(h.last_stage):
            parent = h.maps[i].labels
            child = h.maps[i + 1].labels
            for j in range(2 ** i):
                members = parent == j
                child_labels = set(np.unique(child[members]).tolist())
                assert child_labels == {2 * j, 2 * j + 1}

    def test_preserves_partitions(self):
        rng = np.random.default_rng(8)
        g = LatentGrid(rng.normal(size=(4, 4, 2)).astype(np.float32))
        h = build_hierarchy(g)
        # scramble each stage's labels with a random permutation, then reindex
        scrambled = []
        for i, smap in enumerate(h.maps):
            perm = rng.permutation(2 ** i)
            scrambled.append(StructureMap(i, perm[smap.labels]))
        restored = reindex_hierarchy(scrambled)
        for a, b in zip(h.maps, restored.maps):
            assert np.array_equal(a.labels, b.labels)

    def test_inconsistent_membership_rejected(self):
        s0 = StructureMap(0, np.zeros((2, 4), dtype=np.int64))
        s1 = StructureMap(1, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))
        s2 = StructureMap(2, np.array([[0, 1, 2, 3], [0, 1, 2, 3]]))
        s3 = StructureMap(3, np.array([[0, 2, 4, 6], [1, 3, 5, 7]]))
        reindex_hierarchy([s0, s1, s2, s3])
        # a stage-2 cluster spanning two stage-1 parents breaks nesting
        bad = StructureMap(2, np.array([[0, 1, 0, 2], [1, 3, 2, 3]]))
        with pytest.raises(InvariantError):
            reindex_hierarchy([s0, s1, bad, s3])

    def test_canonical_split_equals_loop_reference(self):
        rng = np.random.default_rng(9)
        for trial in range(300):
            hw = 1 << int(rng.integers(1, 7))
            stage = int(rng.integers(0, hw.bit_length() - 1))
            n = 1 << stage
            parent = rng.permutation(np.repeat(np.arange(n), hw // n))
            # a nested child under scrambled labels, then maybe a swap or an overwrite
            child = np.empty(hw, dtype=np.int64)
            labels = rng.permutation(2 * n)
            for j in range(n):
                locs = rng.permutation(np.flatnonzero(parent == j))
                child[locs[:locs.size // 2]] = labels[2 * j]
                child[locs[locs.size // 2:]] = labels[2 * j + 1]
            if trial % 3 == 1:
                a, b = rng.integers(0, hw, 2)
                child[[a, b]] = child[[b, a]]
            elif trial % 3 == 2:
                child[rng.integers(0, hw)] = rng.integers(0, 2 * n)
            got = hierarchy._canonical_split(parent, child, stage)
            want = reference_canonical_split(parent, child, stage)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want) and got.dtype == want.dtype

    @pytest.mark.parametrize("bad_row", [
        [0, 1, 2, 2, 0, 1, 3, 3],     # first label of cluster 0 holds 1 of its 4
        [0, 0, 1, 2, 3, 3, 1, 2],     # each cluster: half one label, then two labels
    ], ids=["uneven", "three-labels"])
    def test_non_nested_map_rejected(self, bad_row):
        s0 = StructureMap(0, np.zeros((1, 8), dtype=np.int64))
        s1 = StructureMap(1, np.array([[0, 0, 0, 0, 1, 1, 1, 1]]))
        s2 = StructureMap(2, np.array([bad_row]))
        s3 = StructureMap(3, np.arange(8).reshape(1, 8))
        with pytest.raises(InvariantError):
            reindex_hierarchy([s0, s1, s2, s3])

    def test_type_enforces_2j_relation(self):
        s0 = StructureMap(0, np.zeros((2, 2), dtype=np.int64))
        s1 = StructureMap(1, np.array([[0, 0], [1, 1]]))
        # swapped child order still satisfies the 2j/2j+1 relation
        Hierarchy((s0, s1, StructureMap(2, np.array([[1, 0], [2, 3]]))))
        # a child whose label pair belongs to the other parent does not
        with pytest.raises(InvariantError):
            Hierarchy((s0, s1, StructureMap(2, np.array([[2, 3], [0, 1]]))))
