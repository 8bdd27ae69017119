import itertools

import numpy as np
import pytest

from nvg import errors, hierarchy
from nvg.errors import InvariantError, NumericError
from nvg.grid import LatentGrid, StructureMap
from nvg.hierarchy import build_hierarchy, canonical_child, reindex_hierarchy


def greedy_pair_step(vectors):
    """hierarchy._greedy_pairs on float64 vectors, as build_hierarchy calls it."""
    return hierarchy._greedy_pairs(np.asarray(vectors, dtype=np.float64))


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
    pairs = []
    for _ in range(m // 2):
        i, j = divmod(int(np.argmin(d)), m)
        pairs.append((i, j))
        d[i, :] = d[:, i] = d[j, :] = d[:, j] = np.inf
    return pairs


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
    """One flatnonzero scan per parent cluster; hierarchy.canonical_child
    must agree with it, and raise InvariantError where it returns None."""
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


def reference_build_hierarchy(grid):
    """The list-based build: one member array per cluster, concatenated pair
    by pair (i's members, then j's), and one float64 mean per cluster, paired
    by the full-rescan reference. Returns the canonical hierarchy and the
    representatives each stage paired; build_hierarchy must equal both."""
    h, w = grid.h, grid.w
    hw = h * w
    last = grid.last_stage
    flat = grid.data.reshape(hw, grid.e).astype(np.float64)
    raw_maps = {last: np.arange(hw, dtype=np.int32)}
    members = [np.array([i]) for i in range(hw)]
    reps = flat.copy()
    paired = []
    for stage in range(last - 1, -1, -1):
        paired.append(reps)
        pairs = reference_greedy_pairs(reps)
        labels = np.empty(hw, dtype=np.int32)
        new_members = []
        for p, (i, j) in enumerate(pairs):
            merged = np.concatenate([members[i], members[j]])
            labels[merged] = p
            new_members.append(merged)
        members = new_members
        reps = np.stack([flat[mem].mean(axis=0) for mem in members])
        raw_maps[stage] = labels
    maps = [StructureMap(i, raw_maps[i].reshape(h, w)) for i in range(last + 1)]
    return reindex_hierarchy(maps), paired


def grid_cluster_means(grid, smap):
    """float64 mean grid vector of each cluster of smap, by label."""
    flat = grid.data.reshape(-1, grid.e).astype(np.float64)
    sums = np.zeros((smap.num_clusters, grid.e))
    np.add.at(sums, smap.labels.ravel(), flat)
    return sums / smap.cluster_size


def greedy_audit(grid, h):
    """Re-derive each merge from the maps alone: per stage s, the grid means
    of the stage-(s+1) clusters must pair up as {2j, 2j+1} under the naive
    full-rescan greedy scan. Returns the stages where they do not."""
    bad = []
    for s in range(len(h) - 1):
        pairs = reference_greedy_pairs(grid_cluster_means(grid, h[s + 1]))
        if sorted(pairs) != [(2 * j, 2 * j + 1) for j in range(1 << s)]:
            bad.append(s)
    return bad


def oracle_grid(kind, h, w, e, rng):
    if kind == "gaussian":
        return LatentGrid(rng.normal(size=(h, w, e)).astype(np.float32))
    if kind == "integer":        # few distinct means: heavy ties at every stage
        return LatentGrid(rng.integers(0, 3, size=(h, w, e)).astype(np.float32))
    if kind == "wide":
        # float32 values of one order of magnitude sum exactly in float64, in
        # any order; magnitudes 1e-12..1e12 make the member order matter
        scale = 10.0 ** rng.uniform(-12, 12, size=(h, w, e))
        return LatentGrid((rng.normal(size=(h, w, e)) * scale).astype(np.float32))
    return LatentGrid(np.full((h, w, e), 0.7, dtype=np.float32))


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

    @pytest.mark.parametrize("kind", ["integer", "duplicated"])
    def test_equals_full_rescan_at_32x32_with_ties(self, kind):
        # many rows rescanned per merge, across every distance block
        vectors = oracle_vectors(kind, 1024, 4, np.random.default_rng(1025))
        assert hierarchy._greedy_pairs(vectors) == reference_greedy_pairs(vectors)

    @pytest.mark.parametrize("kind", ["all-equal", "duplicated"])
    def test_equals_full_rescan_at_32x32_on_degenerate_sets(self, kind):
        vectors = oracle_vectors(kind, 1024, 3, np.random.default_rng(1026))
        assert hierarchy._greedy_pairs(vectors) == reference_greedy_pairs(vectors)

    def test_rescanned_row_wins_a_tie_on_its_lower_index(self):
        # (1, 2) merges first at 0 and kills row 0's cached partner 1. Row 0's
        # rescanned minimum, 1 at column 3, ties row 4's still-valid cached
        # minimum, 1 at column 5; row 0 is the lower row, so it merges first.
        vectors = np.array([[0.0], [1.0], [1.0], [-1.0], [10.0], [11.0]])
        want = [(1, 2), (0, 3), (4, 5)]
        assert reference_greedy_pairs(vectors) == want
        assert hierarchy._greedy_pairs(vectors) == want

    @pytest.mark.parametrize("m", [4, 64, 256])
    def test_every_merge_kills_the_next_rows_partner(self, m):
        # gaps m-1, m-2, ..., 1 along a line: the rightmost pair merges first,
        # and each merge kills the cached partner of the row to its left, whose
        # rescan then finds no live column at all
        vectors = np.concatenate([[0.0], np.cumsum(np.arange(m - 1, 0, -1.0))])[:, None]
        want = [(i, i + 1) for i in range(m - 2, -1, -2)]
        assert reference_greedy_pairs(vectors) == want
        assert hierarchy._greedy_pairs(vectors) == want

    def test_merge_order_follows_distances_one_ulp_apart(self):
        # d(0, 1) = 1 + 2^-52 is one ulp above d(2, 3) = 1, so (2, 3) merges
        # first; a float32 or rounded key would tie them and take (0, 1)
        vectors = np.array([[0.0, 0.0], [1.0, 2.0 ** -26], [100.0, 0.0], [101.0, 0.0]])
        d = hierarchy._pairwise_sq_dists(vectors)
        assert d[0, 1] == np.nextafter(d[2, 3], np.inf) and d[2, 3] == 1.0
        assert hierarchy._greedy_pairs(vectors) == [(2, 3), (0, 1)]
        assert reference_greedy_pairs(vectors) == [(2, 3), (0, 1)]

    @staticmethod
    def check_blocked_distances(vectors):
        m = len(vectors)
        d = hierarchy._pairwise_sq_dists(vectors)
        upper = np.triu_indices(m, 1)
        assert np.array_equal(d[upper], whole_matrix_sq_dists(vectors)[upper])
        assert np.all(d[np.tril_indices(m)] == np.inf)

    # 133 rows in blocks of 64: two full blocks and a ragged one
    BLOCK_ROWS, M = 64, 133

    @pytest.mark.parametrize("e", [1, 3, 4, 8, 16])
    def test_blocked_distances_equal_whole_einsum(self, e, monkeypatch):
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", self.BLOCK_ROWS * self.M * e)
        self.check_blocked_distances(np.random.default_rng(e).normal(size=(self.M, e)) * 3.0)

    @pytest.mark.parametrize("e", [1, 4, 16])
    def test_blocked_distances_equal_whole_einsum_on_wide_range(self, e, monkeypatch):
        # magnitudes 1e-12..1e12 make every rounding of the sum over e visible
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", self.BLOCK_ROWS * self.M * e)
        rng = np.random.default_rng(100 + e)
        scale = 10.0 ** rng.uniform(-12, 12, size=(self.M, e))
        self.check_blocked_distances(rng.normal(size=(self.M, e)) * scale)

    @pytest.mark.parametrize("budget", [1, 10 * M * 4])
    def test_one_row_and_ragged_blocks_equal_whole_einsum(self, budget, monkeypatch):
        # a budget below one row still builds one-row blocks; 10-row blocks
        # leave a last block of 3 rows
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", budget)
        self.check_blocked_distances(np.random.default_rng(budget).normal(size=(self.M, 4)))


class TestBuildHierarchy:
    def test_forced_1x2(self):
        g = LatentGrid(np.array([[[1.0], [2.0]]], dtype=np.float32))
        h = build_hierarchy(g)
        assert len(h) == 2
        assert np.array_equal(h[0].labels, np.zeros((1, 2), dtype=np.int32))
        assert np.array_equal(h[1].labels, np.array([[0, 1]]))

    def test_2x2_split_follows_similarity(self):
        data = np.array([[[0.0], [0.1]], [[10.0], [10.1]]], dtype=np.float32)
        h = build_hierarchy(LatentGrid(data))
        # enumerate all balanced 2-cluster splits of 4 locations: the greedy
        # merge pairs (0,1) then (2,3), which reindexes to [[0,0],[1,1]]
        assert np.array_equal(h[1].labels, np.array([[0, 0], [1, 1]]))

    def test_16x16_stage_counts(self):
        rng = np.random.default_rng(2)
        g = LatentGrid(rng.normal(size=(16, 16, 4)).astype(np.float32))
        h = build_hierarchy(g)
        assert len(h) == 9
        for i, smap in enumerate(h):
            labels = smap.labels.ravel()
            assert np.unique(labels).size == 2 ** i

    def test_balance_and_parent_consistency(self):
        rng = np.random.default_rng(3)
        g = LatentGrid(rng.normal(size=(4, 8, 3)).astype(np.float32))
        h = build_hierarchy(g)
        hw = 32
        for i, smap in enumerate(h):
            counts = np.bincount(smap.labels.ravel(), minlength=2 ** i)
            assert np.all(counts == hw // 2 ** i)
        for i in range(len(h) - 1):
            assert np.array_equal(h[i + 1].labels >> 1, h[i].labels)

    def test_hierarchy_is_globally_greedy(self):
        rng = np.random.default_rng(4)
        grids = [LatentGrid(rng.normal(size=(4, 4, 3)).astype(np.float32))]
        grids += [LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32)) for _ in range(20)]
        for g in grids:
            assert greedy_audit(g, build_hierarchy(g)) == []

    def test_greedy_audit_rejects_a_random_nested_hierarchy(self):
        # nested and balanced, but its merges ignore the grid
        rng = np.random.default_rng(10)
        g = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        order = rng.permutation(64).reshape(8, 8)
        h = reindex_hierarchy([StructureMap(s, order >> (6 - s)) for s in range(7)])
        assert greedy_audit(g, h) != []

    def test_distance_matrix_over_the_cap_is_refused_before_pairing(self, monkeypatch):
        def no_pairing(vectors):
            raise AssertionError("paired a grid over the cap")

        g = LatentGrid(np.random.default_rng(11).normal(size=(8, 8, 4)).astype(np.float32))
        monkeypatch.setattr(hierarchy, "_greedy_pairs", no_pairing)
        monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 8 * 64 ** 2 - 1)
        with pytest.raises(InvariantError, match=f"needs {8 * 64 ** 2} bytes of pairwise "
                           f"distances, over the {8 * 64 ** 2 - 1}-byte cap"):
            build_hierarchy(g)

    def test_distance_matrix_at_the_cap_is_built(self, monkeypatch):
        g = LatentGrid(np.random.default_rng(11).normal(size=(8, 8, 4)).astype(np.float32))
        want = build_hierarchy(g)
        monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 8 * 64 ** 2)
        for a, b in zip(build_hierarchy(g), want, strict=True):
            assert np.array_equal(a.labels, b.labels)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(8, 8, 4)).astype(np.float32)
        h1 = build_hierarchy(LatentGrid(data))
        h2 = build_hierarchy(LatentGrid(data.copy()))
        for a, b in zip(h1, h2):
            assert np.array_equal(a.labels, b.labels)


class TestMemberArrayOracle:
    """build_hierarchy keeps members as one (clusters, size) array per stage;
    the list-based loop must give the same maps and the same representatives
    at every stage, bit for bit."""

    def check(self, grid, monkeypatch):
        paired = []
        real = hierarchy._greedy_pairs

        def spy(vectors):
            paired.append(vectors.copy())
            return real(vectors)

        monkeypatch.setattr(hierarchy, "_greedy_pairs", spy)
        got = build_hierarchy(grid)
        want, want_paired = reference_build_hierarchy(grid)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.labels, b.labels) and a.labels.dtype == b.labels.dtype
        assert len(paired) == len(want_paired)
        for a, b in zip(paired, want_paired):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["gaussian", "integer", "all-equal", "wide"])
    @pytest.mark.parametrize("e", [1, 3, 4, 8])
    @pytest.mark.parametrize("shape", [(1, 2), (4, 8), (8, 8), (16, 16)],
                             ids=["1x2", "4x8", "8x8", "16x16"])
    def test_equals_list_build(self, shape, e, kind, monkeypatch):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1] * 10 + e)
        self.check(oracle_grid(kind, *shape, e, rng), monkeypatch)

    def test_equals_list_build_at_32x32(self, monkeypatch):
        rng = np.random.default_rng(32)
        self.check(oracle_grid("gaussian", 32, 32, 4, rng), monkeypatch)


class TestReindexHierarchy:
    def test_idempotent_on_canonical(self):
        rng = np.random.default_rng(6)
        g = LatentGrid(rng.normal(size=(4, 4, 2)).astype(np.float32))
        h = build_hierarchy(g)
        again = reindex_hierarchy(h)
        for a, b in zip(h, again):
            assert np.array_equal(a.labels, b.labels)

    def test_swapped_labels_restored(self):
        s0 = StructureMap(0, np.zeros((1, 2), dtype=np.int64))
        swapped = StructureMap(1, np.array([[1, 0]]))
        h = reindex_hierarchy([s0, swapped])
        # location 0 is the smallest row-major index, so its cluster gets 0
        assert np.array_equal(h[1].labels, np.array([[0, 1]]))

    def test_random_8x8_passes_membership_union_oracle(self):
        rng = np.random.default_rng(7)
        g = LatentGrid(rng.normal(size=(8, 8, 4)).astype(np.float32))
        h = build_hierarchy(g)
        for i in range(len(h) - 1):
            parent = h[i].labels
            child = h[i + 1].labels
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
        for i, smap in enumerate(h):
            perm = rng.permutation(2 ** i)
            scrambled.append(StructureMap(i, perm[smap.labels]))
        restored = reindex_hierarchy(scrambled)
        for a, b in zip(h, restored):
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
            parent_map = StructureMap(stage, parent.reshape(1, hw))
            want = reference_canonical_split(parent, child, stage)
            if want is None:
                with pytest.raises(InvariantError):
                    canonical_child(parent_map, child)
                continue
            got = canonical_child(parent_map, child)
            assert got.stage == stage + 1
            assert np.array_equal(got.labels.ravel(), want) and got.labels.dtype == want.dtype

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
