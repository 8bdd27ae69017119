import tracemalloc

import numpy as np
import pytest

from nvg import quantize
from nvg.errors import InvariantError, NumericError
from nvg.grid import Codebook, LatentGrid, canvas_prefixes, cluster_average, place
from nvg.hierarchy import build_hierarchy
from nvg.quantize import (
    kmeans,
    Refiner,
    build_contents,
    fit_codebook,
    fit_vectors,
    identity_refiners,
    train_refiners,
)
from nvg.synthetic import SyntheticSpec, make_synthetic_dataset
from oracles import reference_kmeans, reference_refiner_solve


def final_residual_mse(grids, hierarchies, codebook, refiners):
    """Mean over grids of the mean squared final residual: the loss
    train_refiners minimises, recomputed from build_contents alone."""
    total = 0.0
    for grid, hierarchy in zip(grids, hierarchies):
        _, residuals = build_contents(grid, hierarchy, codebook, refiners)
        final = residuals[-1].data.astype(np.float64)
        total += float(np.mean(final * final))
    return total / len(grids)


def random_grid(rng, h=8, w=8, e=4):
    return LatentGrid(rng.normal(size=(h, w, e)).astype(np.float32))


def reference_kmeans_input(grids):
    """fit_codebook's k-means input as first defined: a quantizer-bypassed
    pass with identity refiners applied, then each residual averaged again."""
    chunks = []
    for grid in grids:
        hierarchy = build_hierarchy(grid)
        residual, residuals = grid.data, []
        for refiner, smap in zip(identity_refiners(len(hierarchy) - 1, grid.e), hierarchy):
            residuals.append(residual)
            residual = residual - refiner.apply(place(cluster_average(residual, smap), smap))
        chunks.append(grid.data.reshape(-1, grid.e))
        chunks += [cluster_average(r, smap) for r, smap in zip(residuals, hierarchy)]
    return np.concatenate(chunks, axis=0).astype(np.float64)


class TestRefiner:
    def test_identity_apply_is_exact(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 4, 3)).astype(np.float32)
        out = identity_refiners(0, 3)[0].apply(data)
        assert np.array_equal(out, data)

    def test_rejects_non_square_channel_map(self):
        with pytest.raises(InvariantError):
            Refiner(np.zeros((3, 3, 2, 4)), np.zeros(4))

    def test_conv_matches_naive_loops(self):
        rng = np.random.default_rng(1)
        e = 3
        weight = rng.normal(size=(3, 3, e, e)).astype(np.float32)
        bias = rng.normal(size=e).astype(np.float32)
        data = rng.normal(size=(4, 8, e)).astype(np.float32)
        got = Refiner(weight, bias).apply(data)
        padded = np.zeros((6, 10, e), dtype=np.float32)
        padded[1:-1, 1:-1] = data
        expected = np.zeros_like(data)
        for y in range(4):
            for x in range(8):
                acc = bias.astype(np.float64).copy()
                for dy in range(3):
                    for dx in range(3):
                        acc += padded[y + dy, x + dx].astype(np.float64) @ weight[dy, dx].astype(np.float64)
                expected[y, x] = acc
        assert np.allclose(got, expected, atol=1e-4)


class TestBuildContents:
    def test_exact_quantization_at_stage0(self):
        mean = np.array([0.5, -1.0], dtype=np.float32)
        grid = LatentGrid(np.tile(mean, (2, 2, 1)))
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(np.stack([np.array([9.0, 9.0], dtype=np.float32), mean]))
        refiners = identity_refiners(2, 2)
        seq, residuals = build_contents(grid, hierarchy, codebook, refiners)
        assert seq.stages[0][0].indices.tolist() == [1]
        means_r1 = cluster_average(residuals[1].data, hierarchy[0])
        assert np.allclose(means_r1, 0.0, atol=1e-6)

    def test_trace_starts_at_input(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, 4, 4, 3)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(rng.normal(size=(8, 3)).astype(np.float32))
        seq, residuals = build_contents(grid, hierarchy, codebook, identity_refiners(4, 3))
        assert np.array_equal(residuals[0].data, grid.data)
        assert len(residuals) == grid.last_stage + 2

    def test_residual_norm_shrinks_with_kmeans_codebook(self):
        # statistical oracle on in-distribution grids: a codebook fitted on the
        # corpus makes every quantization step non-expansive in practice
        from nvg.synthetic import SyntheticSpec, make_synthetic_dataset

        corpus = [g for _, g in make_synthetic_dataset(SyntheticSpec(count=16, seed=4))]
        trials_set = [g for _, g in make_synthetic_dataset(SyntheticSpec(count=100, seed=5))]
        codebook = fit_codebook(corpus, 64, seed=0)
        refiners = identity_refiners(6, 4)
        good = 0
        for grid in trials_set:
            hierarchy = build_hierarchy(grid)
            _, residuals = build_contents(grid, hierarchy, codebook, refiners)
            norms = [np.linalg.norm(r.data) for r in residuals[:-1]]
            good += all(b <= a for a, b in zip(norms, norms[1:]))
        assert good / len(trials_set) >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, 4, 4, 2)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(rng.normal(size=(16, 2)).astype(np.float32))
        refiners = identity_refiners(4, 2)
        seq1, _ = build_contents(grid, hierarchy, codebook, refiners)
        seq2, _ = build_contents(grid, hierarchy, codebook, refiners)
        for (t1, _), (t2, _) in zip(seq1.stages, seq2.stages):
            assert np.array_equal(t1.indices, t2.indices)


class TestReconstruct:
    def test_equals_grid_minus_final_residual(self):
        rng = np.random.default_rng(6)
        grid = random_grid(rng)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(rng.normal(size=(32, 4)).astype(np.float32))
        refiners = identity_refiners(6, 4)
        seq, residuals = build_contents(grid, hierarchy, codebook, refiners)
        recon = canvas_prefixes(seq, codebook, refiners)[-1]
        expected = grid.data - residuals[-1].data
        err = np.linalg.norm(recon.data - expected) / max(np.linalg.norm(expected), 1e-9)
        assert err <= 1e-5

    def test_zero_codebook_row_gives_zero_grid(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 2, 2, 3)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(np.zeros((1, 3), dtype=np.float32))
        refiners = identity_refiners(2, 3)
        seq, _ = build_contents(grid, hierarchy, codebook, refiners)
        assert np.all(canvas_prefixes(seq, codebook, refiners)[-1].data == 0.0)

    def test_unique_token_accounting_16x16(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, 16, 16, 4)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(rng.normal(size=(64, 4)).astype(np.float32))
        seq, _ = build_contents(grid, hierarchy, codebook, identity_refiners(8, 4))
        assert len(seq.stages) == 9
        assert sum(t.indices.size for t, _ in seq.stages) == 511


class TestKMeans:
    def test_identical_inputs_single_cluster(self):
        data = np.tile(np.array([1.5, -0.5, 2.0]), (10, 1))
        centroids = kmeans(data, 1, iterations=25, seed=0)
        assert np.allclose(centroids[0], [1.5, -0.5, 2.0], atol=1e-12)

    def test_two_separated_clouds_hit_cloud_means(self):
        rng = np.random.default_rng(9)
        a = rng.normal(scale=0.01, size=(40, 2)) + np.array([10.0, 0.0])
        b = rng.normal(scale=0.01, size=(40, 2)) + np.array([-10.0, 0.0])
        centroids = kmeans(np.concatenate([a, b]), 2, iterations=25, seed=1)
        centroids = centroids[np.argsort(centroids[:, 0])]
        assert np.allclose(centroids[0], b.mean(axis=0), atol=1e-9)
        assert np.allclose(centroids[1], a.mean(axis=0), atol=1e-9)

    def test_empty_cluster_reseeded_from_farthest_point(self):
        # two duplicated points and n=3: one centroid starts empty and must be
        # re-seeded on a data point
        data = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [9.0]])
        centroids = kmeans(data, 3, iterations=10, seed=3)
        for c in centroids:
            assert np.isfinite(c).all()
        assert len(np.unique(np.round(centroids, 6))) == 3

    def test_overflowing_distance_raises(self):
        # the float64 squared distance to a row at 1e200 overflows to inf
        data = np.random.default_rng(5).normal(size=(20, 2))
        data[7] = [1e200, 0.0]
        with pytest.raises(NumericError):
            kmeans(data, 3, iterations=5, seed=0)


def kmeans_data(kind, m, e, rng):
    """k-means inputs that stress exact equality with the reference."""
    if kind == "gaussian":
        return rng.normal(size=(m, e))
    if kind == "duplicated":    # every point repeated: equal distances everywhere
        return rng.normal(size=(m // 4, e))[rng.integers(0, m // 4, size=m)]
    if kind == "integer":       # small integers: exact ties between centroids
        return rng.integers(-2, 3, size=(m, e)).astype(np.float64)
    # magnitudes 1e-12..1e12 make every rounding of the sum over e visible
    return rng.normal(size=(m, e)) * 10.0 ** rng.uniform(-12, 12, size=(m, e))


class TestKMeansOracle:
    """`kmeans` against `oracles.reference_kmeans`, the whole-tensor,
    mask-per-centroid form it replaced: centroids equal bit for bit."""

    @staticmethod
    def check(data, n, iterations, seed):
        want = reference_kmeans(data, n, iterations, seed)
        got = kmeans(data, n, iterations=iterations, seed=seed)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("kind", ["gaussian", "duplicated", "integer", "wide"])
    def test_matches_the_reference(self, kind, e):
        rng = np.random.default_rng(100 * e + len(kind))
        self.check(kmeans_data(kind, 300, e, rng), 16, 10, seed=e)

    @pytest.mark.parametrize("rows", [0, 1, 7],
                             ids=["under-one-row", "one-row", "ragged"])
    @pytest.mark.parametrize("kind", ["gaussian", "integer"])
    def test_matches_the_reference_in_small_blocks(self, kind, rows, monkeypatch):
        # 7-row blocks do not divide 300 rows; a budget under one row still
        # gives one-row blocks
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", rows * 16 * 4)
        self.check(kmeans_data(kind, 300, 4, np.random.default_rng(rows)), 16, 10, seed=3)

    def test_empty_clusters_reseed_as_the_reference(self):
        # 5 distinct points and 12 centroids: at least 7 clusters are empty
        # after the first assignment, so the farthest-point re-seed runs
        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 3))[rng.integers(0, 5, size=40)]
        self.check(data, 12, 6, seed=0)

    def test_ties_across_a_block_boundary(self, monkeypatch):
        # seed 3 starts at centroids 1, -1, 1, -1. Each point's tie goes to
        # the lower centroid, so clusters 2 and 3 are empty, and the 0s are the
        # farthest points, rows 2 and 3, one on each side of a 3-row block
        # boundary: the re-seed's argmax takes the lower row first
        monkeypatch.setattr("nvg.grid.SQ_DIST_BLOCK_ELEMENTS", 3 * 4 * 1)
        data = np.array([[-1.0], [1.0], [0.0], [0.0], [-1.0], [1.0], [-1.0], [1.0]])
        assert kmeans(data, 4, iterations=1, seed=3)[:, 0].tolist() == [3 / 5, -1.0, 0.0, 0.0]
        self.check(data, 4, 1, seed=3)
        self.check(data, 4, 5, seed=3)

    def test_one_iteration_stays_in_a_few_megabytes(self):
        # the whole (m, n, e) float64 diff tensor would be 164 MB
        data = np.random.default_rng(0).normal(size=(20_000, 4))
        tracemalloc.start()
        try:
            kmeans(data, 256, iterations=1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestFitCodebook:
    def test_constant_grid_rows_cover_value_and_zero(self):
        # training vectors are the locations (all 1.5) plus residual cluster
        # means, which are exactly zero after stage 0 removes the mean
        grid = LatentGrid(np.full((2, 2, 3), 1.5, dtype=np.float32))
        cb = fit_codebook([grid], 2, seed=0)
        rows = sorted(cb.vectors[:, 0].tolist())
        assert np.allclose(rows, [0.0, 1.5], atol=1e-6)

    @pytest.mark.parametrize("kind", ["gaussian", "integer", "32x32"])
    def test_matches_the_refined_reaveraged_reference(self, kind):
        # integer grids give exact zero residuals and tied distances
        rng = np.random.default_rng(13)
        grids = {"gaussian": lambda: [random_grid(rng) for _ in range(4)],
                 "integer": lambda: [LatentGrid(rng.integers(-2, 3, size=(8, 8, 4))
                                                .astype(np.float32)) for _ in range(4)],
                 "32x32": lambda: [random_grid(rng, 32, 32, 4)]}[kind]()
        want = reference_kmeans(reference_kmeans_input(grids), 16, iterations=25, seed=7)
        got = fit_codebook(grids, 16, iterations=25, seed=7)
        assert got.vectors.tobytes() == want.astype(np.float32).tobytes()

    def test_rejects_zero_size(self):
        grid = LatentGrid(np.zeros((2, 2, 1), dtype=np.float32))
        with pytest.raises(InvariantError):
            fit_codebook([grid], 0)

    def test_rejects_empty_input(self):
        with pytest.raises(InvariantError):
            fit_codebook([], 4)

    def test_size_up_to_every_training_vector_is_checked_before_any_hierarchy(
            self, monkeypatch):
        # two 4x4 grids: 16 locations and 1 + 2 + ... + 16 = 31 cluster means each
        rng = np.random.default_rng(14)
        grids = [random_grid(rng, 4, 4, 3) for _ in range(2)]
        assert sum(fit_vectors(g.h, g.w) for g in grids) == 94
        assert fit_codebook(grids, 94, iterations=1).size == 94

        def no_hierarchy(grid):
            raise AssertionError("built a hierarchy before the options were checked")

        monkeypatch.setattr(quantize, "build_hierarchy", no_hierarchy)
        for size, iterations in ((95, 1), (0, 1), (4, -1)):
            with pytest.raises(InvariantError):
                fit_codebook(grids, size, iterations=iterations)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(10)
        grids = [random_grid(rng, 4, 4, 3) for _ in range(3)]
        cb1 = fit_codebook(grids, 8, seed=42)
        cb2 = fit_codebook(grids, 8, seed=42)
        assert np.array_equal(cb1.vectors, cb2.vectors)

    def test_usage_on_synthetic_corpus(self):
        rng = np.random.default_rng(11)
        grids = [random_grid(rng) for _ in range(16)]
        cb = fit_codebook(grids, 64, seed=0)
        refiners = identity_refiners(6, 4)
        used = np.zeros(64, dtype=bool)
        for grid in grids:
            seq, _ = build_contents(grid, build_hierarchy(grid), cb, refiners)
            for tokens, _ in seq.stages:
                used[tokens.indices] = True
        assert used.mean() >= 0.90


class TestTrainRefiners:
    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(12)
        grids = [random_grid(rng, 4, 4, 3) for _ in range(4)]
        codebook = fit_codebook(grids, 16, seed=0)
        return grids, codebook

    def test_zero_steps_returns_identity(self, setup):
        grids, codebook = setup
        refiners = train_refiners(grids, build_hierarchy, codebook, steps=0)
        assert len(refiners) == 5
        for r, ident in zip(refiners, identity_refiners(4, 3)):
            assert np.array_equal(r.weight, ident.weight)
            assert np.array_equal(r.bias, ident.bias)

    def test_loss_never_worse_than_identity(self, setup):
        grids, codebook = setup
        hierarchies = [build_hierarchy(g) for g in grids]
        base = final_residual_mse(grids, hierarchies, codebook,
                                  identity_refiners(4, 3))
        trained = train_refiners(grids, build_hierarchy, codebook, steps=3)
        after = final_residual_mse(grids, hierarchies, codebook, trained)
        assert after <= base

    def test_trained_refiners_improve_reconstruction(self, setup):
        grids, codebook = setup
        hierarchies = [build_hierarchy(g) for g in grids]
        ident = identity_refiners(4, 3)
        trained = train_refiners(grids, build_hierarchy, codebook, steps=3)

        def recon_mse(refiners):
            total = 0.0
            for g, h in zip(grids, hierarchies):
                seq, _ = build_contents(g, h, codebook, refiners)
                r = canvas_prefixes(seq, codebook, refiners)[-1]
                total += float(np.mean((r.data - g.data) ** 2))
            return total

        assert recon_mse(trained) <= recon_mse(ident)

    def test_one_tokenization_pass_per_refiner_set(self, setup, monkeypatch):
        # each pass gives both the loss of the current refiners and the tokens
        # of the next solve, so 2 steps tokenize 3 sets, each once per grid
        grids, codebook = setup
        seen = []
        real = quantize.build_contents

        def counted(grid, hierarchy, codebook, refiners):
            seen.append((id(grid), b"".join(r.weight.tobytes() + r.bias.tobytes()
                                            for r in refiners)))
            return real(grid, hierarchy, codebook, refiners)

        monkeypatch.setattr(quantize, "build_contents", counted)
        train_refiners(grids, build_hierarchy, codebook, steps=2)
        assert len(seen) == 3 * len(grids)
        assert len(set(seen)) == len(seen)
        assert len({key for _, key in seen}) == 3

    def test_fit_lowers_held_out_error_by_a_fifth(self):
        # the fit cuts this error by 28-47% over data seeds 0-5
        data = [g for _, g in make_synthetic_dataset(SyntheticSpec(count=80, h=8, w=8, e=4,
                                                                   seed=3))]
        fit, refine, held = data[:32], data[32:64], data[64:]
        codebook = fit_codebook(fit, 32, seed=0)
        hierarchies = [build_hierarchy(g) for g in held]
        base = final_residual_mse(held, hierarchies, codebook, identity_refiners(6, 4))
        trained = train_refiners(refine, build_hierarchy, codebook, steps=2)
        assert final_residual_mse(held, hierarchies, codebook, trained) <= 0.8 * base


class TestRefinerSolve:
    @pytest.mark.parametrize("grids, refined", [
        # test_golden's toy: 2 4x4 grids hold 32 pixel rows against 5 (9*4 + 1) = 185 columns
        ([g for _, g in make_synthetic_dataset(SyntheticSpec(count=4, h=4, w=4, e=4,
                                                             num_classes=2, seed=5))], 2),
        # 8 8x8 grids hold 512 rows against 7 (9*3 + 1) = 196 columns
        ([random_grid(np.random.default_rng(13), 8, 8, 3) for _ in range(8)], 8),
    ], ids=["fewer-rows", "more-rows"])
    def test_first_solve_matches_lstsq_oracle(self, grids, refined, monkeypatch):
        codebook = fit_codebook(grids, 16, seed=0)
        grids = grids[:refined]
        solves = []
        real = quantize._solve_refiners

        def recorded(*args):
            solves.append(real(*args))
            return solves[-1]

        monkeypatch.setattr(quantize, "_solve_refiners", recorded)
        train_refiners(grids, build_hierarchy, codebook, steps=1)
        ident = identity_refiners(grids[0].last_stage, grids[0].e)
        sequences = [build_contents(g, build_hierarchy(g), codebook, ident)[0] for g in grids]
        expected = reference_refiner_solve(grids, sequences, codebook.vectors, quantize.RIDGE)
        e = grids[0].e
        solved = np.concatenate([np.vstack([r.weight.reshape(9 * e, e), r.bias])
                                 for r in solves[0]])
        np.testing.assert_allclose(solved, expected, rtol=1e-5, atol=1e-6)
