import numpy as np
import pytest

from nvg import quantize
from nvg.errors import InvariantError, NumericError
from nvg.grid import Codebook, LatentGrid, cluster_average
from nvg.hierarchy import build_hierarchy
from nvg.quantize import (
    kmeans,
    Refiner,
    build_contents,
    fit_codebook,
    identity_refiners,
    reconstruct,
    train_refiners,
    unquantized_residuals,
)


def final_residual_mse(grids, hierarchies, codebook, refiners):
    """Mean over grids of the mean squared final residual: the loss
    train_refiners minimises, recomputed from build_contents alone."""
    total = 0.0
    for grid, hierarchy in zip(grids, hierarchies):
        _, trace = build_contents(grid, hierarchy, codebook, refiners)
        final = trace.residuals[-1].data.astype(np.float64)
        total += float(np.mean(final * final))
    return total / len(grids)


def random_grid(rng, h=8, w=8, e=4):
    return LatentGrid(rng.normal(size=(h, w, e)).astype(np.float32))


class TestRefiner:
    def test_identity_apply_is_exact(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 4, 3)).astype(np.float32)
        out = Refiner.identity(0, 3).apply(data)
        assert np.array_equal(out, data)

    def test_rejects_non_square_channel_map(self):
        with pytest.raises(InvariantError):
            Refiner(0, np.zeros((3, 3, 2, 4)), np.zeros(4))

    def test_conv_matches_naive_loops(self):
        rng = np.random.default_rng(1)
        e = 3
        weight = rng.normal(size=(3, 3, e, e)).astype(np.float32)
        bias = rng.normal(size=e).astype(np.float32)
        data = rng.normal(size=(4, 8, e)).astype(np.float32)
        got = Refiner(0, weight, bias).apply(data)
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
        seq, trace = build_contents(grid, hierarchy, codebook, refiners)
        assert seq.stages[0][0].indices.tolist() == [1]
        means_r1 = cluster_average(trace.residuals[1].data, hierarchy.maps[0])
        assert np.allclose(means_r1, 0.0, atol=1e-6)

    def test_trace_starts_at_input(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, 4, 4, 3)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(rng.normal(size=(8, 3)).astype(np.float32))
        seq, trace = build_contents(grid, hierarchy, codebook, identity_refiners(4, 3))
        assert np.array_equal(trace.residuals[0].data, grid.data)
        assert len(trace.residuals) == grid.last_stage + 2

    def test_telescoping_with_quantizer_bypassed(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            grid = random_grid(rng)
            hierarchy = build_hierarchy(grid)
            trace = unquantized_residuals(grid, hierarchy, identity_refiners(6, 4))
            final = trace.residuals[-1].data
            rel = np.linalg.norm(final) / np.linalg.norm(grid.data)
            assert rel <= 1e-5

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
            _, trace = build_contents(grid, hierarchy, codebook, refiners)
            norms = [np.linalg.norm(r.data) for r in trace.residuals[:-1]]
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
        seq, trace = build_contents(grid, hierarchy, codebook, refiners)
        recon = reconstruct(seq, codebook, refiners)
        expected = grid.data - trace.residuals[-1].data
        err = np.linalg.norm(recon.data - expected) / max(np.linalg.norm(expected), 1e-9)
        assert err <= 1e-5

    def test_zero_codebook_row_gives_zero_grid(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 2, 2, 3)
        hierarchy = build_hierarchy(grid)
        codebook = Codebook(np.zeros((1, 3), dtype=np.float32))
        refiners = identity_refiners(2, 3)
        seq, _ = build_contents(grid, hierarchy, codebook, refiners)
        assert np.all(reconstruct(seq, codebook, refiners).data == 0.0)

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
        centroids = kmeans(data, 1, seed=0)
        assert np.allclose(centroids[0], [1.5, -0.5, 2.0], atol=1e-12)

    def test_two_separated_clouds_hit_cloud_means(self):
        rng = np.random.default_rng(9)
        a = rng.normal(scale=0.01, size=(40, 2)) + np.array([10.0, 0.0])
        b = rng.normal(scale=0.01, size=(40, 2)) + np.array([-10.0, 0.0])
        centroids = kmeans(np.concatenate([a, b]), 2, seed=1)
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


class TestFitCodebook:
    def test_constant_grid_rows_cover_value_and_zero(self):
        # training vectors are the locations (all 1.5) plus residual cluster
        # means, which are exactly zero after stage 0 removes the mean
        grid = LatentGrid(np.full((2, 2, 3), 1.5, dtype=np.float32))
        cb = fit_codebook([grid], 2, seed=0)
        rows = sorted(cb.vectors[:, 0].tolist())
        assert np.allclose(rows, [0.0, 1.5], atol=1e-6)

    def test_rejects_zero_size(self):
        grid = LatentGrid(np.zeros((2, 2, 1), dtype=np.float32))
        with pytest.raises(InvariantError):
            fit_codebook([grid], 0)

    def test_rejects_empty_input(self):
        with pytest.raises(InvariantError):
            fit_codebook([], 4)

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
        for r in refiners:
            ident = Refiner.identity(r.stage, r.channels)
            assert np.array_equal(r.weight, ident.weight)
            assert np.array_equal(r.bias, ident.bias)

    def test_loss_never_worse_than_identity(self, setup):
        grids, codebook = setup
        hierarchies = [build_hierarchy(g) for g in grids]
        base = final_residual_mse(grids, hierarchies, codebook,
                                  identity_refiners(4, 3))
        trained = train_refiners(grids, build_hierarchy, codebook, steps=200, lr=0.05)
        after = final_residual_mse(grids, hierarchies, codebook, trained)
        assert after <= base

    def test_trained_refiners_improve_reconstruction(self, setup):
        grids, codebook = setup
        hierarchies = [build_hierarchy(g) for g in grids]
        ident = identity_refiners(4, 3)
        trained = train_refiners(grids, build_hierarchy, codebook, steps=200, lr=0.05)

        def recon_mse(refiners):
            total = 0.0
            for g, h in zip(grids, hierarchies):
                seq, _ = build_contents(g, h, codebook, refiners)
                r = reconstruct(seq, codebook, refiners)
                total += float(np.mean((r.data - g.data) ** 2))
            return total

        assert recon_mse(trained) <= recon_mse(ident)

    def test_one_tokenization_pass_per_refiner_set(self, setup, monkeypatch):
        # each step's pass gives both the loss of the current refiners and the
        # gradient toward the next, so 2 steps tokenize 3 sets, each once per grid
        grids, codebook = setup
        seen = []
        real = quantize.build_contents

        def counted(grid, hierarchy, codebook, refiners):
            seen.append((id(grid), b"".join(r.weight.tobytes() + r.bias.tobytes()
                                            for r in refiners)))
            return real(grid, hierarchy, codebook, refiners)

        monkeypatch.setattr(quantize, "build_contents", counted)
        train_refiners(grids, build_hierarchy, codebook, steps=2, lr=0.05)
        assert len(seen) == 3 * len(grids)
        assert len(set(seen)) == len(seen)
        assert len({key for _, key in seen}) == 3

    def test_divergence_is_reported(self, setup):
        grids, codebook = setup
        with pytest.raises(NumericError):
            train_refiners(grids, build_hierarchy, codebook, steps=60, lr=1e9)
