"""Reference checks shared by several test modules."""

import numpy as np

import nvg.autodiff as ad
from nvg.backbone import HEAD_DIM


def gradient_check(loss_fn, params: dict, seed: int = 0, samples: int = 120,
                   step: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the graph from the given parameter tensors each
    call. Checks a seeded sample of coordinates across all parameters; meant
    for float64 parameters.
    """
    loss = loss_fn()
    for p in params.values():
        p.grad = None
    loss.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}

    rng = np.random.default_rng(seed)
    names = sorted(params)
    sizes = np.array([params[k].data.size for k in names])
    total = int(sizes.sum())
    chosen = rng.choice(total, size=min(samples, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = 0.0
    for flat_idx in chosen:
        which = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[which]
        local = int(flat_idx - offsets[which])
        p = params[name]
        flat = p.data.reshape(-1)
        orig = flat[local]
        flat[local] = orig + step
        up = float(loss_fn().data)
        flat[local] = orig - step
        down = float(loss_fn().data)
        flat[local] = orig
        numeric = (up - down) / (2.0 * step)
        analytic = float(grads[name].reshape(-1)[local])
        err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst


def reference_block_forward(block, x, cos, sin, cond):
    """`Block.forward` computed the plain way: two ropes over (B, H, L, 64)
    head views with shared (B, 1, L, 32) tables, an explicit 1/sqrt(HEAD_DIM)
    on the L x L scores, and every row computed. No dropout."""
    b_sz, length, w = x.shape
    heads = block.heads
    mod = ad.matmul(ad.silu(cond), block.w_mod)
    mod = ad.reshape(mod, (b_sz, 1, 3 * w))
    scale, shift, gate = mod[:, :, 0:w], mod[:, :, w:2 * w], mod[:, :, 2 * w:3 * w]

    normed = ad.rmsnorm(x) * (1.0 + scale) + shift
    fused = ad.matmul(normed, block.w_fused)
    q, k, v, m = (fused[:, :, 0:w], fused[:, :, w:2 * w],
                  fused[:, :, 2 * w:3 * w], fused[:, :, 3 * w:7 * w])

    def split_heads(t):
        return ad.transpose(ad.reshape(t, (b_sz, length, heads, HEAD_DIM)), (0, 2, 1, 3))

    q = ad.rope(split_heads(q), cos, sin)
    k = ad.rope(split_heads(k), cos, sin)
    v = split_heads(v)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(HEAD_DIM))
    attn = ad.matmul(ad.softmax(scores), v)
    attn = ad.reshape(ad.transpose(attn, (0, 2, 1, 3)), (b_sz, length, w))

    merged = ad.concat([attn, ad.silu(m)], axis=2)
    return x + (1.0 + gate) * ad.matmul(merged, block.w_out)


def reference_kmeans(data: np.ndarray, n: int, iterations: int, seed: int) -> np.ndarray:
    """`quantize.kmeans` as first written: the whole (m, n, e) diff tensor per
    Lloyd iteration, and one boolean mask scan of the assignments per
    centroid. Input checks are left to the library."""
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(len(data), size=n, replace=False)].copy()
    prev_assign = None
    for _ in range(iterations):
        diff = data[:, None, :] - centroids[None]
        d2 = np.einsum("mnj,mnj->mn", diff, diff)
        assign_idx = np.argmin(d2, axis=1)
        own_dist = d2[np.arange(len(data)), assign_idx].copy()
        for c in range(n):
            mask = assign_idx == c
            if mask.any():
                centroids[c] = data[mask].mean(axis=0)
            else:
                far = int(np.argmax(own_dist))
                centroids[c] = data[far]
                own_dist[far] = -1.0
        if prev_assign is not None and np.array_equal(assign_idx, prev_assign):
            break
        prev_assign = assign_idx
    return centroids


def reference_quantize_nearest(vs: np.ndarray, codebook_vectors: np.ndarray) -> np.ndarray:
    """`grid.quantize_nearest_batch` as first written: the whole float32
    (m, n, e) diff tensor and one argmin."""
    d = vs[:, None, :] - codebook_vectors[None, :, :]
    return np.argmin(np.einsum("mnj,mnj->mn", d, d), axis=1).astype(np.int32)
