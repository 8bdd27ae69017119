"""Reference checks, and hand-made files, shared by several test modules."""

import struct

import numpy as np

import nvg.autodiff as ad
from nvg.autodiff import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from nvg.backbone import HEAD_DIM, STRUCT_SLOTS, rope_tables, time_features
from nvg.structcode import PAD, embed_structure_map


def numeric_grad(f, x, step=1e-6):
    """Central differences of the scalar f() over every entry of array x,
    which f reads in place."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * step)
    return g


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


def reference_block_forward(block, x, cos, sin, cond, mask=None):
    """`Block.forward` computed the plain way: two ropes over (B, H, L, 64)
    head views with shared (B, 1, L, 32) tables, an explicit 1/sqrt(HEAD_DIM)
    on the L x L scores, and every row computed. No dropout. cond is (B, w),
    or (B, L, w) for one conditioning per row; mask, when given, is an
    (L, L) bool array of the keys each query row may attend to."""
    b_sz, length, w = x.shape
    heads = block.heads
    mod = ad.matmul(ad.silu(cond), block.w_mod)
    if len(cond.shape) == 2:
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
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -np.inf).astype(scores.data.dtype)
    attn = ad.matmul(ad.softmax(scores), v)
    attn = ad.reshape(ad.transpose(attn, (0, 2, 1, 3)), (b_sz, length, w))

    merged = ad.concat([attn, ad.silu(m)], axis=2)
    return x + (1.0 + gate) * ad.matmul(merged, block.w_out)


def reference_content_forward(model, class_ids, smaps, canvases):
    """`ContentModel.forward_final_canvas` as one plain forward: the class
    token and the canvas rows go through every block together as
    `reference_block_forward`, no row left out of any block, under the
    class + stage conditioning and shared (B, 1, L, 32) rotary tables. The
    final norm and head run on the canvas rows, and their output plus the
    input canvas is the (B, h, w, e) prediction."""
    b_sz, h, w_grid, _ = canvases.shape
    hw, width = h * w_grid, model.config.width
    canvases = np.asarray(canvases, np.float32)
    cls = model.class_emb[np.asarray(class_ids)]
    cond = cls + model.stage_emb[np.array([m.stage for m in smaps])]
    x = ad.concat([ad.reshape(cls, (b_sz, 1, width)),
                   ad.matmul(ad.Tensor(canvases.reshape(b_sz, hw, -1)), model.w_in)
                   + model.b_in], axis=1)

    yx = np.stack(np.divmod(np.arange(hw), w_grid), axis=1)
    kind = np.concatenate([[0], np.ones(hw)])
    spatial = np.concatenate([[[0, 0]], yx])
    tables = [rope_tables(kind, np.concatenate([np.full((1, STRUCT_SLOTS), PAD),
                                                embed_structure_map(m, STRUCT_SLOTS)
                                                .reshape(hw, -1)]), spatial)
              for m in smaps]
    cos = np.stack([c for c, _ in tables])[:, None]
    sin = np.stack([s for _, s in tables])[:, None]

    for block in model.blocks:
        x = reference_block_forward(block, x, cos, sin, cond)
    fmod = ad.reshape(ad.matmul(ad.silu(cond), model.w_final_mod), (b_sz, 1, 2 * width))
    x = x[:, 1:]
    x = ad.rmsnorm(x) * (1.0 + fmod[:, :, :width]) + fmod[:, :, width:]
    out = ad.matmul(x, model.w_head) + model.b_head
    return out.data.reshape(canvases.shape) + canvases


def reference_flow_velocity(model, class_ids, parents, canvases, zs, ts):
    """`StructureModel.context` then `velocity` as one forward of every row:
    the class token, the canvas run and the noised run go through each block
    together as `reference_block_forward`, under a block mask (the class and
    canvas rows attend only among themselves; the noised rows attend to every
    row) and per-row modulation (class + stage on the context rows, plus the
    time term on the noised rows). The final norm and head run on every row,
    and the noised rows' outputs are the (B, h, w, K) velocities."""
    b_sz, h, w_grid, _ = canvases.shape
    hw, width = h * w_grid, model.config.width
    canvases, zs = np.asarray(canvases, np.float32), np.asarray(zs, np.float32)
    cls = model.class_emb[np.asarray(class_ids)]
    cond = cls + model.stage_emb[np.array([p.stage + 1 for p in parents])]
    t_feat = time_features(np.asarray(ts, np.float64), width).astype(np.float32)
    t_cond = ad.matmul(ad.Tensor(t_feat), model.w_time) + model.b_time
    row_cond = ad.concat([ad.reshape(cond, (b_sz, 1, width))] * (1 + hw)
                         + [ad.reshape(cond + t_cond, (b_sz, 1, width))] * hw, axis=1)
    x = ad.concat([ad.reshape(cls, (b_sz, 1, width)),
                   ad.matmul(ad.Tensor(canvases.reshape(b_sz, hw, -1)), model.w_in_canvas)
                   + model.b_in_canvas,
                   ad.matmul(ad.Tensor(zs.reshape(b_sz, hw, -1)), model.w_in_struct)
                   + model.b_in_struct], axis=1)

    yx = np.stack(np.divmod(np.arange(hw), w_grid), axis=1)
    kind = np.concatenate([[0], np.ones(hw), np.full(hw, 2)])
    spatial = np.concatenate([[[0, 0]], yx, yx])
    tables = [rope_tables(kind, np.concatenate([np.full((1, STRUCT_SLOTS), PAD)] + [ids] * 2),
                          spatial)
              for ids in (embed_structure_map(p, STRUCT_SLOTS).reshape(hw, -1)
                          for p in parents)]
    cos = np.stack([c for c, _ in tables])[:, None]
    sin = np.stack([s for _, s in tables])[:, None]
    rows = np.arange(1 + 2 * hw)
    mask = (rows[None, :] <= hw) | (rows[:, None] > hw)

    for block in model.blocks:
        x = reference_block_forward(block, x, cos, sin, row_cond, mask)
    fmod = ad.matmul(ad.silu(row_cond), model.w_final_mod)
    x = ad.rmsnorm(x) * (1.0 + fmod[:, :, :width]) + fmod[:, :, width:]
    out = ad.matmul(x, model.w_head) + model.b_head
    return out.data[:, 1 + hw:].reshape(zs.shape)


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


def reference_refiner_solve(grids, sequences, codebook_vectors: np.ndarray,
                            ridge: float) -> np.ndarray:
    """The least-squares refiners for fixed tokenizations, as one float64
    ((K+1)(9e+1), e) matrix: per stage the (3, 3, e, e) kernel as (9e, e),
    then the bias row. Each stage's design block is its placed codebook rows
    shifted by every 3x3 offset under zero padding, then a ones column; the
    ridge-augmented system [X; sqrt(ridge) I] theta = [g; sqrt(ridge)
    theta_identity] is solved by `np.linalg.lstsq`, not the normal equations."""
    e = codebook_vectors.shape[1]
    rows, targets = [], []
    for grid, seq in zip(grids, sequences):
        h, w = grid.h, grid.w
        blocks = []
        for tokens, smap in seq.stages:
            placed = codebook_vectors[tokens.indices][smap.labels].astype(np.float64)
            padded = np.pad(placed, ((1, 1), (1, 1), (0, 0)))
            for dy in range(3):
                for dx in range(3):
                    blocks.append(padded[dy:dy + h, dx:dx + w].reshape(h * w, e))
            blocks.append(np.ones((h * w, 1)))
        rows.append(np.concatenate(blocks, axis=1))
        targets.append(grid.data.reshape(h * w, e).astype(np.float64))
    identity = np.zeros((len(sequences[0].stages), 9 * e + 1, e))
    identity[:, 4 * e:5 * e] = np.eye(e)      # the centre tap, offset (1, 1)
    identity = identity.reshape(-1, e)
    root = np.sqrt(ridge)
    design = np.vstack(rows + [root * np.eye(len(identity))])
    target = np.vstack(targets + [root * identity])
    return np.linalg.lstsq(design, target, rcond=None)[0]


def reference_adam(params: dict, losses, lrs) -> None:
    """`autodiff.Adam` as first written, eager: both moments are zeros for
    every parameter at construction, and each step clears every gradient
    (`zero_grad`), runs losses[i](params) backward and updates, at lrs[i],
    each parameter that got a gradient. Gradients stay on the parameters."""
    t = 0
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    for loss_fn, lr in zip(losses, lrs):
        loss = loss_fn(params)
        for p in params.values():
            p.grad = None
        loss.backward()
        t += 1
        b1c = 1.0 - ADAM_BETA1 ** t
        b2c = 1.0 - ADAM_BETA2 ** t
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            g = p.grad
            m[name] *= ADAM_BETA1
            m[name] += (1.0 - ADAM_BETA1) * g
            v[name] *= ADAM_BETA2
            v[name] += (1.0 - ADAM_BETA2) * (g * g)
            denom = np.sqrt(v[name] / b2c)
            denom += ADAM_EPS
            p.data = p.data - (lr / b1c) * (m[name] / denom)


def duplicate_name_checkpoint(path, cut: int = 0) -> None:
    """A checkpoint whose count is 2, holding array `a` (2,) and then `a`
    (3,), all ones; `cut` drops that many bytes off the second payload."""
    def array(n):
        return struct.pack("<H1sII", 1, b"a", 1, n) + np.ones(n, "<f4").tobytes()

    second = array(3)
    path.write_bytes(struct.pack("<4sII", b"NVGC", 1, 2) + b"{}" + struct.pack("<I", 2)
                     + array(2) + second[:len(second) - cut])
