"""Reference checks shared by several test modules."""

import numpy as np


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
