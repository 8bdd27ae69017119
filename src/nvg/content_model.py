"""Stage-conditioned transformer that refines the running canvas.

Given the class, the stage's structure map and the canvas accumulated so far,
the model predicts the final canvas. The difference between prediction and
input canvas, averaged within each cluster of the stage's structure map,
feeds a linear head that scores every codebook row per cluster.

`ContentModel` is an adapter on `backbone.Generator`, whose one forward does
the conditioning, the rotary ids, the blocks and the output head. Each row's
stage and rotary structure ids come from its map there. The adapter adds one
token run, the canvas, and turns the head's output into the predicted canvas
and the codebook logits.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Generator
# unused here; bound because perfbench's smoke test reads nvg.<model>.rope_tables
from .backbone import rope_tables  # noqa: F401
from .errors import InvariantError
from .grid import StructureMap

__all__ = ["ContentModel", "cross_entropy_mean", "cluster_mean_matrix"]


def cluster_mean_matrix(smap: StructureMap, dtype=np.float32) -> np.ndarray:
    """(2**i, h*w) matrix averaging grid locations into their clusters."""
    m = smap.num_clusters
    out = np.zeros((m, smap.labels.size), dtype=dtype)
    out[smap.labels.ravel(), np.arange(smap.labels.size)] = 1.0 / smap.cluster_size
    return out


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross entropy of (m, n) logits against m integer targets."""
    targets = np.asarray(targets)
    lsm = ad.log_softmax(logits)
    picked = lsm[np.arange(targets.size), targets]
    return -picked.mean()


class ContentModel(Generator):
    kind = "content"

    def _make_inputs(self):
        self.w_in = self._init(self.config.latent_channels, self.config.width)
        self.b_in = self._zeros(self.config.width)

    def _make_outputs(self):
        self.w_logit = self._init(self.config.latent_channels, self.config.codebook_size)
        self.b_logit = self._zeros(self.config.codebook_size)

    def forward_final_canvas(self, class_ids, smaps, canvases,
                             rng: np.random.Generator | None = None) -> Tensor:
        """Predict the final canvas for a batch.

        class_ids: (B,) ints (null id allowed); smaps: each row's
        `StructureMap`, whose stage is the row's stage; canvases:
        (B, h, w, e). A given rng turns dropout on (training). Returns a
        (B, h, w, e) tensor.
        """
        canvases = np.asarray(canvases, dtype=self.dtype)
        delta = self._forward(class_ids, smaps, [(canvases, self.w_in, self.b_in)], rng=rng)
        # residual parameterization: the head emits what is still missing from
        # the input canvas, and the sum is the predicted final canvas
        return ad.reshape(delta, canvases.shape) + Tensor(canvases)

    def token_logits(self, pred_final, canvas, smap: StructureMap) -> Tensor:
        """Per-cluster logits over the codebook from one sample's canvases.

        diff = predicted final canvas minus input canvas; cluster means of
        diff go through the shared linear head. Shape (2**i, n).
        """
        pred = pred_final if isinstance(pred_final, Tensor) else Tensor(np.asarray(pred_final, self.dtype))
        canvas = np.asarray(canvas, dtype=self.dtype)
        hw = smap.labels.size
        e = self.config.latent_channels
        diff = ad.reshape(pred - canvas, (hw, e))
        means = ad.matmul(Tensor(cluster_mean_matrix(smap, self.dtype)), diff)
        return ad.matmul(means, self.w_logit) + self.b_logit

    def loss(self, class_ids, smaps, canvases, target_canvases, target_tokens,
             rng: np.random.Generator | None = None) -> Tensor:
        """Mean of Eq-style per-sample losses: canvas MSE + token CE. Row b is
        sample b: class id, stage map, running canvas, full-depth target
        canvas and (2**stage,) codebook indices. A given rng turns dropout on."""
        smaps = list(smaps)
        if not smaps:
            raise InvariantError("empty batch")
        if len(target_tokens) != len(smaps):
            raise InvariantError(f"need one token target per map, got {len(target_tokens)} "
                                 f"for {len(smaps)}")
        canvases = np.asarray(canvases, dtype=self.dtype)
        targets = np.asarray(target_canvases, dtype=self.dtype)

        pred = self.forward_final_canvas(class_ids, smaps, canvases, rng=rng)
        err = pred - targets
        mse = (err * err).mean()
        ce_terms = [cross_entropy_mean(self.token_logits(pred[b], canvases[b], smap), tokens)
                    for b, (smap, tokens) in enumerate(zip(smaps, target_tokens))]
        ce = sum(ce_terms[1:], ce_terms[0])     # term 0 + term 1 + ..., in order
        return mse + ce * (1.0 / len(ce_terms))
