"""Stage-conditioned transformer that refines the running canvas.

Given the class, the stage and the canvas accumulated so far, the model
predicts the final canvas. The difference between prediction and input
canvas, averaged within each cluster of the stage's structure map, feeds a
linear head that scores every codebook row per cluster.

`ContentModel` is an adapter on `backbone.Generator`, which holds the class
and stage embeddings, the blocks and the output head. The adapter adds the
canvas tokens in and the codebook logits out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Generator, pad_structure_ids
# unused here; bound because perfbench's smoke test reads nvg.<model>.rope_tables
from .backbone import rope_tables  # noqa: F401
from .errors import InvariantError
from .grid import StructureMap

__all__ = ["ContentBatch", "ContentModel", "cross_entropy_mean",
           "cluster_mean_matrix"]


@dataclass(frozen=True, eq=False)
class ContentBatch:
    """One teacher-forced training example at a single stage.

    canvas must be the accumulated reconstruction of stages before `stage`;
    target_canvas is the full-depth reconstruction the model should reach.
    """

    class_id: int
    stage: int
    canvas: np.ndarray          # (h, w, e)
    struct_emb: np.ndarray      # (h, w, K) embedding of the stage's map
    smap: StructureMap
    target_canvas: np.ndarray   # (h, w, e)
    target_tokens: np.ndarray   # (2**stage,) codebook indices


def cluster_mean_matrix(smap: StructureMap, dtype=np.float32) -> np.ndarray:
    """(2**i, h*w) matrix averaging grid locations into their clusters."""
    m = smap.num_clusters
    out = np.zeros((m, smap.labels.size), dtype=dtype)
    out[smap.labels.ravel(), np.arange(smap.labels.size)] = 1.0 / smap.cluster_size
    return out


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross entropy of (m, n) logits against m integer targets."""
    targets = np.asarray(targets)
    lsm = ad.log_softmax(logits, axis=-1)
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

    def forward_final_canvas(self, class_ids, stages, canvases, struct_embs,
                             train: bool = False,
                             rng: np.random.Generator | None = None) -> Tensor:
        """Predict the final canvas for a batch.

        class_ids: (B,) ints (null id allowed); stages: (B,) ints;
        canvases: (B, h, w, e); struct_embs: (B, h, w, K) integer embeddings.
        Returns a (B, h, w, e) tensor.
        """
        class_ids = np.asarray(class_ids)
        stages = np.asarray(stages)
        canvases = np.asarray(canvases, dtype=self.dtype)
        struct_embs = np.asarray(struct_embs)
        b_sz, h, w_grid, e = canvases.shape
        if e != self.config.latent_channels:
            raise InvariantError(f"canvas has {e} channels, model expects "
                                 f"{self.config.latent_channels}")
        if class_ids.max(initial=0) > self.config.null_class_id:
            raise InvariantError("class id out of range")
        hw = h * w_grid
        struct_ids = pad_structure_ids(struct_embs.reshape(b_sz, hw, -1))
        cos, sin = self._rope_tables(struct_ids, w_grid, runs=1)

        cls = ad.rows(self.class_emb, class_ids)                       # (B, w)
        cond = cls + ad.rows(self.stage_emb, stages)
        tok = ad.matmul(Tensor(canvases.reshape(b_sz, hw, e)), self.w_in) + self.b_in
        x = ad.concat([ad.reshape(cls, (b_sz, 1, self.config.width)), tok], axis=1)
        x = self._trunk(x, cos, sin, cond, train, rng)
        # residual parameterization: the head emits what is still missing from
        # the input canvas, and the sum is the predicted final canvas
        delta = ad.matmul(x[:, 1:, :], self.w_head) + self.b_head      # (B, hw, e)
        pred = ad.reshape(delta, (b_sz, h, w_grid, e)) + Tensor(canvases)
        return pred

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

    def loss(self, batch: list, train: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
        """Mean of Eq-style per-sample losses: canvas MSE + token CE."""
        if not batch:
            raise InvariantError("empty batch")
        class_ids = np.array([item.class_id for item in batch])
        stages = np.array([item.stage for item in batch])
        canvases = np.stack([item.canvas for item in batch])
        struct_embs = np.stack([item.struct_emb for item in batch])
        targets = np.stack([item.target_canvas for item in batch]).astype(self.dtype)

        pred = self.forward_final_canvas(class_ids, stages, canvases, struct_embs,
                                         train=train, rng=rng)
        err = pred - targets
        mse = (err * err).mean()
        ce_terms = [cross_entropy_mean(self.token_logits(pred[b], item.canvas, item.smap),
                                       item.target_tokens)
                    for b, item in enumerate(batch)]
        ce = sum(ce_terms[1:], ce_terms[0])     # term 0 + term 1 + ..., in order
        return mse + ce * (1.0 / len(ce_terms))
