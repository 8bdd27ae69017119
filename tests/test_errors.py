"""`errors.check_alloc` is the one check of the allocation cap: every size a
caller picks is compared with `errors.MAX_ALLOC_BYTES` there, and each
refusal reads "<who> needs <N> bytes of <what>, over the <cap>-byte cap"."""

import numpy as np
import pytest

from nvg import errors
from nvg.backbone import ModelConfig
from nvg.content_model import ContentModel
from nvg.errors import InvariantError, check_alloc
from nvg.grid import LatentGrid
from nvg.hierarchy import build_hierarchy
from nvg.synthetic import SyntheticSpec
from nvg.training import TrainConfig, check_training_budget

CONTENT = dict(depth=1, kind="content", latent_channels=3, codebook_size=16,
               num_classes=2, last_stage=4)
MODEL = ModelConfig(**CONTENT)
# float32 bytes of every array of the built model
WEIGHTS = 4 * sum(p.data.size for p in ContentModel(MODEL).params().values())


def test_check_alloc_passes_at_the_cap_and_refuses_one_byte_over(monkeypatch):
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", 100)
    check_alloc(100, "x", "y")
    with pytest.raises(InvariantError) as info:
        check_alloc(101, "a thing", "its parts")
    assert str(info.value) == "a thing needs 101 bytes of its parts, over the 100-byte cap"


@pytest.mark.parametrize("need, refuse", [
    (WEIGHTS, lambda: ModelConfig(**CONTENT)),
    (8 * 16 ** 2, lambda: build_hierarchy(LatentGrid(np.zeros((4, 4, 3), np.float32)))),
    (8 * 4 * 4 * (2 + 2 * 3), lambda: SyntheticSpec(count=2, h=4, w=4, e=3)),
    # batch 8 x 1 head x (1 + 16 tokens)^2 x 1 block of float32 scores
    (4 * 8 * 17 ** 2, lambda: check_training_budget(MODEL, TrainConfig(steps=1, batch_size=8))),
    (4 * WEIGHTS, lambda: check_training_budget(MODEL, TrainConfig(steps=1, batch_size=1))),
], ids=["model-weights", "distance-matrix", "dataset", "attention-scores",
        "training-weights"])
def test_every_cap_refusal_names_its_bytes_and_the_cap(monkeypatch, need, refuse):
    monkeypatch.setattr(errors, "MAX_ALLOC_BYTES", need - 1)
    with pytest.raises(InvariantError, match=f" needs {need} bytes of .+, "
                                             f"over the {need - 1}-byte cap$"):
        refuse()
