"""Granularity-sequence latent tokenizer and staged two-model generator."""

import os as _os

# Honor the thread cap before numpy configures its BLAS thread pools. Only
# effective when this package is imported before numpy (the CLI path).
_threads = _os.environ.get("NVG_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import FormatError, InvariantError, NumericError, NvgError  # noqa: E402
from .grid import (  # noqa: E402
    Codebook,
    ContentTokens,
    LatentGrid,
    StructureMap,
    VGSequence,
    assign,
    canvas_prefixes,
    cluster_average,
)
from .hierarchy import build_hierarchy, reindex_hierarchy  # noqa: E402
from .structcode import embed_structure_map  # noqa: E402

__version__ = "0.1.0"
