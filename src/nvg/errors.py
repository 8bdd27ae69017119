"""Exception types and the allocation cap shared across the package.

The CLI maps these onto exit codes: FormatError -> 2, InvariantError -> 3,
NumericError -> 4.
"""

# Largest array, in bytes, that caller-chosen sizes may ask for: the tokenizer's
# distance matrix, block weights, a training step's attention scores, a synthetic
# dataset. Over it, InvariantError before allocating. Read as
# errors.MAX_ALLOC_BYTES: one cap for all.
MAX_ALLOC_BYTES = 2 << 30


class NvgError(Exception):
    """Base class for all package errors."""


class FormatError(NvgError, ValueError):
    """A file or byte stream does not parse as the expected format."""


class InvariantError(NvgError, ValueError):
    """A domain invariant is violated (imbalanced map, index range, shape)."""


class NumericError(NvgError, ArithmeticError):
    """A numeric failure such as a NaN loss during training."""
