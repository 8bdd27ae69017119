"""Exception types, and the allocation cap with its one check, shared across the package.

The CLI maps these onto exit codes: FormatError -> 2, InvariantError -> 3,
NumericError -> 4.
"""

# Largest array, in bytes, that caller-chosen sizes may ask for: the tokenizer's
# distance matrix, a model's weights (every tensor of its table), a training
# step's attention scores, a synthetic dataset. One cap for all, and
# `check_alloc` is its one check: every size is refused there, before anything
# is allocated.
MAX_ALLOC_BYTES = 2 << 30


class NvgError(Exception):
    """Base class for all package errors."""


class FormatError(NvgError, ValueError):
    """A file or byte stream does not parse as the expected format."""


class InvariantError(NvgError, ValueError):
    """A domain invariant is violated (imbalanced map, index range, shape)."""


class NumericError(NvgError, ArithmeticError):
    """A numeric failure such as a NaN loss during training."""


def check_alloc(need: int, who: str, what: str) -> None:
    """Raise InvariantError when `need` bytes pass MAX_ALLOC_BYTES."""
    if need > MAX_ALLOC_BYTES:
        raise InvariantError(f"{who} needs {need} bytes of {what}, "
                             f"over the {MAX_ALLOC_BYTES}-byte cap")
