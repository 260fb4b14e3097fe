"""Enumeration bounds, overridable via the COVLAB_ENUM_CAP environment variable,
and the one capped product every exhaustive search runs over."""

import itertools
import math
import os
from typing import Iterator, Sequence, Tuple

DEFAULT_ENUM_CAP = 10_000_000


class SearchSpaceTooLarge(Exception):
    def __init__(self, size: int, limit: int) -> None:
        self.size, self.cap = size, limit
        super().__init__(f"enumeration of size {size} exceeds cap {limit}")


def enum_cap() -> int:
    raw = os.environ.get("COVLAB_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"COVLAB_ENUM_CAP must be a positive integer, got {raw!r}")
    return cap


def capped_product(factors: Sequence[Sequence]) -> Iterator[Tuple]:
    """itertools.product(*factors), refused up front with SearchSpaceTooLarge
    when it has more than enum_cap() elements."""
    size = math.prod(len(f) for f in factors)
    limit = enum_cap()
    if size > limit:
        raise SearchSpaceTooLarge(size, limit)
    return itertools.product(*factors)
