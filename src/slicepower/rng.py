"""Deterministic stream derivation for all Monte Carlo work.

Every random quantity in the package is drawn from a counter-based
Philox generator whose seed sequence is derived from one base seed plus
a tuple of labels (experiment name, drop index, table cell, ...).  Two
runs with the same base seed therefore produce identical results no
matter how the work is chunked or which streams are consumed first.
"""

from __future__ import annotations

import functools
import hashlib
import struct

import numpy as np

__all__ = ["derive_seed_sequence", "substream"]


@functools.lru_cache(maxsize=1024)
def _str_to_int(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


def _label_to_int(label) -> int:
    if isinstance(label, str):
        return _str_to_int(label)
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream labels must be non-negative, got {label}")
        return int(label)
    if isinstance(label, float):
        # stable key for float labels (e.g. dBm grid points incl. -inf): the IEEE bits
        return int.from_bytes(struct.pack("<d", label), "little")
    raise TypeError(f"unsupported stream label type: {type(label)!r}")


def derive_seed_sequence(base_seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence keyed by (base_seed, labels...)."""
    return np.random.SeedSequence((int(base_seed), *map(_label_to_int, labels)))


def substream(base_seed: int, *labels) -> np.random.Generator:
    """Independent Philox generator for the given label path."""
    return np.random.Generator(np.random.Philox(derive_seed_sequence(base_seed, *labels)))
